"""Genetic search over integer-encoded circuits maximizing entanglement.

A chromosome is a fixed-length array of genes; each gene indexes one placed
gate in a GateSet table, so a chromosome decodes to a circuit of exactly that
length.  Fitness is the summed negativity of the state the decoded circuit
produces from |00...0>.

Reproducibility contract: one master seed drives a single numpy Generator,
and random draws happen in a fixed documented order (see ``evolve``).
Fitness is pure and consumes no randomness, so evaluations may be farmed out
to worker processes; results are merged back in population order before any
further draw, which keeps runs bit-identical for any worker count.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .entanglement import MAX_SCORED_QUBITS, _check_scored, _total_negativity
from .qsim import GATE_KINDS, SINGLE_QUBIT_KINDS, Circuit, GateSpec, _apply_gate_inplace, format_circuit

# A chromosome is any sequence of gene integers; arrays, lists and tuples all work.
Chromosome = Sequence[int]

TARGET_SLACK = 1e-9

# Largest population_size * circuit_length a GAConfig accepts, checked before
# anything is allocated: one generation's gene array is then at most 8 MB,
# and its per-child arrays stay within tens of MB.
MAX_POPULATION_GENES = 10**6


def _reached(best: float, target: float | None) -> bool:
    """True once best is within TARGET_SLACK of a target; never without one."""
    return target is not None and best >= target - TARGET_SLACK


@dataclass(frozen=True)
class GateSet:
    """Indexed table of every placement of the chosen gate families on n qubits."""

    n: int
    families: tuple[str, ...]
    table: tuple[GateSpec, ...]

    def __len__(self) -> int:
        return len(self.table)


def build_gate_set(n: int, families: Sequence[str]) -> GateSet:
    """Deterministic gate table: families in canonical kind order; within a
    single-qubit family qubits ascend; within a two-qubit family ordered
    pairs (i, j) run in lexicographic order.  Capped like scoring, since the
    circuits it encodes are only ever scored."""
    if n < 2:
        raise ValueError(f"gate sets need at least 2 qubits, got n={n}")
    _check_scored(n)
    wanted = {f.upper() for f in families}
    if not wanted:
        raise ValueError("at least one gate family is required")
    unknown = wanted.difference(GATE_KINDS)
    if unknown:
        raise ValueError(f"unknown gate families {sorted(unknown)}; expected a subset of {GATE_KINDS}")
    ordered = tuple(kind for kind in GATE_KINDS if kind in wanted)
    table: list[GateSpec] = []
    for kind in ordered:
        if kind in SINGLE_QUBIT_KINDS:
            table.extend(GateSpec(kind, (q,)) for q in range(n))
        else:
            table.extend(GateSpec(kind, (i, j)) for i in range(n) for j in range(n) if i != j)
    return GateSet(n, ordered, tuple(table))


def decode(genes: Chromosome, gate_set: GateSet) -> Circuit:
    """Translate genes into the circuit they index; gene 0 acts first."""
    size = len(gate_set)
    picked = []
    for pos, g in enumerate(genes):
        g = int(g)
        if not 0 <= g < size:
            raise ValueError(f"gene {g} at position {pos} outside the table range [0, {size - 1}]")
        picked.append(gate_set.table[g])
    return Circuit(gate_set.n, tuple(picked))


def encode(circuit: Circuit, gate_set: GateSet) -> list[int]:
    """Inverse of decode for circuits drawn from the same table."""
    index = {gate: i for i, gate in enumerate(gate_set.table)}
    genes = []
    for gate in circuit.gates:
        if gate not in index:
            raise ValueError(f"gate {gate} is not in the {len(gate_set)}-entry table")
        genes.append(index[gate])
    return genes


def fitness(genes: Chromosome, gate_set: GateSet) -> float:
    """Summed negativity of the decoded circuit's output from |00...0>.

    Pure and deterministic; equals
    total_entanglement(run_circuit(decode(genes), zero_state(n))).total.
    """
    circuit = decode(genes, gate_set)
    amps = np.zeros(1 << gate_set.n, dtype=complex)
    amps[0] = 1.0
    for gate in circuit.gates:
        _apply_gate_inplace(amps, gate, gate_set.n)
    return _total_negativity(amps, gate_set.n)


@dataclass(frozen=True)
class GAConfig:
    n: int
    circuit_length: int
    families: tuple[str, ...] = ("H", "CNOT")
    population_size: int = 100
    max_generations: int = 500
    crossover_rate: float = 0.9
    per_gene_mutation_rate: float | None = None  # None means 1 / circuit_length
    tournament_size: int = 2
    elite_count: int = 1
    target_fitness: float | None = None
    rng_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "families", tuple(f.upper() for f in self.families))
        if not 2 <= self.n <= MAX_SCORED_QUBITS:
            raise ValueError(f"need between 2 and {MAX_SCORED_QUBITS} qubits, got n={self.n}")
        if self.circuit_length < 1:
            raise ValueError(f"circuit length must be positive, got {self.circuit_length}")
        if self.population_size < 2:
            raise ValueError(f"population must have at least 2 individuals, got {self.population_size}")
        if self.population_size * self.circuit_length > MAX_POPULATION_GENES:
            raise ValueError(f"population size times circuit length must be at most {MAX_POPULATION_GENES}, "
                             f"got {self.population_size} * {self.circuit_length}")
        if not 1 <= self.elite_count < self.population_size:
            raise ValueError(f"elite count must be in [1, population), got {self.elite_count}")
        if self.tournament_size < 1:
            raise ValueError(f"tournament size must be positive, got {self.tournament_size}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError(f"crossover rate must be in [0, 1], got {self.crossover_rate}")
        rate = self.mutation_rate
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"mutation rate must be in [0, 1], got {rate}")
        if self.max_generations < 0:
            raise ValueError(f"generation budget must be nonnegative, got {self.max_generations}")

    @property
    def mutation_rate(self) -> float:
        if self.per_gene_mutation_rate is None:
            return 1.0 / self.circuit_length
        return self.per_gene_mutation_rate

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "circuit_length": self.circuit_length,
            "families": list(self.families),
            "population_size": self.population_size,
            "max_generations": self.max_generations,
            "crossover_rate": self.crossover_rate,
            "per_gene_mutation_rate": self.mutation_rate,
            "tournament_size": self.tournament_size,
            "elite_count": self.elite_count,
            "target_fitness": self.target_fitness,
            "rng_seed": self.rng_seed,
        }


@dataclass(frozen=True)
class EvolutionResult:
    best_genes: tuple[int, ...]
    best_circuit: Circuit
    best_fitness: float
    best_history: tuple[float, ...]
    mean_history: tuple[float, ...]
    evaluations: int
    rng_seed: int
    config: GAConfig

    @property
    def generations(self) -> int:
        """Generations bred after the random initial population."""
        return len(self.best_history) - 1

    def reached(self, target: float) -> bool:
        return _reached(self.best_fitness, target)

    def to_dict(self) -> dict:
        return {
            "best_genes": list(self.best_genes),
            "best_circuit": format_circuit(self.best_circuit),
            "best_fitness": self.best_fitness,
            "best_history": list(self.best_history),
            "mean_history": list(self.mean_history),
            "evaluations": self.evaluations,
            "generations": self.generations,
            "rng_seed": self.rng_seed,
            "config": self.config.to_dict(),
        }


_POOL_GATE_SET: GateSet | None = None


def _pool_init(n: int, families: tuple[str, ...]) -> None:
    global _POOL_GATE_SET
    _POOL_GATE_SET = build_gate_set(n, families)


def _pool_fitness(genes: list[int]) -> float:
    return fitness(genes, _POOL_GATE_SET)


def _evaluate(population: np.ndarray, gate_set: GateSet,
              pool: ProcessPoolExecutor | None, workers: int) -> np.ndarray:
    if pool is None:
        return np.array([fitness(row, gate_set) for row in population])
    chunk = max(1, len(population) // (4 * workers))
    rows = [row.tolist() for row in population]
    return np.array(list(pool.map(_pool_fitness, rows, chunksize=chunk)))


def _ranked(fits: np.ndarray) -> np.ndarray:
    """Population indices from best to worst; exact ties go to the lower index."""
    return np.lexsort((np.arange(len(fits)), -fits))


def _tournament_pick(fits: np.ndarray, rng: np.random.Generator, size: int) -> int:
    candidates = rng.integers(0, len(fits), size=size)
    winner = int(candidates[0])
    for c in candidates[1:]:
        c = int(c)
        if fits[c] > fits[winner] or (fits[c] == fits[winner] and c < winner):
            winner = c
    return winner


def _breed(population: np.ndarray, fits: np.ndarray, config: GAConfig,
           table_size: int, rng: np.random.Generator) -> np.ndarray:
    """One generation.  Draw order per child: two tournaments, one crossover
    coin (plus a point when it lands), then the mutation mask and the
    replacement genes."""
    length = config.circuit_length
    children = [population[i].copy() for i in _ranked(fits)[: config.elite_count]]
    while len(children) < config.population_size:
        first = population[_tournament_pick(fits, rng, config.tournament_size)]
        second = population[_tournament_pick(fits, rng, config.tournament_size)]
        if length >= 2 and rng.random() < config.crossover_rate:
            point = int(rng.integers(1, length))
            child = np.concatenate([first[:point], second[point:]])
        else:
            child = first.copy()
        mask = rng.random(length) < config.mutation_rate
        hits = int(mask.sum())
        if hits:
            child[mask] = rng.integers(0, table_size, size=hits)
        children.append(child)
    return np.array(children)


def evolve(config: GAConfig, workers: int = 1) -> EvolutionResult:
    """Run the generational loop and return the best individual found.

    Random draws happen in this order and no other: (1) the initial
    population, row by row as one block; (2) per bred child, the draws listed
    in ``_breed``.  Elites are copied before any draw for the generation.
    The loop stops once the best fitness reaches target_fitness (within
    1e-9) or after max_generations breeding rounds.
    """
    gate_set = build_gate_set(config.n, config.families)
    rng = np.random.default_rng(config.rng_seed)
    pool = None
    try:
        if workers > 1:
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=_pool_init,
                initargs=(config.n, config.families))
        population = rng.integers(0, len(gate_set), size=(config.population_size, config.circuit_length))
        fits = _evaluate(population, gate_set, pool, workers)
        evaluations = len(population)
        best_history = [float(fits.max())]
        mean_history = [float(fits.mean())]
        best_index = int(_ranked(fits)[0])
        best_genes = population[best_index].copy()
        best_fitness = float(fits[best_index])

        for _ in range(config.max_generations):
            if _reached(best_fitness, config.target_fitness):
                break
            population = _breed(population, fits, config, len(gate_set), rng)
            fits = _evaluate(population, gate_set, pool, workers)
            evaluations += len(population)
            top = int(_ranked(fits)[0])
            if fits[top] > best_fitness:
                best_fitness = float(fits[top])
                best_genes = population[top].copy()
            best_history.append(float(fits.max()))
            mean_history.append(float(fits.mean()))
    finally:
        if pool is not None:
            pool.shutdown()
    return EvolutionResult(
        best_genes=tuple(int(g) for g in best_genes),
        best_circuit=decode(best_genes, gate_set),
        best_fitness=best_fitness,
        best_history=tuple(best_history),
        mean_history=tuple(mean_history),
        evaluations=evaluations,
        rng_seed=config.rng_seed,
        config=config,
    )


def sweep_seed(base_seed: int, length: int) -> int:
    """Deterministic per-length sub-seed for length sweeps."""
    return int(np.random.SeedSequence([base_seed, length]).generate_state(1)[0])


def length_sweep(config: GAConfig, lengths: Sequence[int], workers: int = 1) -> list[tuple[int, float]]:
    """Best fitness per circuit length, each length evolved with its own sub-seed."""
    if not lengths:
        raise ValueError("need at least one length to sweep")
    results = []
    for length in lengths:
        sub = replace(config, circuit_length=int(length), rng_seed=sweep_seed(config.rng_seed, int(length)))
        results.append((int(length), evolve(sub, workers=workers).best_fitness))
    return results
