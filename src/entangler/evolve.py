"""Genetic search over integer-encoded circuits maximizing entanglement.

A chromosome is a fixed-length array of genes; each gene indexes one placed
gate in a GateSet table, so a chromosome decodes to a circuit of exactly that
length.  Fitness is the summed negativity of the state the decoded circuit
produces from |00...0>.

Reproducibility contract: one master seed drives a single numpy Generator,
and random draws happen in a fixed documented order (see ``evolve``).
Breeding takes each generation's draws as raw PCG64 outputs and consumes
them by numpy's own rules (see ``_RawDraws``), so a run is bit for bit the
one the equivalent Generator calls would give.
Fitness is pure and consumes no randomness, so each generation may be split
into one slice of rows per worker process; the scores are merged back in
population order before any further draw, which keeps runs bit-identical
for any worker count.

Many genomes decode to the same state, so one run scores each distinct state
once: ``evolve`` gives ``fitness`` a fresh state -> score memo per call (and
each pool worker one of its own), and a repeated state reads back the float
its first scoring stored.  The memo dies with the run.
"""
from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .entanglement import _check_scored, _total_negativity
from .qsim import GATE_KINDS, SINGLE_QUBIT_KINDS, Circuit, GateSpec, _apply_gate_inplace, format_circuit

# A chromosome is any sequence of gene integers; arrays, lists and tuples all work.
Chromosome = Sequence[int]

TARGET_SLACK = 1e-9

# Largest population_size * circuit_length a GAConfig accepts, checked before
# anything is allocated: one generation's gene array is then at most 8 MB,
# and its per-child arrays stay within tens of MB.
MAX_POPULATION_GENES = 10**6

# Largest worker count evolve() accepts.  It never starts more processes than
# there are individuals or CPUs, since results do not depend on the count.
MAX_WORKERS = 1024


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


def _check_families(families: Sequence[str]) -> tuple[str, ...]:
    """The families upper-cased, in the order given; refused when a bare
    string, holding a non-string, empty or not all gate kinds."""
    if isinstance(families, str):
        raise TypeError(f"gate families must be an iterable of names, not the string {families!r}")
    families = tuple(families)
    if not all(isinstance(f, str) for f in families):
        raise TypeError(f"gate families must be strings, got {families!r}")
    wanted = tuple(f.upper() for f in families)
    if not wanted:
        raise ValueError("at least one gate family is required")
    unknown = set(wanted).difference(GATE_KINDS)
    if unknown:
        raise ValueError(f"unknown gate families {sorted(unknown)}; expected a subset of {GATE_KINDS}")
    return wanted


def build_gate_set(n: int, families: Sequence[str]) -> GateSet:
    """Deterministic gate table: families in canonical kind order; within a
    single-qubit family qubits ascend; within a two-qubit family ordered
    pairs (i, j) run in lexicographic order.  Takes the qubit range that
    scoring takes, since the circuits it encodes are only ever scored."""
    n = _check_scored(n)
    wanted = _check_families(families)
    ordered = tuple(kind for kind in GATE_KINDS if kind in wanted)
    table: list[GateSpec] = []
    for kind in ordered:
        if kind in SINGLE_QUBIT_KINDS:
            table.extend(GateSpec(kind, (q,)) for q in range(n))
        else:
            table.extend(GateSpec(kind, (i, j)) for i in range(n) for j in range(n) if i != j)
    return GateSet(n, ordered, tuple(table))


def _placed(genes: Chromosome, gate_set: GateSet) -> list[GateSpec]:
    """The table entries the genes index, in gene order; refuses any gene
    outside the table."""
    table = gate_set.table
    size = len(table)
    picked = []
    # A population row becomes Python ints, cheaper to check than numpy scalars.
    for pos, g in enumerate(genes.tolist() if isinstance(genes, np.ndarray) else genes):
        g = operator.index(g)
        if not 0 <= g < size:
            raise ValueError(f"gene {g} at position {pos} outside the table range [0, {size - 1}]")
        picked.append(table[g])
    return picked


def decode(genes: Chromosome, gate_set: GateSet) -> Circuit:
    """Translate genes into the circuit they index; gene 0 acts first."""
    return Circuit(gate_set.n, tuple(_placed(genes, gate_set)))


def encode(circuit: Circuit, gate_set: GateSet) -> list[int]:
    """Inverse of decode for circuits drawn from the same table."""
    index = {gate: i for i, gate in enumerate(gate_set.table)}
    genes = []
    for gate in circuit.gates:
        if gate not in index:
            raise ValueError(f"gate {gate} is not in the {len(gate_set)}-entry table")
        genes.append(index[gate])
    return genes


def fitness(genes: Chromosome, gate_set: GateSet, *, memo: dict[bytes, float] | None = None) -> float:
    """Summed negativity of the decoded circuit's output from |00...0>.

    Pure and deterministic; equals
    total_entanglement(run_circuit(decode(genes), zero_state(n))).total bit
    for bit at any length, since the state is scored under run_circuit's
    norm rule (renormalized past RENORM_TOL, RuntimeError past
    NORM_ERROR_TOL; see _total_negativity).  memo is an optional state ->
    score dict for this gate set's qubit count, shared across calls; it
    returns the same value, only sooner for a state seen before.
    """
    n = gate_set.n
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    # The table's gates are checked for n already; no Circuit is built.
    for gate in _placed(genes, gate_set):
        _apply_gate_inplace(amps, gate, n)
    return _total_negativity(amps, n, memo=memo)


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
        # numpy ints pass and are stored as ints; floats and strings are refused.
        for name in ("n", "circuit_length", "population_size", "max_generations",
                     "tournament_size", "elite_count", "rng_seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        object.__setattr__(self, "families", _check_families(self.families))
        _check_scored(self.n)
        if self.circuit_length < 1:
            raise ValueError(f"circuit length must be positive, got {self.circuit_length}")
        if self.population_size < 2:
            raise ValueError(f"population must have at least 2 individuals, got {self.population_size}")
        if self.population_size * self.circuit_length > MAX_POPULATION_GENES:
            raise ValueError(f"population size times circuit length must be at most {MAX_POPULATION_GENES}, "
                             f"got {self.population_size} * {self.circuit_length}")
        if not 1 <= self.elite_count < self.population_size:
            raise ValueError(f"elite count must be in [1, population), got {self.elite_count}")
        if not 1 <= self.tournament_size <= self.population_size:
            raise ValueError(f"tournament size must be in [1, population], got {self.tournament_size}")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError(f"crossover rate must be in [0, 1], got {self.crossover_rate}")
        rate = self.mutation_rate
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"mutation rate must be in [0, 1], got {rate}")
        if self.max_generations < 0:
            raise ValueError(f"generation budget must be nonnegative, got {self.max_generations}")
        if self.rng_seed < 0:
            raise ValueError(f"RNG seed must be nonnegative, got {self.rng_seed}")
        if self.target_fitness is not None and not math.isfinite(self.target_fitness):
            raise ValueError(f"target fitness must be finite, got {self.target_fitness}")

    @property
    def mutation_rate(self) -> float:
        if self.per_gene_mutation_rate is None:
            return 1.0 / self.circuit_length
        return self.per_gene_mutation_rate

    def to_dict(self) -> dict:
        """Every field in field order, the mutation rate resolved."""
        return {**asdict(self), "families": list(self.families), "per_gene_mutation_rate": self.mutation_rate}


@dataclass(frozen=True)
class EvolutionResult:
    best_genes: tuple[int, ...]
    best_circuit: Circuit
    best_fitness: float
    best_history: tuple[float, ...]
    mean_history: tuple[float, ...]
    evaluations: int
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
        }


def _pool_size(workers: int, population_size: int) -> int:
    """Processes to start: none for a serial run, else at least one and at
    most the individuals or CPUs there are.  The one place that reads the
    count, an int (numpy ints pass, floats and strings are refused) from 0
    to MAX_WORKERS; evolve() asks it before any process starts."""
    workers = operator.index(workers)
    if workers < 0:
        raise ValueError(f"worker count must be at least 0, got {workers}")
    if workers > MAX_WORKERS:
        raise ValueError(f"worker count must be at most {MAX_WORKERS}, got {workers}")
    if workers <= 1:
        return 0
    return min(workers, population_size, os.cpu_count() or 1)


# Each pool worker's gate set and score memo, set by _pool_init; the pool,
# and so the memo, lives for one evolve() call.
_POOL_GATE_SET: GateSet | None = None
_POOL_MEMO: dict[bytes, float] | None = None


def _pool_init(n: int, families: tuple[str, ...]) -> None:
    global _POOL_GATE_SET, _POOL_MEMO
    _POOL_GATE_SET = build_gate_set(n, families)
    _POOL_MEMO = {}


def _fitnesses(rows: np.ndarray, gate_set: GateSet, memo: dict[bytes, float]) -> np.ndarray:
    return np.array([fitness(row, gate_set, memo=memo) for row in rows])


def _pool_evaluate(rows: np.ndarray) -> np.ndarray:
    return _fitnesses(rows, _POOL_GATE_SET, _POOL_MEMO)


def _evaluate(population: np.ndarray, gate_set: GateSet, memo: dict[bytes, float],
              pool: ProcessPoolExecutor | None, workers: int) -> np.ndarray:
    """Fitness per row, in population order; each pool worker scores one slice."""
    if pool is None:
        return _fitnesses(population, gate_set, memo)
    return np.concatenate(list(pool.map(_pool_evaluate, np.array_split(population, workers))))


def _tournament_winner(candidates: list[int], fits: list[float]) -> int:
    """The fittest of the drawn candidates; exact ties go to the lower index."""
    winner = candidates[0]
    for c in candidates[1:]:
        if fits[c] > fits[winner] or (fits[c] == fits[winner] and c < winner):
            winner = c
    return winner


# Most PCG64 outputs _breed draws at once, bar a child's L mutation coins.
# A generation that needs more (large tournaments, Lemire rejections) draws
# another chunk, so no population_size * tournament_size sizes an allocation.
_RAW_CHUNK = 4096


class _RawDraws:
    """A PCG64 Generator's randomness taken as raw 64-bit outputs, in plain
    Python ints, the way its random() and integers() calls would take it.

    numpy's rules, mirrored here:
    - a double is (x >> 11) * 2^-53 of a fresh output x, so it is below a
      rate exactly when x is below ceil(rate * 2^53) << 11;
    - a bounded integer below 2^32 is Lemire's multiply-shift on
      next_uint32, with its rejection loop; a one-value range draws nothing;
    - next_uint32 hands out an output's low half and keeps the high half in
      the state's has_uint32/uinteger buffer for the next 32-bit draw, while
      a double leaves that buffer alone.
    Outputs come from random_raw in chunks (see _RAW_CHUNK).  close() rewinds
    the generator past the outputs drawn but not read and sets the buffer, so
    it stands where those calls would leave it.  A bounded draw costs about
    0.23 us of Python: above a tournament size of about 30 (no workload uses
    over 2), a generation breeds slower than sized Generator calls would.
    """

    def __init__(self, rng: np.random.Generator, expected: int):
        self._bits = rng.bit_generator
        state = self._bits.state
        self._has_half, self._half = bool(state["has_uint32"]), state["uinteger"]
        self._chunk = max(1, min(expected, _RAW_CHUNK))
        self._block: list[int] = []
        self._pos = 0

    def _refill(self, count: int) -> None:
        """Keep the unread outputs and append at least count fresh ones."""
        self._block = self._block[self._pos:] + self._bits.random_raw(max(count, self._chunk)).tolist()
        self._pos = 0

    def raw(self, count: int) -> list[int]:
        """The next count outputs."""
        if self._pos + count > len(self._block):
            self._refill(count)
        self._pos += count
        return self._block[self._pos - count:self._pos]

    def integers(self, bound: int, count: int) -> list[int]:
        """integers(0, bound, size=count) for 1 <= bound <= 2^32."""
        if bound == 1:
            return [0] * count
        threshold = (1 << 32) % bound
        has_half, half = self._has_half, self._half
        out = []
        while len(out) < count:
            if has_half:
                has_half, m = False, half * bound
            else:
                # One output, taken without a slice: breeding's innermost loop.
                if self._pos == len(self._block):
                    self._refill(1)
                x = self._block[self._pos]
                self._pos += 1
                has_half, half, m = True, x >> 32, (x & 0xFFFFFFFF) * bound
            if m & 0xFFFFFFFF >= threshold:
                out.append(m >> 32)
        self._has_half, self._half = has_half, half
        return out

    def close(self) -> None:
        # PCG64 wraps a negative advance modulo 2^128; advance clears the buffer.
        self._bits.advance(self._pos - len(self._block))
        state = self._bits.state
        state["has_uint32"], state["uinteger"] = int(self._has_half), self._half
        self._bits.state = state


def _breed(population: np.ndarray, fits: np.ndarray, config: GAConfig,
           table_size: int, rng: np.random.Generator) -> np.ndarray:
    """One generation.  Draw order per child: two tournaments of k bounded
    draws each, one crossover coin (plus a point when it lands), then L
    mutation coins and one replacement gene per hit.

    These are the draws, in the order, of one integers(0, P, size=2k) call,
    a random() coin, an integers(1, L) point (which draws nothing at L = 2),
    a random(L) mask and an integers(0, table_size, size=hits) call.  They
    are taken as raw outputs through _RawDraws, which needs the
    PCG64-backed Generator that evolve always builds and a table_size of at
    most 2^32.  _RawDraws mirrors numpy's double and Lemire rules; the
    equality tests against tests/oracles.py's reference_breed, which makes
    those Generator calls, fail rather than let results drift if numpy ever
    changes them.
    """
    length = config.circuit_length
    k = config.tournament_size
    elites = config.elite_count
    rate = config.mutation_rate
    rows = population.tolist()
    # A stable sort keeps the lower index first among exact ties.
    children = [rows[i] for i in np.argsort(-fits, kind="stable")[:elites].tolist()]
    # Tournaments compare Python floats: the same values, without a numpy
    # scalar per comparison.
    fit_list = fits.tolist()
    size = len(fit_list)
    # A coin x lands below a rate when x is below its cut (_RawDraws).
    cross_cut = math.ceil(config.crossover_rate * 2.0**53) << 11
    mutate_cut = math.ceil(rate * 2.0**53) << 11
    # Per child: k outputs for 2k tournament halves, a coin, at most one
    # more for the point, L coins and about L * rate / 2 for the genes.
    draws = _RawDraws(rng, math.ceil((size - elites) * (k + 2 + length * (1 + rate / 2))))
    for _ in range(elites, size):
        drawn = draws.integers(size, 2 * k)
        first = rows[_tournament_winner(drawn[:k], fit_list)]
        if length >= 2 and draws.raw(1)[0] < cross_cut:
            point = 1 + draws.integers(length - 1, 1)[0]
            child = first[:point] + rows[_tournament_winner(drawn[k:], fit_list)][point:]
        else:
            child = first[:]
        hits = [locus for locus, x in enumerate(draws.raw(length)) if x < mutate_cut]
        for locus, gene in zip(hits, draws.integers(table_size, len(hits))):
            child[locus] = gene
        children.append(child)
    draws.close()
    return np.array(children, dtype=population.dtype)


def evolve(config: GAConfig, workers: int = 1) -> EvolutionResult:
    """Run the generational loop and return the best individual found.

    Random draws happen in this order and no other: (1) the initial
    population, row by row as one block; (2) per bred child, the draws listed
    in ``_breed``.  Elites are copied before any draw for the generation.
    Every generation, the random initial one included, runs one loop body:
    evaluate, record the histories, then stop or breed.  The loop stops once
    the best fitness reaches target_fitness (within 1e-9) or after
    max_generations breeding rounds; the best individual is then the top of
    the last population.  workers > 1 starts a pool of at most
    min(workers, population_size, CPU count) processes, each scoring one
    slice of every generation; more than MAX_WORKERS is refused first.
    """
    processes = _pool_size(workers, config.population_size)
    gate_set = build_gate_set(config.n, config.families)
    rng = np.random.default_rng(config.rng_seed)
    memo: dict[bytes, float] = {}
    pool = None
    try:
        if processes:
            pool = ProcessPoolExecutor(
                max_workers=processes, initializer=_pool_init,
                initargs=(config.n, config.families))
        population = rng.integers(0, len(gate_set), size=(config.population_size, config.circuit_length))
        best_history, mean_history = [], []
        while True:
            fits = _evaluate(population, gate_set, memo, pool, processes)
            best_history.append(float(fits.max()))
            mean_history.append(float(fits.mean()))
            if len(best_history) > config.max_generations or _reached(best_history[-1], config.target_fitness):
                break
            population = _breed(population, fits, config, len(gate_set), rng)
    finally:
        if pool is not None:
            pool.shutdown()
    # GAConfig keeps at least one elite, and _breed copies the best (lowest
    # index among ties) to row 0 unchanged, so row 0 holds the best so far and
    # np.argmax of the last population is the first individual to score it.
    best_genes = population[int(np.argmax(fits))]
    return EvolutionResult(
        best_genes=tuple(int(g) for g in best_genes),
        best_circuit=decode(best_genes, gate_set),
        best_fitness=best_history[-1],
        best_history=tuple(best_history),
        mean_history=tuple(mean_history),
        evaluations=config.population_size * len(best_history),
        config=config,
    )


def sweep_seed(base_seed: int, length: int) -> int:
    """Deterministic per-length sub-seed for length sweeps."""
    return int(np.random.SeedSequence([base_seed, length]).generate_state(1)[0])


def length_sweep(config: GAConfig, lengths: Sequence[int], workers: int = 1) -> list[tuple[int, float]]:
    """Best fitness per circuit length, each length with its own sub-seed.
    Every sub-config is built, and so checked, before the first GA runs; a
    repeated length is refused after that, since it would rerun one GA."""
    configs = [replace(config, circuit_length=length) for length in lengths]
    if not configs:  # a numpy array of lengths has no truth value
        raise ValueError("need at least one length to sweep")
    configs = [replace(sub, rng_seed=sweep_seed(config.rng_seed, sub.circuit_length)) for sub in configs]
    if len({sub.circuit_length for sub in configs}) < len(configs):
        raise ValueError(f"each length may be swept once, got {[sub.circuit_length for sub in configs]}")
    return [(sub.circuit_length, evolve(sub, workers=workers).best_fitness) for sub in configs]
