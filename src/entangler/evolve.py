"""Genetic search over integer-encoded circuits maximizing entanglement.

A chromosome is a fixed-length array of genes; each gene indexes one placed
gate in a GateSet table, so a chromosome decodes to a circuit of exactly that
length.  Fitness is the summed negativity of the state the decoded circuit
produces from |00...0>.

Reproducibility contract: one master seed drives a single numpy Generator,
and random draws happen in a fixed documented order (see ``evolve``).
Breeding reads each generation's draws, in that order, from blocks of raw
PCG64 outputs by numpy's own rules (see ``_breed``): one pass over the
children places each draw, at the 32-bit half a bounded draw reads or the
output a coin reads, and array operations then make the children.  A child
whose draws Lemire's rule would redraw, or that needs more than a block, is
bred by those Generator calls themselves (``_numpy_child``).  A run is
therefore bit for bit the one the equivalent Generator calls would give.
Fitness is pure and consumes no randomness, so each generation may be split
into one slice of rows per worker process (see ``_Workers``); the scores are
merged back in population order before any further draw, which keeps runs
bit-identical for any worker count.

Many genomes decode to the same state, so one run scores each distinct state
once: ``evolve`` gives ``fitness`` a fresh state -> score memo per call (and
each worker process one of its own), and a repeated state reads back the float
its first scoring stored.  The memo dies with the run.
"""
from __future__ import annotations

import math
import operator
import os
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .entanglement import _check_scored, _total_negativity
from .qsim import GATE_KINDS, SINGLE_QUBIT_KINDS, Circuit, GateSpec, _apply_gate_inplace, _zero_amplitudes, format_circuit

# A chromosome is any sequence of gene integers; arrays, lists and tuples all work.
Chromosome = Sequence[int]

TARGET_SLACK = 1e-9

# Largest population_size * circuit_length a GAConfig accepts, checked before
# anything is allocated: one generation's gene array is then at most 8 MB,
# and its per-child arrays stay within tens of MB.
MAX_POPULATION_GENES = 10**6

# Largest worker count evolve() accepts.  It never starts more processes than
# there are individuals or usable CPUs, since results do not depend on the count.
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
    """Inverse of decode for circuits drawn from the same table: refuses a
    circuit on another qubit count, or a gate the table does not hold."""
    if circuit.n != gate_set.n:
        raise ValueError(f"circuit on {circuit.n} qubits, gate table on {gate_set.n}")
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
    amps = _zero_amplitudes(n).copy()
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
    most the individuals or usable CPUs there are (this process's affinity
    mask where the platform has one).  The one place that reads the count,
    an int (numpy ints pass, floats and strings are refused) from 0 to
    MAX_WORKERS; evolve() asks it before any process starts."""
    workers = operator.index(workers)
    if workers < 0:
        raise ValueError(f"worker count must be at least 0, got {workers}")
    if workers > MAX_WORKERS:
        raise ValueError(f"worker count must be at most {MAX_WORKERS}, got {workers}")
    if workers <= 1:
        return 0
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(workers, population_size, cpus)


def _fitnesses(rows: np.ndarray, gate_set: GateSet, memo: dict[bytes, float]) -> np.ndarray:
    # Rows as lists of Python ints, converted once per slice, not per gene.
    return np.array([fitness(row, gate_set, memo=memo) for row in rows.tolist()])


def _serve(conn, gate_set: GateSet) -> None:
    """A fitness worker's loop: score each slice of rows received, with a
    memo of its own, and send back the scores or the exception scoring
    raised.  Returns on None, on EOF, or once the parent process is gone."""
    from multiprocessing import parent_process
    from multiprocessing.connection import wait

    parent = parent_process().sentinel
    memo: dict[bytes, float] = {}
    try:
        while conn in wait([conn, parent]) and (rows := conn.recv()) is not None:
            try:
                reply = _fitnesses(rows, gate_set, memo)
            except Exception as exc:
                reply = exc
            conn.send(reply)
    except (EOFError, OSError):
        pass


class _Workers:
    """Fitness worker processes for one evolve() run, each started once from
    the default multiprocessing context and spoken to over its own pipe."""

    def __init__(self, count: int, gate_set: GateSet):
        import multiprocessing

        self._workers: list = []  # (process, the parent's end of its pipe)
        try:
            for _ in range(count):
                conn, child_end = multiprocessing.Pipe()
                proc = multiprocessing.Process(target=_serve, args=(child_end, gate_set))
                try:
                    proc.start()
                finally:
                    # The worker's end is then its alone: EOF here once it exits.
                    child_end.close()
                self._workers.append((proc, conn))
        except BaseException:
            self.close()
            raise

    def __len__(self) -> int:
        return len(self._workers)

    def map(self, slices: list[np.ndarray]) -> list[np.ndarray]:
        """Worker i's scores of slices[i], in worker order: one send and one
        receive each.  An exception scoring raised is raised here; a worker
        that died raises RuntimeError naming its exit code."""
        for (proc, conn), rows in zip(self._workers, slices):
            _while_alive(proc, conn.send, rows)
        replies = [_while_alive(proc, conn.recv) for proc, conn in self._workers]
        for reply in replies:
            if isinstance(reply, BaseException):
                raise reply
        return replies

    def close(self) -> None:
        """Tell every worker to stop and wait until each has exited."""
        for _, conn in self._workers:
            try:
                conn.send(None)
            except OSError:
                pass  # that worker has exited already
            conn.close()
        for proc, _ in self._workers:
            proc.join()


def _while_alive(proc, call, *args):
    """call(*args) on proc's pipe; RuntimeError naming proc's exit code once
    the pipe shows that proc has exited."""
    try:
        return call(*args)
    except (EOFError, OSError):
        proc.join()
        raise RuntimeError(f"fitness worker {proc.pid} exited with code {proc.exitcode}") from None


def _evaluate(population: np.ndarray, gate_set: GateSet, memo: dict[bytes, float],
              workers: _Workers | None) -> np.ndarray:
    """Fitness per row, in population order; each worker scores one slice."""
    if workers is None:
        return _fitnesses(population, gate_set, memo)
    return np.concatenate(workers.map(np.array_split(population, len(workers))))


# Most PCG64 outputs _breed draws as one block.  A generation that needs more
# draws further blocks, so no population_size * tournament_size sizes an
# allocation; a child that needs more than one block is bred by _numpy_child.
_RAW_CHUNK = 4096


def _numpy_child(population: np.ndarray, order: np.ndarray, rank: np.ndarray, config: GAConfig,
                 table_size: int, rng: np.random.Generator) -> np.ndarray:
    """One child bred by the Generator calls _breed documents, each
    tournament's candidates drawn at most _RAW_CHUNK at a time."""
    k, length, size = config.tournament_size, config.circuit_length, len(rank)
    first, second = [order[min(int(rank[rng.integers(0, size, min(_RAW_CHUNK, k - at))].min())
                               for at in range(0, k, _RAW_CHUNK))] for _ in range(2)]
    child = population[first].copy()
    if length >= 2 and rng.random() < config.crossover_rate:
        point = int(rng.integers(1, length))
        child[point:] = population[second, point:]
    mask = rng.random(length) < config.mutation_rate
    child[mask] = rng.integers(0, table_size, int(mask.sum()))
    return child


def _breed(population: np.ndarray, fits: np.ndarray, config: GAConfig,
           table_size: int, rng: np.random.Generator) -> np.ndarray:
    """One generation.  Draw order per child: two tournaments of k bounded
    draws each, one crossover coin (plus a point when it lands), then L
    mutation coins and one replacement gene per hit.

    These are the draws, in the order, of one integers(0, P, size=2k) call,
    a random() coin, an integers(1, L) point (which draws nothing at L = 2),
    a random(L) mask and an integers(0, table_size, size=hits) call.  Most
    children read them from blocks of raw outputs by numpy's rules, for the
    PCG64-backed Generator that evolve always builds and a table_size of at
    most 2^32.  A coin lands below a rate when x >> 11 of a fresh output x
    is below ceil(rate * 2^53).  A bounded draw reads a 32-bit half x, the
    buffered one (has_uint32/uinteger) or else a fresh output's low half,
    buffering the high half, and is (x * bound) >> 32, unless Lemire's rule
    rejects x and draws again: the low 32 bits of x * bound below 2^32 mod
    bound.  A block is read only up to the first output with a half that
    one of the three bounds rejects.  One pass places each child's draws
    there; array operations then give the values, the tournament winners
    (the candidate ranked first by a stable sort of -fits: the fittest, and
    the lower index among exact ties) and the children.  The generator is
    then rewound to the first output not read, its buffer set.  When a block
    places no child (a rejected half, or a child longer than the block),
    _numpy_child breeds the next one by those calls themselves.  The
    equality tests against tests/oracles.py's reference_breed, which makes
    the calls, fail rather than let results drift if numpy changes a rule.
    """
    length = config.circuit_length
    k = config.tournament_size
    elites = config.elite_count
    rate = config.mutation_rate
    size = len(fits)
    order = np.argsort(-fits, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(size)
    children = np.empty_like(population)
    children[:elites] = population[order[:elites]]
    # Tournament candidates, crossover points less one and replacement genes.
    # A bound of 1 reads a half nowhere and gives 0 from any.
    bounds = np.array([size, max(length - 1, 1), table_size], dtype=np.uint64)
    coin_cuts = math.ceil(config.crossover_rate * 2.0**53), math.ceil(rate * 2.0**53)
    pair = 2 * k
    # Per child: k outputs for 2k tournament halves, a coin, at most one more
    # for the point, L coins and about L * rate / 2 for the genes.
    per_child = k + 2 + length * (1 + rate / 2)
    loci = np.arange(length)
    bits = rng.bit_generator
    done = elites
    while done < size:
        state = bits.state
        has = state["has_uint32"]
        raw = bits.random_raw(min(_RAW_CHUNK, math.ceil(1.1 * (size - done) * per_child) + 16))
        outputs = len(raw)
        # Half h is the buffered half at h = 0, else output (h - 1) // 2's
        # low half (h odd) or high half (h even).
        halves = np.empty(2 * outputs + 1, dtype=np.uint64)
        halves[0] = state["uinteger"]
        halves[1:] = raw.astype("<u8", copy=False).view("<u4")
        end = len(halves)  # every bound accepts the halves before end
        for bound in bounds.tolist():
            if (1 << 32) % bound:
                rejected = np.flatnonzero(((halves[1 - has:end] * bound) & 0xFFFFFFFF) < (1 << 32) % bound)
                if len(rejected):
                    end = int(rejected[0]) + 1 - has
        usable = max(end - 1, 0) >> 1
        coins = raw >> np.uint64(11)
        crosses = (coins < coin_cuts[0]).tobytes()
        mutated = coins < coin_cuts[1]
        mutations = mutated.tobytes()
        # The cursor: the next fresh output, whether a half is buffered, and
        # the last half buffered (uinteger keeps it once it is read).  Per
        # child: a run (key, lead, count) of halves for each bound, then the
        # output of its first mutation coin.  A run reads the buffered half
        # first when there is one, then fresh halves from key on.  The three
        # runs are written out, not called: this loop is breeding's hot path.
        pos, buf = 0, 0
        placed = []
        for _ in range(size - done):
            p, h, b = pos, has, buf
            t_lead, t_key, fresh = b if h else -1, 2 * p + 1, pair - h
            p += (fresh + 1) >> 1
            b, h = 2 * p, fresh & 1
            crossed, p_key, p_lead = 0, 1, -1
            if length >= 2:
                if p >= usable:
                    break
                crossed = crosses[p]
                p += 1
                if crossed and length > 2:
                    p_lead, p_key, fresh = b if h else -1, 2 * p + 1, 1 - h
                    if fresh > 0:
                        p += 1
                        b = 2 * p
                    h = fresh & 1
            if p + length > usable:
                break
            hits = mutations.count(1, p, p + length)
            mutate_at = p
            p += length
            g_key, g_lead = 1, -1
            if hits and table_size > 1:
                g_lead, g_key, fresh = b if h else -1, 2 * p + 1, hits - h
                if fresh > 0:
                    p += (fresh + 1) >> 1
                    b = 2 * p
                h = fresh & 1
                if p > usable:
                    break
            placed += t_key, t_lead, pair, p_key, p_lead, crossed, g_key, g_lead, hits, mutate_at
            pos, has, buf = p, h, b
        if placed:
            record = np.fromiter(placed, dtype=np.int64, count=len(placed)).reshape(-1, 10)
            bred = len(record)
            # Bound by bound: the keys, leads and counts of the runs.
            key, lead, count = record[:, :9].reshape(bred, 3, 3).transpose(2, 1, 0).reshape(3, -1)
            ends = np.cumsum(count)
            first = ends - count
            led = lead >= 0
            picked = np.repeat(key - led - first, count) + np.arange(ends[-1])
            picked[first[led]] = lead[led]
            totals = count.reshape(3, bred).sum(axis=1)
            values = (halves[picked] * np.repeat(bounds, totals)) >> np.uint64(32)
            tried, pointed = totals[0], totals[0] + totals[1]
            winners = order[rank[values[:tried]].reshape(bred, 2, k).min(axis=2)]
            parents = population[winners]
            cut = np.full(bred, length)
            cut[record[:, 5] == 1] = 1 + values[tried:pointed]
            rows = np.where(loci < cut[:, None], parents[:, 0], parents[:, 1])
            rows[mutated[record[:, 9, None] + loci]] = values[pointed:]
            children[done:done + bred] = rows
            done += bred
        # PCG64 wraps a negative advance modulo 2^128; advance clears the buffer.
        bits.advance(pos - outputs)
        state = bits.state
        state["has_uint32"], state["uinteger"] = has, int(halves[buf])
        bits.state = state
        if not placed:
            children[done] = _numpy_child(population, order, rank, config, table_size, rng)
            done += 1
    return children


def evolve(config: GAConfig, workers: int = 1) -> EvolutionResult:
    """Run the generational loop and return the best individual found.

    Random draws happen in this order and no other: (1) the initial
    population, row by row as one block; (2) per bred child, the draws listed
    in ``_breed``.  Elites are copied before any draw for the generation.
    Every generation, the random initial one included, runs one loop body:
    evaluate, record the histories, then stop or breed.  The loop stops once
    the best fitness reaches target_fitness (within 1e-9) or after
    max_generations breeding rounds; the best individual is then the top of
    the last population.

    workers > 1 starts min(workers, population_size, usable CPUs) worker
    processes, once per call, from the default multiprocessing context
    (fork on Linux before Python 3.14, forkserver from 3.14, spawn on macOS
    and Windows).  Each generation, every worker gets one contiguous slice
    of the population and sends back its scores: one message each way.  The
    parent scores no row itself.  Workers exit when the run ends, however it
    ends, and when the parent process dies.  A worker's exception is raised
    here; a worker that died raises RuntimeError.  More than MAX_WORKERS is
    refused first.
    """
    processes = _pool_size(workers, config.population_size)
    gate_set = build_gate_set(config.n, config.families)
    rng = np.random.default_rng(config.rng_seed)
    memo: dict[bytes, float] = {}
    pool = _Workers(processes, gate_set) if processes else None
    try:
        population = rng.integers(0, len(gate_set), size=(config.population_size, config.circuit_length))
        best_history, mean_history = [], []
        while True:
            fits = _evaluate(population, gate_set, memo, pool)
            best_history.append(float(fits.max()))
            mean_history.append(float(fits.mean()))
            if len(best_history) > config.max_generations or _reached(best_history[-1], config.target_fitness):
                break
            population = _breed(population, fits, config, len(gate_set), rng)
    finally:
        if pool is not None:
            pool.close()
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
