import importlib
import itertools
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entangler import entanglement
from entangler.catalog import ghz_circuit, named_circuit
from entangler.cli import EX_ERROR, EX_OK, EX_USAGE, main as cli_main
from entangler.entanglement import MEMO_ENTRY_OVERHEAD, MEMO_MAX_BYTES, _total_negativity, total_entanglement
from entangler.evolve import (
    MAX_WORKERS,
    GAConfig,
    _RAW_CHUNK,
    _RawDraws,
    _breed,
    _tournament_winner,
    build_gate_set,
    decode,
    encode,
    evolve,
    fitness,
    length_sweep,
    sweep_seed,
)
from entangler.qsim import Circuit, GateSpec, run_circuit, zero_state

from oracles import reference_breed

# The package re-exports the function evolve under the submodule's name.
evolve_module = importlib.import_module("entangler.evolve")


# --- gate set ----------------------------------------------------------------


def test_gate_table_for_six_qubits():
    gs = build_gate_set(6, ("H", "CNOT"))
    assert len(gs) == 36
    assert gs.table[:6] == tuple(GateSpec("H", (q,)) for q in range(6))
    assert gs.table[6] == GateSpec("CNOT", (0, 1))
    assert gs.table[35] == GateSpec("CNOT", (5, 4))
    pairs = [g.args for g in gs.table[6:]]
    assert pairs == sorted(pairs)


def test_gate_table_for_five_qubits():
    assert len(build_gate_set(5, ("H", "CNOT"))) == 25


def test_gate_table_hadamard_only():
    assert len(build_gate_set(2, ("H",))) == 2


def test_family_order_is_canonical():
    gs = build_gate_set(2, ("CNOT", "H"))
    assert gs.families == ("H", "CNOT")
    assert gs.table[0].kind == "H"


def test_full_family_table_size():
    n = 4
    gs = build_gate_set(n, ("H", "X", "Y", "Z", "S", "T", "CNOT", "CZ"))
    assert len(gs) == 6 * n + 2 * n * (n - 1)


def test_gate_set_rejects_bad_input():
    with pytest.raises(ValueError):
        build_gate_set(4, ())
    with pytest.raises(ValueError):
        build_gate_set(4, ("H", "TOFFOLI"))
    with pytest.raises(ValueError):
        build_gate_set(1, ("H",))
    # Capped like scoring, before any table entry or amplitude exists.
    for n in (13, 30):
        with pytest.raises(ValueError, match="capped at 12 qubits"):
            build_gate_set(n, ("H", "CNOT"))


@pytest.mark.parametrize("families", ["CNOT", "H", "h", "", (1,), ("H", None)])
def test_gate_families_are_never_a_bare_string(families):
    # A string would be read one character at a time: "CNOT" as C, N, O, T.
    # A family that is not a string is named, not upper-cased.
    message = (f"gate families must be an iterable of names, not the string {families!r}"
               if isinstance(families, str) else f"gate families must be strings, got {families!r}")
    with pytest.raises(TypeError, match=re.escape(message)):
        build_gate_set(3, families)
    with pytest.raises(TypeError, match=re.escape(message)):
        GAConfig(n=3, circuit_length=3, families=families)


# --- encoding ------------------------------------------------------------------


def test_decode_single_gene():
    gs = build_gate_set(2, ("H", "CNOT"))
    assert decode([0], gs) == Circuit(2, (GateSpec("H", (0,)),))
    assert decode([np.int64(0)], gs) == decode(np.array([0], dtype=np.uint8), gs) == decode([0], gs)


def test_decode_empty_chromosome():
    gs = build_gate_set(2, ("H", "CNOT"))
    assert decode([], gs) == Circuit(2, ())


def test_decode_rejects_out_of_range_gene():
    gs = build_gate_set(2, ("H", "CNOT"))
    with pytest.raises(ValueError, match="outside the table"):
        decode([4], gs)


def test_ghz3_is_encodable():
    gs = build_gate_set(3, ("H", "CNOT"))
    genes = encode(ghz_circuit(3), gs)
    assert len(genes) == 3
    assert decode(genes, gs) == ghz_circuit(3)


def test_encode_rejects_foreign_gates():
    gs = build_gate_set(3, ("H",))
    with pytest.raises(ValueError, match="not in the"):
        encode(ghz_circuit(3), gs)


# --- fitness -------------------------------------------------------------------


def test_fitness_of_ghz3_chromosome():
    gs = build_gate_set(3, ("H", "CNOT"))
    assert abs(fitness(encode(ghz_circuit(3), gs), gs) - 1.5) < 1e-9


def test_fitness_of_circuit_5a_chromosome():
    gs = build_gate_set(5, ("H", "CNOT"))
    assert abs(fitness(encode(named_circuit("circuit_5a"), gs), gs) - 17.5) < 1e-9


def test_repeated_hadamard_scores_zero():
    gs = build_gate_set(3, ("H", "CNOT"))
    assert fitness([0, 0, 0, 0], gs) == 0.0


def test_fitness_equals_public_pipeline():
    gs = build_gate_set(4, ("H", "CNOT"))
    rng = np.random.default_rng(2)
    genes = rng.integers(0, len(gs), size=7)
    via_pipeline = total_entanglement(run_circuit(decode(genes, gs), zero_state(4))).total
    assert abs(fitness(genes, gs) - via_pipeline) < 1e-12


@given(data=st.data(), n=st.integers(2, 6))
@settings(max_examples=100)
def test_fitness_equals_report_total_bit_for_bit(data, n):
    # Both sum the same cut values left to right in mask order.
    gs = build_gate_set(n, ("H", "X", "Y", "Z", "S", "T", "CNOT", "CZ"))
    genes = data.draw(st.lists(st.integers(0, len(gs) - 1), max_size=3 * n))
    state = run_circuit(decode(genes, gs), zero_state(n))
    assert total_entanglement(state).total == fitness(genes, gs)


def test_fitness_of_a_long_genome_scores_the_state_run_circuit_returns():
    # 10,001 Hadamards drift the norm past RENORM_TOL, so run_circuit
    # renormalizes; fitness scores that state too, not the drifted one.
    gs = build_gate_set(2, ("H", "CNOT"))
    genes = encode(Circuit(2, (GateSpec("H", (0,)),) * 10_001 + (GateSpec("CNOT", (0, 1)),)), gs)
    total = total_entanglement(run_circuit(decode(genes, gs), zero_state(2))).total
    assert fitness(genes, gs) == total
    memo = {}
    assert fitness(genes, gs, memo=memo) == fitness(genes, gs, memo=memo) == total


def test_fitness_refuses_a_norm_that_drifts_past_the_error_bound(monkeypatch):
    def scaling_kernel(amps, gate, n):
        amps *= 1.001

    monkeypatch.setattr(evolve_module, "_apply_gate_inplace", scaling_kernel)
    gs = build_gate_set(2, ("H", "CNOT"))
    with pytest.raises(RuntimeError, match="norm drifted by .* in a scored state"):
        fitness([0], gs)


@pytest.mark.parametrize("genes", [[4], [0, 9], [-1], [2, -3]])
def test_fitness_refuses_genes_outside_the_table(genes):
    gs = build_gate_set(2, ("H", "CNOT"))
    with pytest.raises(ValueError, match="outside the table"):
        fitness(genes, gs)
    with pytest.raises(ValueError, match="outside the table"):
        fitness(np.array(genes), gs)


@pytest.mark.parametrize("genes", [[1.7, 3.2], [0, 1.0], ["1"], np.array([1.0, 2.0])], ids=repr)
def test_decode_and_fitness_refuse_genes_that_are_not_integers(genes):
    gs = build_gate_set(2, ("H", "CNOT"))
    for read in (decode, fitness):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            read(genes, gs)


def test_fitness_is_pure():
    gs = build_gate_set(4, ("H", "CNOT"))
    genes = [3, 7, 11, 2, 9]
    assert fitness(genes, gs) == fitness(genes, gs)


# --- the per-run score memo ------------------------------------------------------

ALL_FAMILIES = ("H", "X", "Y", "Z", "S", "T", "CNOT", "CZ")
_SHARED_MEMOS = {n: {} for n in range(2, 7)}


@given(data=st.data(), n=st.integers(2, 6))
@settings(max_examples=200)
def test_memoized_fitness_equals_plain_fitness(data, n):
    # One memo per qubit count, shared across examples, so later examples hit
    # states that earlier ones stored; the second call below always hits.
    gs = build_gate_set(n, ALL_FAMILIES)
    genes = data.draw(st.lists(st.integers(0, len(gs) - 1), max_size=2 * n))
    plain = fitness(genes, gs)
    for _ in range(2):
        memoized = fitness(genes, gs, memo=_SHARED_MEMOS[n])
        assert memoized == plain
        assert math.copysign(1.0, memoized) == math.copysign(1.0, plain)


def _counting_cut_negativities(monkeypatch):
    calls = []
    original = entanglement._cut_negativities

    def counted(amps, n):
        calls.append(n)
        return original(amps, n)
    monkeypatch.setattr(entanglement, "_cut_negativities", counted)
    return calls


def test_clearing_the_memo_changes_no_result(monkeypatch):
    config = GAConfig(n=4, circuit_length=5, population_size=40, max_generations=30,
                      target_fitness=6.5, rng_seed=4)
    default = evolve(config)
    calls = _counting_cut_negativities(monkeypatch)
    evolve(config)
    default_misses = len(calls)
    # Room for three 4-qubit states: the memo clears every third new state.
    monkeypatch.setattr(entanglement, "MEMO_MAX_BYTES", 3 * (16 * 2**4 + MEMO_ENTRY_OVERHEAD))
    calls.clear()
    assert evolve(config) == default
    assert len(calls) > 2 * default_misses


def test_a_run_scores_each_distinct_state_once(monkeypatch):
    calls = _counting_cut_negativities(monkeypatch)
    config = GAConfig(n=4, circuit_length=5, max_generations=60, target_fitness=6.5, rng_seed=0)
    result = evolve(config)
    assert result.evaluations == 6100
    misses = len(calls)
    assert misses <= 0.25 * result.evaluations
    # No memo outlives its run: a second run scores every state again.
    calls.clear()
    evolve(config)
    assert len(calls) == misses


def test_memo_stays_within_its_byte_bound_at_twelve_qubits(monkeypatch):
    # Misses cost nothing here; what is measured is the memo's own memory.
    monkeypatch.setattr(entanglement, "_cut_negativities", lambda amps, n: [0.0])
    entry = 16 * 2**12 + MEMO_ENTRY_OVERHEAD
    capacity = MEMO_MAX_BYTES // entry
    amps = np.zeros(2**12, dtype=complex)
    memo = {}
    tracemalloc.start()
    try:
        for i in range(capacity + 5):
            # Distinct basis states: distinct keys, each a unit vector.
            amps.fill(0.0)
            amps[i] = 1.0
            assert _total_negativity(amps, 12, memo=memo) == 0.0
            assert len(memo) * entry <= MEMO_MAX_BYTES
            if i == capacity - 1:
                assert len(memo) == capacity
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(memo) == 5
    assert peak <= MEMO_MAX_BYTES + 2**20


# --- config validation ------------------------------------------------------------


@pytest.mark.parametrize("kwargs", [
    dict(n=1, circuit_length=3),
    dict(n=3, circuit_length=0),
    dict(n=3, circuit_length=3, population_size=1),
    dict(n=3, circuit_length=3, elite_count=0),
    dict(n=3, circuit_length=3, elite_count=100),
    dict(n=3, circuit_length=3, crossover_rate=1.5),
    dict(n=3, circuit_length=3, per_gene_mutation_rate=-0.1),
    dict(n=3, circuit_length=3, tournament_size=0),
    dict(n=3, circuit_length=3, population_size=4, tournament_size=5),
    dict(n=3, circuit_length=3, tournament_size=10**12),
    dict(n=3, circuit_length=3, max_generations=-1),
    dict(n=13, circuit_length=3),
    dict(n=3, circuit_length=3, population_size=3_000_000_000),
    dict(n=3, circuit_length=10**12),
    dict(n=3, circuit_length=1001, population_size=1000),
    dict(n=3, circuit_length=3, rng_seed=-1),
    dict(n=3, circuit_length=3, families=("FOO",)),
    dict(n=3, circuit_length=3, families=("H", "cnot", "toffoli")),
    dict(n=3, circuit_length=3, families=()),
    dict(n=3, circuit_length=3, target_fitness=math.nan),
    dict(n=3, circuit_length=3, target_fitness=math.inf),
    dict(n=3, circuit_length=3, target_fitness=-math.inf),
])
def test_invalid_configs_are_rejected(kwargs):
    with pytest.raises(ValueError):
        GAConfig(**kwargs)


_INTEGER_FIELDS = dict(n=3, circuit_length=3, population_size=10, max_generations=5,
                       tournament_size=2, elite_count=1, rng_seed=7)


@pytest.mark.parametrize("field", sorted(_INTEGER_FIELDS))
def test_integer_config_fields_refuse_fractions(field):
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        GAConfig(**{**_INTEGER_FIELDS, field: 1.5})
    with pytest.raises(TypeError, match="'str' object cannot be interpreted as an integer"):
        GAConfig(**{**_INTEGER_FIELDS, field: "2"})


def test_integer_config_fields_store_numpy_ints_as_ints():
    config = GAConfig(**{field: np.int64(value) for field, value in _INTEGER_FIELDS.items()})
    assert config == GAConfig(**_INTEGER_FIELDS)
    record = config.to_dict()
    assert all(type(record[field]) is int for field in _INTEGER_FIELDS)
    assert json.loads(json.dumps(record))["rng_seed"] == 7


def test_default_mutation_rate_is_one_over_length():
    assert GAConfig(n=3, circuit_length=8).mutation_rate == 1 / 8


# --- the loop ---------------------------------------------------------------------


def test_zero_generation_budget_returns_best_random_individual():
    config = GAConfig(n=3, circuit_length=3, population_size=20, max_generations=0, rng_seed=9)
    result = evolve(config)
    assert len(result.best_history) == 1
    assert result.generations == 0
    assert result.evaluations == 20
    assert result.best_fitness == result.best_history[0]


def test_same_seed_gives_identical_results():
    config = GAConfig(n=3, circuit_length=4, population_size=30, max_generations=8, rng_seed=123)
    first = evolve(config)
    second = evolve(config)
    assert first == second


def test_worker_pool_does_not_change_results():
    config = GAConfig(n=3, circuit_length=4, population_size=20, max_generations=4, rng_seed=5)
    serial = evolve(config, workers=1)
    for workers in (2, 3):
        assert evolve(config, workers=workers) == serial
        assert multiprocessing.active_children() == []


# A patched fitness reaches the workers only when they are forked from this
# process; under spawn or forkserver they import the module afresh.
forked_workers = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                                    reason="workers inherit the patched fitness only when forked")


def _refuse(genes, gate_set, *, memo=None):
    raise ValueError(f"cannot score {len(genes)} genes")


def _die(genes, gate_set, *, memo=None):
    os._exit(3)


@forked_workers
def test_a_worker_exception_is_raised_in_the_caller(monkeypatch):
    monkeypatch.setattr(evolve_module, "fitness", _refuse)
    config = GAConfig(n=3, circuit_length=4, population_size=20, max_generations=4)
    with pytest.raises(ValueError) as raised:
        evolve(config, workers=2)
    assert type(raised.value) is ValueError
    assert str(raised.value) == "cannot score 4 genes"
    assert multiprocessing.active_children() == []


@forked_workers
def test_a_worker_that_dies_raises_runtime_error(monkeypatch, capsys):
    monkeypatch.setattr(evolve_module, "fitness", _die)
    config = GAConfig(n=3, circuit_length=4, population_size=20, max_generations=4)
    with pytest.raises(RuntimeError, match=r"fitness worker \d+ exited with code 3$"):
        evolve(config, workers=2)
    assert multiprocessing.active_children() == []
    status = cli_main(["evolve", "--qubits", "3", "--length", "3", "--pop", "8", "--gens", "1", "--workers", "2"])
    assert status == EX_ERROR
    assert re.search(r"fitness worker \d+ exited with code 3$", capsys.readouterr().err.strip())
    assert multiprocessing.active_children() == []


# Runs a long pooled GA and prints its workers' pids once they have started.
_POOLED_RUN = """
import multiprocessing, threading, time
from entangler import GAConfig, evolve
from entangler.evolve import _pool_size

def report():
    deadline = time.monotonic() + 60
    while len(multiprocessing.active_children()) < _pool_size(2, 20) and time.monotonic() < deadline:
        time.sleep(0.01)
    print(*(p.pid for p in multiprocessing.active_children()), flush=True)

threading.Thread(target=report, daemon=True).start()
evolve(GAConfig(n=3, circuit_length=4, population_size=20, max_generations=10**6), workers=2)
"""


def _running(pid: int) -> bool:
    """Whether the process exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
def test_workers_exit_when_their_parent_is_killed():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    with subprocess.Popen([sys.executable, "-c", _POOLED_RUN], stdout=subprocess.PIPE, text=True,
                          env=env) as parent:
        try:
            workers = [int(pid) for pid in parent.stdout.readline().split()]
        finally:
            parent.kill()
            parent.wait(timeout=60)
    assert workers
    deadline = time.monotonic() + 10
    try:
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(map(_running, workers)), "a worker outlived its killed parent"
    finally:
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)


class _SpyWorkers:
    """Stands in for evolve's _Workers: records the count and scores every
    slice in this process, each with a memo of its own, so no process
    starts."""

    sizes: list[int] = []

    def __init__(self, count, gate_set):
        _SpyWorkers.sizes.append(count)
        self._gate_set = gate_set
        self._memos = [{} for _ in range(count)]

    def __len__(self):
        return len(self._memos)

    def map(self, slices):
        return [evolve_module._fitnesses(rows, self._gate_set, memo) for rows, memo in zip(slices, self._memos)]

    def close(self):
        pass


@pytest.fixture
def spy_workers(monkeypatch):
    monkeypatch.setattr(_SpyWorkers, "sizes", [])
    monkeypatch.setattr(evolve_module, "_Workers", _SpyWorkers)
    return _SpyWorkers.sizes


def _set_cpus(monkeypatch, cpus):
    """An int or None: what os.cpu_count() returns on a platform without
    affinity masks.  A set: the CPUs this process may run on, of 64."""
    if isinstance(cpus, set):
        monkeypatch.setattr(evolve_module.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(evolve_module.os, "sched_getaffinity", lambda pid: set(cpus), raising=False)
    else:
        monkeypatch.setattr(evolve_module.os, "cpu_count", lambda: cpus)
        monkeypatch.delattr(evolve_module.os, "sched_getaffinity", raising=False)


@pytest.mark.parametrize("workers, population, cpus, started", [
    (6, 2, 8, 2),
    (4, 20, 2, 2),
    (3, 20, 8, 3),
    (2, 20, 1, 1),
    (4, 20, None, 1),
    (MAX_WORKERS, 20, 4096, 20),
    (1, 20, 8, None),
    (0, 20, 8, None),
    # A process pinned to fewer CPUs than the host has (taskset -c 0) starts
    # no more workers than it may run on, and still starts one.
    (4, 20, {0}, 1),
    (4, 20, {0, 2, 5}, 3),
    (6, 2, {0, 1, 2, 3}, 2),
    (MAX_WORKERS, 2000, set(range(40)), 40),
    (1, 20, {0, 1}, None),
])
def test_pool_size_is_bounded(spy_workers, monkeypatch, workers, population, cpus, started):
    _set_cpus(monkeypatch, cpus)
    config = GAConfig(n=3, circuit_length=3, population_size=population, max_generations=2, rng_seed=1)
    result = evolve(config, workers=workers)
    assert spy_workers == ([] if started is None else [started])
    assert result == evolve(config, workers=1)


def test_evolve_record_names_the_processes_started(spy_workers, monkeypatch, capsys):
    _set_cpus(monkeypatch, {0, 1})
    for workers, recorded in (("4", 2), ("1", 1)):
        status = cli_main(["evolve", "--qubits", "3", "--length", "3", "--pop", "8", "--gens", "1",
                           "--workers", workers])
        assert status == EX_OK
        assert json.loads(capsys.readouterr().out)["workers"] == recorded
    assert spy_workers == [2]


def test_too_many_workers_are_refused_before_any_pool(spy_workers, capsys):
    config = GAConfig(n=3, circuit_length=3, population_size=4, max_generations=1)
    with pytest.raises(ValueError, match="worker count must be at most 1024"):
        evolve(config, workers=MAX_WORKERS + 1)
    with pytest.raises(ValueError, match="worker count must be at most 1024"):
        length_sweep(config, [1, 2], workers=100_000)
    for command in (["evolve", "--length", "3"], ["sweep", "--lengths", "1,2"]):
        status = cli_main([*command, "--qubits", "3", "--pop", "4", "--gens", "1", "--workers", "100000"])
        assert status == EX_USAGE
        assert "worker count must be at most 1024" in capsys.readouterr().err
    assert spy_workers == []


def test_worker_counts_are_exact_nonnegative_integers(spy_workers, monkeypatch, capsys):
    _set_cpus(monkeypatch, {0, 1})
    config = GAConfig(n=3, circuit_length=3, population_size=4, max_generations=1)
    for workers in (2.5, 1.5, "2", 2.0):
        with pytest.raises(TypeError):
            evolve(config, workers=workers)
        with pytest.raises(TypeError):
            length_sweep(config, [1, 2], workers=workers)
    for workers in (-1, -5):
        with pytest.raises(ValueError, match=f"worker count must be at least 0, got {workers}"):
            evolve(config, workers=workers)
        with pytest.raises(ValueError, match=f"worker count must be at least 0, got {workers}"):
            length_sweep(config, [1, 2], workers=workers)
    for command in (["evolve", "--length", "3"], ["sweep", "--lengths", "1,2"]):
        status = cli_main([*command, "--qubits", "3", "--pop", "4", "--gens", "1", "--workers", "-5"])
        assert status == EX_USAGE
        assert "worker count must be at least 0, got -5" in capsys.readouterr().err
    assert spy_workers == []
    assert evolve(config, workers=np.int64(2)) == evolve(config, workers=1)
    assert spy_workers == [2]


@pytest.mark.parametrize("workers", [1, 3])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_best_individual_is_the_first_to_score_the_best(workers, data):
    # The best individual is read off the last population; recompute it the
    # explicit way, from every generation's (population, fits): a scan in
    # generation then row order, keeping only strict improvements.
    population_size = data.draw(st.integers(2, 20))
    n = data.draw(st.integers(2, 4))
    families = data.draw(st.sampled_from([("H", "CNOT"), ("H", "CNOT"), ("X", "CZ"), ("H", "T", "CNOT")]))
    config = GAConfig(
        n=n, circuit_length=data.draw(st.integers(1, 5)), families=families,
        population_size=population_size,
        elite_count=data.draw(st.integers(1, min(3, population_size - 1))),
        tournament_size=data.draw(st.integers(1, min(5, population_size))),
        crossover_rate=data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
        per_gene_mutation_rate=data.draw(st.sampled_from([None, 0.0, 0.3, 1.0])),
        max_generations=data.draw(st.integers(0, 8)),
        target_fitness=data.draw(st.sampled_from([None, None, 1.0, 1.5])),
        rng_seed=data.draw(st.integers(0, 2**32 - 1)))
    records = []
    evaluate = evolve_module._evaluate

    def recorded(population, *rest):
        fits = evaluate(population, *rest)
        records.append((population.copy(), fits.copy()))
        return fits

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evolve_module, "_evaluate", recorded)
        mp.setattr(_SpyWorkers, "sizes", [])
        mp.setattr(evolve_module, "_Workers", _SpyWorkers)
        _set_cpus(mp, set(range(8)))
        result = evolve(config, workers=workers)
        assert _SpyWorkers.sizes == ([] if workers == 1 else [min(workers, population_size)])
    assert len(records) == len(result.best_history)
    best_fitness, best_genes = -math.inf, None
    for population, fits in records:
        for row, value in zip(population, fits):
            if value > best_fitness:
                best_fitness, best_genes = float(value), tuple(int(g) for g in row)
    assert result.best_genes == best_genes
    assert result.best_fitness == best_fitness
    assert fitness(result.best_genes, build_gate_set(n, families)) == result.best_fitness


def test_ghz3_target_reached_quickly():
    config = GAConfig(n=3, circuit_length=3, max_generations=50, target_fitness=1.5, rng_seed=1)
    result = evolve(config)
    assert result.reached(1.5)
    assert result.generations <= 50
    assert abs(fitness(result.best_genes, build_gate_set(3, ("H", "CNOT"))) - result.best_fitness) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_best_history_is_nondecreasing(seed):
    config = GAConfig(n=3, circuit_length=4, population_size=16, max_generations=10, rng_seed=seed)
    result = evolve(config)
    history = result.best_history
    assert all(a <= b + 1e-12 for a, b in zip(history, history[1:]))
    assert len(result.mean_history) == len(history)
    assert result.evaluations == config.population_size * len(history)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_children_inherit_genes_locus_by_locus(seed):
    # With mutation off, every child gene must occur at the same locus in the
    # parent population.
    rng = np.random.default_rng(seed)
    config = GAConfig(n=3, circuit_length=5, population_size=12, per_gene_mutation_rate=0.0)
    gs = build_gate_set(3, ("H", "CNOT"))
    population = rng.integers(0, len(gs), size=(config.population_size, config.circuit_length))
    fits = np.array([fitness(row, gs) for row in population])
    children = _breed(population, fits, config, len(gs), rng)
    assert children.shape == population.shape
    for child in children:
        for locus, gene in enumerate(child):
            assert gene in population[:, locus]


def test_history_nondecreasing_even_with_heavy_mutation():
    config = GAConfig(n=3, circuit_length=3, population_size=10, max_generations=20,
                      per_gene_mutation_rate=1.0, rng_seed=3)
    history = evolve(config).best_history
    assert all(a <= b + 1e-12 for a, b in zip(history, history[1:]))


# Lemire's rejection loop, which GA-sized ranges almost never reach, rejects
# about a quarter of the 32-bit draws for this range.
REJECTING_RANGE = 3 * 2**30 + 1


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_breed_equals_the_numpy_scalar_breed(data):
    # Few distinct fitness values, so most tournaments end in ties.
    population_size = data.draw(st.integers(2, 80))
    length = data.draw(st.integers(1, 12))
    config = GAConfig(
        n=3, circuit_length=length, population_size=population_size,
        elite_count=data.draw(st.integers(1, population_size - 1)),
        tournament_size=data.draw(st.integers(1, population_size)),
        crossover_rate=data.draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0)),
        per_gene_mutation_rate=data.draw(st.sampled_from([None, 0.0, 0.3, 1.0]) | st.floats(0.0, 1.0)))
    levels = data.draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.5, 17.5]), min_size=1, max_size=3))
    seed = data.draw(st.integers(0, 2**32 - 1))
    table_size = data.draw(st.sampled_from([15, REJECTING_RANGE]))
    population = np.random.default_rng(seed + 1).integers(0, table_size, size=(population_size, length))
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if data.draw(st.booleans()):
        # One 32-bit draw leaves the high half of an output buffered.
        rng.integers(0, 3), reference_rng.integers(0, 3)
        assert rng.bit_generator.state["has_uint32"] == 1
    # Generations chain, so each starts from the state the last one left.
    for _ in range(3):
        fits = np.array(data.draw(st.lists(st.sampled_from(levels), min_size=population_size,
                                           max_size=population_size)))
        children = _breed(population, fits, config, table_size, rng)
        expected = reference_breed(population, fits, config, table_size, reference_rng)
        assert children.dtype == expected.dtype
        assert np.array_equal(children, expected)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        population = children


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("population_size, tournament_size, length", [(150, 60, 6), (3, 1, 9000)])
def test_a_generation_past_one_chunk_breeds_as_the_numpy_calls_would(
        buffered, population_size, tournament_size, length):
    # 149 children draw two tournaments of 60 each: 8,940 outputs and more
    # with rejections.  A chromosome of 9,000 genes draws 9,000 mutation
    # coins at once.  Either way _breed draws at least three chunks.
    config = GAConfig(n=3, circuit_length=length, population_size=population_size,
                      tournament_size=tournament_size, per_gene_mutation_rate=0.5)
    assert (population_size - 1) * max(tournament_size, length) > 2 * _RAW_CHUNK
    rng, reference_rng = np.random.default_rng(21), np.random.default_rng(21)
    if buffered:
        rng.integers(0, 3), reference_rng.integers(0, 3)
    population = np.random.default_rng(22).integers(0, REJECTING_RANGE, size=(population_size, length))
    for generation in range(2):
        fits = np.random.default_rng(generation).integers(0, 3, size=population_size) / 2.0
        children = _breed(population, fits, config, REJECTING_RANGE, rng)
        expected = reference_breed(population, fits, config, REJECTING_RANGE, reference_rng)
        assert np.array_equal(children, expected)
        assert rng.bit_generator.state == reference_rng.bit_generator.state
        population = children


@given(bound=st.sampled_from([1, 2, 3, 99, REJECTING_RANGE, 2**31 + 1, 2**32 - 1, 2**32]),
       count=st.integers(0, 600), buffered=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_raw_bounded_draws_equal_generator_integers(bound, count, buffered, seed):
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered:
        rng.integers(0, 3), reference_rng.integers(0, 3)
    draws = _RawDraws(rng, 7)
    drawn = draws.integers(bound, count)
    draws.close()
    assert drawn == reference_rng.integers(0, bound, size=count).tolist()
    assert rng.bit_generator.state == reference_rng.bit_generator.state


def test_one_generation_allocates_a_bounded_block_whatever_the_tournament_size():
    # 100 bred children draw tournaments of 1000: about 10^5 outputs, which
    # drawn as one block would peak above 5 MB as Python ints.  Capped chunks
    # keep the peak near 0.65 MB.  Elites keep the traced run near a second.
    config = GAConfig(n=3, circuit_length=5, population_size=1000, tournament_size=1000, elite_count=900)
    population = np.random.default_rng(0).integers(0, 15, size=(1000, 5))
    fits = np.random.default_rng(1).integers(0, 4, size=1000) / 2.0
    rng = np.random.default_rng(2)
    tracemalloc.start()
    try:
        children = _breed(population, fits, config, 15, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert children.shape == population.shape
    assert peak < 1 << 20


def test_tournament_ties_go_to_the_lower_index():
    fits = [1.0, 1.0, 1.0, 1.0]
    for seed in range(20):
        drawn = np.random.default_rng(seed).integers(0, 4, size=4).tolist()
        assert _tournament_winner(drawn, fits) == min(drawn)


# --- length sweep ------------------------------------------------------------------


def exhaustive_best(n, length):
    gs = build_gate_set(n, ("H", "CNOT"))
    return max(fitness(genes, gs) for genes in itertools.product(range(len(gs)), repeat=length))


def test_length_sweep_matches_exhaustive_search():
    # Frozen from the exhaustive oracle below: with 9 placed gates on 3 qubits
    # the best scores for lengths 1, 2, 3 are 0, 1, and 1.5.
    oracle = [exhaustive_best(3, length) for length in (1, 2, 3)]
    assert np.allclose(oracle, [0.0, 1.0, 1.5], atol=1e-9)
    config = GAConfig(n=3, circuit_length=1, population_size=60, max_generations=40, rng_seed=11)
    swept = length_sweep(config, [1, np.int64(2), 3])
    assert [length for length, _ in swept] == [1, 2, 3]
    assert all(type(length) is int for length, _ in swept)
    assert np.allclose([best for _, best in swept], oracle, atol=1e-9)


def test_length_sweep_needs_lengths():
    with pytest.raises(ValueError):
        length_sweep(GAConfig(n=3, circuit_length=1), [])


def test_length_sweep_takes_a_numpy_array_of_lengths():
    config = GAConfig(n=3, circuit_length=1, population_size=20, max_generations=5, rng_seed=3)
    swept = length_sweep(config, np.array([2, 3]))
    assert swept == length_sweep(config, [2, 3])
    assert all(type(length) is int for length, _ in swept)
    with pytest.raises(ValueError, match="need at least one length to sweep"):
        length_sweep(config, np.array([], dtype=int))


@pytest.mark.parametrize("lengths", [[2.7], [2, 3.0], ["2"]], ids=repr)
def test_length_sweep_refuses_lengths_that_are_not_integers(monkeypatch, lengths):
    def no_ga(*args, **kwargs):
        raise AssertionError("a GA ran")

    monkeypatch.setattr(evolve_module, "evolve", no_ga)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        length_sweep(GAConfig(n=3, circuit_length=1), lengths)


def test_sweep_seeds_are_deterministic_and_distinct():
    assert sweep_seed(7, 3) == sweep_seed(7, 3)
    assert sweep_seed(7, 3) != sweep_seed(7, 4)
