import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entangler.catalog import ghz_circuit, named_circuit
from entangler.entanglement import total_entanglement
from entangler.evolve import (
    GAConfig,
    _breed,
    _tournament_pick,
    build_gate_set,
    decode,
    encode,
    evolve,
    fitness,
    length_sweep,
    sweep_seed,
)
from entangler.qsim import Circuit, GateSpec, run_circuit, zero_state


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


# --- encoding ------------------------------------------------------------------


def test_decode_single_gene():
    gs = build_gate_set(2, ("H", "CNOT"))
    assert decode([0], gs) == Circuit(2, (GateSpec("H", (0,)),))


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


def test_fitness_is_pure():
    gs = build_gate_set(4, ("H", "CNOT"))
    genes = [3, 7, 11, 2, 9]
    assert fitness(genes, gs) == fitness(genes, gs)


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
    dict(n=3, circuit_length=3, max_generations=-1),
    dict(n=13, circuit_length=3),
    dict(n=3, circuit_length=3, population_size=3_000_000_000),
    dict(n=3, circuit_length=10**12),
    dict(n=3, circuit_length=1001, population_size=1000),
])
def test_invalid_configs_are_rejected(kwargs):
    with pytest.raises(ValueError):
        GAConfig(**kwargs)


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
    assert evolve(config, workers=1) == evolve(config, workers=2)


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


def test_tournament_ties_go_to_the_lower_index():
    fits = np.array([1.0, 1.0, 1.0, 1.0])
    for seed in range(20):
        pick = _tournament_pick(fits, np.random.default_rng(seed), size=4)
        drawn = np.random.default_rng(seed).integers(0, 4, size=4)
        assert pick == drawn.min()


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
    swept = length_sweep(config, [1, 2, 3])
    assert [length for length, _ in swept] == [1, 2, 3]
    assert np.allclose([best for _, best in swept], oracle, atol=1e-9)


def test_length_sweep_needs_lengths():
    with pytest.raises(ValueError):
        length_sweep(GAConfig(n=3, circuit_length=1), [])


def test_sweep_seeds_are_deterministic_and_distinct():
    assert sweep_seed(7, 3) == sweep_seed(7, 3)
    assert sweep_seed(7, 3) != sweep_seed(7, 4)
