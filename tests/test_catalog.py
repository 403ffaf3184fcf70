import tracemalloc

import numpy as np
import pytest

from entangler.catalog import (
    CIRCUIT_OUTPUTS,
    EXPECTED_TOTALS,
    QUBIT_RELABELINGS,
    catalog_entries,
    catalog_names,
    ghz_circuit,
    ghz_state,
    lookup,
    named_circuit,
    named_state,
    permute_qubits,
)
from entangler.entanglement import total_entanglement
from entangler.qsim import (
    GateSpec,
    allclose_up_to_phase,
    apply_gate,
    nonzero_coefficient_count,
    run_circuit,
    zero_state,
)

SQ2 = 1 / np.sqrt(2)

# Bell pair amplitudes on two qubits: plus/minus of |00>+-|11> and |01>+-|10>.
BELL = {
    "psi+": np.array([1, 0, 0, 1], dtype=complex) * SQ2,
    "psi-": np.array([1, 0, 0, -1], dtype=complex) * SQ2,
    "phi+": np.array([0, 1, 1, 0], dtype=complex) * SQ2,
    "phi-": np.array([0, 1, -1, 0], dtype=complex) * SQ2,
}


def basis(bits: str) -> np.ndarray:
    vec = np.zeros(1 << len(bits), dtype=complex)
    vec[int(bits, 2)] = 1.0
    return vec


# --- circuits reproduce their states -----------------------------------------


@pytest.mark.parametrize("circuit_name,state_name", [("circuit_ghz3", "ghz3"), *CIRCUIT_OUTPUTS.items()])
def test_named_circuits_reproduce_named_states(circuit_name, state_name):
    circuit = named_circuit(circuit_name)
    produced = run_circuit(circuit, zero_state(circuit.n))
    assert allclose_up_to_phase(produced, named_state(state_name), tol=1e-10)


def test_circuit_sizes():
    sizes = {name: len(named_circuit(name)) for name in
             ("circuit_4a", "circuit_4b", "circuit_5a", "circuit_5b", "circuit_6a")}
    assert sizes == {"circuit_4a": 5, "circuit_4b": 5, "circuit_5a": 8,
                     "circuit_5b": 8, "circuit_6a": 13}


def test_circuit_6a_gate_census():
    kinds = [g.kind for g in named_circuit("circuit_6a").gates]
    assert kinds.count("H") == 5
    assert kinds.count("CNOT") == 8


def test_ghz_circuit_structure():
    circuit = ghz_circuit(3)
    assert [str(g) for g in circuit.gates] == ["H(2)", "CNOT(2,1)", "CNOT(2,0)"]
    with pytest.raises(ValueError):
        ghz_circuit(1)


def test_ghz_circuit_output_four_qubits():
    out = run_circuit(ghz_circuit(4), zero_state(4))
    expected = np.zeros(16, dtype=complex)
    expected[0] = expected[15] = SQ2
    assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_ghz6_total_entanglement():
    assert abs(total_entanglement(ghz_state(6)).total - 15.5) < 1e-9


# --- expected totals -----------------------------------------------------------


@pytest.mark.parametrize("name,expected", sorted(EXPECTED_TOTALS.items()))
def test_expected_totals(name, expected):
    total = total_entanglement(named_state(name)).total
    tolerance = 5e-5 if name == "hs4" else 1e-9
    assert abs(total - expected) < tolerance


def test_nonzero_coefficient_claims():
    assert nonzero_coefficient_count(named_state("psi5a")) == 8
    assert nonzero_coefficient_count(named_state("psi6a")) == 32
    assert nonzero_coefficient_count(named_state("psi6b")) == 16


# --- cross-checks of the transcriptions ------------------------------------------


def test_psi4b_matches_bell_pair_form():
    # (|00>|psi+> + |11>|phi+>)/sqrt2 on qubits (3,2) x (1,0)
    expected = SQ2 * (np.kron(basis("00"), BELL["psi+"]) + np.kron(basis("11"), BELL["phi+"]))
    assert np.allclose(named_state("psi4b").amplitudes, expected, atol=1e-12)


def test_psi5b_matches_bell_pair_form():
    expected = 0.5 * (np.kron(basis("000"), BELL["psi+"])
                      + np.kron(basis("011"), BELL["phi+"])
                      + np.kron(basis("101"), BELL["phi-"])
                      + np.kron(basis("110"), BELL["psi-"]))
    assert np.allclose(named_state("psi5b").amplitudes, expected, atol=1e-12)


def test_bssb5_matches_bell_pair_form():
    expected = 0.5 * (np.kron(basis("001"), BELL["phi-"])
                      + np.kron(basis("010"), BELL["psi-"])
                      + np.kron(basis("100"), BELL["phi+"])
                      + np.kron(basis("111"), BELL["psi+"]))
    assert np.allclose(named_state("bssb5").amplitudes, expected, atol=1e-12)


def test_psi6a_matches_bell_regrouped_form():
    expected = 0.25 * (
        np.kron(basis("0000") - basis("1111"), BELL["psi-"] + BELL["phi+"])
        + np.kron(basis("0011") - basis("1100"), -BELL["psi-"] + BELL["phi+"])
        + np.kron(basis("0101") + basis("1010"), BELL["psi+"] + BELL["phi-"])
        + np.kron(basis("0110") + basis("1001"), BELL["psi+"] - BELL["phi-"]))
    assert np.allclose(named_state("psi6a").amplitudes, expected, atol=1e-12)


def test_psi6b_matches_bell_regrouped_form():
    expected = (1 / np.sqrt(8)) * (
        np.kron(basis("0000") - basis("1111"), BELL["psi+"])
        + np.kron(-basis("0011") + basis("1100"), BELL["phi-"])
        + np.kron(basis("0101") + basis("1010"), BELL["psi-"])
        + np.kron(basis("0110") + basis("1001"), BELL["phi+"]))
    assert np.allclose(named_state("psi6b").amplitudes, expected, atol=1e-12)


def test_hadamard_turns_psi6a_into_psi6b():
    rotated = apply_gate(named_state("psi6a"), GateSpec("H", (0,)))
    assert allclose_up_to_phase(rotated, named_state("psi6b"), tol=1e-10)


# --- permutation equivalences -----------------------------------------------------


@pytest.mark.parametrize("pair", sorted(QUBIT_RELABELINGS))
def test_recorded_relabelings_map_a_to_b(pair):
    source, target = pair
    relabeled = permute_qubits(named_state(source), QUBIT_RELABELINGS[pair])
    assert allclose_up_to_phase(relabeled, named_state(target), tol=1e-10)


@pytest.mark.parametrize("pair", sorted(QUBIT_RELABELINGS))
def test_relabeled_pairs_share_the_entanglement_fingerprint(pair):
    source, target = pair
    report_a = total_entanglement(named_state(source))
    report_b = total_entanglement(named_state(target))
    assert abs(report_a.total - report_b.total) < 1e-10
    multiset_a = sorted(round(r.contribution, 9) for r in report_a.per_cut)
    multiset_b = sorted(round(r.contribution, 9) for r in report_b.per_cut)
    assert multiset_a == multiset_b


def test_permute_qubits_rejects_non_permutations():
    with pytest.raises(ValueError):
        permute_qubits(named_state("psi4a"), (0, 0, 1, 2))


# --- lookups ------------------------------------------------------------------------


def test_unknown_names_raise_lookup_errors():
    with pytest.raises(KeyError):
        named_circuit("circuit_9z")
    with pytest.raises(KeyError):
        named_state("psi9z")
    with pytest.raises(KeyError):
        lookup("nonsense")
    # Circuit and state names do not stand in for each other.
    with pytest.raises(KeyError):
        named_circuit("ghz3")
    with pytest.raises(KeyError):
        named_state("circuit_ghz3")
    # Oversized GHZ names fail before any amplitude is allocated; ghz17
    # alone would take 2 MiB.
    tracemalloc.start()
    try:
        for name in ("ghz17", "ghz40", "circuit_ghz40"):
            with pytest.raises(ValueError, match="GHZ qubit count"):
                lookup(name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lookup_covers_every_catalog_name():
    for entry in catalog_entries():
        assert entry.kind in ("circuit", "state")
        assert entry.name in catalog_names()


def test_ghz_names_resolve_for_any_small_n():
    assert lookup("ghz4").kind == "state"
    assert lookup("circuit_ghz5").kind == "circuit"
    assert lookup("ghz4").expected_total == 3.5
