import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entangler.catalog import ghz_circuit, named_circuit, named_state
from entangler.entanglement import (
    Cut,
    _cut_layouts,
    _cut_negativities,
    _stack_negativities,
    _total_negativity,
    cut_negativity,
    entanglement_trace,
    enumerate_cuts,
    hermitian_eigenvalues,
    max_entanglement_bound,
    partial_transpose_spectrum,
    total_entanglement,
)
from entangler.qsim import Circuit, GateSpec, StateVector, apply_gate, run_circuit, zero_state

from oracles import char_poly_eigenvalues, partial_transpose_dense, random_state


def bell_state():
    return StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


# --- cuts --------------------------------------------------------------------


def test_cuts_for_three_qubits():
    cuts = enumerate_cuts(3)
    assert [c.members for c in cuts] == [frozenset({0}), frozenset({0, 1}), frozenset({0, 2})]
    assert [c.mask for c in cuts] == [1, 3, 5]


def test_single_cut_for_two_qubits():
    assert [c.members for c in enumerate_cuts(2)] == [frozenset({0})]


def test_six_qubit_cut_size_histogram():
    cuts = enumerate_cuts(6)
    assert len(cuts) == 31
    sizes = [c.smaller_side for c in cuts]
    assert sizes.count(1) == 6
    assert sizes.count(2) == 15
    assert sizes.count(3) == 10


@pytest.mark.parametrize("n", range(2, 11))
def test_cut_count_identity(n):
    assert len(enumerate_cuts(n)) == 2 ** (n - 1) - 1


def test_enumerate_cuts_rejects_single_qubit():
    with pytest.raises(ValueError):
        enumerate_cuts(1)


def test_cut_must_contain_qubit_zero_and_be_proper():
    with pytest.raises(ValueError, match="qubit 0"):
        Cut(frozenset({1}), 3)
    with pytest.raises(ValueError, match="proper"):
        Cut(frozenset({0, 1, 2}), 3)


# --- partial transpose spectra ------------------------------------------------


def test_bell_partial_transpose_spectrum():
    spectrum = partial_transpose_spectrum(bell_state(), Cut(frozenset({0}), 2))
    assert np.allclose(spectrum, [-0.5, 0.5, 0.5, 0.5], atol=1e-10)


def test_bell_spectrum_against_dense_oracle():
    state = bell_state()
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    oracle = char_poly_eigenvalues(partial_transpose_dense(rho, {0}, 2))
    spectrum = partial_transpose_spectrum(state, Cut(frozenset({0}), 2))
    assert np.allclose(spectrum, oracle, atol=1e-8)


def test_product_state_spectrum_is_rank_one():
    spectrum = partial_transpose_spectrum(zero_state(2), Cut(frozenset({0}), 2))
    assert np.allclose(spectrum, [0, 0, 0, 1], atol=1e-12)


def test_ghz3_negative_part_is_one_half():
    state = run_circuit(named_circuit("circuit_ghz3"), zero_state(3))
    spectrum = partial_transpose_spectrum(state, Cut(frozenset({0}), 3))
    assert abs(spectrum[spectrum < 0].sum() + 0.5) < 1e-10


def test_spectrum_sums_to_one():
    state = random_state(4, np.random.default_rng(3))
    for cut in enumerate_cuts(4):
        assert abs(partial_transpose_spectrum(state, cut).sum() - 1) < 1e-9


def test_partial_transpose_dimension_cap():
    state = zero_state(13)
    cached = _cut_layouts.cache_info().currsize
    with pytest.raises(ValueError, match="cap"):
        partial_transpose_spectrum(state, Cut(frozenset({0}), 13))
    with pytest.raises(ValueError, match="cap"):
        total_entanglement(state)
    with pytest.raises(ValueError, match="cap"):
        entanglement_trace(Circuit(13, ()))
    assert _cut_layouts.cache_info().currsize == cached


# --- negativity ----------------------------------------------------------------


def test_bell_negativity_both_paths():
    cut = Cut(frozenset({0}), 2)
    assert abs(cut_negativity(bell_state(), cut, method="schmidt") - 0.5) < 1e-10
    assert abs(cut_negativity(bell_state(), cut, method="eigen") - 0.5) < 1e-10


def test_separable_state_has_zero_negativity():
    for cut in enumerate_cuts(4):
        assert cut_negativity(zero_state(4), cut) == 0.0


def test_psi6a_saturates_every_three_cut():
    state = named_state("psi6a")
    for cut in enumerate_cuts(6):
        if cut.smaller_side == 3:
            assert abs(cut_negativity(state, cut) - 3.5) < 1e-10


def test_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown method"):
        cut_negativity(bell_state(), Cut(frozenset({0}), 2), method="guess")


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
@settings(max_examples=40)
def test_negativity_is_complement_invariant(seed, n):
    state = random_state(n, np.random.default_rng(seed))
    for _m, _masks, gathers in _cut_layouts(n):
        direct_values = _stack_negativities(state.amplitudes, gathers)
        flipped_values = _stack_negativities(state.amplitudes, gathers.transpose(0, 2, 1))
        for direct, flipped in zip(direct_values, flipped_values, strict=True):
            assert abs(direct - flipped) < 1e-10


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6))
@settings(max_examples=30)
def test_every_schmidt_score_reads_the_same_cut_layout(seed, n):
    state = random_state(n, np.random.default_rng(seed))
    report = total_entanglement(state)
    for cut_report in report.per_cut:
        assert cut_report.contribution == cut_negativity(state, cut_report.cut)
    total = 0.0
    for cut_report in sorted(report.per_cut, key=lambda r: r.cut.mask):
        total += cut_report.contribution
    assert _total_negativity(state.amplitudes, n) == total


def _per_cut_reference(amps: np.ndarray, n: int) -> list[float]:
    """One SVD per cut of the cut matrix made by transposing the (2,)*n tensor."""
    tensor = amps.reshape((2,) * n)
    values = []
    for mask in range(1, (1 << n) - 1, 2):
        members = [q for q in range(n) if (mask >> q) & 1]
        rest = [q for q in range(n) if not (mask >> q) & 1]
        axes = [n - 1 - q for q in reversed(members)] + [n - 1 - q for q in reversed(rest)]
        matrix = tensor.transpose(axes).reshape(1 << len(members), 1 << len(rest))
        sigma = np.linalg.svd(matrix, compute_uv=False)
        value = float(sigma.sum() ** 2 - 1.0) / 2.0
        values.append(value if value > 0.0 else 0.0)
    return values


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10), split=st.booleans())
@example(seed=11, n=11, split=False)
@example(seed=12, n=12, split=True)
@settings(max_examples=40)
def test_stacked_scores_equal_per_cut_svds_bit_for_bit(seed, n, split):
    rng = np.random.default_rng(seed)
    if split:  # qubit 0 unentangled: the cut {0} scores about 0, on either side of the clamp
        amps = np.kron(random_state(n - 1, rng).amplitudes, [1.0, 0.0])
    else:
        amps = random_state(n, rng).amplitudes
    reference = _per_cut_reference(amps, n)
    assert _cut_negativities(amps, n) == reference
    total = 0.0
    for value in reference:
        total += value
    assert _total_negativity(amps, n) == total


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
@settings(max_examples=25)
def test_schmidt_and_eigen_paths_agree(seed, n):
    state = random_state(n, np.random.default_rng(seed))
    for cut in enumerate_cuts(n):
        fast = cut_negativity(state, cut, method="schmidt")
        slow = cut_negativity(state, cut, method="eigen")
        assert abs(fast - slow) < 1e-10


# --- totals and bounds -----------------------------------------------------------


def test_ghz3_total():
    state = run_circuit(named_circuit("circuit_ghz3"), zero_state(3))
    assert abs(total_entanglement(state).total - 1.5) < 1e-9


def test_psi4a_total_and_breakdown():
    report = total_entanglement(named_state("psi4a"))
    assert abs(report.total - 5.5) < 1e-9
    by_size = report.contributions_by_size()
    assert np.allclose(sorted(by_size[1]), [0.5] * 4, atol=1e-9)
    assert np.allclose(sorted(by_size[2]), [0.5, 1.5, 1.5], atol=1e-9)


def test_bssb5_total_and_breakdown():
    report = total_entanglement(named_state("bssb5"))
    assert abs(report.total - 17.5) < 1e-9
    by_size = report.contributions_by_size()
    assert np.allclose(by_size[1], [0.5] * 5, atol=1e-9)
    assert np.allclose(by_size[2], [1.5] * 10, atol=1e-9)


def test_report_total_matches_contribution_sum():
    report = total_entanglement(named_state("psi5a"))
    assert abs(report.total - sum(r.contribution for r in report.per_cut)) < 1e-10


def test_report_serialization_fields():
    record = total_entanglement(bell_state()).to_dict()
    assert record["n"] == 2
    assert record["per_cut"] == [{"mask": 1, "size": 1, "contribution": record["per_cut"][0]["contribution"]}]


@pytest.mark.parametrize("n,expected", [(3, 1.5), (4, 6.5), (5, 17.5), (6, 60.5)])
def test_max_entanglement_bounds(n, expected):
    assert max_entanglement_bound(n) == expected


def test_bound_matches_per_cut_ceilings():
    for n in range(2, 9):
        total = sum((2**c.smaller_side - 1) / 2 for c in enumerate_cuts(n))
        assert abs(max_entanglement_bound(n) - total) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30)
def test_totals_never_exceed_the_bound(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    gates = []
    for _ in range(int(rng.integers(0, 21))):
        if rng.random() < 0.5:
            gates.append(GateSpec("H", (int(rng.integers(n)),)))
        else:
            pair = rng.permutation(n)[:2]
            gates.append(GateSpec("CNOT", (int(pair[0]), int(pair[1]))))
    state = run_circuit(Circuit(n, tuple(gates)), zero_state(n))
    report = total_entanglement(state)
    assert report.total <= max_entanglement_bound(n) + 1e-9
    for cut_report in report.per_cut:
        ceiling = (2**cut_report.cut.smaller_side - 1) / 2
        assert -1e-12 <= cut_report.contribution <= ceiling + 1e-9


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(("H", "X", "Y", "Z", "S", "T")))
@settings(max_examples=30)
def test_single_qubit_gates_never_change_the_total(seed, kind):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    state = random_state(n, rng)
    before = total_entanglement(state).total
    after = total_entanglement(apply_gate(state, GateSpec(kind, (int(rng.integers(n)),)))).total
    assert abs(before - after) < 1e-9


# --- traces ------------------------------------------------------------------


def test_ghz3_trace():
    steps = entanglement_trace(named_circuit("circuit_ghz3"))
    assert [s for s, _ in steps] == [0, 1, 2, 3]
    assert np.allclose([v for _, v in steps], [0.0, 0.0, 1.0, 1.5], atol=1e-9)


def test_circuit_4a_trace_passes_through_two_bell_pairs():
    values = [v for _, v in entanglement_trace(named_circuit("circuit_4a"))]
    assert np.allclose(values, [0.0, 0.0, 2.0, 2.0, 5.0, 5.5], atol=1e-9)


def test_circuit_5a_trace():
    values = [v for _, v in entanglement_trace(named_circuit("circuit_5a"))]
    assert np.allclose(values, [0.0, 0.0, 4.0, 4.0, 10.0, 10.0, 13.0, 15.5, 17.5], atol=1e-9)


def test_circuit_6a_trace_reaches_the_bound():
    values = [v for _, v in entanglement_trace(named_circuit("circuit_6a"))]
    assert len(values) == 14
    assert abs(values[-1] - 60.5) < 1e-9


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ghz_trace_increment_law(n):
    values = [v for _, v in entanglement_trace(ghz_circuit(n))]
    assert values[0] == values[1] == 0.0
    # gate j >= 2 is CNOT(n-1, m) with m = n - j; its increment is 2^(m-1)
    for j in range(2, n + 1):
        m = n - j
        assert abs((values[j] - values[j - 1]) - 2 ** (m - 1)) < 1e-9
    assert abs(values[-1] - (2 ** (n - 1) - 1) / 2) < 1e-9


def test_trace_of_empty_circuit():
    assert entanglement_trace(Circuit(2, ())) == [(0, 0.0)]


# --- eigensolver facade ---------------------------------------------------------


def test_eigenvalues_of_identity():
    assert np.allclose(hermitian_eigenvalues(np.eye(4)), [1, 1, 1, 1])


def test_eigenvalues_of_diagonal():
    assert np.allclose(hermitian_eigenvalues(np.diag([3.0, -1.0])), [-1, 3])


def test_eigenvalues_match_char_poly_oracle():
    rng = np.random.default_rng(17)
    raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    matrix = (raw + raw.conj().T) / 2
    assert np.allclose(hermitian_eigenvalues(matrix), char_poly_eigenvalues(matrix), atol=1e-8)


def test_eigenvalues_reject_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

