import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entangler import entanglement as entanglement_module
from entangler.catalog import ghz_circuit, ghz_state, named_circuit, named_state
from entangler.entanglement import (
    _SVD_ERRSTATE,
    Cut,
    _cut_layouts,
    _cut_negativities,
    _singular_values,
    _stack_negativities,
    _stack_stabilizer_negativities,
    _total_negativity,
    cut_negativity,
    entanglement_trace,
    enumerate_cuts,
    max_entanglement_bound,
    partial_transpose_spectrum,
    total_entanglement,
)
from entangler.evolve import GAConfig, build_gate_set
from entangler.qsim import (
    GATE_KINDS,
    MAX_QUBITS,
    NON_CLIFFORD_KINDS,
    Circuit,
    GateSpec,
    StateVector,
    apply_gate,
    parse_circuit,
    run_circuit,
    zero_state,
)

from oracles import char_poly_eigenvalues, partial_transpose_dense, random_state, tableau_trace


CLIFFORD_KINDS = tuple(kind for kind in GATE_KINDS if kind not in NON_CLIFFORD_KINDS)


def bell_state():
    return StateVector(2, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


@st.composite
def _circuits(draw, kinds=GATE_KINDS):
    """Circuits over the given gate kinds (every kind by default), n = 2..8, of up to 3n gates."""
    n = draw(st.integers(2, 8))
    table = build_gate_set(n, kinds).table
    return Circuit(n, tuple(draw(st.lists(st.sampled_from(table), max_size=3 * n))))


# --- cuts --------------------------------------------------------------------


def test_cuts_for_three_qubits():
    cuts = enumerate_cuts(3)
    assert [c.members for c in cuts] == [frozenset({0}), frozenset({0, 1}), frozenset({0, 2})]
    assert [c.mask for c in cuts] == [1, 3, 5]
    assert [str(c) for c in cuts] == ["{0}", "{0,1}", "{0,2}"]


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


def test_cuts_scores_traces_and_gate_sets_take_one_qubit_range():
    # Refused before anything is built: enumerate_cuts(20) alone would make
    # 524,287 Cut objects.
    rng = np.random.default_rng(0)
    for build in (enumerate_cuts, lambda n: total_entanglement(random_state(n, rng)),
                  lambda n: entanglement_trace(Circuit(n, ())), lambda n: build_gate_set(n, ("H", "CNOT")),
                  lambda n: GAConfig(n=n, circuit_length=3), ghz_state, ghz_circuit,
                  lambda n: Cut(1, n), max_entanglement_bound):
        with pytest.raises(ValueError, match="entanglement needs at least 2 qubits, got n=1"):
            build(1)
        with pytest.raises(ValueError, match="scoring is capped at 12 qubits, got n=13"):
            build(13)


def test_qubit_counts_are_exact_integers():
    for build in (enumerate_cuts, lambda n: Cut(1, n), lambda n: build_gate_set(n, ("H", "CNOT")),
                  ghz_state, ghz_circuit, max_entanglement_bound):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build(3.0)
    assert max_entanglement_bound(np.int64(3)) == max_entanglement_bound(3)
    for built in (enumerate_cuts(np.int64(3))[0], Cut(1, np.int64(3)), build_gate_set(np.int64(3), ("H",)),
                  ghz_state(np.int64(3)), ghz_circuit(np.int64(3))):
        assert type(built.n) is int
    assert entanglement_trace(Circuit(np.int64(3), ())) == [(0, 0.0)]


def test_cut_must_contain_qubit_zero_and_be_proper():
    with pytest.raises(ValueError, match="qubit 0"):
        Cut(0b010, 3)
    with pytest.raises(ValueError, match="proper"):
        Cut(0b111, 3)


@pytest.mark.parametrize("n", range(2, MAX_QUBITS + 1))
def test_cut_masks_match_the_layouts_and_members(n):
    cuts = enumerate_cuts(n)
    assert [c.mask for c in cuts] == sorted(mask for _m, masks, _g in _cut_layouts(n) for mask in masks)
    for cut in cuts:
        assert sum(1 << q for q in cut.members) == cut.mask
        assert cut.smaller_side == min(len(cut.members), n - len(cut.members))


@pytest.mark.parametrize("mask", [0, 2, 6, 7, 8, 9, 13, -1, -3])
def test_cut_refuses_masks_outside_the_canonical_range(mask):
    with pytest.raises(ValueError, match="qubit 0|proper"):
        Cut(mask, 3)


def test_cut_mask_is_an_exact_integer():
    assert Cut(np.int64(5), 3) == Cut(5, 3)
    assert type(Cut(np.int64(5), 3).mask) is int
    with pytest.raises(TypeError):
        Cut(5.0, 3)


# --- partial transpose spectra ------------------------------------------------


def test_bell_partial_transpose_spectrum():
    spectrum = partial_transpose_spectrum(bell_state(), Cut(1, 2))
    assert np.allclose(spectrum, [-0.5, 0.5, 0.5, 0.5], atol=1e-10)


def test_bell_spectrum_against_dense_oracle():
    state = bell_state()
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    oracle = char_poly_eigenvalues(partial_transpose_dense(rho, {0}, 2))
    spectrum = partial_transpose_spectrum(state, Cut(1, 2))
    assert np.allclose(spectrum, oracle, atol=1e-8)


def test_product_state_spectrum_is_rank_one():
    spectrum = partial_transpose_spectrum(zero_state(2), Cut(1, 2))
    assert np.allclose(spectrum, [0, 0, 0, 1], atol=1e-12)


def test_ghz3_negative_part_is_one_half():
    state = run_circuit(named_circuit("circuit_ghz3"), zero_state(3))
    spectrum = partial_transpose_spectrum(state, Cut(1, 3))
    assert abs(spectrum[spectrum < 0].sum() + 0.5) < 1e-10


def test_spectrum_matches_char_poly_oracle_on_every_cut():
    state = random_state(3, np.random.default_rng(17))
    rho = np.outer(state.amplitudes, state.amplitudes.conj())
    for cut in enumerate_cuts(3):
        oracle = char_poly_eigenvalues(partial_transpose_dense(rho, cut.members, 3))
        assert np.allclose(partial_transpose_spectrum(state, cut), oracle, atol=1e-8)


def test_spectrum_sums_to_one():
    state = random_state(4, np.random.default_rng(3))
    for cut in enumerate_cuts(4):
        assert abs(partial_transpose_spectrum(state, cut).sum() - 1) < 1e-9


def test_partial_transpose_dimension_cap():
    state = random_state(13, np.random.default_rng(0))
    cached = _cut_layouts.cache_info().currsize
    with pytest.raises(ValueError, match="cap"):
        partial_transpose_spectrum(state, Cut(1, 13))
    with pytest.raises(ValueError, match="cap"):
        total_entanglement(state)
    with pytest.raises(ValueError, match="cap"):
        entanglement_trace(Circuit(13, ()))
    assert _cut_layouts.cache_info().currsize == cached


# --- negativity ----------------------------------------------------------------


def test_bell_negativity_both_paths():
    cut = Cut(1, 2)
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
        cut_negativity(bell_state(), Cut(1, 2), method="guess")


@pytest.mark.parametrize("score", [
    cut_negativity, lambda state, cut: cut_negativity(state, cut, method="eigen"), partial_transpose_spectrum,
], ids=["schmidt", "eigen", "spectrum"])
def test_cuts_for_another_qubit_count_are_refused(score):
    with pytest.raises(ValueError, match="cut is for 4 qubits but the state has 3"):
        score(zero_state(3), Cut(1, 4))


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


@pytest.mark.parametrize("n", range(2, MAX_QUBITS + 1))
def test_direct_svd_gives_the_bits_of_numpy_svd(n):
    # Stored and transposed gathers: the gufunc takes either orientation as np.linalg.svd hands it on.
    amps = random_state(n, np.random.default_rng(n)).amplitudes
    for _m, _masks, gathers in _cut_layouts(n):
        for g in (gathers, gathers.transpose(0, 2, 1)):
            reference = np.linalg.svd(amps[g], compute_uv=False).sum(axis=-1)
            with np.errstate(**_SVD_ERRSTATE):
                sums = _singular_values(amps[g]).sum(axis=-1)
            assert sums.dtype == reference.dtype
            assert sums.tobytes() == reference.tobytes()


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0", reason="numpy 1.x has no _umath_linalg.svd")
def test_scoring_calls_the_svd_gufunc_itself():
    from numpy.linalg import _umath_linalg

    assert _singular_values.func is _umath_linalg.svd
    assert _singular_values.args == ()
    assert _singular_values.keywords == {"signature": "D->d"}


def test_a_nan_stack_raises_instead_of_scoring_zero():
    # Inside the error state LAPACK's failure to converge raises; an infinite
    # entry converges to NaN singular values, which the clamp must not read as 0.0.
    nan_amps = np.full(16, np.nan + 0j)
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        _cut_negativities(nan_amps, 4)
    inf_amps = np.full(16, np.inf + 0j)
    with pytest.raises(np.linalg.LinAlgError, match="NaN"):
        _cut_negativities(inf_amps, 4)
    with pytest.raises(np.linalg.LinAlgError, match="NaN"):
        _stack_negativities(inf_amps, _cut_layouts(4)[1][2])


@pytest.mark.parametrize("value", [np.nan, 0.0, np.inf], ids=["nan", "zero", "inf"])
def test_stabilizer_scores_refuse_a_purity_that_is_not_finite_and_positive(value):
    # No SVD runs on this path, so no SVD error may be raised either.
    with pytest.raises(RuntimeError, match="is not finite and positive"):
        _cut_negativities(np.full(16, value + 0j), 4, stabilizer=True)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_total_negativity_refuses_nan_and_infinite_amplitudes(bad):
    amps = random_state(4, np.random.default_rng(4)).amplitudes.copy()
    amps[6] = bad
    with pytest.raises(RuntimeError, match="norm drifted by nan in a scored state"):
        _total_negativity(amps, 4)
    with pytest.raises(RuntimeError, match="norm drifted by nan in a scored state"):
        _total_negativity(np.full(16, bad + 0j), 4)


def test_scoring_a_state_emits_no_floating_point_warning():
    # Separable, stabilizer and random states: zero singular values, exact
    # ranks and full spectra all score without a RuntimeWarning.
    states = [zero_state(5), named_state("psi5a"), random_state(5, np.random.default_rng(5))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for state in states:
            total_entanglement(state)
            _total_negativity(state.amplitudes, 5)
            for cut in enumerate_cuts(5):
                cut_negativity(state, cut)
        entanglement_trace(named_circuit("circuit_5a"))
        entanglement_trace(parse_circuit("H(0); T(0); CNOT(0,1); H(2); CNOT(1,2)"))


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 8))
@settings(max_examples=40)
def test_partial_recomputation_fills_the_same_bits(seed, n):
    # A cut scores the same bits in a stack of some cuts as in the stack of all:
    # apart=(a, b) scores the cuts that separate a from b and leaves 0.0 elsewhere.
    amps = random_state(n, np.random.default_rng(seed)).amplitudes
    full = _cut_negativities(amps, n)
    for a, b in permutations(range(n), 2):
        values = _cut_negativities(amps, n, (a, b))
        assert values == [full[i] if ((2 * i + 1) >> a ^ (2 * i + 1) >> b) & 1 else 0.0
                          for i in range(len(full))]
    assert _total_negativity(amps, n, known=full) == _total_negativity(amps, n)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5))
@settings(max_examples=25)
def test_schmidt_and_eigen_paths_agree(seed, n):
    state = random_state(n, np.random.default_rng(seed))
    for cut in enumerate_cuts(n):
        fast = cut_negativity(state, cut, method="schmidt")
        slow = cut_negativity(state, cut, method="eigen")
        assert abs(fast - slow) < 1e-10


@given(circuit=_circuits(CLIFFORD_KINDS))
# CZ and S make the complex phases of a graph state; the cut {0} then has k = 1.
@example(circuit=Circuit(3, tuple(GateSpec(kind, args) for kind, args in (
    ("H", (0,)), ("H", (1,)), ("H", (2,)), ("CZ", (0, 1)), ("CZ", (1, 2)), ("S", (1,))))))
@settings(max_examples=40)
def test_stabilizer_scores_are_exact_and_match_the_svd(circuit):
    amps = run_circuit(circuit, zero_state(circuit.n)).amplitudes
    for _m, _masks, gathers in _cut_layouts(circuit.n):
        exact = _stack_stabilizer_negativities(amps, gathers)
        dense = _stack_negativities(amps, gathers)
        assert len(exact) == len(dense)
        for value, svd_value in zip(exact, dense):
            assert abs(value - svd_value) <= 1e-12
            k = round(np.log2(2.0 * value + 1.0))
            assert value == (2**k - 1) / 2


@given(circuit=_circuits(CLIFFORD_KINDS))
@settings(max_examples=60)
def test_clifford_traces_equal_the_binary_tableau_exactly(circuit):
    # The GF(2) rank of each cut's tableau columns gives every entry's exact
    # half-integer sum, with no floating point on the oracle's side.
    assert entanglement_trace(circuit) == tableau_trace(circuit)


def test_stabilizer_scores_refuse_a_spectrum_that_is_not_flat():
    # T right after H only sets a phase: the Schmidt spectrum is still flat.
    flat = run_circuit(parse_circuit("H(0); T(0); CNOT(0,1)"), zero_state(2)).amplitudes
    assert _stack_stabilizer_negativities(flat, _cut_layouts(2)[0][2]) == [0.5]
    # A second H turns that phase into unequal Schmidt coefficients, cos^2 and sin^2 of pi/8.
    skewed = run_circuit(parse_circuit("H(0); T(0); H(0); CNOT(0,1)"), zero_state(2)).amplitudes
    with pytest.raises(RuntimeError, match="not a stabilizer state"):
        _stack_stabilizer_negativities(skewed, _cut_layouts(2)[0][2])


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
    # Three Bell pairs at step 6, then joined: every cut that splits two or
    # three pairs comes from the product rule until one component spans the register.
    values = [v for _, v in entanglement_trace(named_circuit("circuit_6a"))]
    np.testing.assert_allclose(values, [0, 0, 8, 8, 20, 20, 38, 41, 45.5, 45.5, 47.5, 47.5, 52.5, 60.5],
                               rtol=0, atol=1e-9)


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


@pytest.mark.parametrize("name, total", [
    ("circuit_4a", 5.5), ("circuit_4b", 5.5), ("circuit_5a", 17.5), ("circuit_5b", 17.5), ("circuit_6a", 60.5)])
def test_catalog_traces_end_exactly_at_their_totals(name, total):
    assert entanglement_trace(named_circuit(name))[-1][1] == total


@pytest.mark.parametrize("n", range(2, MAX_QUBITS + 1))
def test_ghz_traces_end_exactly_at_their_totals(n):
    assert entanglement_trace(ghz_circuit(n))[-1][1] == ((1 << (n - 1)) - 1) / 2


def test_a_long_trace_ends_within_its_bound_of_the_total():
    # 20,001 Hadamards drift the norm past RENORM_TOL; the joining CNOT scores
    # the whole register on its normalized amplitudes, as run_circuit's state is.
    gates = (GateSpec("H", (0,)),) * 20_001 + (GateSpec("T", (0,)), GateSpec("H", (0,)), GateSpec("CNOT", (0, 1)))
    circuit = Circuit(2, gates)
    total = total_entanglement(run_circuit(circuit, zero_state(2))).total
    assert total > 0.0
    assert abs(entanglement_trace(circuit)[-1][1] - total) <= 1e-12


@given(circuit=_circuits(CLIFFORD_KINDS))
@settings(max_examples=40)
def test_t_free_trace_entries_are_exact_half_integers(circuit):
    n, gates = circuit.n, circuit.gates
    for k, (_, value) in enumerate(entanglement_trace(circuit)):
        assert 2.0 * value == int(2.0 * value)
        exact = total_entanglement(run_circuit(Circuit(n, gates[:k]), zero_state(n))).total
        assert abs(value - exact) <= 1e-12


@given(circuit=_circuits())
# CNOT(1, 2) changes the cut {0, 2}, which holds its target but not its control.
@example(circuit=Circuit(3, (GateSpec("H", (1,)), GateSpec("CNOT", (1, 2)))))
# H T H leaves qubit 0 unevenly split, so the spectra it reaches are not flat: the T
# before the first CNOT, and the one after it on a qubit already linked, keep every
# later cut of that component on the SVD path.
@example(circuit=parse_circuit("H(0); T(0); H(0); H(1); CNOT(1,2); CNOT(0,1)"))
@example(circuit=parse_circuit("H(0); CNOT(0,1); H(2); T(0); H(0); CNOT(1,2); CNOT(0,1)"))
@settings(max_examples=40)
def test_trace_rescores_only_the_cuts_a_gate_can_change(circuit):
    n, gates = circuit.n, circuit.gates
    steps = entanglement_trace(circuit)
    assert [step for step, _ in steps] == list(range(len(gates) + 1))
    for k, (_, value) in enumerate(steps):
        exact = total_entanglement(run_circuit(Circuit(n, gates[:k]), zero_state(n))).total
        assert abs(value - exact) <= 1e-12
        # A single-qubit gate is local to every cut: the entry is carried over.
        if k and len(gates[k - 1].args) == 1:
            assert value == steps[k - 1][1]


@st.composite
def _clustered_circuits(draw):
    """Circuits on n = 2..9 that entangle up to three clusters apart, then join them late."""
    n = draw(st.integers(2, 9))
    table = build_gate_set(n, GATE_KINDS).table
    cluster = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    within = [g for g in table if len({cluster[q] for q in g.args}) == 1]
    across = [g for g in table if len({cluster[q] for q in g.args}) == 2]
    gates = draw(st.lists(st.sampled_from(within), min_size=n, max_size=3 * n))
    if across:
        gates += draw(st.lists(st.sampled_from(across), max_size=3))
    gates += draw(st.lists(st.sampled_from(table), max_size=4))
    return Circuit(n, tuple(gates))


def _register_join_step(circuit: Circuit) -> int:
    """The step whose two-qubit gate first links every qubit, or len(circuit) + 1."""
    parts = [{q} for q in range(circuit.n)]
    for step, gate in enumerate(circuit.gates, start=1):
        if len(gate.args) == 2:
            joined = parts[gate.args[0]] | parts[gate.args[1]]
            for q in joined:
                parts[q] = joined
            if len(joined) == circuit.n:
                return step
    return len(circuit) + 1


_SCORERS = ("_stack_negativities", "_stack_stabilizer_negativities")


def _spied_trace(patch, circuit: Circuit):
    """entanglement_trace(circuit) and, per scored stack, (gates applied, state size, gathers shape, scorer).

    Both scorers are spied on: the SVD one and the exact one that T-free
    components take.
    """
    applied, stacks = [0], []
    apply_gate_inplace = entanglement_module._apply_gate_inplace

    def counted_apply(amps, gate, n):
        applied[0] += 1
        apply_gate_inplace(amps, gate, n)

    def spied(scorer):
        score = getattr(entanglement_module, scorer)

        def recorded_stack(amps, gathers):
            stacks.append((applied[0], amps.size, gathers.shape, scorer))
            return score(amps, gathers)
        return recorded_stack

    patch.setattr(entanglement_module, "_apply_gate_inplace", counted_apply)
    for scorer in _SCORERS:
        patch.setattr(entanglement_module, scorer, spied(scorer))
    return entanglement_trace(circuit), stacks


@given(circuit=_clustered_circuits())
# CZ(2, 3) entangles a pair beside the one on {0, 1}: the cut {0, 2} splits both, so the
# product rule gives it from the two pairs' values.  CNOT(1, 2) then joins the pairs.
@example(circuit=Circuit(4, tuple(GateSpec(kind, args) for kind, args in (
    ("H", (0,)), ("CNOT", (0, 1)), ("T", (1,)), ("H", (1,)), ("H", (2,)), ("CZ", (2, 3)), ("T", (3,)),
    ("H", (3,)), ("CNOT", (1, 2))))))
# Four Bell pairs, then CNOT(1, 2) joins two of them: a cut such as {0, 2, 4, 6} it changes
# also splits both other pairs, whose product is kept at that cut's part outside {0, 1, 2, 3}.
@example(circuit=Circuit(8, tuple(GateSpec(kind, args) for a in range(0, 8, 2) for kind, args in (
    ("H", (a,)), ("CNOT", (a, a + 1)), ("T", (a + 1,)))) + (GateSpec("CNOT", (1, 2)),)))
@settings(max_examples=40)
def test_trace_scores_separate_components_on_their_own_states(circuit):
    n, gates = circuit.n, circuit.gates
    with pytest.MonkeyPatch.context() as patch:
        steps, stacks = _spied_trace(patch, circuit)
    whole = [applied for applied, size, _shape, _scorer in stacks if size == 1 << n]
    # No cut is scored on the whole state while the register is still split.
    assert min(whole, default=len(gates) + 1) >= _register_join_step(circuit)
    for k, (_, value) in enumerate(steps):
        exact = total_entanglement(run_circuit(Circuit(n, gates[:k]), zero_state(n))).total
        assert abs(value - exact) <= 1e-12
        if k and len(gates[k - 1].args) == 1:
            assert value == steps[k - 1][1]


def _t_topped_ghz_circuit(n: int) -> Circuit:
    """ghz_circuit(n) with T on its top qubit right after the H: every component then takes the SVD."""
    gates = ghz_circuit(n).gates
    return Circuit(n, gates[:1] + (GateSpec("T", (n - 1,)),) + gates[1:])


def _whole_register_steps(monkeypatch, circuit: Circuit):
    """The trace, the steps that scored a stack on the whole register, and the scorers used."""
    steps, stacks = _spied_trace(monkeypatch, circuit)
    whole = [applied for applied, _size, shape, _scorer in stacks if shape[1] * shape[2] == 1 << circuit.n]
    return steps, whole, {scorer for *_, scorer in stacks}


def _cuts_scored_per_step(monkeypatch, circuit: Circuit):
    """Per step, the number of cuts scored on each state size, and the scorers used."""
    scored, stacks = {}, _spied_trace(monkeypatch, circuit)[1]
    for applied, size, shape, _scorer in stacks:
        by_size = scored.setdefault(applied, {})
        by_size[size] = by_size.get(size, 0) + shape[0]
    return scored, {scorer for *_, scorer in stacks}


def test_ghz_trace_scores_the_whole_register_only_at_its_last_cnot(monkeypatch):
    n = 8
    circuit = ghz_circuit(n)
    steps, whole, scorers = _whole_register_steps(monkeypatch, circuit)
    assert whole and set(whole) == {len(circuit)}
    assert abs(steps[-1][1] - ((1 << (n - 1)) - 1) / 2) < 1e-12
    assert scorers == {"_stack_stabilizer_negativities"}


def test_t_topped_ghz_trace_scores_the_whole_register_only_at_its_last_cnot(monkeypatch):
    n = 8
    circuit = _t_topped_ghz_circuit(n)
    steps, whole, scorers = _whole_register_steps(monkeypatch, circuit)
    assert whole and set(whole) == {len(circuit)}
    assert abs(steps[-1][1] - ((1 << (n - 1)) - 1) / 2) < 1e-12
    assert scorers == {"_stack_negativities"}


def test_ghz_trace_scores_only_the_component_cuts_a_cnot_changes(monkeypatch):
    # Gate k of ghz_circuit(8) is the CNOT that grows the one component to k
    # qubits: of its 2^(k-1) - 1 cuts, only the 2^(k-2) that separate the
    # CNOT's qubits are scored, merge or not.
    n = 8
    scored, scorers = _cuts_scored_per_step(monkeypatch, ghz_circuit(n))
    for k in range(2, n):
        assert scored[k] == {1 << k: 1 << (k - 2)}, k
    assert scorers == {"_stack_stabilizer_negativities"}


def test_t_topped_ghz_trace_scores_only_the_component_cuts_a_cnot_changes(monkeypatch):
    # The T is gate 2, so gate k + 1 grows the one component to k qubits.
    n = 8
    scored, scorers = _cuts_scored_per_step(monkeypatch, _t_topped_ghz_circuit(n))
    assert 2 not in scored
    for k in range(2, n):
        assert scored[k + 1] == {1 << k: 1 << (k - 2)}, k
    assert scorers == {"_stack_negativities"}
