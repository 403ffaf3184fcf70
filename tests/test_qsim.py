import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entangler import qsim as qsim_module
from entangler.qsim import (
    CNOT_ORDER_CACHE_SIZE,
    GATE_KINDS,
    GATE_MATRICES,
    MAX_QUBITS,
    RENORM_TOL,
    SINGLE_QUBIT_KINDS,
    SINGLE_QUBIT_PLAN_CACHE_SIZE,
    TWO_QUBIT_KINDS,
    Circuit,
    CircuitParseError,
    GateSpec,
    StateVector,
    _apply_gate_inplace,
    _cnot_order,
    _settle_norm,
    _single_qubit_plan,
    allclose_up_to_phase,
    apply_gate,
    format_circuit,
    nonzero_coefficient_count,
    parse_circuit,
    run_circuit,
    zero_state,
)
from entangler.catalog import named_circuit, named_state

from oracles import circuit_matrix, random_state

SQ2 = 1 / np.sqrt(2)


def test_zero_state_single_qubit():
    assert np.allclose(zero_state(1).amplitudes, [1, 0])


def test_zero_state_three_qubits():
    amps = zero_state(3).amplitudes
    assert amps[0] == 1
    assert np.allclose(amps[1:], 0)


@pytest.mark.parametrize("bad_n", [0, -1, 13, 17])
def test_zero_state_rejects_out_of_range(bad_n):
    with pytest.raises(ValueError):
        zero_state(bad_n)


@pytest.mark.parametrize("n", [0, -1])
def test_circuits_and_states_need_a_qubit(n):
    with pytest.raises(ValueError, match=f"circuit needs at least 1 qubit, got n={n}"):
        Circuit(n, ())
    with pytest.raises(ValueError, match=f"state needs at least 1 qubit, got n={n}"):
        StateVector(n, np.array([1.0], dtype=complex))


@pytest.mark.parametrize("n", [2.0, 2.5, np.float64(2), "2"], ids=repr)
def test_qubit_counts_refuse_non_integers(n):
    for build in (lambda: Circuit(n, ()), lambda: StateVector(n, np.array([1, 0, 0, 0], dtype=complex)),
                  lambda: zero_state(n)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build()


def test_qubit_counts_store_numpy_ints_as_ints():
    n = np.int64(2)
    circuit = Circuit(n, (GateSpec("H", (1,)),))
    for built in (circuit, StateVector(n, np.array([1, 0, 0, 0], dtype=complex)), zero_state(n),
                  run_circuit(circuit, zero_state(n))):
        assert type(built.n) is int


def test_state_vector_requires_normalization():
    # A NaN or infinite amplitude makes the norm NaN, which is refused too.
    for n, amps in ((1, [1.0, 1.0]), (2, [np.nan, np.nan, 0.0, 0.0]), (2, [np.inf, 0.0, 0.0, 0.0])):
        with pytest.raises(ValueError, match="not normalized"):
            StateVector(n, np.array(amps, dtype=complex))


def test_state_vector_requires_matching_length():
    with pytest.raises(ValueError):
        StateVector(2, np.array([1.0, 0.0], dtype=complex))


def test_state_amplitudes_are_read_only():
    state = zero_state(2)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_hadamard_on_zero():
    out = apply_gate(zero_state(1), GateSpec("H", (0,)))
    assert np.allclose(out.amplitudes, [SQ2, SQ2])


def test_bell_prep_on_upper_qubits():
    # H(2) then CNOT(2,1) on |000> leaves qubit 0 alone: (|000> + |110>)/sqrt2
    state = apply_gate(zero_state(3), GateSpec("H", (2,)))
    state = apply_gate(state, GateSpec("CNOT", (2, 1)))
    expected = np.zeros(8, dtype=complex)
    expected[0b000] = SQ2
    expected[0b110] = SQ2
    assert np.allclose(state.amplitudes, expected, atol=1e-12)


def test_x_index_convention():
    # X(i) on |00...0> must light up index 2^i: qubit 0 is the LSB.
    for n in (1, 2, 3, 5):
        for i in range(n):
            out = apply_gate(zero_state(n), GateSpec("X", (i,)))
            assert abs(out.amplitudes[1 << i] - 1) < 1e-12


@given(seed=st.integers(0, 2**32 - 1), qubit=st.integers(0, 2))
def test_x_is_an_involution(seed, qubit):
    state = random_state(3, np.random.default_rng(seed))
    gate = GateSpec("X", (qubit,))
    back = apply_gate(apply_gate(state, gate), gate)
    assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-12)


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(GATE_KINDS))
def test_every_gate_preserves_the_norm(seed, kind):
    rng = np.random.default_rng(seed)
    state = random_state(3, rng)
    args = (0,) if kind in SINGLE_QUBIT_KINDS else (2, 0)
    out = apply_gate(state, GateSpec(kind, args))
    assert abs(np.linalg.norm(out.amplitudes) - 1) < 1e-12


@pytest.mark.parametrize("kind,args", [
    ("H", (1,)), ("X", (0,)), ("Y", (2,)), ("Z", (1,)),
    ("CNOT", (2, 0)), ("CZ", (0, 1)),
])
def test_self_inverse_gates_twice(kind, args):
    state = random_state(3, np.random.default_rng(11))
    gate = GateSpec(kind, args)
    back = apply_gate(apply_gate(state, gate), gate)
    assert np.allclose(back.amplitudes, state.amplitudes, atol=1e-12)


def test_apply_gate_rejects_out_of_range_label():
    with pytest.raises(ValueError, match="references qubit 3"):
        apply_gate(zero_state(2), GateSpec("H", (3,)))


def test_gate_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown gate kind"):
        GateSpec("Q", (0,))


def test_gate_spec_rejects_wrong_arity():
    with pytest.raises(ValueError, match="takes 2"):
        GateSpec("CNOT", (1,))
    with pytest.raises(ValueError, match="takes 1"):
        GateSpec("H", (0, 1))


def test_gate_spec_rejects_equal_two_qubit_labels():
    with pytest.raises(ValueError, match="distinct"):
        GateSpec("CNOT", (1, 1))


@pytest.mark.parametrize("kind, args, error, message", [
    ("H", (-1,), ValueError, "negative qubit label"),
    ("CNOT", (0, -2), ValueError, "negative qubit label"),
    ("CNOT", (0, 1.9), TypeError, "'float' object cannot be interpreted as an integer"),
    ("H", (np.float64(1.0),), TypeError, "cannot be interpreted as an integer"),
    ("CNOT", (0, "1"), TypeError, "'str' object cannot be interpreted as an integer"),
    ("H", 0, TypeError, "not iterable"),
    ("CZ", np.array([0.0, 1.0]), TypeError, "cannot be interpreted as an integer"),
], ids=["negative", "negative target", "float", "numpy float", "string", "bare label", "float array"])
def test_gate_spec_refuses_labels_that_are_not_natural_numbers(kind, args, error, message):
    with pytest.raises(error, match=message):
        GateSpec(kind, args)


def test_gate_spec_takes_any_iterable_of_integer_labels():
    cnot = GateSpec("CNOT", (0, 1))
    for args in ([0, 1], np.array([0, 1]), (np.int64(0), np.uint8(1)), range(2), iter((0, 1))):
        gate = GateSpec("CNOT", args)
        assert gate == cnot
        assert all(type(a) is int for a in gate.args)


def test_run_ghz3_circuit():
    out = run_circuit(named_circuit("circuit_ghz3"), zero_state(3))
    expected = np.zeros(8, dtype=complex)
    expected[0] = SQ2
    expected[7] = SQ2
    assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_empty_circuit_is_identity():
    state = random_state(3, np.random.default_rng(5))
    out = run_circuit(Circuit(3, ()), state)
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_circuit_5a_reproduces_its_eight_term_state():
    out = run_circuit(named_circuit("circuit_5a"), zero_state(5))
    c = 1 / np.sqrt(8)
    expected = np.zeros(32, dtype=complex)
    for index, sign in [(0b00000, 1), (0b00111, 1), (0b01011, 1), (0b01100, 1),
                        (0b10010, 1), (0b10101, 1), (0b11001, -1), (0b11110, -1)]:
        expected[index] = sign * c
    assert np.allclose(out.amplitudes, expected, atol=1e-12)


def test_run_circuit_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="qubits"):
        run_circuit(Circuit(3, ()), zero_state(2))


def test_run_circuit_refuses_a_norm_that_drifts_past_the_error_bound(monkeypatch):
    def scaling_kernel(amps, gate, n):
        amps *= 1.001

    monkeypatch.setattr(qsim_module, "_apply_gate_inplace", scaling_kernel)
    with pytest.raises(RuntimeError, match="norm drifted by .* after 1 gates"):
        run_circuit(Circuit(2, (GateSpec("H", (0,)),)), zero_state(2))
    with pytest.raises(RuntimeError, match="norm drifted by .* after 1 gates"):
        apply_gate(zero_state(2), GateSpec("H", (0,)))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_settle_norm_refuses_a_nan_norm(bad):
    # One NaN or infinite amplitude makes the norm NaN, whose drift compares
    # False with any bound; it is refused, not passed on as it stands.
    amps = zero_state(3).amplitudes.copy()
    amps[5] = bad
    with pytest.raises(RuntimeError, match="norm drifted by nan here"):
        _settle_norm(amps, "here")


def test_simulation_refuses_more_qubits_than_the_cap():
    # A 13-qubit state may be built, so that scoring can be shown to refuse
    # it; simulating it is refused before the kernel or its caches see it.
    state = StateVector(MAX_QUBITS + 1, np.eye(1, 2 ** (MAX_QUBITS + 1))[0])
    gates = (GateSpec("H", (0,)), GateSpec("CNOT", (0, MAX_QUBITS)))
    before = (_cnot_order.cache_info(), _single_qubit_plan.cache_info())
    with pytest.raises(ValueError, match=f"capped at {MAX_QUBITS} qubits"):
        run_circuit(Circuit(MAX_QUBITS + 1, gates), state)
    for gate in gates:
        with pytest.raises(ValueError, match=f"capped at {MAX_QUBITS} qubits"):
            apply_gate(state, gate)
    assert (_cnot_order.cache_info(), _single_qubit_plan.cache_info()) == before


def test_chained_apply_gate_renormalizes_like_run_circuit():
    # Kept as they came out of the kernel, the norm of these states would
    # drift past RENORM_TOL after a few thousand gates, and StateVector would
    # refuse the next one.
    gate = GateSpec("H", (0,))
    state = zero_state(2)
    for _ in range(20_000):
        state = apply_gate(state, gate)
    whole = run_circuit(Circuit(2, (gate,) * 20_000), zero_state(2))
    assert np.max(np.abs(state.amplitudes - whole.amplitudes)) <= 1e-9


def test_run_circuit_renormalizes_a_drifted_state():
    # 10,000 Hadamards are the identity, but rounding moves the norm past
    # RENORM_TOL; StateVector would refuse the state if run_circuit kept it.
    circuit = Circuit(2, (GateSpec("H", (0,)),) * 10_000)
    amps = zero_state(2).amplitudes.copy()
    for gate in circuit.gates:
        _apply_gate_inplace(amps, gate, 2)
    assert abs(np.vdot(amps, amps).real - 1.0) > RENORM_TOL
    out = run_circuit(circuit, zero_state(2)).amplitudes
    assert abs(np.vdot(out, out).real - 1.0) <= 1e-15
    assert np.allclose(out, zero_state(2).amplitudes, rtol=0, atol=1e-9)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), size=st.integers(0, 6))
def test_run_circuit_matches_full_matrix_oracle(seed, n, size):
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(size):
        kind = GATE_KINDS[rng.integers(len(GATE_KINDS))]
        if kind in SINGLE_QUBIT_KINDS or n == 1:
            if kind not in SINGLE_QUBIT_KINDS:
                kind = "H"
            gates.append(GateSpec(kind, (int(rng.integers(n)),)))
        else:
            pair = rng.permutation(n)[:2]
            gates.append(GateSpec(kind, (int(pair[0]), int(pair[1]))))
    circuit = Circuit(n, tuple(gates))
    state = random_state(n, rng)
    fast = run_circuit(circuit, state).amplitudes
    direct = circuit_matrix(circuit) @ state.amplitudes
    assert np.allclose(fast, direct, atol=1e-10)


def _index_array_kernel(amps: np.ndarray, gate: GateSpec) -> None:
    """The bit-mask index kernel that the reshaped-view kernel replaced."""
    base = np.arange(amps.size)
    if gate.kind == "CNOT":
        control, target = gate.args
        sel = base[(base & (1 << control)) != 0]
        amps[sel] = amps[sel ^ (1 << target)]
    elif gate.kind == "CZ":
        a, b = gate.args
        both = ((base & (1 << a)) != 0) & ((base & (1 << b)) != 0)
        amps[both] *= -1.0
    else:
        u = GATE_MATRICES[gate.kind]
        mask = 1 << gate.args[0]
        i0 = base[(base & mask) == 0]
        i1 = i0 | mask
        a0 = amps[i0]
        a1 = amps[i1]
        amps[i0] = u[0, 0] * a0 + u[0, 1] * a1
        amps[i1] = u[1, 0] * a0 + u[1, 1] * a1


@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_gate_kernel_equals_the_index_array_kernel_bit_for_bit(n):
    rng = np.random.default_rng(n)
    state = random_state(n, rng).amplitudes.copy()
    # Signed zeros in both parts, so that any change to the arithmetic shows.
    zeros = rng.permutation(state.size)[: state.size // 2]
    state.real[zeros[::2]] = np.copysign(0.0, rng.standard_normal(zeros[::2].size))
    state.imag[zeros[1::2]] = np.copysign(0.0, rng.standard_normal(zeros[1::2].size))
    placements = [GateSpec(kind, (q,)) for kind in SINGLE_QUBIT_KINDS for q in range(n)]
    placements += [GateSpec(kind, (a, b)) for kind in ("CNOT", "CZ")
                   for a in range(n) for b in range(n) if a != b]
    for gate in placements:
        fast, reference = state.copy(), state.copy()
        _apply_gate_inplace(fast, gate, n)
        _index_array_kernel(reference, gate)
        assert fast.tobytes() == reference.tobytes(), gate


def test_cnot_orders_are_read_only_permutations():
    order = _cnot_order(2, 0, 3)
    assert order.tolist() == [0, 1, 2, 3, 5, 4, 7, 6]
    assert not order.flags.writeable
    with pytest.raises(ValueError):
        order[0] = 1


def test_cnot_order_cache_stays_within_its_byte_bound():
    # The docstring's worst case: 132 orders of 2^12 intp entries, 4.3 MB.
    largest = _cnot_order(0, 1, MAX_QUBITS).nbytes
    assert largest == 2**MAX_QUBITS * np.dtype(np.intp).itemsize
    assert _cnot_order.cache_info().maxsize == CNOT_ORDER_CACHE_SIZE == MAX_QUBITS * (MAX_QUBITS - 1)
    assert CNOT_ORDER_CACHE_SIZE * largest <= 4.4e6
    # More placements than the cache keeps: the oldest are evicted.
    placements = [(c, t, n) for n in range(2, 11) for c in range(n) for t in range(n) if c != t]
    assert len(placements) > CNOT_ORDER_CACHE_SIZE
    for placement in placements:
        _cnot_order(*placement)
    assert _cnot_order.cache_info().currsize == CNOT_ORDER_CACHE_SIZE


def test_flip_indices_are_read_only():
    stay, swap, flip = _single_qubit_plan("H", 1, 3)
    assert flip.tolist() == [2, 3, 0, 1, 6, 7, 4, 5]
    assert flip.dtype == np.intp
    # H's own entries, picked by bit 1 of k: 0, 0, 1, 1, 0, 0, 1, 1.
    h = GATE_MATRICES["H"]
    assert stay.tolist() == [h[0, 0], h[0, 0], h[1, 1], h[1, 1]] * 2
    assert swap.tolist() == [h[0, 1], h[0, 1], h[1, 0], h[1, 0]] * 2
    for vector in (stay, swap, flip):
        assert not vector.flags.writeable
        with pytest.raises(ValueError):
            vector[0] = 1


def test_flip_index_cache_stays_within_its_byte_bound():
    # The docstring's worst case: every (kind, q, n) plan, 468 of them, in 21.6 MB.
    placements = [(kind, q, n) for kind in SINGLE_QUBIT_KINDS
                  for n in range(1, MAX_QUBITS + 1) for q in range(n)]
    assert _single_qubit_plan.cache_info().maxsize == SINGLE_QUBIT_PLAN_CACHE_SIZE == len(placements) == 468
    total = sum(vector.nbytes for placement in placements for vector in _single_qubit_plan(*placement))
    per_amplitude = 2 * np.dtype(complex).itemsize + np.dtype(np.intp).itemsize
    assert total == len(SINGLE_QUBIT_KINDS) * per_amplitude * sum(n << n for n in range(1, MAX_QUBITS + 1))
    assert total <= 21.7e6
    assert _single_qubit_plan.cache_info().currsize == SINGLE_QUBIT_PLAN_CACHE_SIZE


def test_nonzero_counts():
    assert nonzero_coefficient_count(named_state("psi6a")) == 32
    assert nonzero_coefficient_count(named_state("psi6b")) == 16
    assert nonzero_coefficient_count(zero_state(4)) == 1


def test_nonzero_count_rejects_negative_tolerance():
    # A NaN tolerance compares False with every modulus, so it would count nothing.
    for tol in (-1e-3, -1.0, -float("inf"), float("nan")):
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            nonzero_coefficient_count(zero_state(2), tol=tol)
        with pytest.raises(ValueError, match="tolerance must be nonnegative"):
            allclose_up_to_phase(zero_state(2), zero_state(2), tol=tol)


def test_allclose_up_to_phase():
    state = named_state("psi5a")
    flipped = StateVector(5, -1j * state.amplitudes)
    assert allclose_up_to_phase(state, flipped)
    assert not allclose_up_to_phase(state, named_state("bssb5"))
    # States on different qubit counts never agree.
    assert not allclose_up_to_phase(zero_state(2), zero_state(3))
    assert not allclose_up_to_phase(state, named_state("psi6a"))
    # With no amplitude of a above tol, b must have none either.
    hs4 = named_state("hs4")
    assert np.abs(hs4.amplitudes).max() < 0.5
    assert allclose_up_to_phase(hs4, hs4, tol=0.5)
    assert not allclose_up_to_phase(hs4, zero_state(4), tol=0.5)


# --- circuit text format ---------------------------------------------------


def test_parse_ghz3_text():
    circuit = parse_circuit("H(2); CNOT(2,1); CNOT(2,0)")
    assert circuit == named_circuit("circuit_ghz3")
    assert str(circuit) == format_circuit(circuit) == "H(2); CNOT(2,1); CNOT(2,0)"


def test_parse_tolerates_whitespace_and_newlines():
    circuit = parse_circuit("  H( 2 ) ;\n CNOT(2 , 1)\nCNOT(2,0)  \n")
    assert circuit == named_circuit("circuit_ghz3")


def test_parse_infers_qubit_count():
    assert parse_circuit("H(0); CNOT(0,4)").n == 5


def test_parse_empty_circuit_needs_explicit_n():
    assert parse_circuit("", n=2) == Circuit(2, ())
    with pytest.raises(ValueError, match="empty circuit"):
        parse_circuit("")


def test_parse_error_names_bad_arity_token():
    with pytest.raises(CircuitParseError, match=r"CNOT\(1\)"):
        parse_circuit("H(0); CNOT(1)")


def test_parse_error_carries_line_and_column():
    with pytest.raises(CircuitParseError) as err:
        parse_circuit("H(0);\nH(1); wat")
    assert err.value.line == 2
    assert err.value.column == 7


def test_parse_error_on_missing_separator():
    with pytest.raises(CircuitParseError, match="expected ';'"):
        parse_circuit("H(0) H(1)")
    # Of the blanks, only a newline separates gates; after "\r" and the
    # others the second gate is still on line 1, at column 6.
    for blank in (" ", "\t", "\r", "\x0b", "\x0c"):
        with pytest.raises(CircuitParseError, match=r"expected ';' before 'H\(1\)'") as err:
            parse_circuit(f"H(0){blank}H(1)")
        assert (err.value.line, err.value.column) == (1, 6)


def test_parse_error_on_out_of_range_label():
    with pytest.raises(CircuitParseError, match="references qubit 5"):
        parse_circuit("H(5)", n=3)


def test_parse_error_on_over_long_label():
    with pytest.raises(CircuitParseError, match="5000 digits") as err:
        parse_circuit("H(0);\nCNOT(1, " + "9" * 5000 + ")")
    assert (err.value.line, err.value.column) == (2, 9)
    assert parse_circuit("H(007); CNOT(" + "0" * 5000 + "1,0)").gates == (GateSpec("H", (7,)), GateSpec("CNOT", (1, 0)))
    # A run of zeros with no closing ')' splits one way only, so the refusal
    # takes linear time, not hours.
    for text in ("H(" + "0" * (1 << 20), "CNOT(1," + "0" * (1 << 20)):
        with pytest.raises(CircuitParseError, match=re.escape(f"malformed gate token {text[:12]!r}")) as err:
            parse_circuit(text)
        assert (err.value.line, err.value.column) == (1, 1)


@pytest.mark.parametrize("text", ["H(\u0663)", "CNOT(0, \u0663)", "H(\uff13)", "H(1\u0660)"])
def test_qubit_labels_are_ascii_digits(text):
    # Other scripts' decimal digits are not labels: '\u0663' is an Arabic-Indic 3.
    with pytest.raises(CircuitParseError, match="malformed gate token") as err:
        parse_circuit(text)
    assert (err.value.line, err.value.column) == (1, 1)


@pytest.mark.parametrize("name", [
    "circuit_ghz3", "circuit_ghz6", "circuit_4a", "circuit_4b",
    "circuit_5a", "circuit_5b", "circuit_6a",
])
def test_format_parse_round_trip(name):
    circuit = named_circuit(name)
    assert parse_circuit(format_circuit(circuit), n=circuit.n) == circuit


@st.composite
def circuits(draw):
    """Circuits on up to 16 qubits (labels up to 15) over all eight gate kinds."""
    n = draw(st.integers(2, 16))
    single = st.builds(lambda kind, q: GateSpec(kind, (q,)),
                       st.sampled_from(SINGLE_QUBIT_KINDS), st.integers(0, n - 1))
    double = st.builds(lambda kind, pair: GateSpec(kind, tuple(pair)), st.sampled_from(TWO_QUBIT_KINDS),
                       st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    return Circuit(n, tuple(draw(st.lists(single | double, max_size=20))))


_WHITESPACE = " \t\r\n\x0b\x0c"


@given(circuit=circuits(), paper_order=st.booleans(), data=st.data())
@settings(max_examples=300)
def test_circuit_text_round_trips(circuit, paper_order, data):
    text = format_circuit(circuit, paper_order=paper_order)
    # The same tokens with drawn whitespace around each parenthesis and comma,
    # joined by drawn runs of whitespace and extra ';' around a ';' or newline.
    space = st.text(_WHITESPACE, max_size=3)
    gap = st.text(_WHITESPACE + ";", max_size=4)
    tokens = [re.sub(r"[(,)]", lambda m: data.draw(space) + m.group() + data.draw(space), token)
              for token in text.split("; ") if token]
    spaced = data.draw(gap) + "".join(
        token + data.draw(gap) + data.draw(st.sampled_from(";\n")) + data.draw(gap) for token in tokens)
    for written in (text, spaced):
        parsed = parse_circuit(written, n=circuit.n)
        gates = parsed.gates[::-1] if paper_order else parsed.gates
        assert Circuit(parsed.n, gates) == circuit


_GRAMMAR_CHARACTERS = "HXYZSTCNOTcnotzQ(),; \n\t0123456789-+."


@given(text=st.text(alphabet=_GRAMMAR_CHARACTERS) | st.text() | circuits().map(format_circuit),
       n=st.none() | st.integers(1, 16), cut=st.integers(0, 400))
@settings(max_examples=500)
def test_parse_circuit_fails_only_with_a_positioned_parse_error(text, n, cut):
    # Truncating well-formed text reaches the grammar's inner states.
    text = text[:cut]
    try:
        circuit = parse_circuit(text, n=n)
    except CircuitParseError as err:
        assert 1 <= err.line <= text.count("\n") + 1
        assert err.column >= 1
    except ValueError as err:
        # The one documented exception: no gate to infer a qubit count from.
        assert n is None and "empty circuit" in str(err)
    else:
        assert isinstance(circuit, Circuit)
        assert n is None or circuit.n == n


def test_paper_order_reverses_the_listing():
    circuit = named_circuit("circuit_ghz3")
    assert format_circuit(circuit, paper_order=True) == "CNOT(2,0); CNOT(2,1); H(2)"
