import numpy as np
import pytest
from hypothesis import given, strategies as st

from entangler.qsim import (
    GATE_KINDS,
    GATE_MATRICES,
    SINGLE_QUBIT_KINDS,
    Circuit,
    CircuitParseError,
    GateSpec,
    StateVector,
    _apply_gate_inplace,
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


@pytest.mark.parametrize("bad_n", [0, -1, 17])
def test_zero_state_rejects_out_of_range(bad_n):
    with pytest.raises(ValueError):
        zero_state(bad_n)


def test_state_vector_requires_normalization():
    with pytest.raises(ValueError, match="not normalized"):
        StateVector(1, np.array([1.0, 1.0], dtype=complex))


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


@pytest.mark.parametrize("n", range(2, 8))
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


def test_nonzero_counts():
    assert nonzero_coefficient_count(named_state("psi6a")) == 32
    assert nonzero_coefficient_count(named_state("psi6b")) == 16
    assert nonzero_coefficient_count(zero_state(4)) == 1


def test_nonzero_count_rejects_negative_tolerance():
    with pytest.raises(ValueError):
        nonzero_coefficient_count(zero_state(2), tol=-1e-3)


def test_allclose_up_to_phase():
    state = named_state("psi5a")
    flipped = StateVector(5, -1j * state.amplitudes)
    assert allclose_up_to_phase(state, flipped)
    assert not allclose_up_to_phase(state, named_state("bssb5"))


# --- circuit text format ---------------------------------------------------


def test_parse_ghz3_text():
    circuit = parse_circuit("H(2); CNOT(2,1); CNOT(2,0)")
    assert circuit == named_circuit("circuit_ghz3")


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


def test_parse_error_on_out_of_range_label():
    with pytest.raises(CircuitParseError, match="references qubit 5"):
        parse_circuit("H(5)", n=3)


def test_parse_error_on_over_long_label():
    with pytest.raises(CircuitParseError, match="5000 digits") as err:
        parse_circuit("H(0);\nCNOT(1, " + "9" * 5000 + ")")
    assert (err.value.line, err.value.column) == (2, 9)
    assert parse_circuit("H(007); CNOT(" + "0" * 5000 + "1,0)").gates == (GateSpec("H", (7,)), GateSpec("CNOT", (1, 0)))


@pytest.mark.parametrize("name", [
    "circuit_ghz3", "circuit_ghz6", "circuit_4a", "circuit_4b",
    "circuit_5a", "circuit_5b", "circuit_6a",
])
def test_format_parse_round_trip(name):
    circuit = named_circuit(name)
    assert parse_circuit(format_circuit(circuit), n=circuit.n) == circuit


def test_paper_order_reverses_the_listing():
    circuit = named_circuit("circuit_ghz3")
    assert format_circuit(circuit, paper_order=True) == "CNOT(2,0); CNOT(2,1); H(2)"
