"""Dense state-vector simulation of small n-qubit circuits.

Amplitude index convention: basis index k encodes the ket |q_{n-1} ... q_0>
with q_i = (k >> i) & 1, so qubit 0 is the least significant bit.  Circuits
store gates in application order: gates[0] acts first.

Circuit text grammar: gates written ``KIND(a)`` or ``KIND(a,b)`` with decimal
qubit labels, separated by ``;`` (a newline also separates gates); optional
whitespace anywhere between tokens.  The formatter can emit the reversed,
right-to-left matrix-product order via ``paper_order=True``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 16

SINGLE_QUBIT_KINDS = ("H", "X", "Y", "Z", "S", "T")
TWO_QUBIT_KINDS = ("CNOT", "CZ")
GATE_KINDS = SINGLE_QUBIT_KINDS + TWO_QUBIT_KINDS

_SQRT2_INV = 1.0 / np.sqrt(2.0)

GATE_MATRICES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
}

# Norm drift after a circuit run: below RENORM_TOL we leave the state alone,
# up to NORM_ERROR_TOL we renormalize, beyond that something is broken.
RENORM_TOL = 1e-12
NORM_ERROR_TOL = 1e-9


@dataclass(frozen=True)
class GateSpec:
    """One elementary gate with its qubit arguments.

    For CNOT the first argument is the control and the second the target.
    """

    kind: str
    args: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}; expected one of {GATE_KINDS}")
        args = self.args if isinstance(self.args, tuple) else (
            tuple(self.args) if isinstance(self.args, (list, np.ndarray)) else (self.args,))
        args = tuple(int(a) for a in args)
        object.__setattr__(self, "args", args)
        want = 1 if self.kind in SINGLE_QUBIT_KINDS else 2
        if len(args) != want:
            raise ValueError(f"{self.kind} takes {want} qubit argument(s), got {args}")
        if any(a < 0 for a in args):
            raise ValueError(f"negative qubit label in {self}")
        if want == 2 and args[0] == args[1]:
            raise ValueError(f"two-qubit gate needs distinct qubits, got {self}")

    def validate_for(self, n: int) -> None:
        for a in self.args:
            if a >= n:
                raise ValueError(f"gate {self} references qubit {a}, but the system has {n} qubits")

    def __str__(self) -> str:
        return f"{self.kind}({','.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Circuit:
    """Ordered gate sequence; gates[0] is applied first."""

    n: int
    gates: tuple[GateSpec, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"circuit needs at least 1 qubit, got n={self.n}")
        gates = tuple(self.gates)
        object.__setattr__(self, "gates", gates)
        for g in gates:
            g.validate_for(self.n)

    def __len__(self) -> int:
        return len(self.gates)

    def __str__(self) -> str:
        return format_circuit(self)


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized pure state of n qubits as 2^n complex amplitudes."""

    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"state needs at least 1 qubit, got n={self.n}")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes for n={self.n}, got shape {amps.shape}")
        norm_sq = float(np.real(np.vdot(amps, amps)))
        if abs(norm_sq - 1.0) > RENORM_TOL:
            raise ValueError(f"state is not normalized: sum of squared moduli is {norm_sq!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def zero_state(n: int) -> StateVector:
    """|00...0> on n qubits.  The hard cap guards against runaway memory."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return StateVector(n, amps)


def _apply_gate_inplace(amps: np.ndarray, gate: GateSpec, n: int) -> None:
    """Apply one gate to a writable, contiguous amplitude array, in place.

    Works on reshaped views of amps: a single-qubit gate on q mixes the two
    halves of amps.reshape(2^(n-q-1), 2, 2^q); a two-qubit gate on qubits
    hi > lo sees amps.reshape(2^(n-hi-1), 2, 2^(hi-lo-1), 2, 2^lo), where
    CNOT swaps the target halves of the control = 1 slice and CZ negates
    the 11 slice.  No index array and no 2^n x 2^n matrix is built; the
    full-matrix construction exists only as a test oracle.
    """
    if gate.kind in TWO_QUBIT_KINDS:
        a, b = gate.args
        hi, lo = max(a, b), min(a, b)
        view = amps.reshape(1 << (n - hi - 1), 2, 1 << (hi - lo - 1), 2, 1 << lo)
        both = view[:, 1, :, 1]
        if gate.kind == "CZ":
            both *= -1.0
        else:
            # CNOT(a, b): a is the control; swap target 0 and 1 where it is set.
            target_clear = view[:, 1, :, 0] if a > b else view[:, 0, :, 1]
            saved = target_clear.copy()
            target_clear[...] = both
            both[...] = saved
        return
    u = GATE_MATRICES[gate.kind]
    q = gate.args[0]
    view = amps.reshape(1 << (n - q - 1), 2, 1 << q)
    a0, a1 = view[:, 0], view[:, 1]
    new0 = u[0, 0] * a0 + u[0, 1] * a1
    a1[...] = u[1, 0] * a0 + u[1, 1] * a1
    a0[...] = new0


def apply_gate(state: StateVector, gate: GateSpec) -> StateVector:
    """Return the state after one gate; the input state is untouched."""
    gate.validate_for(state.n)
    amps = state.amplitudes.copy()
    _apply_gate_inplace(amps, gate, state.n)
    return StateVector(state.n, amps)


def run_circuit(circuit: Circuit, initial: StateVector) -> StateVector:
    """Apply circuit.gates in stored order to the initial state."""
    if circuit.n != initial.n:
        raise ValueError(f"circuit is on {circuit.n} qubits but the state has {initial.n}")
    amps = initial.amplitudes.copy()
    for gate in circuit.gates:
        _apply_gate_inplace(amps, gate, circuit.n)
    drift = abs(float(np.real(np.vdot(amps, amps))) - 1.0)
    if drift > NORM_ERROR_TOL:
        raise RuntimeError(f"norm drifted by {drift:.3e} after {len(circuit)} gates; gate application is broken")
    if drift > RENORM_TOL:
        amps /= np.sqrt(np.real(np.vdot(amps, amps)))
    return StateVector(circuit.n, amps)


def nonzero_coefficient_count(state: StateVector, tol: float = 1e-9) -> int:
    """Number of amplitudes with modulus above tol."""
    if tol < 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    return int((np.abs(state.amplitudes) > tol).sum())


def allclose_up_to_phase(a: StateVector | np.ndarray, b: StateVector | np.ndarray,
                         tol: float = 1e-10) -> bool:
    """Componentwise agreement after fixing one global phase.

    The phase factor is pinned on the first amplitude of `a` whose modulus
    exceeds tol.
    """
    va = a.amplitudes if isinstance(a, StateVector) else np.asarray(a, dtype=complex)
    vb = b.amplitudes if isinstance(b, StateVector) else np.asarray(b, dtype=complex)
    if va.shape != vb.shape:
        return False
    lead = np.flatnonzero(np.abs(va) > tol)
    if lead.size == 0:
        return bool(np.all(np.abs(vb) <= tol))
    i = lead[0]
    if abs(vb[i]) <= tol:
        return False
    phase = va[i] / vb[i]
    phase /= abs(phase)
    return bool(np.max(np.abs(va - phase * vb)) <= tol)


class CircuitParseError(ValueError):
    """Raised on malformed circuit text; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


# Leading zeros of a qubit label are skipped, so "H(007)" reads qubit 7.
_TOKEN_RE = re.compile(r"([A-Za-z]+)\s*\(\s*0*(\d+)\s*(?:,\s*0*(\d+)\s*)?\)")

# A longer label is out of range for any circuit, and int() refuses more
# than 4300 digits.
_MAX_LABEL_DIGITS = 9


def _line_col(text: str, pos: int) -> tuple[int, int]:
    line = text.count("\n", 0, pos) + 1
    col = pos - text.rfind("\n", 0, pos)
    return line, col


def parse_circuit(text: str, n: int | None = None) -> Circuit:
    """Parse circuit text (application order, leftmost gate acts first).

    With n=None the qubit count is inferred as the largest label plus one.
    Raises CircuitParseError with line/column diagnostics on malformed input.
    """
    gates: list[GateSpec] = []
    pos = 0
    expect_separator = False
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            if ch == "\n":
                expect_separator = False
            pos += 1
            continue
        if ch == ";":
            expect_separator = False
            pos += 1
            continue
        if expect_separator:
            raise CircuitParseError(f"expected ';' before {text[pos:pos + 12]!r}", *_line_col(text, pos))
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            snippet = text[pos:pos + 12].split("\n")[0]
            raise CircuitParseError(f"malformed gate token {snippet!r}", *_line_col(text, pos))
        kind = m.group(1).upper()
        token = m.group(0)
        labels = [i for i in (2, 3) if m.group(i) is not None]
        for i in labels:
            if len(m.group(i)) > _MAX_LABEL_DIGITS:
                raise CircuitParseError(f"qubit label of {len(m.group(i))} digits is out of range",
                                        *_line_col(text, m.start(i)))
        args = tuple(int(m.group(i)) for i in labels)
        try:
            gate = GateSpec(kind, args)
        except ValueError as exc:
            raise CircuitParseError(f"bad gate {token!r}: {exc}", *_line_col(text, pos)) from None
        if n is not None:
            try:
                gate.validate_for(n)
            except ValueError as exc:
                raise CircuitParseError(str(exc), *_line_col(text, pos)) from None
        gates.append(gate)
        pos = m.end()
        expect_separator = True
    if n is None:
        if not gates:
            raise ValueError("cannot infer the qubit count of an empty circuit; pass n explicitly")
        n = 1 + max(a for g in gates for a in g.args)
    return Circuit(n, tuple(gates))


def format_circuit(circuit: Circuit, paper_order: bool = False) -> str:
    """Render a circuit in the text grammar.

    paper_order=True reverses the listing into right-to-left matrix-product
    order (last-applied gate first), the order commonly printed alongside
    state equations.
    """
    gates = circuit.gates[::-1] if paper_order else circuit.gates
    return "; ".join(str(g) for g in gates)
