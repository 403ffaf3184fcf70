"""Dense state-vector simulation of small n-qubit circuits.

Amplitude index convention: basis index k encodes the ket |q_{n-1} ... q_0>
with q_i = (k >> i) & 1, so qubit 0 is the least significant bit.  Circuits
store gates in application order: gates[0] acts first.

Circuit text grammar: gates written ``KIND(a)`` or ``KIND(a,b)`` with decimal
qubit labels, separated by ``;`` or a newline (two gates on one line need the
``;``); whitespace may surround every token.  The formatter can emit the
reversed, right-to-left matrix-product order via ``paper_order=True``.
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# The package's one qubit cap, for simulation, cuts and scores alike.
MAX_QUBITS = 12

SINGLE_QUBIT_KINDS = ("H", "X", "Y", "Z", "S", "T")
TWO_QUBIT_KINDS = ("CNOT", "CZ")
GATE_KINDS = SINGLE_QUBIT_KINDS + TWO_QUBIT_KINDS
# Every other kind is Clifford: circuits without these make stabilizer states.
NON_CLIFFORD_KINDS = ("T",)

_SQRT2_INV = 1.0 / np.sqrt(2.0)

GATE_MATRICES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) * _SQRT2_INV,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex),
}

# Norm drift of a simulated state (_settle_norm): below RENORM_TOL we leave
# the state alone, up to NORM_ERROR_TOL we renormalize, beyond that something
# is broken.
RENORM_TOL = 1e-12
NORM_ERROR_TOL = 1e-9


@dataclass(frozen=True)
class GateSpec:
    """One elementary gate with its qubit arguments, an iterable of labels.

    For CNOT the first argument is the control and the second the target.
    """

    kind: str
    args: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}; expected one of {GATE_KINDS}")
        args = tuple(operator.index(a) for a in self.args)  # numpy ints pass, floats are refused
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
        object.__setattr__(self, "n", operator.index(self.n))  # numpy ints pass, floats are refused
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
        object.__setattr__(self, "n", operator.index(self.n))
        if self.n < 1:
            raise ValueError(f"state needs at least 1 qubit, got n={self.n}")
        amps = np.array(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n,):
            raise ValueError(f"expected {1 << self.n} amplitudes for n={self.n}, got shape {amps.shape}")
        norm_sq = float(np.real(np.vdot(amps, amps)))
        # Written so that a NaN norm, from a NaN or infinite amplitude, fails too.
        if not abs(norm_sq - 1.0) <= RENORM_TOL:
            raise ValueError(f"state is not normalized: sum of squared moduli is {norm_sq!r}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def zero_state(n: int) -> StateVector:
    """|00...0> on n qubits; n = 1 simulates, though it has no cut to score."""
    n = operator.index(n)
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = 1.0
    return StateVector(n, amps)


# Most CNOT orders _cnot_order keeps: every placement on MAX_QUBITS qubits.
CNOT_ORDER_CACHE_SIZE = MAX_QUBITS * (MAX_QUBITS - 1)

# Most plans _single_qubit_plan keeps: every (kind, qubit, n) with n <= MAX_QUBITS.
SINGLE_QUBIT_PLAN_CACHE_SIZE = len(SINGLE_QUBIT_KINDS) * MAX_QUBITS * (MAX_QUBITS + 1) // 2


@lru_cache(maxsize=MAX_QUBITS)
def _zero_amplitudes(n: int) -> np.ndarray:
    """Read-only |00...0> amplitudes on n qubits, for a simulation to copy."""
    return zero_state(n).amplitudes


@lru_cache(maxsize=CNOT_ORDER_CACHE_SIZE)
def _cnot_order(control: int, target: int, n: int) -> np.ndarray:
    """Read-only permutation with amps[order] = CNOT(control, target) amps.

    Worst case: each order holds 2^n intp entries, so a full cache of
    MAX_QUBITS = 12 qubit orders takes 132 * 2^12 * 8 bytes = 4.3 MB.  The
    entries are intp because numpy casts any other index dtype to intp on
    every gather, which makes a gather 3.5 times as slow at n = 4.
    """
    order = np.arange(1 << n, dtype=np.intp)
    flip = (order >> control) & 1
    order ^= flip << target
    order.flags.writeable = False
    return order


@lru_cache(maxsize=MAX_QUBITS * (MAX_QUBITS + 1) // 2)
def _flip(q: int, n: int) -> np.ndarray:
    """Read-only index vector k ^ 2^q on n qubits, one per (q, n) for every single-qubit kind."""
    flip = np.arange(1 << n, dtype=np.intp) ^ (1 << q)
    flip.flags.writeable = False
    return flip


@lru_cache(maxsize=SINGLE_QUBIT_PLAN_CACHE_SIZE)
def _single_qubit_plan(kind: str, q: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only vectors (stay, swap, flip) for gate u = GATE_MATRICES[kind] on
    qubit q of n: with b = bit q of basis index k, stay[k] = u[b, b], swap[k] =
    u[b, 1-b] and flip[k] = k ^ 2^q.

    The cache holds every placement there is, so nothing is evicted.  A plan
    takes 32 bytes per amplitude for its two complex vectors, and the six
    kinds share one intp flip vector per (q, n) (_flip), 8 bytes per
    amplitude, so all 6 * 78 = 468 plans take (6 * 32 + 8) * sum(n * 2^n for
    n = 1..12) bytes = 18.0 MB; a GA run touches only its own n's placements.
    """
    u = GATE_MATRICES[kind]
    flip = _flip(q, n)
    bit = (np.arange(1 << n, dtype=np.intp) >> q) & 1
    stay = np.array([u[0, 0], u[1, 1]])[bit]
    swap = np.array([u[0, 1], u[1, 0]])[bit]
    for vector in (stay, swap):
        vector.flags.writeable = False
    return stay, swap, flip


def _apply_gate_inplace(amps: np.ndarray, gate: GateSpec, n: int) -> None:
    """Apply one gate to a writable, contiguous amplitude array, in place.

    A single-qubit gate u on q is one gather, two in-place products and one
    in-place sum, stay * amps + swap * amps[flip], from the cached
    _single_qubit_plan.  With b = bit q of k, for b = 0 that is u00 a0 +
    u01 a1, the index-array kernel's sum; for b = 1 it is u11 a1 + u10 a0,
    the same two products added the other way round, which IEEE addition
    rounds alike.  The coefficient is the first operand of each product:
    numpy's complex multiply can round coef * amp and amp * coef differently
    (it does for T's u11).  CNOT is one gather through the cached
    _cnot_order.  CZ negates the 11 slice of
    amps.reshape(2^(n-hi-1), 2, 2^(hi-lo-1), 2, 2^lo) for qubits hi > lo.
    No 2^n x 2^n matrix is built; the full-matrix construction exists only
    as a test oracle.
    """
    kind = gate.kind
    if kind == "CNOT":
        amps[:] = amps[_cnot_order(*gate.args, n)]
    elif kind == "CZ":
        a, b = gate.args
        hi, lo = max(a, b), min(a, b)
        amps.reshape(1 << (n - hi - 1), 2, 1 << (hi - lo - 1), 2, 1 << lo)[:, 1, :, 1] *= -1.0
    else:
        stay, swap, flip = _single_qubit_plan(kind, gate.args[0], n)
        partner = amps[flip]
        np.multiply(swap, partner, out=partner)
        np.multiply(stay, amps, out=amps)
        amps += partner


def apply_gate(state: StateVector, gate: GateSpec) -> StateVector:
    """Return the state after one gate: run_circuit of the one-gate circuit."""
    return run_circuit(Circuit(state.n, (gate,)), state)


def _settle_norm(amps: np.ndarray, where: str) -> np.ndarray:
    """Simulated amplitudes under the package's one norm rule.

    A norm that has drifted from 1 by at most RENORM_TOL is left alone and
    amps itself returned; up to NORM_ERROR_TOL, amps divided by its norm is
    returned, a new array; beyond that, or when the norm is NaN,
    RuntimeError names the drift and where it was found.
    """
    norm_sq = float(np.vdot(amps, amps).real)
    drift = abs(norm_sq - 1.0)
    if not drift <= NORM_ERROR_TOL:  # a NaN drift, from a NaN or infinite amplitude, fails too
        raise RuntimeError(f"norm drifted by {drift:.3e} {where}; gate application is broken")
    if drift > RENORM_TOL:
        return amps / np.sqrt(norm_sq)
    return amps


def run_circuit(circuit: Circuit, initial: StateVector) -> StateVector:
    """Apply circuit.gates in stored order to the initial state.

    Refuses more than MAX_QUBITS qubits before anything is copied, so the
    kernel's caches only ever hold orders and plans for n <= MAX_QUBITS.
    """
    if circuit.n != initial.n:
        raise ValueError(f"circuit is on {circuit.n} qubits but the state has {initial.n}")
    if circuit.n > MAX_QUBITS:
        raise ValueError(f"simulation is capped at {MAX_QUBITS} qubits, got n={circuit.n}")
    amps = initial.amplitudes.copy()
    for gate in circuit.gates:
        _apply_gate_inplace(amps, gate, circuit.n)
    return StateVector(circuit.n, _settle_norm(amps, f"after {len(circuit)} gates"))


def nonzero_coefficient_count(state: StateVector, tol: float = 1e-9) -> int:
    """Number of amplitudes with modulus above tol."""
    if not tol >= 0:  # NaN too
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    return int((np.abs(state.amplitudes) > tol).sum())


def allclose_up_to_phase(a: StateVector, b: StateVector, tol: float = 1e-10) -> bool:
    """Componentwise agreement after fixing one global phase; False across qubit counts.

    The phase factor is pinned on the first amplitude of `a` whose modulus
    exceeds tol.
    """
    if not tol >= 0:  # NaN too
        raise ValueError(f"tolerance must be nonnegative, got {tol}")
    if a.n != b.n:
        return False
    va, vb = a.amplitudes, b.amplitudes
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
# The label group starts at a digit other than '0' or is the last '0', so a
# run of zeros splits one way only and a failed match takes linear time.  A
# gate takes the blanks after it on its own line, so that what follows must
# be a separator: ';', a newline or the end of the text.  A label is ASCII
# digits only: \d would also take other scripts' digits, such as '٣'.
_LABEL = r"0*((?!0)[0-9]+|0)"
_GATE_RE = re.compile(rf"([A-Za-z]+)\s*\(\s*{_LABEL}\s*(?:,\s*{_LABEL}\s*)?\)[^\S\n]*")
_GAP_RE = re.compile(r"[\s;]*")

# A longer label is out of range for any circuit, and int() refuses more
# than 4300 digits.
_MAX_LABEL_DIGITS = 9


def _error_at(text: str, pos: int, message: str) -> CircuitParseError:
    """The parse error for text[pos], with a 1-based line and column."""
    line = text.count("\n", 0, pos) + 1
    return CircuitParseError(message, line, pos - text.rfind("\n", 0, pos))


def parse_circuit(text: str, n: int | None = None) -> Circuit:
    """Parse circuit text (application order, leftmost gate acts first).

    With n=None the qubit count is inferred as the largest label plus one.
    Raises CircuitParseError with line/column diagnostics on malformed input.
    """
    gates: list[GateSpec] = []
    pos = 0
    while (pos := _GAP_RE.match(text, pos).end()) < len(text):
        m = _GATE_RE.match(text, pos)
        if m is None:
            snippet = text[pos:pos + 12].split("\n")[0]
            raise _error_at(text, pos, f"malformed gate token {snippet!r}")
        labels = [i for i in (2, 3) if m.group(i) is not None]
        for i in labels:
            if len(m.group(i)) > _MAX_LABEL_DIGITS:
                raise _error_at(text, m.start(i), f"qubit label of {len(m.group(i))} digits is out of range")
        try:
            gate = GateSpec(m.group(1).upper(), tuple(int(m.group(i)) for i in labels))
        except ValueError as exc:
            raise _error_at(text, pos, f"bad gate {m.group(0).rstrip()!r}: {exc}") from None
        if n is not None:
            try:
                gate.validate_for(n)
            except ValueError as exc:
                raise _error_at(text, pos, str(exc)) from None
        gates.append(gate)
        pos = m.end()
        if pos < len(text) and text[pos] not in ";\n":
            raise _error_at(text, pos, f"expected ';' before {text[pos:pos + 12]!r}")
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
