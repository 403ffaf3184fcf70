"""Reference circuits and states with known entanglement, used as ground truth.

Each entry is one row.  Circuits are ``.qc`` text in application order
(first gate first), parsed on lookup.  States are spelled out amplitude by
amplitude; binary literals mirror the ket labels, e.g. 0b1100 is |1100>.
Expected totals let tests and the CLI check every entry end to end.
"""
from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .entanglement import _check_scored
from .qsim import _LABEL, _MAX_LABEL_DIGITS, MAX_QUBITS, Circuit, GateSpec, StateVector, parse_circuit

_SQRT2_INV = 1.0 / np.sqrt(2.0)

# Third root of unity, the coefficient pattern of the Higuchi-Sudbery state.
OMEGA = -0.5 + 0.5j * np.sqrt(3.0)


@dataclass(frozen=True)
class NamedEntry:
    name: str
    kind: str  # "circuit" or "state"
    payload: Circuit | StateVector
    expected_total: float | None
    source: str


def ghz_circuit(n: int) -> Circuit:
    """n-gate preparation of the n-qubit GHZ state: H on the top qubit, then
    CNOTs fanning out from it, targets descending."""
    n = _check_scored(n)
    gates = [GateSpec("H", (n - 1,))] + [GateSpec("CNOT", (n - 1, m)) for m in range(n - 2, -1, -1)]
    return Circuit(n, tuple(gates))


def ghz_state(n: int) -> StateVector:
    """(|00...0> + |11...1>)/sqrt(2)."""
    n = _check_scored(n)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = _SQRT2_INV
    amps[-1] = _SQRT2_INV
    return StateVector(n, amps)


# Circuits: name -> (.qc text, output state, source).  A circuit's qubit count
# and expected total are its output state's.
_CIRCUITS = {
    "circuit_4a": ("H(2); CNOT(2,1); H(3); CNOT(3,0); CNOT(3,1)",
                   "psi4a", "evolved 5-gate circuit, 4 qubits"),
    "circuit_4b": ("H(1); CNOT(1,0); H(3); CNOT(3,2); CNOT(3,0)",
                   "psi4b", "qubit-relabelled variant of circuit_4a"),
    "circuit_5a": ("H(2); CNOT(2,1); H(4); CNOT(4,3); H(4); CNOT(1,0); CNOT(4,1); CNOT(3,2)",
                   "psi5a", "evolved 8-gate circuit, 5 qubits"),
    "circuit_5b": ("H(0); CNOT(0,3); H(4); CNOT(4,1); H(4); CNOT(3,2); CNOT(4,3); CNOT(1,0)",
                   "psi5b", "qubit-relabelled variant of circuit_5a"),
    "circuit_6a": ("H(1); CNOT(1,0); H(3); CNOT(3,2); H(5); CNOT(5,4); CNOT(3,0); CNOT(5,2); "
                   "H(4); CNOT(4,3); H(1); CNOT(4,1); CNOT(2,1)",
                   "psi6a", "evolved 13-gate circuit, 6 qubits"),
}

_C6 = 1.0 / np.sqrt(6.0)
_C8 = 1.0 / np.sqrt(8.0)
_C32 = 1.0 / np.sqrt(32.0)

# States: name -> (qubits, (basis index, amplitude) terms, expected total of
# the summed-negativity score, source).  hs4's total is exactly
# 3.5 + 1.5*sqrt(3) = 6.09807621..., quoted here to 5 significant digits.
_STATES = {
    "hs4": (4, (
        (0b1100, _C6), (0b0011, _C6),
        (0b1001, _C6 * OMEGA), (0b0110, _C6 * OMEGA),
        (0b1010, _C6 * OMEGA**2), (0b0101, _C6 * OMEGA**2),
    ), 6.0981, "Higuchi-Sudbery highly entangled 4-qubit state"),
    "bssb5": (5, (
        (0b00101, _C8), (0b00110, -_C8), (0b01000, _C8), (0b01011, -_C8),
        (0b10001, _C8), (0b10010, _C8), (0b11100, _C8), (0b11111, _C8),
    ), 17.5, "Brown et al. maximally entangled 5-qubit state, Bell-basis form"),
    "psi4a": (4, ((0b0000, 0.5), (0b0110, 0.5), (0b1011, 0.5), (0b1101, 0.5)),
              5.5, "output of circuit_4a"),
    "psi4b": (4, ((0b0000, 0.5), (0b0011, 0.5), (0b1101, 0.5), (0b1110, 0.5)),
              5.5, "output of circuit_4b"),
    "psi5a": (5, (
        (0b00000, _C8), (0b00111, _C8), (0b01011, _C8), (0b01100, _C8),
        (0b10010, _C8), (0b10101, _C8), (0b11001, -_C8), (0b11110, -_C8),
    ), 17.5, "output of circuit_5a"),
    "psi5b": (5, (
        (0b00000, _C8), (0b00011, _C8), (0b01101, _C8), (0b01110, _C8),
        (0b10101, _C8), (0b10110, -_C8), (0b11000, _C8), (0b11011, -_C8),
    ), 17.5, "output of circuit_5b"),
    "psi6a": (6, (
        (0b000000, _C32), (0b000001, _C32), (0b000010, _C32), (0b000011, -_C32),
        (0b001100, -_C32), (0b001101, _C32), (0b001110, _C32), (0b001111, _C32),
        (0b010100, _C32), (0b010101, _C32), (0b010110, -_C32), (0b010111, _C32),
        (0b011000, _C32), (0b011001, -_C32), (0b011010, _C32), (0b011011, _C32),
        (0b100100, _C32), (0b100101, -_C32), (0b100110, _C32), (0b100111, _C32),
        (0b101000, _C32), (0b101001, _C32), (0b101010, -_C32), (0b101011, _C32),
        (0b110000, _C32), (0b110001, -_C32), (0b110010, -_C32), (0b110011, -_C32),
        (0b111100, -_C32), (0b111101, -_C32), (0b111110, -_C32), (0b111111, _C32),
    ), 60.5, "output of circuit_6a, 32 nonzero coefficients"),
    "psi6b": (6, (
        (0b000000, 0.25), (0b000011, 0.25), (0b111100, -0.25), (0b111111, -0.25),
        (0b001101, -0.25), (0b001110, 0.25), (0b110001, 0.25), (0b110010, -0.25),
        (0b010100, 0.25), (0b010111, -0.25), (0b101000, 0.25), (0b101011, -0.25),
        (0b011001, 0.25), (0b011010, 0.25), (0b100101, 0.25), (0b100110, 0.25),
    ), 60.5, "H(0) applied to psi6a, 16 nonzero coefficients"),
}

# Qubit relabelings found by brute force over all permutations matching
# amplitudes up to a global phase: entry[i] is where qubit i moves.
QUBIT_RELABELINGS = {
    ("psi4a", "psi4b"): (2, 0, 1, 3),
    ("psi5a", "psi5b"): (2, 0, 3, 4, 1),
}

# A GHZ size is a qubit label, read as in circuit text.
_GHZ_RE = re.compile(rf"(?:circuit_)?ghz{_LABEL}")

# Longest part of an unknown name an error message quotes.
_QUOTED_CHARS = 40


def _quoted(name: str) -> str:
    """The name in quotes, or a bounded prefix of it and its length."""
    if len(name) <= _QUOTED_CHARS:
        return repr(name)
    return f"{name[:_QUOTED_CHARS]!r}... ({len(name)} characters)"


def lookup(name: str) -> NamedEntry:
    """Resolve a catalog name to a circuit or state entry; the only name parser.

    Circuits: circuit_4a/4b/5a/5b/6a and circuit_ghz<n>.  States: hs4, bssb5,
    psi4a/4b/5a/5b/6a/6b and ghz<n>.  Names are case-insensitive; an entry's
    name is the lower-cased one, with a GHZ size written without leading zeros.
    """
    key = name.lower()
    m = _GHZ_RE.fullmatch(key)
    if m:
        digits = m.group(1)
        if len(digits) > _MAX_LABEL_DIGITS:
            # Out of range for sure, and int() refuses more than 4300 digits.
            raise ValueError(f"scoring is capped at {MAX_QUBITS} qubits, got an n of {len(digits)} digits")
        n = int(digits)
        if key.startswith("circuit_"):
            key, kind, payload, source = f"circuit_ghz{n}", "circuit", ghz_circuit(n), f"GHZ preparation, {n} qubits"
        else:
            key, kind, payload, source = f"ghz{n}", "state", ghz_state(n), f"GHZ state, {n} qubits"
        return NamedEntry(key, kind, payload, (2 ** (n - 1) - 1) / 2.0, source)
    if key in _CIRCUITS:
        text, output, source = _CIRCUITS[key]
        n, _terms, expected, _source = _STATES[output]
        return NamedEntry(key, "circuit", parse_circuit(text, n), expected, source)
    if key in _STATES:
        n, terms, expected, source = _STATES[key]
        amps = np.zeros(1 << n, dtype=complex)
        for index, amplitude in terms:
            amps[index] = amplitude
        return NamedEntry(key, "state", StateVector(n, amps), expected, source)
    raise KeyError(f"unknown catalog name {_quoted(name)}; try 'catalog list'")


def _named(name: str, kind: str) -> Circuit | StateVector:
    entry = lookup(name)
    if entry.kind != kind:
        raise KeyError(f"{_quoted(name)} names a {entry.kind}, not a {kind}")
    return entry.payload


def named_circuit(name: str) -> Circuit:
    """The circuit a catalog name resolves to; KeyError for states."""
    return _named(name, "circuit")


def named_state(name: str) -> StateVector:
    """The state a catalog name resolves to; KeyError for circuits."""
    return _named(name, "state")


def catalog_names() -> list[str]:
    """Concrete catalog names (GHZ entries listed for 3..6 qubits)."""
    names = [f"circuit_ghz{n}" for n in range(3, 7)]
    names += sorted(_CIRCUITS)
    names += [f"ghz{n}" for n in range(3, 7)]
    names += sorted(_STATES)
    return names


def catalog_entries() -> list[NamedEntry]:
    return [lookup(name) for name in catalog_names()]


def permute_qubits(state: StateVector, permutation: Sequence[int]) -> StateVector:
    """Relabel qubits: bit i of each basis index moves to bit permutation[i]."""
    perm = tuple(operator.index(p) for p in permutation)
    if sorted(perm) != list(range(state.n)):
        raise ValueError(f"{perm} is not a permutation of 0..{state.n - 1}")
    # Axis n - 1 - q of the (2,)*n tensor is qubit q.
    n = state.n
    axes = [0] * n
    for i, p in enumerate(perm):
        axes[n - 1 - p] = n - 1 - i
    return StateVector(n, state.amplitudes.reshape((2,) * n).transpose(axes).reshape(-1))
