"""Reference circuits and states with known entanglement, used as ground truth.

Circuits are stored in application order (first gate first).  States are
spelled out amplitude by amplitude; binary literals mirror the ket labels,
e.g. 0b1100 is |1100>.  Expected totals let tests and the CLI check every
entry end to end.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qsim import MAX_QUBITS, Circuit, GateSpec, StateVector

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


def _h(q: int) -> GateSpec:
    return GateSpec("H", (q,))


def _cnot(control: int, target: int) -> GateSpec:
    return GateSpec("CNOT", (control, target))


def _check_ghz_size(n: int) -> None:
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"GHZ qubit count must be in [2, {MAX_QUBITS}], got {n}")


def ghz_circuit(n: int) -> Circuit:
    """n-gate preparation of the n-qubit GHZ state: H on the top qubit, then
    CNOTs fanning out from it, targets descending."""
    _check_ghz_size(n)
    gates = [_h(n - 1)] + [_cnot(n - 1, m) for m in range(n - 2, -1, -1)]
    return Circuit(n, tuple(gates))


def ghz_state(n: int) -> StateVector:
    """(|00...0> + |11...1>)/sqrt(2)."""
    _check_ghz_size(n)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = _SQRT2_INV
    amps[-1] = _SQRT2_INV
    return StateVector(n, amps)


_CIRCUITS: dict[str, Circuit] = {
    "circuit_4a": Circuit(4, (
        _h(2), _cnot(2, 1), _h(3), _cnot(3, 0), _cnot(3, 1),
    )),
    "circuit_4b": Circuit(4, (
        _h(1), _cnot(1, 0), _h(3), _cnot(3, 2), _cnot(3, 0),
    )),
    "circuit_5a": Circuit(5, (
        _h(2), _cnot(2, 1), _h(4), _cnot(4, 3), _h(4),
        _cnot(1, 0), _cnot(4, 1), _cnot(3, 2),
    )),
    "circuit_5b": Circuit(5, (
        _h(0), _cnot(0, 3), _h(4), _cnot(4, 1), _h(4),
        _cnot(3, 2), _cnot(4, 3), _cnot(1, 0),
    )),
    "circuit_6a": Circuit(6, (
        _h(1), _cnot(1, 0), _h(3), _cnot(3, 2), _h(5), _cnot(5, 4),
        _cnot(3, 0), _cnot(5, 2), _h(4), _cnot(4, 3), _h(1),
        _cnot(4, 1), _cnot(2, 1),
    )),
}


def _state_from_terms(n: int, terms: list[tuple[int, complex]]) -> StateVector:
    amps = np.zeros(1 << n, dtype=complex)
    for index, coefficient in terms:
        amps[index] = coefficient
    return StateVector(n, amps)


def _hs4() -> StateVector:
    c = 1.0 / np.sqrt(6.0)
    return _state_from_terms(4, [
        (0b1100, c), (0b0011, c),
        (0b1001, c * OMEGA), (0b0110, c * OMEGA),
        (0b1010, c * OMEGA**2), (0b0101, c * OMEGA**2),
    ])


def _psi4a() -> StateVector:
    return _state_from_terms(4, [(k, 0.5) for k in (0b0000, 0b0110, 0b1011, 0b1101)])


def _psi4b() -> StateVector:
    return _state_from_terms(4, [(k, 0.5) for k in (0b0000, 0b0011, 0b1101, 0b1110)])


def _psi5a() -> StateVector:
    c = 1.0 / np.sqrt(8.0)
    return _state_from_terms(5, [
        (0b00000, c), (0b00111, c), (0b01011, c), (0b01100, c),
        (0b10010, c), (0b10101, c), (0b11001, -c), (0b11110, -c),
    ])


def _psi5b() -> StateVector:
    c = 1.0 / np.sqrt(8.0)
    return _state_from_terms(5, [
        (0b00000, c), (0b00011, c),
        (0b01101, c), (0b01110, c),
        (0b10101, c), (0b10110, -c),
        (0b11000, c), (0b11011, -c),
    ])


def _bssb5() -> StateVector:
    c = 1.0 / np.sqrt(8.0)
    return _state_from_terms(5, [
        (0b00101, c), (0b00110, -c),
        (0b01000, c), (0b01011, -c),
        (0b10001, c), (0b10010, c),
        (0b11100, c), (0b11111, c),
    ])


def _psi6a() -> StateVector:
    c = 1.0 / np.sqrt(32.0)
    signs = [
        (0b000000, +1), (0b000001, +1), (0b000010, +1), (0b000011, -1),
        (0b001100, -1), (0b001101, +1), (0b001110, +1), (0b001111, +1),
        (0b010100, +1), (0b010101, +1), (0b010110, -1), (0b010111, +1),
        (0b011000, +1), (0b011001, -1), (0b011010, +1), (0b011011, +1),
        (0b100100, +1), (0b100101, -1), (0b100110, +1), (0b100111, +1),
        (0b101000, +1), (0b101001, +1), (0b101010, -1), (0b101011, +1),
        (0b110000, +1), (0b110001, -1), (0b110010, -1), (0b110011, -1),
        (0b111100, -1), (0b111101, -1), (0b111110, -1), (0b111111, +1),
    ]
    return _state_from_terms(6, [(k, s * c) for k, s in signs])


def _psi6b() -> StateVector:
    c = 0.25
    return _state_from_terms(6, [
        (0b000000, c), (0b000011, c), (0b111100, -c), (0b111111, -c),
        (0b001101, -c), (0b001110, c), (0b110001, c), (0b110010, -c),
        (0b010100, c), (0b010111, -c), (0b101000, c), (0b101011, -c),
        (0b011001, c), (0b011010, c), (0b100101, c), (0b100110, c),
    ])


_STATE_BUILDERS = {
    "hs4": _hs4,
    "bssb5": _bssb5,
    "psi4a": _psi4a,
    "psi4b": _psi4b,
    "psi5a": _psi5a,
    "psi5b": _psi5b,
    "psi6a": _psi6a,
    "psi6b": _psi6b,
}

# Known totals of the summed-negativity score.  hs4 is exactly
# 3.5 + 1.5*sqrt(3) = 6.09807621..., quoted here to 5 significant digits.
EXPECTED_TOTALS = {
    "ghz3": 1.5,
    "hs4": 6.0981,
    "psi4a": 5.5,
    "psi4b": 5.5,
    "bssb5": 17.5,
    "psi5a": 17.5,
    "psi5b": 17.5,
    "psi6a": 60.5,
    "psi6b": 60.5,
}

# The state each evolved circuit prepares from |00...0>; the circuit's
# expected total is that state's.
CIRCUIT_OUTPUTS = {
    "circuit_4a": "psi4a",
    "circuit_4b": "psi4b",
    "circuit_5a": "psi5a",
    "circuit_5b": "psi5b",
    "circuit_6a": "psi6a",
}

# Qubit relabelings found by brute force over all permutations matching
# amplitudes up to a global phase: entry[i] is where qubit i moves.
QUBIT_RELABELINGS = {
    ("psi4a", "psi4b"): (2, 0, 1, 3),
    ("psi5a", "psi5b"): (2, 0, 3, 4, 1),
}

_SOURCES = {
    "circuit_4a": "evolved 5-gate circuit, 4 qubits",
    "circuit_4b": "qubit-relabelled variant of circuit_4a",
    "circuit_5a": "evolved 8-gate circuit, 5 qubits",
    "circuit_5b": "qubit-relabelled variant of circuit_5a",
    "circuit_6a": "evolved 13-gate circuit, 6 qubits",
    "hs4": "Higuchi-Sudbery highly entangled 4-qubit state",
    "bssb5": "Brown et al. maximally entangled 5-qubit state, Bell-basis form",
    "psi4a": "output of circuit_4a",
    "psi4b": "output of circuit_4b",
    "psi5a": "output of circuit_5a",
    "psi5b": "output of circuit_5b",
    "psi6a": "output of circuit_6a, 32 nonzero coefficients",
    "psi6b": "H(0) applied to psi6a, 16 nonzero coefficients",
}

_GHZ_RE = re.compile(r"^(?:circuit_)?ghz(\d+)$")


def lookup(name: str) -> NamedEntry:
    """Resolve a catalog name to a circuit or state entry; the only name parser.

    Circuits: circuit_4a/4b/5a/5b/6a and circuit_ghz<n>.  States: hs4, bssb5,
    psi4a/4b/5a/5b/6a/6b and ghz<n>.  Names are case-insensitive.
    """
    key = name.lower()
    m = _GHZ_RE.match(key)
    if m:
        n = int(m.group(1))
        if key.startswith("circuit_"):
            kind, payload, source = "circuit", ghz_circuit(n), f"GHZ preparation, {n} qubits"
        else:
            kind, payload, source = "state", ghz_state(n), f"GHZ state, {n} qubits"
        return NamedEntry(key, kind, payload, (2 ** (n - 1) - 1) / 2.0, source)
    if key in _CIRCUITS:
        expected = EXPECTED_TOTALS[CIRCUIT_OUTPUTS[key]]
        return NamedEntry(key, "circuit", _CIRCUITS[key], expected, _SOURCES[key])
    if key in _STATE_BUILDERS:
        return NamedEntry(key, "state", _STATE_BUILDERS[key](), EXPECTED_TOTALS.get(key), _SOURCES[key])
    raise KeyError(f"unknown catalog name {name!r}; try 'catalog list'")


def _named(name: str, kind: str) -> Circuit | StateVector:
    entry = lookup(name)
    if entry.kind != kind:
        raise KeyError(f"{name!r} names a {entry.kind}, not a {kind}")
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
    names += sorted(_STATE_BUILDERS)
    return names


def catalog_entries() -> list[NamedEntry]:
    return [lookup(name) for name in catalog_names()]


def permute_qubits(state: StateVector, permutation: Sequence[int]) -> StateVector:
    """Relabel qubits: bit i of each basis index moves to bit permutation[i]."""
    perm = tuple(int(p) for p in permutation)
    if sorted(perm) != list(range(state.n)):
        raise ValueError(f"{perm} is not a permutation of 0..{state.n - 1}")
    source = np.arange(1 << state.n)
    destination = np.zeros_like(source)
    for i, p in enumerate(perm):
        destination |= ((source >> i) & 1) << p
    amps = np.zeros_like(state.amplitudes)
    amps[destination] = state.amplitudes
    return StateVector(state.n, amps)
