"""Independent reference simulator and scorer for checking benchmark outputs.

Shares no code with the entangler package: gates act on the state as an
n-axis tensor, and each cut's amplitude matrix comes from a transpose and
reshape of that tensor rather than from the package's index gathers.
Qubit q is bit q of a basis index, so it is tensor axis n - 1 - q.
"""
from __future__ import annotations

import numpy as np

_R = 1.0 / np.sqrt(2.0)
_SINGLE = {
    "H": np.array([[_R, _R], [_R, -_R]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "S": np.array([[1, 0], [0, 1j]], dtype=complex),
    "T": np.array([[1, 0], [0, np.exp(0.25j * np.pi)]], dtype=complex),
}


def _apply(psi: np.ndarray, kind: str, args: tuple[int, ...]) -> np.ndarray:
    n = psi.ndim
    if kind in _SINGLE:
        axis = n - 1 - args[0]
        return np.moveaxis(np.tensordot(_SINGLE[kind], psi, axes=([1], [axis])), 0, axis)
    a, b = (n - 1 - q for q in args)
    out = psi.copy()
    both = [slice(None)] * n
    both[a] = 1
    both[b] = 1
    if kind == "CZ":
        out[tuple(both)] *= -1.0
    elif kind == "CNOT":
        flipped = list(both)
        flipped[b] = 0
        out[tuple(both)] = psi[tuple(flipped)]
        out[tuple(flipped)] = psi[tuple(both)]
    else:
        raise ValueError(f"unknown gate kind {kind!r}")
    return out


def prefix_states(n: int, gates: list[tuple[str, tuple[int, ...]]]) -> np.ndarray:
    """States after each prefix of the gate list, starting from |0...0>: shape (len+1, 2^n)."""
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    states = [psi.reshape(-1)]
    for kind, args in gates:
        psi = _apply(psi, kind, args)
        states.append(psi.reshape(-1))
    return np.array(states)


def cut_contributions(states: np.ndarray, n: int) -> np.ndarray:
    """Per-state, per-cut negativity, cuts by ascending odd member mask: shape (P, 2^(n-1) - 1)."""
    tensor = states.reshape((len(states),) + (2,) * n)
    columns = []
    for mask in range(1, (1 << n) - 1, 2):
        inside = [1 + n - 1 - q for q in range(n) if (mask >> q) & 1]
        outside = [1 + n - 1 - q for q in range(n) if not (mask >> q) & 1]
        matrices = tensor.transpose([0] + inside + outside).reshape(len(states), 1 << len(inside), -1)
        sigma = np.linalg.svd(matrices, compute_uv=False)
        columns.append(np.maximum((sigma.sum(axis=1) ** 2 - 1.0) / 2.0, 0.0))
    return np.stack(columns, axis=1)
