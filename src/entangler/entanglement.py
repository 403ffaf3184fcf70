"""Negativity-based entanglement of pure states over all inequivalent cuts.

A cut splits the qubit set into a subset S and its complement; complementary
splits give the same negativity, so each pair is represented once by the side
containing qubit 0.  That leaves 2^(n-1) - 1 inequivalent cuts.  A cut's
contribution is minus the sum of the negative eigenvalues of the partially
transposed density matrix; the score of a state is the sum over all cuts
(larger means more entangled).

Two numerical paths compute a cut's contribution:

* ``schmidt`` (default): for a pure state the contribution equals
  ((sum of singular values)^2 - 1) / 2 of the amplitude matrix reshaped
  along the cut.  Cheap; this is what the search loop uses.  Every Schmidt
  score, single cut or full report, reads one cached layout per qubit count
  (``_cut_layouts``): the gather matrices of all cuts, about 4^(n+1) bytes,
  grouped by member count m.  Scoring a state makes one stacked SVD call per
  group, n - 1 calls in all, whose temporary holds C(n-1, m-1) * 2^n complex
  amplitudes (at most 462 * 4096 of them, 29 MiB, at n = 12).
* ``eigen``: builds rho = |psi><psi|, partially transposes the cut's qubit
  indices and sums the negative eigenvalues.  Kept as the independent
  cross-check (CLI ``--validate``).

Both paths refuse states of more than MAX_SCORED_QUBITS qubits before they
allocate anything: 64 MiB of gather matrices or a 4096 x 4096 density
matrix at n = 12, and four times as much per extra qubit.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .qsim import Circuit, StateVector, _apply_gate_inplace, zero_state

# Eigenvalues above this (tiny, negative) threshold count as zero so that
# solver noise cannot accumulate across dozens of cuts.
NEGATIVE_EIGENVALUE_TOL = -1e-12

# Largest qubit count either path scores (see the module docstring).
MAX_SCORED_QUBITS = 12

_HERMITIAN_TOL = 1e-10


@dataclass(frozen=True)
class Cut:
    """Canonical bipartition of {0..n-1}: the member side contains qubit 0."""

    members: frozenset[int]
    n: int

    def __post_init__(self):
        members = frozenset(int(q) for q in self.members)
        object.__setattr__(self, "members", members)
        if self.n < 2:
            raise ValueError(f"cuts need at least 2 qubits, got n={self.n}")
        if 0 not in members:
            raise ValueError(f"canonical cuts contain qubit 0, got {sorted(members)}")
        if not 1 <= len(members) <= self.n - 1:
            raise ValueError(f"cut must be a proper nonempty subset of {self.n} qubits, got {sorted(members)}")
        if any(not 0 <= q < self.n for q in members):
            raise ValueError(f"cut members {sorted(members)} out of range for n={self.n}")

    @classmethod
    def from_mask(cls, mask: int, n: int) -> "Cut":
        return cls(frozenset(q for q in range(n) if (mask >> q) & 1), n)

    @property
    def mask(self) -> int:
        m = 0
        for q in self.members:
            m |= 1 << q
        return m

    @property
    def complement(self) -> frozenset[int]:
        return frozenset(q for q in range(self.n) if q not in self.members)

    @property
    def smaller_side(self) -> int:
        return min(len(self.members), self.n - len(self.members))

    def __str__(self) -> str:
        return "{" + ",".join(str(q) for q in sorted(self.members)) + "}"


@dataclass(frozen=True)
class CutReport:
    cut: Cut
    contribution: float


@dataclass(frozen=True)
class EntanglementReport:
    """Total score and the per-cut breakdown, ordered by cut size then mask."""

    n: int
    total: float
    per_cut: tuple[CutReport, ...]

    def contributions_by_size(self) -> dict[int, list[float]]:
        out: dict[int, list[float]] = {}
        for r in self.per_cut:
            out.setdefault(r.cut.smaller_side, []).append(r.contribution)
        return out

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "total": self.total,
            "per_cut": [
                {"mask": r.cut.mask, "size": r.cut.smaller_side, "contribution": r.contribution}
                for r in self.per_cut
            ],
        }


def enumerate_cuts(n: int) -> list[Cut]:
    """All 2^(n-1) - 1 canonical cuts, ascending by member bitmask."""
    if n < 2:
        raise ValueError(f"need at least 2 qubits to cut, got n={n}")
    return [Cut.from_mask(mask, n) for mask in range(1, (1 << n) - 1, 2)]


def _scatter_bits(values: np.ndarray, positions: list[int]) -> np.ndarray:
    """Spread the low bits of each value onto the given qubit positions."""
    out = np.zeros(values.shape, dtype=np.intp)
    for b, q in enumerate(positions):
        out |= ((values >> b) & 1) << q
    return out


def _check_scored(n: int) -> None:
    if n > MAX_SCORED_QUBITS:
        raise ValueError(f"scoring is capped at {MAX_SCORED_QUBITS} qubits, got n={n}")


# perfbench reads this cache's cache_info() and sums its gathers' nbytes, and
# wraps _total_negativity and _apply_gate_inplace by name in this module and
# in evolve; keep all three.
@lru_cache(maxsize=None)
def _cut_layouts(n: int) -> tuple[tuple[int, tuple[int, ...], np.ndarray], ...]:
    """Per member count m = 1..n-1: (m, cut masks ascending, gathers).

    gathers has shape (C(n-1, m-1), 2^m, 2^(n-m)); amps[gathers[i]] is the
    matrix whose singular values give the Schmidt coefficients across the
    cut masks[i], members indexing rows.  Group m sits at index m - 1.
    Read-only after construction, safe to share between threads and workers.
    """
    _check_scored(n)
    layouts = []
    for m in range(1, n):
        masks = tuple(mask for mask in range(1, (1 << n) - 1, 2) if mask.bit_count() == m)
        gathers = np.empty((len(masks), 1 << m, 1 << (n - m)), dtype=np.intp)
        for gather, mask in zip(gathers, masks):
            members = [q for q in range(n) if (mask >> q) & 1]
            rest = [q for q in range(n) if not (mask >> q) & 1]
            rows = _scatter_bits(np.arange(1 << m), members)
            cols = _scatter_bits(np.arange(1 << (n - m)), rest)
            np.bitwise_or(rows[:, None], cols[None, :], out=gather)
        gathers.flags.writeable = False
        layouts.append((m, masks, gathers))
    return tuple(layouts)


def _stack_negativities(amps: np.ndarray, gathers: np.ndarray) -> list[float]:
    """Contribution of each cut in a stack of gather matrices, in stack order.

    One SVD call for the whole stack.  The square is taken on Python floats:
    that is libm pow, as on a float64 scalar, where numpy's array power may
    round the last bit differently.
    """
    sums = np.linalg.svd(amps[gathers], compute_uv=False).sum(axis=-1)
    values = []
    for s in sums.tolist():
        value = (s ** 2 - 1.0) / 2.0
        values.append(value if value > 0.0 else 0.0)
    return values


def _cut_negativities(amps: np.ndarray, n: int) -> list[float]:
    """Every canonical cut's contribution, ascending by mask (mask m at m >> 1)."""
    values = [0.0] * ((1 << (n - 1)) - 1)
    for _m, masks, gathers in _cut_layouts(n):
        for mask, value in zip(masks, _stack_negativities(amps, gathers)):
            values[mask >> 1] = value
    return values


def _partial_transpose(amps: np.ndarray, n: int, members: frozenset[int]) -> np.ndarray:
    """rho^{T_S} for rho = |psi><psi|, transposing the members' indices."""
    rho = np.outer(amps, amps.conj())
    tensor = rho.reshape([2] * (2 * n))
    perm = list(range(2 * n))
    for q in members:
        row_axis = n - 1 - q
        col_axis = 2 * n - 1 - q
        perm[row_axis], perm[col_axis] = perm[col_axis], perm[row_axis]
    return tensor.transpose(perm).reshape(1 << n, 1 << n)


def hermitian_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    defect = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if defect > _HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian: max|A - A^dagger| = {defect:.3e}")
    return np.linalg.eigvalsh(a)


def partial_transpose_spectrum(state: StateVector, cut: Cut) -> np.ndarray:
    """Eigenvalues (ascending) of the partially transposed density matrix."""
    _check_cut(state, cut)
    _check_scored(state.n)
    return hermitian_eigenvalues(_partial_transpose(state.amplitudes, state.n, cut.members))


def _negative_part(eigenvalues: np.ndarray) -> float:
    neg = eigenvalues[eigenvalues < NEGATIVE_EIGENVALUE_TOL]
    return float(-neg.sum())


def cut_negativity(state: StateVector, cut: Cut, method: str = "schmidt") -> float:
    """This cut's contribution: minus the sum of negative transpose eigenvalues."""
    _check_cut(state, cut)
    if method == "schmidt":
        _m, masks, gathers = _cut_layouts(state.n)[len(cut.members) - 1]
        i = masks.index(cut.mask)
        return _stack_negativities(state.amplitudes, gathers[i:i + 1])[0]
    if method == "eigen":
        return _negative_part(partial_transpose_spectrum(state, cut))
    raise ValueError(f"unknown method {method!r}; expected 'schmidt' or 'eigen'")


def _check_cut(state: StateVector, cut: Cut) -> None:
    if cut.n != state.n:
        raise ValueError(f"cut is for {cut.n} qubits but the state has {state.n}")


def _total_negativity(amps: np.ndarray, n: int) -> float:
    """Fast scalar path used by the search loop and traces.

    Sums left to right in mask order; np.sum or a compensated sum would move
    the last bit, which decides GA ties and so the best genes found.
    """
    total = 0.0
    for value in _cut_negativities(amps, n):
        total += value
    return total


def total_entanglement(state: StateVector, method: str = "schmidt") -> EntanglementReport:
    """Summed negativity over all canonical cuts, with the per-cut breakdown."""
    if state.n < 2:
        raise ValueError(f"entanglement needs at least 2 qubits, got n={state.n}")
    _check_scored(state.n)
    cuts = enumerate_cuts(state.n)
    if method == "schmidt":
        values = _cut_negativities(state.amplitudes, state.n)
    else:
        values = [cut_negativity(state, cut, method=method) for cut in cuts]
    # Left to right in mask order, as _total_negativity sums, so that the total
    # equals fitness() bit for bit.
    total = 0.0
    for value in values:
        total += value
    reports = sorted((CutReport(cut, value) for cut, value in zip(cuts, values)),
                     key=lambda r: (r.cut.smaller_side, r.cut.mask))
    return EntanglementReport(state.n, total, tuple(reports))


def max_entanglement_bound(n: int) -> float:
    """Ceiling on the total score: each cut contributes at most (2^k - 1)/2.

    k is the smaller side of the cut.  The bound assumes hypothetical states
    whose marginals are all completely mixed; it is attained for n = 3, 5, 6
    but not for n = 4.
    """
    if n < 2:
        raise ValueError(f"need at least 2 qubits, got n={n}")
    total = 0.0
    for size in range(1, n):
        k = min(size, n - size)
        total += comb(n - 1, size - 1) * (2**k - 1) / 2.0
    return total


def entanglement_trace(circuit: Circuit, initial: StateVector | None = None) -> list[tuple[int, float]]:
    """Total score after each prefix of the circuit; entry 0 is the initial state."""
    if circuit.n < 2:
        raise ValueError(f"entanglement needs at least 2 qubits, got n={circuit.n}")
    _check_scored(circuit.n)
    if initial is None:
        initial = zero_state(circuit.n)
    if circuit.n != initial.n:
        raise ValueError(f"circuit is on {circuit.n} qubits but the state has {initial.n}")
    amps = initial.amplitudes.copy()
    trace = [(0, _total_negativity(amps, circuit.n))]
    for step, gate in enumerate(circuit.gates, start=1):
        _apply_gate_inplace(amps, gate, circuit.n)
        trace.append((step, _total_negativity(amps, circuit.n)))
    return trace
