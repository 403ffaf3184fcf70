"""Negativity-based entanglement of pure states over all inequivalent cuts.

A cut splits the qubit set into a subset S and its complement; complementary
splits give the same negativity, so each pair is represented once by the side
containing qubit 0.  That leaves 2^(n-1) - 1 inequivalent cuts, each one its
member bitmask (bit q set when qubit q is a member): the odd masks below
2^n - 1.  A cut's contribution is minus the sum of the negative eigenvalues of
the partially transposed density matrix; the score of a state is the sum over
all cuts (larger means more entangled).

Two numerical paths compute a cut's contribution:

* ``schmidt`` (default): for a pure state the contribution equals
  ((sum of singular values)^2 - 1) / 2 of the amplitude matrix reshaped
  along the cut.  Cheap; this is what the search loop uses.  Every Schmidt
  score, single cut or full report, reads one cached layout per qubit count
  (``_cut_layouts``): the gather matrices of all cuts, about 4^(n+1) bytes,
  grouped by member count m.  Scoring a state makes one stacked SVD call per
  group, n - 1 calls in all, whose temporary holds C(n-1, m-1) * 2^n complex
  amplitudes (at most 462 * 4096 of them, 29 MiB, at n = 12).  The calls go
  straight to numpy's compiled SVD gufunc, the one np.linalg.svd(...,
  compute_uv=False) ends in, and share one error state per scored state
  (``_SVD_ERRSTATE``) instead of entering one each.
* ``eigen``: builds rho = |psi><psi|, partially transposes the cut's qubit
  indices and sums the negative eigenvalues.  Kept as the independent
  cross-check (CLI ``--validate``).

The search loop, ``total_entanglement`` and ``cut_negativity`` always take
the dense Schmidt path, whose last bits decide GA ties.  Only a trace
(``entanglement_trace``) also scores exactly: a component no T gate has
touched holds a stabilizer state, and each of its cuts contributes exactly
(2^k - 1)/2, with k the GF(2) rank of the component's stabilizer
generators restricted to the cut, minus the cut's size (``_gf2_ranks``,
over a binary tableau the trace keeps beside the amplitudes): no amplitude
is read and no SVD runs.

A trace keeps every register cut's current contribution in one list across
the prefixes of a circuit, and after each gate sets again only the cuts that
gate can change: none for a single-qubit gate, and for a two-qubit gate on
(a, b) the cuts that separate a from b.  It tracks components, the qubit
sets the two-qubit gates so far have linked, and scores a changed cut's side
in the gate's component alone: ranked from the tableau while no T gate has
touched the component, else by SVD on the component's own amplitudes,
normalized, the whole register's included.  The other changed cuts follow
from those sides by a product rule; its docstring gives the rule.  An entry
agrees with ``total_entanglement`` of the same prefix within 1e-12 at any
circuit length, every entry of a T-free prefix is an exact multiple of 1/2,
and a single-qubit step repeats the entry before it exactly.  The CLI caps a
trace at ``cli.MAX_TRACE_CUTS`` cut rescorings.

Every scoring entry point, and everything that builds cuts, takes n from 2
to qsim.MAX_QUBITS (``_check_scored``) and refuses any other n before it
allocates anything: 64 MiB of gather matrices or a 4096 x 4096 density
matrix at n = 12, and four times as much per extra qubit.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache, partial
from math import comb

import numpy as np

from .qsim import MAX_QUBITS, NON_CLIFFORD_KINDS, Circuit, StateVector, _apply_gate_inplace, _settle_norm, _zero_amplitudes

# Eigenvalues above this (tiny, negative) threshold count as zero so that
# solver noise cannot accumulate across dozens of cuts.
NEGATIVE_EIGENVALUE_TOL = -1e-12

# A score memo (see _total_negativity) holds at most this many bytes: each
# entry is charged its 16 * 2^n key bytes plus MEMO_ENTRY_OVERHEAD for the
# bytes object, the float and the dict slot (about 110 bytes measured on
# CPython 3.11, more while the dict resizes).  That is about 56,000 states
# at n = 6 and 1,000 at n = 12.  A memo serves one qubit count.
MEMO_MAX_BYTES = 64 << 20
MEMO_ENTRY_OVERHEAD = 160


def _raise_svd_nonconvergence(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge")


# np.linalg.svd's own error state, entered once per scored state around every
# _stack_negativities call: LAPACK's failure to converge raises.  A dict, since
# numpy refuses to enter one np.errstate object twice.
_SVD_ERRSTATE = dict(call=_raise_svd_nonconvergence, invalid="call",
                     over="ignore", divide="ignore", under="ignore")

# Singular values of a stack of complex matrices, by the compiled gufunc that
# np.linalg.svd(..., compute_uv=False) calls, without its per-call wrapper:
# the same input, the same bits.  numpy 1.x splits that gufunc by orientation
# and has no _umath_linalg.svd; there the public function gives the same bits.
try:
    from numpy.linalg._umath_linalg import svd as _svd_gufunc
    _singular_values = partial(_svd_gufunc, signature="D->d")
except ImportError:
    _singular_values = partial(np.linalg.svd, compute_uv=False)


@dataclass(frozen=True)
class Cut:
    """Canonical bipartition of {0..n-1} as its member bitmask: bit q set for member q, bit 0 set."""

    mask: int
    n: int

    def __post_init__(self):
        mask = operator.index(self.mask)  # numpy ints pass, floats are refused
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "n", _check_scored(self.n))
        if not mask & 1:
            raise ValueError(f"canonical cuts contain qubit 0, got mask {mask}")
        if not 0 < mask < (1 << self.n) - 1:
            raise ValueError(f"cut must be a proper nonempty subset of {self.n} qubits, got mask {mask}")

    @property
    def members(self) -> frozenset[int]:
        return frozenset(q for q in range(self.n) if (self.mask >> q) & 1)

    @property
    def smaller_side(self) -> int:
        size = self.mask.bit_count()
        return min(size, self.n - size)

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


def _check_scored(n: int) -> int:
    """The package's one qubit-range check: n as an int, refused with no cut or above MAX_QUBITS."""
    n = operator.index(n)  # numpy ints pass, floats are refused
    if n < 2:
        raise ValueError(f"entanglement needs at least 2 qubits, got n={n}")
    if n > MAX_QUBITS:
        raise ValueError(f"scoring is capped at {MAX_QUBITS} qubits, got n={n}")
    return n


def enumerate_cuts(n: int) -> list[Cut]:
    """All 2^(n-1) - 1 canonical cuts, ascending by member bitmask."""
    n = _check_scored(n)
    return [Cut(mask, n) for mask in range(1, (1 << n) - 1, 2)]


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
    n = _check_scored(n)
    # Axis a of the (2,)*n index tensor is qubit n - 1 - a.  Taking each
    # side's axes in ascending order keeps its higher qubits more significant.
    indices = np.arange(1 << n, dtype=np.intp).reshape((2,) * n)
    layouts = []
    for m in range(1, n):
        masks = tuple(mask for mask in range(1, (1 << n) - 1, 2) if mask.bit_count() == m)
        gathers = np.empty((len(masks), 1 << m, 1 << (n - m)), dtype=np.intp)
        for gather, mask in zip(gathers, masks):
            members = [a for a in range(n) if (mask >> (n - 1 - a)) & 1]
            rest = [a for a in range(n) if not (mask >> (n - 1 - a)) & 1]
            gather[...] = indices.transpose(members + rest).reshape(gather.shape)
        gathers.flags.writeable = False
        layouts.append((m, masks, gathers))
    return tuple(layouts)


def _stack_negativities(amps: np.ndarray, gathers: np.ndarray) -> list[float]:
    """Contribution of each cut in a stack of gather matrices, in stack order.

    One SVD call for the whole stack; callers enter _SVD_ERRSTATE around it.
    The square is taken on Python floats: that is libm pow, as on a float64
    scalar, where numpy's array power may round the last bit differently.
    A NaN sum, which LAPACK returns without failing for an infinite entry,
    raises LinAlgError rather than clamping to 0.0.
    """
    # The ufunc reduction that ndarray.sum ends in, without its Python wrapper.
    sums = np.add.reduce(_singular_values(amps[gathers]), axis=-1)
    values = []
    for s in sums.tolist():
        value = (s ** 2 - 1.0) / 2.0
        if value > 0.0:
            values.append(value)
        elif value != value:
            raise np.linalg.LinAlgError("singular values of a cut matrix are NaN")
        else:
            values.append(0.0)
    return values


def _gf2_ranks(words: np.ndarray) -> np.ndarray:
    """GF(2) rank of each stack of bit rows: words has shape (..., rows), one
    row per int64 word, and any leading axes are a batch.

    Each row in turn, as the rows before it left it, clears its lowest set
    bit from every later row that holds it.  The nonzero rows left then each
    hold a bit no later row holds, so they are independent and span what the
    rows spanned: their count is the rank.  words itself is not changed.
    """
    rows = np.array(np.moveaxis(words, -1, 0), dtype=np.int64)  # a copy, rows first
    for i in range(len(rows) - 1):
        row, later = rows[i], rows[i + 1:]
        later ^= row * ((later & (row & -row)) != 0)
    return np.count_nonzero(rows, axis=0)


def _cut_negativities(amps: np.ndarray, n: int, apart: tuple[int, int] | None = None) -> list[float]:
    """Every canonical cut's contribution, ascending by mask (mask m at m >> 1).

    apart=(a, b) scores only the cuts that separate qubit a from qubit b and
    leaves 0.0 at the others: the cuts a two-qubit gate on (a, b) changes.
    Each cut size still takes one stacked SVD, over just those cuts'
    gathers; LAPACK factors each matrix of a stack on its own, so a cut
    scores the same bits in a partial stack as in the full one.
    """
    values = [0.0] * ((1 << (n - 1)) - 1)
    with np.errstate(**_SVD_ERRSTATE):
        for _m, masks, gathers in _cut_layouts(n):
            if apart is not None:
                a, b = apart
                picked = [i for i, mask in enumerate(masks) if (mask >> a ^ mask >> b) & 1]
                if not picked:
                    continue
                masks, gathers = [masks[i] for i in picked], gathers[picked]
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


def partial_transpose_spectrum(state: StateVector, cut: Cut) -> np.ndarray:
    """Eigenvalues (ascending) of the partially transposed density matrix."""
    _check_cut(state, cut)  # Cut has checked the qubit range
    # The partial transpose of |psi><psi| is exactly Hermitian.
    return np.linalg.eigvalsh(_partial_transpose(state.amplitudes, state.n, cut.members))


def cut_negativity(state: StateVector, cut: Cut, method: str = "schmidt") -> float:
    """This cut's contribution: minus the sum of negative transpose eigenvalues."""
    _check_cut(state, cut)
    if method == "schmidt":
        _m, masks, gathers = _cut_layouts(state.n)[cut.mask.bit_count() - 1]
        i = masks.index(cut.mask)
        with np.errstate(**_SVD_ERRSTATE):
            return _stack_negativities(state.amplitudes, gathers[i:i + 1])[0]
    if method == "eigen":
        spectrum = partial_transpose_spectrum(state, cut)
        return float(-spectrum[spectrum < NEGATIVE_EIGENVALUE_TOL].sum())
    raise ValueError(f"unknown method {method!r}; expected 'schmidt' or 'eigen'")


def _check_cut(state: StateVector, cut: Cut) -> None:
    if cut.n != state.n:
        raise ValueError(f"cut is for {cut.n} qubits but the state has {state.n}")


def _total_negativity(amps: np.ndarray, n: int, *, memo: dict[bytes, float] | None = None,
                      known: list[float] | None = None) -> float:
    """Fast scalar path used by the search loop and traces.

    amps is a simulated state, not yet renormalized: before scoring, it goes
    through run_circuit's norm rule (qsim._settle_norm), so the total is
    total_entanglement's of the state run_circuit returns, bit for bit, and
    a norm drifted past NORM_ERROR_TOL raises RuntimeError.  Sums left to
    right in mask order; np.sum or a compensated sum would move the last
    bit, which decides GA ties and so the best genes found.

    memo, when given, maps amps.tobytes() to the total: equal bytes give the
    same SVD input, and were checked by the miss that stored them, so a
    stored total is the one this call would compute.  It is cleared
    whenever one more entry would take it past MEMO_MAX_BYTES.

    known, when given, is the trace's complete per-cut list for amps, every
    cut's current contribution: it is summed left to right as it stands and
    nothing is scored.  The search loop passes no list.
    """
    if memo is not None:
        key = amps.tobytes()
        total = memo.get(key)
        if total is not None:
            return total
    if known is None:
        known = _cut_negativities(_settle_norm(amps, "in a scored state"), n)
    total = 0.0
    for value in known:
        total += value
    if memo is not None:
        if (len(memo) + 1) * (len(key) + MEMO_ENTRY_OVERHEAD) > MEMO_MAX_BYTES:
            memo.clear()
        memo[key] = total
    return total


def total_entanglement(state: StateVector, method: str = "schmidt") -> EntanglementReport:
    """Summed negativity over all canonical cuts, with the per-cut breakdown."""
    cuts = enumerate_cuts(state.n)  # checks n before any scoring
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
    n = _check_scored(n)
    total = 0.0
    for size in range(1, n):
        k = min(size, n - size)
        total += comb(n - 1, size - 1) * (2**k - 1) / 2.0
    return total


def _tableau_negativities(xs: list[int], zs: list[int], members: list[int], sides: list[int]) -> list[float]:
    """Exact contribution of each local cut of a T-free component, in sides order.

    xs[q] and zs[q] hold bit r of generator r's x and z parts on qubit q; a
    component's generators are its members' and act on its members alone.
    Local bit j stands for qubit members[j], and each side is a local member
    mask.  Across side S the component's state has 2^k equal Schmidt
    coefficients, k = the GF(2) rank of the generators restricted to S's x
    and z columns, minus |S| (Fattal et al., quant-ph/0406168), so the side
    contributes (2^k - 1)/2, exactly.
    """
    m = len(members)
    columns = np.array([xs[q] for q in members] + [zs[q] for q in members], dtype=np.int64)
    # words[r]: generator members[r]'s x bits at local bits 0..m-1, its z bits above them.
    bits = (columns >> np.array(members, dtype=np.int64)[:, None]) & 1
    words = np.bitwise_or.reduce(bits << np.arange(2 * m, dtype=np.int64), axis=1)
    cuts = np.array(sides, dtype=np.int64)
    ranks = _gf2_ranks(words & (cuts | cuts << m)[:, None]).tolist()
    return [((1 << (rank - side.bit_count())) - 1) / 2 for rank, side in zip(ranks, sides)]


def entanglement_trace(circuit: Circuit) -> list[tuple[int, float]]:
    """Total score after each prefix of the circuit; entry 0 is |0...0>.

    One per-cut list holds every register cut's current contribution across
    the prefixes, and after each gate only the cuts that gate can change are
    set again.  A gate acting within one side of a cut is a local unitary
    U_A (x) U_B: it maps the cut's matrix M to U_A M U_B^T, whose singular
    values, and so whose contribution, are those of M (Vidal,
    quant-ph/0301063).  So a single-qubit gate changes no cut, and a
    two-qubit gate on (a, b) only the cuts with exactly one of a, b among
    the members.

    The qubits linked by the two-qubit gates so far form components, and the
    state is a product of one state per component: entry 0 takes no SVD.  A
    gate on (a, b) joins component C, and first C's own cuts that separate a
    from b are scored.  While no T gate has acted on a qubit of C, C holds a
    stabilizer state, and they are ranked exactly from a binary tableau
    without phases (Aaronson & Gottesman, quant-ph/0406196) that the trace
    keeps beside the amplitudes: H, S, CNOT and CZ update it, X, Y and Z
    change only signs, and generator r, which starts as Z on qubit r, stays
    on qubit r's component.  No amplitude is read.  Otherwise they are
    scored by SVD on C's own state psi_C: the column holding the largest
    amplitude of the amplitudes reshaped along C (a rank-one matrix),
    normalized, a unit vector even when C is the whole register.
    Then each register cut R that separates a from b takes its value from
    two: v_S, C's value at S = R & C, and v_T, the kept value at the
    register cut of T = R - C.  That cut keeps all of C on one side, so this
    gate leaves it as it was, and it already holds the product over every
    other component R splits.  The sum of a product state's Schmidt
    coefficients is the product of its parts' sums, and a cut contributes
    (s^2 - 1)/2, so 2 v_R + 1 = (2 v_S + 1)(2 v_T + 1); v_R is v_S as it
    stands when T is empty or v_T is 0.0.

    A kept value was scored on an earlier prefix or a component's state, or
    comes from the product rule, so an entry can differ from
    total_entanglement of the same prefix in the last bits (within 1e-12); a
    single-qubit step repeats the entry before it.  On a T-free prefix every
    value is an exact half-integer (2^k - 1)/2, the product rule keeps it so,
    and each entry is the exact score, where total_entanglement can miss it
    in the last bits.
    """
    n = _check_scored(circuit.n)
    register = (1 << n) - 1
    amps = _zero_amplitudes(n).copy()
    groups = [1 << q for q in range(n)]  # groups[q]: member mask of qubit q's component
    tainted = 0  # mask of the qubits a non-Clifford gate has acted on
    # The tableau by qubit: bit r of xs[q] and zs[q] is generator r's x and z part on qubit q.
    xs, zs = [0] * n, [1 << q for q in range(n)]
    values = [0.0] * ((1 << (n - 1)) - 1)
    trace = [(0, _total_negativity(amps, n, known=values))]
    for step, gate in enumerate(circuit.gates, start=1):
        _apply_gate_inplace(amps, gate, n)
        kind, args = gate.kind, gate.args
        if kind == "H":
            (q,) = args
            xs[q], zs[q] = zs[q], xs[q]
        elif kind == "S":
            (q,) = args
            zs[q] ^= xs[q]
        elif kind == "CNOT":
            c, t = args
            xs[t] ^= xs[c]
            zs[c] ^= zs[t]
        elif kind == "CZ":
            a, b = args
            zs[a] ^= xs[b]
            zs[b] ^= xs[a]
        elif kind in NON_CLIFFORD_KINDS:
            for q in args:
                tainted |= 1 << q
        if len(args) == 2:
            a, b = args
            joined = groups[a] | groups[b]
            members = [q for q in range(n) if joined >> q & 1]
            # Local index l has bit j for qubit members[j]; spread[l] is its register mask.
            spread = [0]
            for q in members:
                groups[q] = joined
                spread += [union | 1 << q for union in spread]
            la, lb = members.index(a), members.index(b)
            full = len(spread) - 1
            # C's own cuts that separate a from b, as local masks holding local bit 0.
            sides = [l for l in range(1, full, 2) if (l >> la ^ l >> lb) & 1]
            if joined & tainted:
                # amps holds psi_C (x) rest, so amps[spread | other bits of the
                # top index] is psi_C times rest's largest amplitude.
                top = int(np.argmax(np.abs(amps)))
                psi = amps[np.array(spread, dtype=np.intp) | (top & ~joined)]
                psi /= np.linalg.norm(psi)
                local = _cut_negativities(psi, len(members), (la, lb))
                local = [local[l >> 1] for l in sides]
            else:
                local = _tableau_negativities(xs, zs, members, sides)
            # A register cut R that separates a from b is S | T: S = R & C one
            # of C's sides, T = R - C any part of the rest, and R holds qubit 0
            # through S when C holds it, through T otherwise.
            outside = register & ~joined
            lowest = outside & 1
            parts = [(spread[l], value, 2.0 * value + 1.0) for l, value in zip(sides, local)]
            if lowest:
                parts += [(spread[full ^ l], value, grown) for l, (_side, value, grown) in zip(sides, parts)]
            free, sub = outside ^ lowest, 0
            while True:
                rest = sub | lowest
                kept = values[(rest if lowest else register ^ rest) >> 1] if rest else 0.0
                if kept == 0.0:
                    for side, value, _grown in parts:
                        values[(side | rest) >> 1] = value
                else:
                    scale = 2.0 * kept + 1.0
                    for side, _value, grown in parts:
                        values[(side | rest) >> 1] = (grown * scale - 1.0) / 2.0
                sub = (sub - free) & free  # the next part of the rest, 0 after the last
                if not sub:
                    break
        trace.append((step, _total_negativity(amps, n, known=values)))
    return trace
