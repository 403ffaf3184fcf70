"""Independent brute-force oracles that the implementation is checked against.

Everything here deliberately avoids the code paths under test: gates become
explicit tensor-product matrices, partial transposition is done by bit
surgery on index pairs, and eigenvalues come from the characteristic
polynomial's companion matrix.
"""
import numpy as np

from entangler.qsim import GATE_MATRICES, Circuit, GateSpec, StateVector

I2 = np.eye(2, dtype=complex)
P0 = np.array([[1, 0], [0, 0]], dtype=complex)
P1 = np.array([[0, 0], [0, 1]], dtype=complex)


def embed_single(matrix: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """Kronecker embedding with qubit 0 as the rightmost tensor factor."""
    out = np.eye(1, dtype=complex)
    for q in range(n - 1, -1, -1):
        out = np.kron(out, matrix if q == qubit else I2)
    return out


def gate_matrix(gate: GateSpec, n: int) -> np.ndarray:
    if gate.kind in ("CNOT", "CZ"):
        control, target = gate.args
        acted = GATE_MATRICES["X" if gate.kind == "CNOT" else "Z"]
        return embed_single(P0, control, n) + embed_single(P1, control, n) @ embed_single(acted, target, n)
    return embed_single(GATE_MATRICES[gate.kind], gate.args[0], n)


def circuit_matrix(circuit: Circuit) -> np.ndarray:
    """Full 2^n x 2^n product matrix, later gates multiplied on the left."""
    u = np.eye(1 << circuit.n, dtype=complex)
    for gate in circuit.gates:
        u = gate_matrix(gate, circuit.n) @ u
    return u


def partial_transpose_dense(rho: np.ndarray, members, n: int) -> np.ndarray:
    """Element-by-element partial transpose using index bit surgery."""
    mask = 0
    for q in members:
        mask |= 1 << q
    dim = 1 << n
    out = np.empty_like(rho)
    for r in range(dim):
        for c in range(dim):
            r2 = (r & ~mask) | (c & mask)
            c2 = (c & ~mask) | (r & mask)
            out[r2, c2] = rho[r, c]
    return out


def char_poly_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues as companion-matrix roots of the characteristic polynomial."""
    roots = np.roots(np.poly(np.asarray(matrix, dtype=complex)))
    return np.sort(roots.real)


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps)


def reference_tournament_pick(fits: np.ndarray, rng: np.random.Generator, size: int) -> int:
    """Tournament selection comparing numpy scalars; the lower index wins ties."""
    candidates = rng.integers(0, len(fits), size=size)
    winner = int(candidates[0])
    for c in candidates[1:]:
        c = int(c)
        if fits[c] > fits[winner] or (fits[c] == fits[winner] and c < winner):
            winner = c
    return winner


def reference_breed(population: np.ndarray, fits: np.ndarray, config,
                    table_size: int, rng: np.random.Generator) -> np.ndarray:
    """One GA generation drawn in the documented order, written with a numpy
    scalar per tournament comparison and a summed mutation mask."""
    length = config.circuit_length
    ranked = np.lexsort((np.arange(len(fits)), -fits))
    children = [population[i].copy() for i in ranked[: config.elite_count]]
    while len(children) < config.population_size:
        first = population[reference_tournament_pick(fits, rng, config.tournament_size)]
        second = population[reference_tournament_pick(fits, rng, config.tournament_size)]
        if length >= 2 and rng.random() < config.crossover_rate:
            point = int(rng.integers(1, length))
            child = np.concatenate([first[:point], second[point:]])
        else:
            child = first.copy()
        mask = rng.random(length) < config.mutation_rate
        hits = int(mask.sum())
        if hits:
            child[mask] = rng.integers(0, table_size, size=hits)
        children.append(child)
    return np.array(children)


def _gf2_rank(rows) -> int:
    """Rank over GF(2) of bit rows given as Python ints."""
    pivots = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def _tableau_step(xs: list[int], zs: list[int], gate) -> None:
    """Apply one Clifford gate to the rows of a phase-free tableau, in place."""
    for i in range(len(xs)):
        x, z = xs[i], zs[i]
        if gate.kind == "H":
            (q,) = gate.args
            flipped = ((x >> q) ^ (z >> q)) & 1
            x, z = x ^ flipped << q, z ^ flipped << q
        elif gate.kind == "S":
            (q,) = gate.args
            z ^= x & (1 << q)
        elif gate.kind == "CNOT":
            c, t = gate.args
            x ^= ((x >> c) & 1) << t
            z ^= ((z >> t) & 1) << c
        elif gate.kind == "CZ":
            a, b = gate.args
            z ^= ((x >> b) & 1) << a
            z ^= ((x >> a) & 1) << b
        elif gate.kind == "T":
            raise ValueError("a T gate leaves the stabilizer states")
        xs[i], zs[i] = x, z


def tableau_rows(circuit: Circuit) -> tuple[list[int], list[int]]:
    """The x and z rows, as n-bit ints, of a phase-free tableau of a T-free circuit's output."""
    xs, zs = [0] * circuit.n, [1 << i for i in range(circuit.n)]
    for gate in circuit.gates:
        _tableau_step(xs, zs, gate)
    return xs, zs


def tableau_trace(circuit: Circuit) -> list[tuple[int, float]]:
    """Total negativity after each prefix of a T-free circuit, exactly, from a
    binary stabilizer tableau without phases.

    Row i holds the x and z bits of one generator as two n-bit ints; |0...0>
    is generated by z = e_i.  X, Y and Z change only phases, so they leave
    the rows as they are.  Across a cut A with |A| qubits the state has
    2^k equal Schmidt coefficients, where k is the GF(2) rank of the rows
    restricted to A's x and z columns, minus |A| (Fattal et al.,
    quant-ph/0406168), so the cut contributes (2^k - 1)/2.
    """
    n = circuit.n
    xs, zs = [0] * n, [1 << i for i in range(n)]
    cuts = range(1, (1 << n) - 1, 2)  # odd masks: the cuts holding qubit 0

    def total():
        doubled = 0
        for cut in cuts:
            rows = [(x & cut) | (z & cut) << n for x, z in zip(xs, zs)]
            doubled += (1 << (_gf2_rank(rows) - bin(cut).count("1"))) - 1
        return doubled / 2

    trace = [(0, total())]
    for step, gate in enumerate(circuit.gates, 1):
        _tableau_step(xs, zs, gate)
        trace.append((step, total()))
    return trace
