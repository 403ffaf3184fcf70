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
