"""The benchmark's workloads: inputs made from a seed, the fixed job, and output checks.

Every workload drives only public entry points of the entangler package.
A job is a list of top-level calls; the benchmark repeats whole jobs, so the
mix of calls in a run never depends on how many repetitions fit.
"""
from __future__ import annotations

import json
import zlib
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

import oracle
from entangler import (
    Circuit,
    GAConfig,
    build_gate_set,
    decode,
    entanglement_trace,
    evolve,
    max_entanglement_bound,
    named_circuit,
    run_circuit,
    total_entanglement,
    zero_state,
)

TOL = 1e-9
GA_FAMILIES = ("H", "CNOT")
ALL_FAMILIES = ("H", "X", "Y", "Z", "S", "T", "CNOT", "CZ")


@dataclass(frozen=True)
class Outcome:
    text: str     # canonical serialization, compared byte for byte between repetitions
    evals: int    # states scored by the call
    value: object


@dataclass(frozen=True)
class Call:
    key: str      # names the input, so repeated calls on it can be compared
    run: Callable[[], Outcome]


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def _gates(circuit: Circuit) -> list[tuple[str, tuple[int, ...]]]:
    return [(g.kind, g.args) for g in circuit.gates]


class EvolveWorkload:
    """Serial or pooled GA runs over a seed set drawn from the workload seed.

    The generation budget is the work: the targets are unreachable, or rarely
    reached, within it, so each GA seed costs about the same.
    """

    reference_kernel = "small_arrays"

    def __init__(self, name: str, seed: int, *, n: int, length: int, generations: int,
                 ga_seeds: int, target: float, workers: int = 1):
        self.name = name
        self.n = n
        self.length = length
        self.generations = generations
        self.target = target
        self.workers = workers
        self.gate_set = build_gate_set(n, GA_FAMILIES)
        self.inputs = [int(s) for s in _rng(seed, name).integers(0, 2**31, size=ga_seeds)]

    def config(self, ga_seed: int) -> GAConfig:
        return GAConfig(n=self.n, circuit_length=self.length, families=GA_FAMILIES,
                        max_generations=self.generations, target_fitness=self.target,
                        rng_seed=ga_seed)

    def job(self, workers: int | None = None) -> list[Call]:
        workers = self.workers if workers is None else workers
        return [Call(f"ga_seed={s}", partial(self._evolve, s, workers)) for s in self.inputs]

    def warm_up(self) -> list[Call]:
        return self.job()[:1]

    def _evolve(self, ga_seed: int, workers: int) -> Outcome:
        result = evolve(self.config(ga_seed), workers=workers)
        return Outcome(json.dumps(result.to_dict(), sort_keys=True), result.evaluations, result)

    def setup_code(self) -> str:
        return ("from entangler import GAConfig, evolve\n"
                f"evolve(GAConfig(n={self.n}, circuit_length={self.length}, families={GA_FAMILIES!r}, "
                "population_size=2, max_generations=0))\n")

    def cut_cache_sizes(self) -> tuple[int, ...]:
        return (self.n,)

    def describe_inputs(self) -> list:
        return list(self.inputs)

    def record(self, outcome: Outcome) -> dict:
        r = outcome.value
        return {"best_fitness": r.best_fitness, "evaluations": r.evaluations,
                "best_genes": list(r.best_genes)}

    def check(self, key: str, outcome: Outcome, reference: dict | None) -> list[str]:
        r = outcome.value
        problems = []
        circuit = decode(r.best_genes, self.gate_set)
        score = float(oracle.cut_contributions(oracle.prefix_states(self.n, _gates(circuit))[-1:], self.n).sum())
        if abs(score - r.best_fitness) > TOL:
            problems.append(f"best_fitness {r.best_fitness!r} but the best genes score {score!r}")
        if r.best_circuit != circuit:
            problems.append("best_circuit is not the decoded best genes")
        if r.best_fitness != max(r.best_history):
            problems.append("best_fitness is not the best of the history")
        hits = [i for i, b in enumerate(r.best_history) if b >= self.target - TOL]
        stop = min(hits[0], self.generations) if hits else self.generations
        if r.generations != stop:
            problems.append(f"ran {r.generations} generations, expected {stop}")
        if r.evaluations != r.config.population_size * (r.generations + 1):
            problems.append(f"{r.evaluations} evaluations for {r.generations} generations")
        if reference is not None and (abs(reference["best_fitness"] - r.best_fitness) > TOL
                                      or reference["evaluations"] != r.evaluations
                                      or reference["best_genes"] != list(r.best_genes)):
            problems.append(f"differs from the recorded reference {reference}")
        return problems

    def expected_counts(self, outcomes: list[Outcome]) -> dict[str, int]:
        """Span counts a traced job must show; fitness runs in the workers when pooled."""
        evaluations = sum(o.evals for o in outcomes)
        serial = self.workers == 1
        return {
            "evolve.fitness": evaluations if serial else 0,
            "qsim.apply_gate": evaluations * self.length if serial else 0,
            "entanglement.score": evaluations if serial else 0,
            "evolve.breed": sum(o.value.generations for o in outcomes),
            "evolve.evaluate.rows": evaluations,
        }


# Random circuits: one per qubit count, 4n gates each, so every seed's job
# costs the same.  Catalog circuits, with the paper's totals for their
# outputs.  GHZ ladders, with the closed form (2^(n-1) - 1)/2.
RANDOM_SIZES = (8, 9, 10)
CATALOG_TOTALS = {"circuit_4a": 5.5, "circuit_4b": 5.5, "circuit_5a": 17.5, "circuit_5b": 17.5,
                  "circuit_6a": 60.5}
GHZ_SIZES = tuple(range(3, 11))
MAX_DRAWS = 100


class ScoreTraceWorkload:
    """entanglement_trace and total_entanglement, as the CLI's trace and evaluate run them.

    Every circuit is both traced and evaluated: seeded random circuits at
    n = 8..10, the catalog's evolved circuits and the GHZ ladders n = 3..10.
    """

    name = "score_trace"
    workers = 1
    reference_kernel = "cut_svds"

    def __init__(self, seed: int):
        rng = _rng(seed, self.name)
        self.circuits: dict[str, Circuit] = {}
        for n in RANDOM_SIZES:
            self.circuits[f"random{n}"] = _random_circuit(rng, n)
        for name in CATALOG_TOTALS:
            self.circuits[name] = named_circuit(name)
        for n in GHZ_SIZES:
            self.circuits[f"ghz{n}"] = named_circuit(f"circuit_ghz{n}")
        self.uses = [(use, cid) for cid in self.circuits for use in ("trace", "total")]
        self._oracle: dict[str, np.ndarray] = {}

    def job(self, workers: int | None = None) -> list[Call]:
        run = {"trace": _trace, "total": _total}
        return [Call(f"{use}:{cid}", partial(run[use], self.circuits[cid])) for use, cid in self.uses]

    def warm_up(self) -> list[Call]:
        """A trace of the shortest circuit of each size, so every gather cache is full before timing."""
        shortest: dict[int, Call] = {}
        for call, (use, cid) in sorted(zip(self.job(), self.uses), key=lambda p: len(self.circuits[p[1][1]])):
            if use == "trace":
                shortest.setdefault(self.circuits[cid].n, call)
        return list(shortest.values())

    def setup_code(self) -> str:
        sizes = sorted({c.n for c in self.circuits.values()})
        return ("from entangler import Circuit, entanglement_trace\n"
                f"for n in {sizes!r}:\n    entanglement_trace(Circuit(n, ()))\n")

    def cut_cache_sizes(self) -> tuple[int, ...]:
        return tuple(sorted({c.n for c in self.circuits.values()}))

    def describe_inputs(self) -> dict:
        return {cid: str(c) for cid, c in self.circuits.items()}

    def record(self, outcome: Outcome) -> dict:
        return {"total": _final_total(outcome)}

    def _contributions(self, cid: str) -> np.ndarray:
        if cid not in self._oracle:
            circuit = self.circuits[cid]
            self._oracle[cid] = oracle.cut_contributions(oracle.prefix_states(circuit.n, _gates(circuit)), circuit.n)
        return self._oracle[cid]

    def check(self, key: str, outcome: Outcome, reference: dict | None) -> list[str]:
        kind, cid = key.split(":", 1)
        circuit = self.circuits[cid]
        contributions = self._contributions(cid)
        expected = contributions.sum(axis=1)
        problems = []
        if kind == "trace":
            steps = [step for step, _ in outcome.value]
            totals = np.array([total for _, total in outcome.value])
            if steps != list(range(len(circuit) + 1)) or np.max(np.abs(totals - expected)) > TOL:
                problems.append(f"prefix totals {totals.tolist()} differ from the oracle's {expected.tolist()}")
        else:
            report = outcome.value
            by_mask = {r.cut.mask: r.contribution for r in report.per_cut}
            masks = list(range(1, (1 << circuit.n) - 1, 2))
            if sorted(by_mask) != masks or abs(report.total - expected[-1]) > TOL or max(
                    abs(by_mask[m] - c) for m, c in zip(masks, contributions[-1])) > TOL:
                problems.append(f"total {report.total!r} or its cuts differ from the oracle's {expected[-1]!r}")
        final = _final_total(outcome)
        if cid.startswith("ghz") and abs(final - ((1 << (circuit.n - 1)) - 1) / 2) > TOL:
            problems.append(f"GHZ total {final!r} is not (2^(n-1) - 1)/2")
        if cid in CATALOG_TOTALS and abs(final - CATALOG_TOTALS[cid]) > TOL:
            problems.append(f"total {final!r} is not the paper's {CATALOG_TOTALS[cid]!r}")
        if reference is not None and abs(final - reference["total"]) > TOL:
            problems.append(f"total {final!r} differs from the recorded {reference['total']!r}")
        return problems

    def expected_counts(self, outcomes: list[Outcome]) -> dict[str, int]:
        traced = [o for o in outcomes if isinstance(o.value, list)]
        return {
            "evolve.fitness": 0,
            "qsim.apply_gate": sum(o.evals - 1 for o in traced),
            "entanglement.score": sum(o.evals for o in outcomes),
            "evolve.breed": 0,
            "evolve.evaluate.rows": 0,
        }


def _random_circuit(rng: np.random.Generator, n: int) -> Circuit:
    """A random non-Clifford circuit of 4n gates whose output is entangled across every cut.

    H on every qubit and CZ along a random spanning tree make a connected
    graph state; T on half the qubits, one random single-qubit gate on each
    qubit and n/2 random CNOT or CZ gates then spread the T phases into the
    Schmidt spectra.  A draw is kept only if the oracle finds every cut
    entangled and some cut's spectrum not flat: a stabilizer state has flat
    spectra, so the output is not one.
    """
    gate_set = build_gate_set(n, ALL_FAMILIES)
    index = {(g.kind, g.args): gene for gene, g in enumerate(gate_set.table)}
    singles = ("H", "X", "Y", "Z", "S", "T")
    weights = np.array([0.35, 0.05, 0.05, 0.05, 0.1, 0.4])
    for _ in range(MAX_DRAWS):
        order = [int(q) for q in rng.permutation(n)]
        genes = [index["H", (q,)] for q in range(n)]
        genes += [index["CZ", tuple(sorted((order[int(rng.integers(i))], order[i])))] for i in range(1, n)]
        phased = (n + 1) // 2
        genes += [index["T", (int(q),)] for q in rng.choice(n, size=phased, replace=False)]
        genes += [index[singles[int(f)], (int(q),)]
                  for q, f in zip(rng.permutation(n), rng.choice(len(singles), size=n, p=weights))]
        for _ in range(n + 1 - phased):
            pair = tuple(int(q) for q in rng.choice(n, size=2, replace=False))
            genes.append(index["CNOT" if rng.random() < 0.5 else "CZ", pair])
        circuit = decode(genes, gate_set)
        final = oracle.cut_contributions(oracle.prefix_states(n, _gates(circuit))[-1:], n)[0]
        schmidt_rank = np.log2(2.0 * final + 1.0)
        if final.min() > 1e-6 and np.max(np.abs(schmidt_rank - np.round(schmidt_rank))) > 1e-6:
            return circuit
    raise RuntimeError(f"no entangled non-stabilizer {n}-qubit circuit in {MAX_DRAWS} draws")


def _trace(circuit: Circuit) -> Outcome:
    values = entanglement_trace(circuit)
    return Outcome(json.dumps(values), len(values), values)


def _total(circuit: Circuit) -> Outcome:
    report = total_entanglement(run_circuit(circuit, zero_state(circuit.n)))
    return Outcome(json.dumps(report.to_dict()), 1, report)


def _final_total(outcome: Outcome) -> float:
    value = outcome.value
    return value[-1][1] if isinstance(value, list) else value.total


def make(name: str, seed: int):
    if name == "evolve_small":
        return EvolveWorkload(name, seed, n=4, length=5, generations=10, ga_seeds=4,
                              target=max_entanglement_bound(4))
    if name == "evolve_large":
        return EvolveWorkload(name, seed, n=6, length=13, generations=2, ga_seeds=4, target=60.5)
    if name == "evolve_pool":
        return EvolveWorkload(name, seed, n=5, length=8, generations=4, ga_seeds=4, target=17.5,
                              workers=2)
    if name == "score_trace":
        return ScoreTraceWorkload(seed)
    raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")


WORKLOADS = ("evolve_small", "evolve_large", "evolve_pool", "score_trace")
