"""Spans around the entangler layers, recorded from the benchmark's own files.

The tracer replaces names in the module namespaces that bind them and puts
the originals back afterwards; the package source is never touched.  Each
span keeps its name, start, end and the span that called it, in memory.
Forked pool workers inherit the wrappers but record nothing: spans inside
workers are out of scope, and the parent's wait in ``_evaluate`` stands for
the pool layer.
"""
from __future__ import annotations

import itertools
import os
import sys
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np


def _cuts(n: int) -> int:
    return (1 << (n - 1)) - 1


class Tracer:
    def __init__(self):
        # One (span id, parent id, name, start ns, end ns) per closed span.
        self.records: list[tuple[int, int, str, int, int]] = []
        self.stack = [-1]
        self._ids = itertools.count()
        self.active = False
        self.cuts = 0
        self.rows = 0
        self.distinct = 0
        self._genomes: set[bytes] = set()
        os.register_at_fork(after_in_child=self._stop)

    def _stop(self) -> None:
        self.active = False

    def wrap(self, name: str, fn, on_call=None):
        stack, ids, record = self.stack, self._ids, self.records.append

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(*args)
            span, parent = next(ids), stack[-1]
            stack.append(span)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                record((span, parent, name, start, end))
        return traced

    def call(self, fn):
        """Run one top-level call under a root span; genome repeats are counted per call."""
        try:
            return self.wrap("call", fn)()
        finally:
            self.distinct += len(self._genomes)
            self._genomes.clear()

    def _count_cuts(self, _amps, n) -> None:
        self.cuts += _cuts(n)

    def _count_report_cuts(self, state, *_rest) -> None:
        self.cuts += _cuts(state.n)

    def _count_genomes(self, population, *_rest) -> None:
        self.rows += len(population)
        self._genomes.update(row.tobytes() for row in population)

    @contextmanager
    def installed(self, workloads_module):
        """Wrap the layer entry points for the duration of the block."""
        evolve_mod = sys.modules["entangler.evolve"]
        entanglement_mod = sys.modules["entangler.entanglement"]
        patches = [
            (evolve_mod, "fitness", "evolve.fitness", None),
            (evolve_mod, "decode", "evolve.decode", None),
            (evolve_mod, "_breed", "evolve.breed", None),
            (evolve_mod, "_evaluate", "evolve.evaluate", self._count_genomes),
            (evolve_mod, "_apply_gate_inplace", "qsim.apply_gate", None),
            (evolve_mod, "_total_negativity", "entanglement.score", self._count_cuts),
            (entanglement_mod, "_apply_gate_inplace", "qsim.apply_gate", None),
            (entanglement_mod, "_total_negativity", "entanglement.score", self._count_cuts),
            (workloads_module, "total_entanglement", "entanglement.score", self._count_report_cuts),
        ]
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in patches]
        for module, attr, name, on_call in patches:
            setattr(module, attr, self.wrap(name, getattr(module, attr), on_call))
        self.active = True
        try:
            yield self
        finally:
            self.active = False
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def summary(self) -> dict[str, dict[str, np.ndarray]]:
        """Per span name: durations and self times (ns), and the parent span ids."""
        spans = np.array([r[0] for r in self.records], dtype=np.int64)
        parents = np.array([r[1] for r in self.records], dtype=np.int64)
        names = np.array([r[2] for r in self.records])
        duration = np.array([r[4] - r[3] for r in self.records], dtype=np.int64)
        nested = parents >= 0
        # Span ids run 0..len-1, as every span has closed.
        children = np.bincount(parents[nested], weights=duration[nested], minlength=len(spans))
        self_time = duration - children[spans]
        order = np.argsort(spans, kind="stable")
        out = {}
        for name in set(names.tolist()):
            picked = order[names[order] == name]
            out[name] = {"duration": duration[picked], "self": self_time[picked], "parent": parents[picked]}
        return out
