"""Span tracer and the probes that wrap vigrain's cross-module calls.

Probes are installed from the benchmark's side by replacing module and
class attributes for the duration of one repetition; ``src/`` is never
edited. Each name is patched where its caller looks it up: ``vi``
reaches detection and forces through module attributes but holds its
own ``cg_solve``, ``verlet`` imported ``_detect_unchecked`` by name, and
``runner`` imported ``unpack_state`` and ``ensemble_stats`` by name.
"""
from __future__ import annotations

import inspect
import os
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from vigrain import contact, forces, io, linsolve, runner, scenarios, verlet, vi


class Tracer:
    """Keeps one span per wrapped call in memory: name, parent, start, end.

    Counters recorded at the same boundaries accumulate in ``counts``.
    """

    def __init__(self):
        self.names: list[str] = []
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name: str, fn, after=None):
        """Return fn wrapped in a span; after(counts, args, result) runs on return."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        open_spans, counts = self._open, self.counts

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1] if open_spans else -1)
            end.append(0.0)
            open_spans.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                open_spans.pop()
            if after is not None:
                after(counts, args, out)
            return out
        return traced

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so self times over all names sum to the root spans.
        """
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        nid = np.asarray(self.name_id, dtype=np.int64)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        own = np.bincount(nid, weights=dur - child, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def spans(self) -> dict:
        """Columnar dump of every span, times in microseconds from the first."""
        t0 = self.start[0] if self.start else 0.0
        return {"names": list(self.names), "name_id": list(self.name_id),
                "parent": list(self.parent),
                "start_us": [round((s - t0) * 1e6, 3) for s in self.start],
                "dur_us": [round((e - s) * 1e6, 3)
                           for s, e in zip(self.start, self.end)]}


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples, restoring the originals on exit."""
    saved = [(owner, attr, inspect.getattr_static(owner, attr))
             for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class StepClock:
    """Reads the clock on entry to every integrator step.

    This is the only hook of an untraced repetition. With ``stop_first``
    set it aborts the run at the first step entry, which is how the
    set-up probes end.
    """

    class FirstStep(Exception):
        """Raised at the first step entry of a set-up probe."""

    def __init__(self, stop_first: bool = False):
        self.stamps: list[float] = []
        self.stop_first = stop_first

    def wrap(self, step):
        stamps = self.stamps
        clock = self

        def timed_step(integrator, state):
            stamps.append(perf_counter())
            if clock.stop_first:
                raise StepClock.FirstStep
            return step(integrator, state)
        return timed_step


def _count_build(counts, args, pairs):
    counts["builds"] += 1
    counts["candidates_built"] += pairs.shape[0]


def _count_detect(counts, args, contacts):
    counts["detections"] += 1
    counts["active"] += len(contacts)
    counts["active_pairs"] += contacts.n_pp
    counts["candidates_seen"] += args[1].pairs.shape[0]


def _count_cg(counts, args, out):
    counts["cg_solves"] += 1
    counts["cg_iters"] += out[1]


def _count_matvec(counts, args, out):
    op = args[0]
    counts["matvecs"] += 1
    counts["diag_blocks"] += op.n_bodies
    counts["pair_blocks"] += op.pair_i.size


def _count_vi_step(counts, args, out):
    report = out[1]
    counts["vi_steps"] += 1
    counts["report_newton"] += report.newton_iters
    counts["report_cg"] += report.cg_iters


def _count_verlet_step(counts, args, out):
    counts["verlet_steps"] += 1


def _count_write(counts, args, out):
    counts["io_bytes"] += os.path.getsize(args[1])


def probes(tracer: Tracer, clock: StepClock):
    """Replacement triples that put every cross-module call under a span."""
    def wrap(owner, attr, name, after=None):
        fn = getattr(owner, attr)
        traced = tracer.wrap(name, fn, after)
        if isinstance(inspect.getattr_static(owner, attr), staticmethod):
            traced = staticmethod(traced)
        return owner, attr, traced

    vi_step = tracer.wrap("vi.step", vi.VIIntegrator.step, _count_vi_step)
    verlet_step = tracer.wrap("verlet.step", verlet.VerletIntegrator.step,
                              _count_verlet_step)
    return [
        wrap(io, "parse_config", "io.parse"),
        wrap(scenarios, "build_scenario", "scenarios.build"),
        wrap(runner, "run_simulation", "runner.run"),
        wrap(io, "write_trajectory", "io.write", _count_write),
        wrap(io, "write_diagnostics", "io.write", _count_write),
        wrap(contact.NeighborList, "_candidate_pairs", "contact.build", _count_build),
        wrap(contact, "_detect_unchecked", "contact.detect", _count_detect),
        wrap(verlet, "_detect_unchecked", "contact.detect", _count_detect),
        wrap(forces, "potential_gradient", "forces.gradient"),
        wrap(forces, "nonconservative_force", "forces.damping"),
        wrap(forces, "dQ_dv", "forces.jacobian"),
        wrap(vi, "cg_solve", "linsolve.cg", _count_cg),
        wrap(linsolve.BlockSparseMatrix, "matvec", "linsolve.matvec", _count_matvec),
        wrap(vi.VIIntegrator, "_neg_stiffness", "vi.assemble"),
        wrap(runner, "unpack_state", "model.unpack"),
        wrap(runner, "ensemble_stats", "diagnostics.stats"),
        (vi.VIIntegrator, "step", clock.wrap(vi_step)),
        (verlet.VerletIntegrator, "step", clock.wrap(verlet_step)),
    ]


def step_clock_only(clock: StepClock):
    """Replacement triples for an untraced repetition: the step clock alone."""
    return [(vi.VIIntegrator, "step", clock.wrap(vi.VIIntegrator.step)),
            (verlet.VerletIntegrator, "step", clock.wrap(verlet.VerletIntegrator.step))]
