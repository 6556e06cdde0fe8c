"""Repetitions of one workload and the metrics drawn from them.

A repetition is the path ``vigrain run --config`` executes: parse the
config, build the scenario, run the simulation with runner defaults,
write trajectory.csv and diagnostics.csv. Untraced repetitions carry
one hook, a clock read on entry to every step. Traced repetitions put a
span around every cross-module call (see tracing.py) and are only used
for the per-layer figures.
"""
from __future__ import annotations

import json
import resource
import shutil
import statistics
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from vigrain import io as vio
from vigrain import runner as vrunner
from vigrain import scenarios as vscen
from vigrain.errors import VigrainError

from .tracing import StepClock, Tracer, patched, probes, step_clock_only
from .workloads import (Workload, check_energy, check_round_trip, check_states,
                        planned_steps, tail_percentile)

# Set-up probes per round: at most this many, and no more than fit in
# about PROBE_BUDGET_S, so that an O(N^2) set-up does not crowd the
# repetitions out of the run.
SETUP_PROBES = 5
PROBE_BUDGET_S = 1.0

# name -> (unit, better); BENCHMARK.json lists the same names and units.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "steps_per_s": ("1/s", "higher"),
    "step_ms_p50": ("ms", "lower"),
    "step_ms_tail": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Self-time metric of every span name; with trace.unattributed_s they
# partition the traced wall time.
SELF_METRIC = {
    "bench.rep": "trace.unattributed_s",
    "io.parse": "io.parse_s",
    "scenarios.build": "scenarios.build_s",
    "runner.run": "runner.self_s",
    "io.write": "io.write_s",
    "contact.build": "contact.build_s",
    "contact.detect": "contact.detect_s",
    "forces.gradient": "forces.gradient_s",
    "forces.damping": "forces.damping_s",
    "forces.jacobian": "forces.jacobian_s",
    "linsolve.cg": "linsolve.cg_s",
    "linsolve.matvec": "linsolve.matvec_s",
    "vi.assemble": "vi.assemble_s",
    "vi.step": "vi.self_s",
    "verlet.step": "verlet.self_s",
    "model.unpack": "model.unpack_s",
    "diagnostics.stats": "diagnostics.stats_s",
}

_COUNT = ("count", "lower")
_SECONDS = ("s", "lower")
PER_LAYER = {
    **{metric: _SECONDS for metric in SELF_METRIC.values()},
    "contact.rebuilds": _COUNT,
    "contact.candidate_pairs": _COUNT,
    "contact.detections": _COUNT,
    "contact.active": _COUNT,
    "contact.hit_ratio": ("ratio", "higher"),
    "forces.gradient_calls": _COUNT,
    "forces.damping_calls": _COUNT,
    "forces.jacobian_calls": _COUNT,
    "linsolve.cg_solves": _COUNT,
    "linsolve.cg_iters": _COUNT,
    "linsolve.cg_iters_per_solve": _COUNT,
    "linsolve.matvecs": _COUNT,
    "linsolve.matvec_us": ("us", "lower"),
    "linsolve.pair_blocks": _COUNT,
    "linsolve.matvec_flops": ("flop", "lower"),
    "linsolve.matvec_bytes": ("B", "lower"),
    "linsolve.matvec_gflops": ("GFLOP/s", "higher"),
    "vi.step_s": _SECONDS,
    "vi.newton_corrections": _COUNT,
    "vi.newton_per_step": _COUNT,
    "verlet.step_s": _SECONDS,
    "runner.steps": ("count", "higher"),
    "io.bytes": ("B", "lower"),
    "trace.wall_s": _SECONDS,
    "trace.overhead": ("ratio", "lower"),
}


def matvec_cost(n_bodies: float, pair_blocks: float) -> tuple[float, float]:
    """Computed flops and compulsory bytes of one BlockSparseMatrix.matvec.

    Flops: 36 multiply-adds per diagonal block, 2 x 36 per pair block
    (one product into each partner) and 12 scatter adds per pair block.
    Bytes: diagonal and pair blocks, the two pair indices and the 12
    cached scatter indices per pair block, x read and y written once,
    all 8-byte words. Temporaries and cache misses are ignored.
    """
    flops = 72.0 * n_bodies + 156.0 * pair_blocks
    nbytes = 8.0 * (36 + 6 + 6) * n_bodies + 8.0 * (36 + 2 + 12) * pair_blocks
    return flops, nbytes


@dataclass(eq=False)
class Rep:
    """Outcome of one repetition."""

    traced: bool
    planned: int
    wall_s: float = 0.0
    setup_s: float = 0.0
    intervals_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    completed: int = 0
    error: str | None = None
    checks: dict[str, tuple[bool, str]] = field(default_factory=dict)
    final_qp: tuple[np.ndarray, np.ndarray] | None = None
    tracer: Tracer | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and all(ok for ok, _ in self.checks.values())


def _pipeline(text: str, work_dir: Path):
    # Names are looked up on the modules at call time so that the probes
    # of a traced repetition see these calls.
    config = vio.parse_config(text)
    system = vscen.build_scenario(config.spec)
    result = vrunner.run_simulation(system, config.spec)
    run_end = perf_counter()
    vio.write_trajectory(result.frames, work_dir / "trajectory.csv")
    vio.write_diagnostics(result.diagnostics, work_dir / "diagnostics.csv")
    return result, run_end


def setup_probe(text: str, scratch: Path) -> float:
    """Seconds from the config parse until the first step is entered."""
    clock = StepClock(stop_first=True)
    with patched(step_clock_only(clock)):
        t0 = perf_counter()
        try:
            _pipeline(text, scratch)
        except StepClock.FirstStep:
            pass
    return clock.stamps[0] - t0


def run_rep(workload: Workload, text: str, planned: int, scratch: Path,
            traced: bool) -> Rep:
    clock = StepClock()
    tracer = Tracer() if traced else None
    rep = Rep(traced=traced, planned=planned, tracer=tracer)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        replacements = probes(tracer, clock) if traced else step_clock_only(clock)
        with patched(replacements):
            body = tracer.wrap("bench.rep", _pipeline) if traced else _pipeline
            t0 = perf_counter()
            try:
                result, run_end = body(text, work)
            except VigrainError as exc:
                result, run_end = None, perf_counter()
                rep.error = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter()
        stamps = clock.stamps
        rep.wall_s = t1 - t0
        rep.setup_s = stamps[0] - t0 if stamps else float("nan")
        rep.intervals_s = np.diff(np.array(stamps + [run_end]))
        if result is None:
            rep.completed = max(len(stamps) - 1, 0)
            return rep
        rep.completed = result.steps
        rep.final_qp = (result.final_state.q, result.final_state.p)
        rep.checks["steps"] = (rep.completed == planned,
                               f"{rep.completed} of {planned} steps")
        rep.checks["energy"] = check_energy(workload.name, result.diagnostics)
        rep.checks["states"] = check_states(result)
        rep.checks["round_trip"] = check_round_trip(
            result.frames[-1], vio.read_trajectory(work / "trajectory.csv")[-1])
        return rep
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _ratio(a: float, b: float) -> float:
    return float(a) / float(b) if b else 0.0


def end_to_end(setups: list[float], reps: list[Rep], tail_p: float) -> dict:
    """Every timing is taken per repetition and the median over the
    repetitions is reported, so a host slowdown that lasts less than half
    of the run does not move it."""
    def median_over_reps(of_rep):
        return statistics.median(of_rep(r) for r in reps)

    return {
        "setup_s": statistics.median(setups),
        "wall_s": median_over_reps(lambda r: r.wall_s),
        "steps_per_s": median_over_reps(
            lambda r: _ratio(r.intervals_s.size, r.intervals_s.sum())),
        "step_ms_p50": median_over_reps(lambda r: float(np.median(r.intervals_s))) * 1e3,
        "step_ms_tail": median_over_reps(
            lambda r: float(np.percentile(r.intervals_s, tail_p))) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rep: Rep, overhead: float) -> dict:
    """Per-layer figures of one traced repetition."""
    layers = rep.tracer.layers()
    c = rep.tracer.counts

    def get(span, key):
        return layers.get(span, {}).get(key, 0)

    out = {metric: float(get(span, "self_s")) for span, metric in SELF_METRIC.items()}
    matvecs = c["matvecs"]
    n_bar = _ratio(c["diag_blocks"], matvecs)
    m_bar = _ratio(c["pair_blocks"], matvecs)
    flops, nbytes = matvec_cost(n_bar, m_bar)
    out.update({
        "contact.rebuilds": c["builds"],
        "contact.candidate_pairs": _ratio(c["candidates_built"], c["builds"]),
        "contact.detections": c["detections"],
        "contact.active": _ratio(c["active"], c["detections"]),
        "contact.hit_ratio": _ratio(c["active_pairs"], c["candidates_seen"]),
        "forces.gradient_calls": get("forces.gradient", "calls"),
        "forces.damping_calls": get("forces.damping", "calls"),
        "forces.jacobian_calls": get("forces.jacobian", "calls"),
        "linsolve.cg_solves": c["cg_solves"],
        "linsolve.cg_iters": c["cg_iters"],
        "linsolve.cg_iters_per_solve": _ratio(c["cg_iters"], c["cg_solves"]),
        "linsolve.matvecs": matvecs,
        "linsolve.matvec_us": _ratio(out["linsolve.matvec_s"] * 1e6, matvecs),
        "linsolve.pair_blocks": m_bar,
        "linsolve.matvec_flops": flops,
        "linsolve.matvec_bytes": nbytes,
        "linsolve.matvec_gflops": _ratio(flops * matvecs, out["linsolve.matvec_s"]) * 1e-9,
        "vi.step_s": float(get("vi.step", "total_s")),
        "vi.newton_corrections": c["report_newton"],
        "vi.newton_per_step": _ratio(c["report_newton"], c["vi_steps"]),
        "verlet.step_s": float(get("verlet.step", "total_s")),
        "runner.steps": rep.completed,
        "io.bytes": c["io_bytes"],
        "trace.wall_s": float(get("bench.rep", "total_s")),
        "trace.overhead": overhead,
    })
    return out


def tie_out(rep: Rep) -> dict[str, tuple[bool, str]]:
    """Solver counters summed over all steps must agree exactly, and the
    self times must account for the traced wall time."""
    c = rep.tracer.counts
    layers = rep.tracer.layers()
    cg_ok = c["report_cg"] == c["cg_iters"] == c["matvecs"]
    newton_ok = c["report_newton"] == c["cg_solves"]
    unmapped = sorted(set(layers) - set(SELF_METRIC))
    wall = layers["bench.rep"]["total_s"]
    summed = sum(v["self_s"] for v in layers.values())
    return {
        "tie_out_cg": (cg_ok, f"StepReport cg_iters {c['report_cg']}, cg_solve "
                              f"iterations {c['cg_iters']}, matvecs {c['matvecs']}"),
        "tie_out_newton": (newton_ok, f"StepReport newton_iters {c['report_newton']}, "
                                      f"cg_solve calls {c['cg_solves']}"),
        "accounting": (not unmapped and abs(summed - wall) <= 1e-9 * wall,
                       f"self times {summed:.6f} s of traced wall {wall:.6f} s"
                       + (f"; unmapped spans {unmapped}" if unmapped else "")),
    }


def repeatable(reps: list[Rep]) -> tuple[bool, str]:
    """Every completed repetition, traced or not, ends in the same state."""
    finals = [r.final_qp for r in reps if r.final_qp is not None]
    same = all(np.array_equal(q, finals[0][0]) and np.array_equal(p, finals[0][1])
               for q, p in finals[1:])
    return same, f"{len(finals)} repetitions end bit-identical" if same \
        else "repetitions end in different states"


@dataclass
class Outcome:
    """What one benchmark invocation measured and checked."""

    metrics: dict
    checks: dict[str, tuple[bool, str]]
    attempted: int
    failed: int
    record: dict
    spans: dict | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for ok, _ in self.checks.values())


def _rep_checks(reps: list[Rep]) -> dict[str, tuple[bool, str]]:
    checks, seen = {}, Counter()
    for rep in reps:
        kind = "traced" if rep.traced else "rep"
        tag = f"{kind}{seen[kind]}"
        seen[kind] += 1
        if rep.error is not None:
            checks[f"{tag}.error"] = (False, rep.error)
        for key, value in rep.checks.items():
            checks[f"{tag}.{key}"] = value
    checks["repeatable"] = repeatable(reps)
    return checks


def measure(workload: Workload, seed: int, seconds: float, traced: bool,
            scratch: Path) -> Outcome:
    text = json.dumps(workload.config(seed), sort_keys=True)
    planned = planned_steps(vio.parse_config(text).spec)
    tail_p = tail_percentile(planned)
    warm_s = setup_probe(text, scratch)  # warm-up: imports, allocator, caches
    start = perf_counter()
    record = {"config": text, "planned_steps_per_rep": planned}
    if not traced:
        setups, reps = [], []
        n_probes = min(SETUP_PROBES, max(1, int(PROBE_BUDGET_S / warm_s)))
        while True:
            # Probes are spread over the run so that their median sees the
            # same machine as the repetitions.
            round_start = perf_counter()
            setups += [setup_probe(text, scratch) for _ in range(n_probes)]
            reps.append(run_rep(workload, text, planned, scratch, traced=False))
            now = perf_counter()
            if not reps[-1].ok or now - start + (now - round_start) > seconds:
                break
        metrics = end_to_end(setups + [r.setup_s for r in reps], reps, tail_p)
        record.update(tail_percentile=tail_p, setup_samples_s=setups,
                      wall_samples_s=[r.wall_s for r in reps])
        spans = None
    else:
        plain, reps = [], []
        while True:
            plain.append(run_rep(workload, text, planned, scratch, traced=False))
            reps.append(run_rep(workload, text, planned, scratch, traced=True))
            pair_s = plain[-1].wall_s + reps[-1].wall_s
            if (not (plain[-1].ok and reps[-1].ok)
                    or perf_counter() - start + pair_s > seconds):
                break
        untraced_wall = statistics.median(r.wall_s for r in plain)
        traced_wall = statistics.median(r.wall_s for r in reps)
        overhead = traced_wall / untraced_wall - 1.0
        chosen = sorted(reps, key=lambda r: r.wall_s)[(len(reps) - 1) // 2]
        metrics = per_layer(chosen, overhead)
        record.update(untraced_wall_samples_s=[r.wall_s for r in plain],
                      traced_wall_samples_s=[r.wall_s for r in reps],
                      untraced_end_to_end=end_to_end([r.setup_s for r in plain],
                                                     plain, tail_p),
                      layers=chosen.tracer.layers(),
                      counts=dict(chosen.tracer.counts))
        spans = chosen.tracer.spans()
        reps = plain + reps
    checks = _rep_checks(reps)
    if traced:
        checks.update(tie_out(chosen))
    attempted = sum(r.planned for r in reps)
    failed = sum(r.planned - r.completed for r in reps)
    record["failed_frac"] = failed / attempted
    return Outcome(metrics, checks, attempted, failed, record, spans)
