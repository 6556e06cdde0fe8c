"""Benchmark entry point; run from the root of a source checkout.

    python3 perfbench/run.py --workload box218 --seed 1 --seconds 15 --trace 0

Prints every metric with its unit, one per line, then as the last line
one JSON object with the keys correct, attempted, failed and metrics.
``--trace 0`` reports the end-to-end metrics from untraced repetitions;
``--trace 1`` reports the per-layer metrics of a traced repetition.
A full record (environment, samples, checks, per-layer table) is
written to perfbench/out/<workload>-seed<seed>-trace<t>.json, and the
spans of a traced run beside it. Exits 0 when every check passed, 1
when a check failed and 2 when the engine sources are missing.
"""
from __future__ import annotations

import os

# One thread, fixed before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"


def _import_engine() -> bool:
    """Put the checkout's src/ first on the path and import vigrain from it."""
    src = ROOT / "src"
    if not (src / "vigrain" / "__init__.py").is_file():
        print(f"error: no engine sources at {src / 'vigrain'}", file=sys.stderr)
        return False
    sys.path[:0] = [str(src), str(ROOT)]
    import vigrain
    if Path(vigrain.__file__).resolve().parent != (src / "vigrain").resolve():
        print(f"error: vigrain imported from {vigrain.__file__}, not {src}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not _import_engine():
        return 2

    from perfbench.environment import environment
    from perfbench.harness import END_TO_END, PER_LAYER, measure
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    scratch = OUT / "work"
    scratch.mkdir(parents=True, exist_ok=True)
    outcome = measure(workload, args.seed, args.seconds, traced, scratch)

    units = PER_LAYER if traced else END_TO_END
    metrics = {name: {"value": outcome.metrics[name], "unit": unit}
               for name, (unit, _) in units.items()}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "traced": traced, "seconds": args.seconds,
        "environment": environment(ROOT),
        "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "metrics": metrics,
        "checks": {k: {"ok": ok, "detail": d} for k, (ok, d) in outcome.checks.items()},
        **outcome.record,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if outcome.spans is not None:
        (OUT / f"{stem}.spans.json").write_text(json.dumps(outcome.spans) + "\n")

    for key, (ok, detail) in outcome.checks.items():
        print(f"check {key:<28} {'ok  ' if ok else 'FAIL'} {detail}")
    print(f"failed_frac {outcome.record['failed_frac']:.6g} "
          f"({outcome.failed} of {outcome.attempted} planned steps)")
    if not traced:
        print(f"step_ms_tail is p{outcome.record['tail_percentile']:g}")
    for name, m in metrics.items():
        print(f"{name:<30} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
