"""Run alternated pairs of benchmark runs of two checkouts and summarise them.

Each run is ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in a separate process, started in the root of its checkout
with that checkout's ``src`` as PYTHONPATH. Pair k (from 1) runs the
parent first when k is odd and the change first when k is even, so a
machine that drifts in speed favours neither side. ``--parent`` and
``--change`` are the roots of two source checkouts, the parent one made
with ``git clone`` or ``git archive``; the change defaults to this one:

    python3 tools/bench_pairs.py --parent /path/to/parent \\
        --workload box4000_verlet --seed 3 --seconds 12 --pairs 10 \\
        --label verlet_coupled_rows --claim step_ms_p50

It writes BENCH_<label>.json into the change's root. The file holds
every raw run, and for each end-to-end metric of the change's
BENCHMARK.json the parent's median and quartiles, the change's median
and quartiles, the pairs the change wins (a tie wins for neither side),
the metric's bound and a verdict:

- ``gain``: the change wins at least nine pairs in ten, and its median
  is better than the parent's by more than the parent's quartile
  distance;
- ``regression``: the change's median is worse than the parent's by
  more than the bound, as a fraction of the parent's median;
- ``unresolved``: neither, while the parent's quartile distance is
  wider than the bound, and some run of the change is no better than
  some run of the parent;
- ``within bound``: otherwise.

It also records both checkouts' environment, as perfbench/environment.py
writes it into each run's record. Quartiles are the inclusive ones of
``statistics.quantiles``. Needs only the standard library; each run
takes a little more than its ``--seconds``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
WIN_SHARE = 0.9   # pairs the change must win for a gain


def order(pair: int) -> tuple[str, str]:
    """The sides of pair k (from 1) in the order they run."""
    return SIDES if pair % 2 else SIDES[::-1]


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run in the checkout at root: its final JSON
    line, with the environment from the record it wrote."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"benchmark run in {root} exited {done.returncode}:\n"
                           f"{done.stderr}")
    out = json.loads(lines[-1])
    record = root / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    out["environment"] = json.loads(record.read_text())["environment"]
    return out


def spread(values: list[float]) -> dict:
    """Median and inclusive quartiles."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """One metric over paired runs (parent[k] beside change[k])."""
    sign = 1.0 if better == "higher" else -1.0
    gains = [sign * (c - p) for p, c in zip(parent, change)]
    wins = sum(g > 0.0 for g in gains)
    p, c = spread(parent), spread(change)
    iqr = p["q3"] - p["q1"]
    gain = sign * (c["median"] - p["median"])
    # every run of the change better than every run of the parent
    apart = min(sign * x for x in change) > max(sign * x for x in parent)
    if wins >= WIN_SHARE * len(gains) and gain > iqr:
        word = "gain"
    elif -gain > bound * abs(p["median"]):
        word = "regression"
    elif iqr > bound * abs(p["median"]) and not apart:
        word = "unresolved"
    else:
        word = "within bound"
    return {"better": better, "bound": bound, "parent": p, "change": c,
            "change_vs_parent": c["median"] / p["median"] - 1.0 if p["median"] else None,
            "pairs_won": wins, "pairs_lost": sum(g < 0.0 for g in gains),
            "verdict": word}


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric (BENCHMARK.json's name, better and bound),
    the verdict over the runs' pairs; with each side's failed steps."""
    by_side = {side: sorted((r for r in runs if r["side"] == side),
                            key=lambda r: r["pair"]) for side in SIDES}
    if [r["pair"] for r in by_side["parent"]] != [r["pair"] for r in by_side["change"]]:
        raise ValueError("every pair needs one run of each side")
    metrics = {}
    for m in end_to_end:
        values = [[r["metrics"][m["name"]]["value"] for r in by_side[side]]
                  for side in SIDES]
        metrics[m["name"]] = {"unit": m["unit"],
                              **verdict(*values, m["better"], m["bound"])}
    failed = {side: {"failed": sum(r["failed"] for r in by_side[side]),
                     "attempted": sum(r["attempted"] for r in by_side[side])}
              for side in SIDES}
    return {"pairs": len(by_side["parent"]), "metrics": metrics, "failed": failed}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="root of the parent checkout")
    parser.add_argument("--change", type=Path, default=ROOT,
                        help="root of the changed checkout (default: this one)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--label", required=True)
    parser.add_argument("--claim", help="the end-to-end metric claimed to improve")
    args = parser.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs, environment = [], {}
    for pair in range(1, args.pairs + 1):
        for side in order(pair):
            out = run_once(roots[side], args.workload, args.seed, args.seconds)
            environment[side] = out.pop("environment")
            runs.append({"pair": pair, "side": side, **out})
            p50 = out["metrics"]["step_ms_p50"]["value"]
            print(f"pair {pair} {side}: step_ms_p50 {p50:.4g} ms", flush=True)
    end_to_end = json.loads((roots["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    summary = summarise(runs, end_to_end)
    doc = {"label": args.label, "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "claim": args.claim,
           "claim_holds": (None if args.claim is None
                           else summary["metrics"][args.claim]["verdict"] == "gain"),
           **summary, "environment": environment, "runs": runs}
    path = roots["change"] / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    for name, m in summary["metrics"].items():
        print(f"{name:<14} parent {m['parent']['median']:.4g} "
              f"[{m['parent']['q1']:.4g}, {m['parent']['q3']:.4g}] -> "
              f"{m['change']['median']:.4g} {m['unit']}, "
              f"won {m['pairs_won']}/{summary['pairs']}: {m['verdict']}")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
