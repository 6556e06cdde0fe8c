"""The alternated-pairs summariser of tools/bench_pairs.py, on canned runs;
no benchmark process is started."""
import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
              {"name": "steps_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
              {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]


def canned(parent: dict, change: dict) -> list[dict]:
    """Run records as bench_pairs.run_once returns them, in run order,
    from per-metric lists of values, one per pair and side."""
    pairs = len(next(iter(parent.values())))
    runs = []
    for k in range(pairs):
        for side in bench_pairs.order(k + 1):
            values = parent if side == "parent" else change
            runs.append({"pair": k + 1, "side": side, "correct": True,
                         "attempted": 100, "failed": 0,
                         "metrics": {name: {"value": v[k], "unit": "?"}
                                     for name, v in values.items()}})
    return runs


def test_odd_pairs_run_the_parent_first():
    assert [bench_pairs.order(k)[0] for k in (1, 2, 3, 4)] == [
        "parent", "change", "parent", "change"]


def test_gain_regression_and_bound():
    parent = {"step_ms_p50": [1.0, 1.1, 1.05, 0.95, 1.0, 1.2, 1.0, 0.9, 1.1, 1.0],
              "steps_per_s": [900.0] * 10,
              "peak_rss_mb": [54.0, 55.0] * 5}
    change = {"step_ms_p50": [0.7, 0.75, 0.7, 0.72, 1.05, 0.7, 0.68, 0.7, 0.71, 0.69],
              "steps_per_s": [800.0] * 10,     # 11 % worse, within 25 %
              "peak_rss_mb": [58.0] * 10}      # 6 % worse, beyond 5 %
    summary = bench_pairs.summarise(canned(parent, change), END_TO_END)
    p50 = summary["metrics"]["step_ms_p50"]
    assert summary["pairs"] == 10
    assert (p50["pairs_won"], p50["pairs_lost"]) == (9, 1)
    assert p50["parent"] == pytest.approx({"median": 1.0, "q1": 1.0, "q3": 1.0875})
    assert p50["change"]["median"] == pytest.approx(0.7)
    assert p50["change_vs_parent"] == pytest.approx(-0.3)
    assert p50["verdict"] == "gain" and p50["bound"] == 0.25
    rate = summary["metrics"]["steps_per_s"]
    assert (rate["pairs_won"], rate["verdict"]) == (0, "within bound")
    assert summary["metrics"]["peak_rss_mb"]["verdict"] == "regression"
    assert summary["failed"]["change"] == {"failed": 0, "attempted": 1000}


def test_eight_wins_in_ten_are_no_gain():
    parent = {"step_ms_p50": [1.0] * 10}
    change = {"step_ms_p50": [0.5] * 8 + [1.0, 1.5]}
    m = bench_pairs.summarise(canned(parent, change), END_TO_END[:1])["metrics"]
    assert (m["step_ms_p50"]["pairs_won"], m["step_ms_p50"]["verdict"]) == (
        8, "within bound")


def test_gain_must_exceed_the_parents_quartile_distance():
    parent = {"step_ms_p50": [0.8, 1.2] * 5}            # quartiles 0.8 and 1.2
    change = {"step_ms_p50": [0.75, 0.85] * 5}          # median 0.8 wins 10/10
    m = bench_pairs.summarise(canned(parent, change), END_TO_END[:1])["metrics"]
    assert m["step_ms_p50"]["pairs_won"] == 10
    assert m["step_ms_p50"]["verdict"] == "unresolved"   # spread > bound


def test_spread_is_resolved_when_every_change_run_is_better():
    parent = {"peak_rss_mb": [50.0, 60.0] * 5}
    change = {"peak_rss_mb": [49.0] * 10}
    m = bench_pairs.summarise(canned(parent, change), END_TO_END[2:])["metrics"]
    assert m["peak_rss_mb"]["verdict"] == "within bound"


def test_unpaired_runs_are_refused():
    runs = canned({"step_ms_p50": [1.0, 1.0]}, {"step_ms_p50": [1.0, 1.0]})
    with pytest.raises(ValueError, match="one run of each side"):
        bench_pairs.summarise(runs[:-1], END_TO_END[:1])
