"""Tests of the benchmark itself: counter tie-out, checks, contract.

Run from the repository root:

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench.harness import END_TO_END, PER_LAYER, measure, run_rep, tie_out
from perfbench.workloads import (WORKLOADS, Workload, check_energy, check_round_trip,
                                 check_states, planned_steps)
from vigrain import build_box, contact, linsolve, runner, verlet, vi
from vigrain.io import parse_config
from vigrain.runner import TrajectoryFrame

ROOT = Path(__file__).resolve().parents[1]

SMALL_BOX = Workload("box", {"scenario": "box", "n_particles": 30, "box_size": 3,
                             "duration": 0.12, "seed": 3}, False, "test")
SMALL_VERLET = Workload("box", {**SMALL_BOX.doc, "integrator": "verlet"}, False, "test")
SHORT_WALLS = Workload("walls", {"scenario": "walls", "duration": 0.02}, False, "test")


def _traced(workload, tmp_path):
    text = json.dumps(workload.config(0))
    planned = planned_steps(parse_config(text).spec)
    return run_rep(workload, text, planned, tmp_path, traced=True)


@pytest.mark.parametrize("workload", [SMALL_BOX, SHORT_WALLS, SMALL_VERLET],
                         ids=["box", "walls", "verlet"])
def test_counters_tie_out_over_all_steps(workload, tmp_path):
    rep = _traced(workload, tmp_path)
    assert rep.ok, (rep.error, rep.checks)
    c = rep.tracer.counts
    steps = c["vi_steps"] + c["verlet_steps"]
    assert steps == rep.completed == rep.planned
    # StepReport sums == cg_solve returns == matvecs; newton == cg_solve calls
    assert c["report_cg"] == c["cg_iters"] == c["matvecs"]
    assert c["report_newton"] == c["cg_solves"]
    if workload is SMALL_VERLET:
        assert c["matvecs"] == 0
    else:
        assert c["cg_solves"] > 0
    assert all(ok for ok, _ in tie_out(rep).values()), tie_out(rep)


def test_tie_out_flags_a_lost_iteration(tmp_path):
    rep = _traced(SHORT_WALLS, tmp_path)
    rep.tracer.counts["matvecs"] -= 1
    checks = tie_out(rep)
    assert not checks["tie_out_cg"][0]
    assert checks["tie_out_newton"][0]


def test_self_times_partition_traced_wall(tmp_path):
    rep = _traced(SMALL_BOX, tmp_path)
    layers = rep.tracer.layers()
    wall = layers["bench.rep"]["total_s"]
    assert sum(v["self_s"] for v in layers.values()) == pytest.approx(wall, rel=1e-9)
    assert all(v["self_s"] >= 0.0 for v in layers.values())
    assert layers["linsolve.matvec"]["calls"] == rep.tracer.counts["matvecs"]


def test_probes_are_removed_after_a_repetition(tmp_path):
    originals = (vi.cg_solve, contact._detect_unchecked, verlet._detect_unchecked,
                 runner.unpack_state, linsolve.BlockSparseMatrix.matvec,
                 vi.VIIntegrator.step, verlet.VerletIntegrator.step,
                 contact.NeighborList.__dict__["_candidate_pairs"])
    _traced(SHORT_WALLS, tmp_path)
    after = (vi.cg_solve, contact._detect_unchecked, verlet._detect_unchecked,
             runner.unpack_state, linsolve.BlockSparseMatrix.matvec,
             vi.VIIntegrator.step, verlet.VerletIntegrator.step,
             contact.NeighborList.__dict__["_candidate_pairs"])
    assert all(a is b for a, b in zip(originals, after))
    assert vi.cg_solve is linsolve.cg_solve


def test_traced_and_untraced_runs_agree(tmp_path):
    outcome = measure(SMALL_BOX, 0, 0.1, traced=True, scratch=tmp_path)
    assert outcome.correct, outcome.checks
    assert outcome.checks["repeatable"][0]
    assert set(outcome.metrics) == set(PER_LAYER)
    assert outcome.metrics["linsolve.cg_iters"] == outcome.metrics["linsolve.matvecs"] > 0


def test_failed_steps_are_counted_and_fail_the_run(tmp_path, monkeypatch):
    from vigrain.errors import StepFailureError
    solve = vi.VIIntegrator.solve_position
    calls = []

    def fail_every_fifth(self, q, p):
        calls.append(1)
        if len(calls) % 5 == 0:
            raise StepFailureError("injected", residual=1.0, iterations=0)
        return solve(self, q, p)

    monkeypatch.setattr(vi.VIIntegrator, "solve_position", fail_every_fifth)
    text = json.dumps(SHORT_WALLS.config(0))
    planned = planned_steps(parse_config(text).spec)
    rep = run_rep(SHORT_WALLS, text, planned, tmp_path, traced=False)
    assert rep.error.startswith("StepFailureError")
    assert rep.completed == 4 and not rep.ok
    outcome = measure(SHORT_WALLS, 0, 0.1, traced=False, scratch=tmp_path)
    assert not outcome.correct
    assert outcome.failed == outcome.attempted - 4


def _rows(energies, kinetic=1.0):
    return [SimpleNamespace(stats=SimpleNamespace(
        total_energy=e, kinetic_trans=kinetic, kinetic_rot=0.0,
        potential_contact=0.0, potential_gravity=e - kinetic)) for e in energies]


def test_energy_checks_reject_drift_and_rise():
    assert check_energy("walls", _rows([0.5, 0.5004, 0.4997]))[0]
    assert not check_energy("walls", _rows([0.5, 0.5011]))[0]
    assert check_energy("box218", _rows([100.0, 99.0, 99.5]))[0]
    assert check_energy("box218", _rows([100.0, 100.0 + 1e-13]))[0]
    assert not check_energy("box218", _rows([100.0, 99.0, 100.0 + 1e-9]))[0]
    assert not check_energy("box218", _rows([100.0, float("nan")]))[0]


def test_state_and_round_trip_checks_reject_bad_output():
    system, _ = build_box(n_particles=9, box_size=3)
    frame = TrajectoryFrame(0.0, system.pos.copy(), system.vel.copy(),
                            system.omega.copy())
    state = SimpleNamespace(q=np.zeros(54), p=np.zeros(54))
    result = SimpleNamespace(frames=[frame], final_system=system, final_state=state)
    assert check_states(result)[0]
    system.pos[4, 0] = -0.01  # a centre behind the x = 0 wall
    assert not check_states(result)[0]
    system.pos[4, 0] = np.nan
    assert not check_states(result)[0]
    other = TrajectoryFrame(0.0, frame.pos.copy(), frame.vel.copy(), frame.omega.copy())
    assert check_round_trip(frame, other)[0]
    other.vel[0, 2] = np.nextafter(other.vel[0, 2], 1.0)
    assert not check_round_trip(frame, other)[0]


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == PER_LAYER
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def _run_cli(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_cli_prints_metrics_then_json(tmp_path):
    shutil.copytree(ROOT / "src" / "vigrain", tmp_path / "src" / "vigrain",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = _run_cli(tmp_path, "--workload", "box218", "--seed", "5",
                    "--seconds", "1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == set(END_TO_END)
    for name, (unit, _) in END_TO_END.items():
        assert last["metrics"][name]["unit"] == unit
        assert last["metrics"][name]["value"] > 0
        assert f"{name} " in done.stdout
    record = json.loads((tmp_path / "perfbench" / "out" /
                         "box218-seed5-trace0.json").read_text())
    for key in ("cpu_model", "nproc", "caches", "python", "numpy", "blas_threads",
                "git_commit", "src_sha256"):
        assert key in record["environment"]


def test_cli_fails_without_engine_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = _run_cli(tmp_path, "--workload", "box218", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
