import json

import pytest

from vigrain import vi
from vigrain.cli import cli_main


def test_scenario_subcommand_writes_outputs(tmp_path):
    out = tmp_path / "out"
    code = cli_main(["scenario", "impact", "--dy", "0", "--gamma", "30",
                     "--h-frac", "160", "--steps", "200",
                     "--out", str(out)])
    assert code == 0
    assert (out / "trajectory.csv").exists()
    assert (out / "diagnostics.csv").exists()


def test_run_missing_config_exits_1(tmp_path, capsys):
    code = cli_main(["run", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "not found" in capsys.readouterr().err


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as info:
        cli_main(["scenario", "--bogus-flag"])
    assert info.value.code == 2


def test_invalid_config_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"scenario": "impact", "fricton": 1}')
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "fricton" in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    ({"scenario": "box", "box_size": 6.5}, "integer number of diameters"),
    ({"scenario": "box", "box_size": 2, "n_particles": 1000}, "cannot place 1000"),
    ({"scenario": "impact", "h_fraction": float("inf")}, "'h_fraction' must be finite"),
    ({"scenario": "box", "duration": float("inf")}, "'duration' must be finite"),
])
def test_scenario_builder_rejection_exits_1(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_run_config_roundtrip(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "impact", "duration": 0.02}))
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,id,x,y,z,vx,vy,vz,wx,wy,wz"


def test_compare_reports_difference(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "impact", "duration": 0.05,
                                "h_fraction": 40.0}))
    code = cli_main(["compare", "--config", str(path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "dKT" in out and "final max" in out


def test_convergence_prints_slopes(capsys):
    code = cli_main(["convergence", "--gamma", "1.0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "fitted slope" in out
    import re
    slopes = [float(m) for m in re.findall(r"fitted slope ([-\d.]+)", out)]
    assert len(slopes) == 2
    assert abs(slopes[0] - 1.0) <= 0.25 and abs(slopes[1] - 2.0) <= 0.25


def test_run_step_failure_names_step_and_time(tmp_path, capsys, monkeypatch):
    # with d + 1e-6 between its walls, the particle touches one at the
    # midpoint of its first step, which then needs a correction; at
    # 100 d/s it first touches one in step 3, when t is a numpy float,
    # printed as a plain number
    monkeypatch.setattr(vi, "NEWTON_MAX", 0)
    path = tmp_path / "walls.json"
    for doc, where in (({"scenario": "walls", "gap": 1.000001}, "(step 1, t = 0.0)"),
                       ({"scenario": "walls", "v": 100},
                        "(step 3, t = 6.288217895336978e-05)")):
        path.write_text(json.dumps(doc))
        code = cli_main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: Newton did not converge")
        assert err.endswith(where)


@pytest.mark.parametrize("command", ["run", "scenario"])
def test_summary_line_prints_the_solver_totals(tmp_path, capsys, monkeypatch,
                                               command):
    reports = []
    step = vi.VIIntegrator.step

    def spy(integ, state):
        out = step(integ, state)
        reports.append(out[1])
        return out

    monkeypatch.setattr(vi.VIIntegrator, "step", spy)
    out = str(tmp_path / "o")
    # both runs sample diagnostics at some steps only: the totals cover all
    if command == "run":
        path = tmp_path / "impact.json"
        path.write_text('{"scenario": "impact", "v": 10, "h_fraction": 40, '
                        '"duration": 0.06, "diagnostics_every": 7}')
        argv = ["run", "--config", str(path), "--out", out]
    else:
        # the box's first correction comes when the bottom layer lands
        argv = ["scenario", "box", "--steps", "250", "--out", out]
    assert cli_main(argv) == 0
    newton = sum(r.newton_iters for r in reports)
    cg = sum(r.cg_iters for r in reports)
    assert newton > 0
    assert (f"{newton} Newton corrections, {cg} CG iterations"
            in capsys.readouterr().out)


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_scenario_rejects_steps_below_one(tmp_path, capsys, steps):
    out = tmp_path / "o"
    code = cli_main(["scenario", "walls", "--steps", steps, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--steps" in err
    assert not out.exists()


@pytest.mark.parametrize("gamma", ["-1", "nan", "inf", "1000"])
def test_convergence_rejects_bad_gamma(capsys, gamma):
    code = cli_main(["convergence", "--gamma", gamma])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --gamma")
    assert "Traceback" not in captured.err
    assert captured.out == ""   # rejected before the sweep starts
