"""Command-line interface.

Subcommands:
  run          execute a JSON config, write trajectory.csv / diagnostics.csv
  scenario     run a named experiment with flag overrides
  compare      run both integrators on one config and report differences
  convergence  time-step sweep on the head-on impact, print fitted slopes
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .analytic import ImpactParams, collision_times, contact_phase_velocity
from .errors import ConfigError, VigrainError
from .forces import STIFFNESS_RATIO, ContactParams, contact_time
from .io import RunConfig, parse_config, write_diagnostics, write_trajectory
from .runner import run_simulation
from .scenarios import SCENARIO_BUILDERS, build_impact, build_scenario


def _write_outputs(result, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_trajectory(result.frames, out_dir / "trajectory.csv")
    write_diagnostics(result.diagnostics, out_dir / "diagnostics.csv")


def _solver_totals(result) -> str:
    return (f"{result.newton_iters} Newton corrections, "
            f"{result.cg_iters} CG iterations")


def _read_config(name: str) -> RunConfig:
    path = Path(name)
    if not path.exists():
        raise ConfigError(f"file not found: {path}")
    return parse_config(path.read_text())


def _cmd_run(args) -> int:
    config = _read_config(args.config)
    result = run_simulation(build_scenario(config.spec), config.spec)
    _write_outputs(result, Path(args.out))
    print(f"{config.spec.name}: {result.steps} steps, {_solver_totals(result)}, "
          f"{len(result.frames)} frames -> {args.out}")
    return 0


def _cmd_scenario(args) -> int:
    if args.steps is not None and args.steps < 1:
        raise ConfigError(f"--steps must be >= 1, got {args.steps}")
    overrides = {"scenario": args.name}
    for flag, key in (("dy", "dy"), ("gamma", "gamma"), ("h_frac", "h_fraction"),
                      ("alpha", "alpha"), ("integrator", "integrator"), ("v", "v")):
        if getattr(args, flag) is not None:
            overrides[key] = getattr(args, flag)
    config = parse_config(json.dumps(overrides))
    spec = config.spec
    if args.steps is not None:
        spec.duration = args.steps * spec.h
        spec.max_collisions = None
    result = run_simulation(build_scenario(spec), spec)
    _write_outputs(result, Path(args.out))
    print(f"{spec.name}: {result.steps} steps, h={spec.h:.6g}, "
          f"{_solver_totals(result)}, {len(result.frames)} frames -> {args.out}")
    return 0


def _cmd_compare(args) -> int:
    config = _read_config(args.config)
    results = {}
    for integ in ("vi", "verlet"):
        spec = dataclasses.replace(config.spec, integrator=integ)
        results[integ] = run_simulation(build_scenario(spec), spec)
    kt_vi = np.array([d.stats.kinetic_trans for d in results["vi"].diagnostics])
    kt_vv = np.array([d.stats.kinetic_trans for d in results["verlet"].diagnostics])
    n = min(kt_vi.size, kt_vv.size)
    peak = max(kt_vi.max(), 1e-300)
    max_dkt = float(np.max(np.abs(kt_vi[:n] - kt_vv[:n]))) / peak
    fs_vi = results["vi"].final_system
    fs_vv = results["verlet"].final_system
    dpos = float(np.max(np.abs(fs_vi.pos - fs_vv.pos)))
    dvel = float(np.max(np.abs(fs_vi.vel - fs_vv.vel)))
    print(f"max |dKT| / peak KT : {max_dkt:.3e}")
    print(f"final max |dx|      : {dpos:.3e}")
    print(f"final max |dv|      : {dvel:.3e}")
    if args.out:
        out = Path(args.out)
        for integ, result in results.items():
            _write_outputs(result, out / integ)
    return 0


def _cmd_convergence(args) -> int:
    gamma = args.gamma
    t_c = contact_time(STIFFNESS_RATIO)
    v = 1.0 / (2.0 * 4.0 * t_c)  # contact onset exactly at t_A = 4 t_c
    try:  # the run's contact law and the oracle's closed form
        ContactParams.from_damping_ratio(gamma)
        oracle = ImpactParams(gamma=gamma, v=v)
    except ValueError as exc:
        raise ConfigError(f"--gamma {gamma:g}: {exc}") from exc
    t_a, _, _ = collision_times(oracle)
    fractions = (40, 80, 160, 320)
    print(f"impact convergence sweep: gamma={gamma}, v={v:.4f}")
    slopes = {}
    for alpha in (0.0, 0.5):
        errs = []
        for frac in fractions:
            system, spec = build_impact(0.0, gamma, v)
            spec.alpha = alpha
            spec.h_fraction = float(frac)
            n_steps = round((t_a + t_c / 2.0) / spec.h)
            spec.duration = n_steps * spec.h
            # only the final state is read: sample no frame on the way
            spec.trajectory_every = spec.diagnostics_every = n_steps + 1
            state = run_simulation(system, spec).final_state
            v_sim = state.p[0] / system.m[0]
            v_ref = contact_phase_velocity(state.t - t_a, oracle)
            errs.append(abs(v_sim - v_ref))
        hs = t_c / np.array(fractions, dtype=float)
        slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
        slopes[alpha] = slope
        err_txt = ", ".join(f"{e:.3e}" for e in errs)
        print(f"alpha={alpha}: errors [{err_txt}]  fitted slope {slope:.3f}")
    print(f"expected: ~1 for alpha=0 (got {slopes[0.0]:.2f}), "
          f"~2 for alpha=1/2 (got {slopes[0.5]:.2f})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vigrain",
        description="Granular DEM engine with an implicit variational integrator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default="./out")
    p_run.set_defaults(func=_cmd_run)

    p_sc = sub.add_parser("scenario", help="run a named experiment")
    p_sc.add_argument("name", choices=list(SCENARIO_BUILDERS))
    p_sc.add_argument("--dy", type=float)
    p_sc.add_argument("--gamma", type=float)
    p_sc.add_argument("--h-frac", type=float, dest="h_frac")
    p_sc.add_argument("--alpha", type=float)
    p_sc.add_argument("--integrator", choices=["vi", "verlet"])
    p_sc.add_argument("--steps", type=int)
    p_sc.add_argument("--v", type=float)
    p_sc.add_argument("--out", default="./out")
    p_sc.set_defaults(func=_cmd_scenario)

    p_cmp = sub.add_parser("compare", help="run both integrators and diff")
    p_cmp.add_argument("--config", required=True)
    p_cmp.add_argument("--out", default=None)
    p_cmp.set_defaults(func=_cmd_compare)

    p_conv = sub.add_parser("convergence", help="time-step order sweep")
    p_conv.add_argument("--gamma", type=float, default=1.0)
    p_conv.set_defaults(func=_cmd_convergence)
    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (VigrainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
