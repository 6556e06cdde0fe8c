"""Run configuration documents and CSV persistence.

Configs are JSON with a closed schema: unknown keys are rejected by
name, ranges are checked, omitted fields take the defaults of the
scenario's builder. Floats are written with shortest round-trip
formatting so re-reading an output reproduces the sampled states
bit-exactly.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .runner import DiagnosticsRow, TrajectoryFrame
from .scenarios import SCENARIO_BUILDERS, ScenarioSpec, build_named

_SCHEMA = {
    # key: (type, validator, message)
    "scenario": (str, lambda v: v in SCENARIO_BUILDERS,
                 "one of " + "/".join(SCENARIO_BUILDERS)),
    "dy": (float, lambda v: v >= 0.0, ">= 0"),
    "gap": (float, lambda v: v > 1.0, "> d (= 1)"),
    "bond_stiffness": (float, lambda v: v > 0.0, "> 0"),
    "n_particles": (int, lambda v: v >= 1, ">= 1"),
    "box_size": (float, lambda v: v > 1.0, "> 1"),
    "v": (float, lambda v: v > 0.0, "> 0"),
    "gamma": (float, lambda v: v >= 0.0, ">= 0"),
    "integrator": (str, lambda v: v in ("vi", "verlet"), "'vi' or 'verlet'"),
    "alpha": (float, lambda v: v in (0.0, 0.5), "0 or 0.5"),
    "h_fraction": (float, lambda v: v > 0.0, "> 0"),
    "duration": (float, lambda v: v > 0.0, "> 0"),
    "max_collisions": (int, lambda v: v >= 1, ">= 1"),
    "trajectory_every": (int, lambda v: v >= 1, ">= 1"),
    "diagnostics_every": (int, lambda v: v >= 1, ">= 1"),
    "seed": (int, lambda v: v >= 0, ">= 0"),
}


@dataclass
class RunConfig:
    """Validated run request: a scenario spec plus output cadences."""

    spec: ScenarioSpec

    def to_document(self) -> dict:
        """Every schema key whose spec value is set."""
        values = {key: getattr(self.spec, "name" if key == "scenario" else key)
                  for key in _SCHEMA}
        return {key: v for key, v in values.items() if v is not None}


def _coerce(key: str, value):
    typ, check, msg = _SCHEMA[key]
    if typ is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {key!r} must be an integer")
    elif not isinstance(value, typ):
        raise ConfigError(f"config key {key!r} has wrong type "
                          f"({type(value).__name__}, expected {typ.__name__})")
    elif typ is float and not math.isfinite(value):
        raise ConfigError(f"config key {key!r} must be finite, got {value!r}")
    if not check(value):
        raise ConfigError(f"config key {key!r} out of range: expected {msg}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(doc) - set(_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
    if "scenario" not in doc:
        raise ConfigError("config is missing the required key 'scenario'")
    values = {k: _coerce(k, v) for k, v in doc.items()}
    try:
        _, spec = build_named(values.pop("scenario"), values)
    except ValueError as exc:  # a builder's own range check
        raise ConfigError(str(exc)) from exc
    for key, value in values.items():
        setattr(spec, key, value)
    return RunConfig(spec=spec)


def render_config(config: RunConfig) -> str:
    """Serialize a RunConfig; parse(render(c)) == c for valid configs."""
    return json.dumps(config.to_document(), indent=2, sort_keys=True)


def _fmt(x: float) -> str:
    return repr(float(x))


_ROWS_PER_WRITE = 256
TRAJECTORY_HEADER = "t,id,x,y,z,vx,vy,vz,wx,wy,wz"
DIAGNOSTICS_HEADER = ("t,KT,KR,V_contact,V_grav,E_total,px,py,pz,"
                      "Kbar,dv,newton_iters,cg_iters")


def write_trajectory(frames: list[TrajectoryFrame], path) -> None:
    """CSV with one row per particle per sampled frame, ordered by (t, id).

    Rows are formatted a chunk at a time, so no frame is held as text.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for frame in frames:
            t = _fmt(frame.t)
            for start in range(0, frame.pos.shape[0], _ROWS_PER_WRITE):
                chunk = slice(start, start + _ROWS_PER_WRITE)
                rows = np.hstack((frame.pos[chunk], frame.vel[chunk],
                                  frame.omega[chunk]), dtype=float).tolist()
                fh.writelines(f"{t},{pid},{','.join(map(repr, row))}\n"
                              for pid, row in enumerate(rows, start))


def read_trajectory(path) -> list[TrajectoryFrame]:
    """Inverse of write_trajectory (exact for round-trip formatted floats).

    Reads line by line and makes each frame one array as it ends, so no
    more than one frame is held as text or as Python floats. A row
    without 11 numbers, or whose id is not its index in the frame,
    raises ConfigError naming its line.
    """
    frames: list[TrajectoryFrame] = []
    current_t, values = None, []
    with Path(path).open() as fh:
        if fh.readline().strip() != TRAJECTORY_HEADER:
            raise ConfigError("unrecognized trajectory header")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 11:
                raise ConfigError(f"trajectory line {lineno}: expected 11 fields, "
                                  f"got {len(parts)}")
            try:
                t, pid, row = float(parts[0]), int(parts[1]), list(map(float, parts[2:]))
            except ValueError as exc:
                raise ConfigError(f"trajectory line {lineno}: {exc}") from None
            if t != current_t:
                if values:
                    frames.append(_frame(current_t, values))
                current_t, values = t, []
            if pid != len(values) // 9:
                raise ConfigError(f"trajectory line {lineno}: particle id {pid}, "
                                  f"expected {len(values) // 9}")
            values.extend(row)
    if values:
        frames.append(_frame(current_t, values))
    return frames


def _frame(t: float, values: list[float]) -> TrajectoryFrame:
    rows = np.array(values).reshape(-1, 9)
    return TrajectoryFrame(t, rows[:, 0:3].copy(), rows[:, 3:6].copy(),
                           rows[:, 6:9].copy())


def write_diagnostics(rows: list[DiagnosticsRow], path) -> None:
    """CSV of per-frame energies, momentum, ensemble stats and solver work."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(DIAGNOSTICS_HEADER + "\n")
        for row in rows:
            s = row.stats
            cells = [_fmt(s.t), _fmt(s.kinetic_trans), _fmt(s.kinetic_rot),
                     _fmt(s.potential_contact), _fmt(s.potential_gravity),
                     _fmt(s.total_energy),
                     _fmt(s.momentum[0]), _fmt(s.momentum[1]), _fmt(s.momentum[2]),
                     _fmt(s.kbar), _fmt(s.dv),
                     str(row.newton_iters), str(row.cg_iters)]
            fh.write(",".join(cells) + "\n")
