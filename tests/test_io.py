import json

import numpy as np
import numpy.testing as npt
import pytest

from vigrain import ConfigError, parse_config, render_config, run_simulation
from vigrain.io import (TRAJECTORY_HEADER, read_trajectory, write_diagnostics,
                        write_trajectory)
from vigrain.runner import TrajectoryFrame
from vigrain.scenarios import SCENARIO_BUILDERS, build_scenario


class TestParseConfig:
    @pytest.mark.parametrize("name", sorted(SCENARIO_BUILDERS))
    def test_minimal_defaults(self, name):
        # the builder's own defaults are the config defaults
        spec = parse_config(json.dumps({"scenario": name})).spec
        assert spec == SCENARIO_BUILDERS[name]()[1]
        if name == "impact":
            assert (spec.dy, spec.gamma, spec.alpha, spec.h_fraction) == \
                (0.0, 30.0, 0.5, 160.0)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="fricton"):
            parse_config('{"scenario": "impact", "fricton": 0.5}')

    def test_zero_h_fraction_range_error(self):
        with pytest.raises(ConfigError, match="h_fraction"):
            parse_config('{"scenario": "impact", "h_fraction": 0}')

    def test_parse_error_has_position(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config('{"scenario": "impact",,}')

    def test_missing_scenario(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config('{"gamma": 1.0}')

    def test_wrong_type_named(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config('{"scenario": "impact", "gamma": "fast"}')

    def test_bad_scenario_name(self):
        with pytest.raises(ConfigError):
            parse_config('{"scenario": "silo"}')

    def test_cadence_range(self):
        with pytest.raises(ConfigError, match="trajectory_every"):
            parse_config('{"scenario": "impact", "trajectory_every": 0}')

    @pytest.mark.parametrize("name", ["box", "impact"])
    def test_negative_seed_named(self, name):
        # a scenario that draws no random numbers rejects it too
        with pytest.raises(ConfigError,
                           match="config key 'seed' out of range: expected >= 0"):
            parse_config(f'{{"scenario": "{name}", "seed": -1}}')

    @pytest.mark.parametrize("key, value", [
        ("h_fraction", "Infinity"), ("duration", "Infinity"),
        ("box_size", "Infinity"), ("gamma", "Infinity"), ("gap", "Infinity"),
        ("gamma", "NaN"), ("dy", "-Infinity")])
    def test_non_finite_value_named(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}' must be finite"):
            parse_config(f'{{"scenario": "walls", "{key}": {value}}}')

    @pytest.mark.parametrize("value", ["2.5", "true"])
    def test_integer_key_rejects_other_types(self, value):
        with pytest.raises(ConfigError, match="'n_particles' must be an integer"):
            parse_config(f'{{"scenario": "box", "n_particles": {value}}}')

    def test_document_must_be_an_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config('["scenario", "impact"]')

    def test_round_trip_identity(self):
        for doc in ('{"scenario": "impact", "dy": 0.1, "gamma": 5.0}',
                    '{"scenario": "walls", "gap": 1.05}',
                    '{"scenario": "bonded", "bond_stiffness": 1000.0}',
                    '{"scenario": "box", "n_particles": 20, "seed": 4}',
                    # keys another scenario's builder takes
                    '{"scenario": "impact", "max_collisions": 3}',
                    '{"scenario": "box", "dy": 0.5}',
                    '{"scenario": "walls", "n_particles": 5}'):
            cfg = parse_config(doc)
            again = parse_config(render_config(cfg))
            assert again == cfg


class TestCSV:
    def make_frames(self):
        rng = np.random.default_rng(0)
        return [TrajectoryFrame(t=0.1 * k, pos=rng.normal(size=(2, 3)),
                                vel=rng.normal(size=(2, 3)),
                                omega=rng.normal(size=(2, 3)))
                for k in range(3)]

    def test_trajectory_layout(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory(self.make_frames(), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,id,x,y,z,vx,vy,vz,wx,wy,wz"
        assert len(lines) == 1 + 2 * 3
        # ordered by (t, id)
        cols = [line.split(",")[:2] for line in lines[1:]]
        keys = [(float(t), int(i)) for t, i in cols]
        assert keys == sorted(keys)

    def assert_same_frames(self, frames, back):
        assert len(back) == len(frames)
        for a, b in zip(frames, back):
            assert a.t == b.t
            npt.assert_array_equal(a.pos, b.pos)
            npt.assert_array_equal(a.vel, b.vel)
            npt.assert_array_equal(a.omega, b.omega)

    def test_trajectory_round_trip_bit_exact(self, tmp_path):
        frames = self.make_frames()
        path = tmp_path / "traj.csv"
        write_trajectory(frames, path)
        self.assert_same_frames(frames, read_trajectory(path))

    def test_trajectory_bytes_match_per_value_repr(self, tmp_path):
        # the per-value format: repr(float(v)) for t and every value
        rng = np.random.default_rng(1)
        n = 600  # more rows than one chunked write
        frames = []
        for t in (0.0, 1e-7, 1e16):
            vals = rng.normal(size=(n, 9)) * 10.0 ** rng.integers(-8, 17, (n, 9))
            vals.flat[:9] = [-0.0, 5e-324, 1e16, 1e-7, 3.0, -2.0, 0.0, 1e22, 0.1]
            vals.flat[300 * 9 + 4] = -0.0   # past the first chunk
            vals[-1] = np.round(vals[-1])   # integral floats
            frames.append(TrajectoryFrame(t, vals[:, :3], vals[:, 3:6], vals[:, 6:]))
        path = tmp_path / "traj.csv"
        write_trajectory(frames, path)
        lines = [TRAJECTORY_HEADER]
        for f in frames:
            for pid in range(f.pos.shape[0]):
                row = [*f.pos[pid], *f.vel[pid], *f.omega[pid]]
                lines.append(",".join([repr(float(f.t)), str(pid)]
                                      + [repr(float(v)) for v in row]))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        back = read_trajectory(path)
        assert len(back) == len(frames)
        for a, b in zip(frames, back):
            assert a.t == b.t
            for x, y in ((a.pos, b.pos), (a.vel, b.vel), (a.omega, b.omega)):
                assert x.tobytes() == y.tobytes()   # -0.0 keeps its sign

    def test_trailing_blank_line_round_trips(self, tmp_path):
        frames = self.make_frames()
        path = tmp_path / "traj.csv"
        write_trajectory(frames, path)
        with path.open("a") as fh:
            fh.write("\n")
        self.assert_same_frames(frames, read_trajectory(path))

    def test_empty_run_header_only(self, tmp_path):
        path = tmp_path / "traj.csv"
        write_trajectory([], path)
        assert path.read_text().strip() == "t,id,x,y,z,vx,vy,vz,wx,wy,wz"
        assert read_trajectory(path) == []

    @pytest.mark.parametrize("text", ["", "t,id,x,y,z\n0.0,0,1.0,2.0,3.0\n"],
                             ids=["empty file", "wrong header"])
    def test_unreadable_header(self, tmp_path, text):
        path = tmp_path / "traj.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match="trajectory header"):
            read_trajectory(path)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda ls: ls[:2] + [ls[2].rsplit(",", 1)[0]] + ls[3:],
         "line 3: expected 11 fields, got 10"),
        (lambda ls: ls[:2] + [ls[2] + ",0.5"] + ls[3:],
         "line 3: expected 11 fields, got 12"),
        (lambda ls: [ls[0], ls[2], ls[1]] + ls[3:],
         "line 2: particle id 1, expected 0"),
        (lambda ls: ls[:2] + [ls[2].replace(",1,", ",1,abc,", 1).rsplit(",", 1)[0]]
         + ls[3:], "line 3: could not convert string to float: 'abc'"),
    ], ids=["truncated row", "extra field", "swapped ids", "not a number"])
    def test_malformed_row_is_named(self, tmp_path, corrupt, message):
        path = tmp_path / "traj.csv"
        write_trajectory(self.make_frames(), path)
        path.write_text("\n".join(corrupt(path.read_text().splitlines())) + "\n")
        with pytest.raises(ConfigError, match=f"^trajectory {message}$"):
            read_trajectory(path)

    def test_diagnostics_header(self, tmp_path):
        cfg = parse_config('{"scenario": "impact", "duration": 0.01}')
        result = run_simulation(build_scenario(cfg.spec), cfg.spec)
        path = tmp_path / "diag.csv"
        write_diagnostics(result.diagnostics, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ("t,KT,KR,V_contact,V_grav,E_total,px,py,pz,"
                            "Kbar,dv,newton_iters,cg_iters")
        assert len(lines) > 1


class TestDeterminism:
    def test_identical_config_identical_bytes(self, tmp_path):
        doc = '{"scenario": "box", "n_particles": 8, "duration": 0.05, "seed": 5}'
        outputs = []
        for run in range(2):
            cfg = parse_config(doc)
            result = run_simulation(build_scenario(cfg.spec), cfg.spec)
            t_path = tmp_path / f"traj_{run}.csv"
            d_path = tmp_path / f"diag_{run}.csv"
            write_trajectory(result.frames, t_path)
            write_diagnostics(result.diagnostics, d_path)
            outputs.append((t_path.read_bytes(), d_path.read_bytes()))
        assert outputs[0] == outputs[1]
