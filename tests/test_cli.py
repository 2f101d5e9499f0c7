"""Command-line frontend: exit codes, outputs, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import projdyn
from projdyn import Scenario, assemble, build_projectors, catalog, forces, get_system, pendulum
from projdyn.cli import main
from test_engine import LOADED_SLIDER_CRANK


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def _inline(term=(), **fields):
    """A unit-circle pendulum definition with fields replaced, and the
    entries of term set in the first term of its constraint."""
    first = {"coeff": 1, "powers": [2, 0], **dict(term)}
    return {"n": 2, "mass": {"diag": [1, 1]}, "gravity_force": [0, -9.81], **fields,
            "constraints": [{"terms": [first, {"coeff": 1, "powers": [0, 2]},
                                       {"coeff": -1, "powers": [0, 0]}]}]}


# a particle on one row, captured at t = 0.02 by a second row that pins it
# (rank 2 = n)
CORNER = {"system": {"name": "corner", "n": 2, "mass": {"diag": [1, 1]},
                     "gravity_force": [0, -9.81],
                     "constraints": [{"terms": [{"coeff": 0.3, "powers": [1, 0]},
                                                {"coeff": 0.7, "powers": [0, 1]}]},
                                     {"terms": [{"coeff": 0.6, "powers": [1, 0]},
                                                {"coeff": -0.2, "powers": [0, 1]}]}]},
          "q0": [0, 0], "qdot0": [0.7, -0.3], "horizon": 0.05, "dt": 0.01,
          "initial_active": [0], "events": [[0.02, [0, 1]]]}


class TestSimulate:
    def test_pendulum_csv(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        rc = main(["simulate", "--system", "pendulum", "--horizon", "1.0",
                   "--dt", "0.001", "--out", str(out)])
        assert rc == 0
        header, data = read_csv(out)
        assert data.shape[0] == 1001
        assert header[0] == "t" and "energy" in header
        text = capsys.readouterr().out
        assert "energy drift" in text

    def test_mu_invariance(self, tmp_path):
        # the reported motion must not depend on the virtual mass
        outs = []
        for mu in ("0.1", "10"):
            out = tmp_path / f"mu{mu}.csv"
            assert main(["simulate", "--system", "pendulum", "--horizon",
                         "1.0", "--dt", "0.001", "--mu", mu,
                         "--out", str(out)]) == 0
            outs.append(out)
        ha, da = read_csv(outs[0])
        hb, db = read_csv(outs[1])
        cols = [i for i, c in enumerate(ha)
                if c.startswith(("q", "qd")) and not c.startswith("qdd")]
        assert np.abs(da[:, cols] - db[:, cols]).max() < 1e-6

    @pytest.mark.parametrize("argv, loss", [
        (["--system", "switching-particle", "--horizon", "2", "--dt", "0.01"], "1.250e-01"),
        (["--scenario-file", "corner.json"], "3.518e-01"),
        (["--system", "pendulum", "--horizon", "0.1", "--dt", "0.01"], None),
    ], ids=["switching-particle", "corner", "no-event"])
    def test_capture_loss_is_not_drift(self, tmp_path, capsys, monkeypatch, argv, loss):
        # each run conserves energy between switches; what a capture removes
        # is reported on its own line, not as drift
        monkeypatch.chdir(tmp_path)
        (tmp_path / "corner.json").write_text(json.dumps(CORNER))
        assert main(["simulate", *argv]) == 0
        lines = capsys.readouterr().out.splitlines()
        drift = next(line for line in lines if line.startswith("energy drift: "))
        if loss is not None:
            assert float(drift.split()[2]) < 1e-12
            assert f"capture loss: {loss}" in lines
        else:
            assert not any(line.startswith("capture loss") for line in lines)

    def test_switching_event_reported(self, capsys):
        rc = main(["simulate", "--system", "switching-particle",
                   "--horizon", "2.0", "--dt", "0.001"])
        assert rc == 0
        text = capsys.readouterr().out
        assert "rank 0 -> 1" in text

    def test_regulate_controller(self, capsys):
        rc = main(["simulate", "--system", "pendulum", "--horizon", "2.0",
                   "--dt", "0.001", "--target", "0.84,-0.54"])
        assert rc == 0
        assert "final position error" in capsys.readouterr().out

    def test_target_alone_selects_the_regulator(self, capsys):
        # the regulator runs exactly when --target is given
        args = ["simulate", "--system", "double-pendulum", "--horizon", "0.1",
                "--dt", "0.01"]
        assert main(args) == 0
        assert "final position error" not in capsys.readouterr().out
        assert main(args + ["--target", "0.84,-0.54,1.5,-1"]) == 0
        assert "final position error" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--kp", "--kd", "--sigma"])
    def test_gain_without_target_is_usage_error(self, capsys, flag):
        # without --target there is no regulator for the gain to set
        assert main(["simulate", "--system", "pendulum", flag, "50", "--horizon", "0.1",
                     "--dt", "0.01"]) == 2
        assert f"{flag} set the regulator's gains and need --target" in capsys.readouterr().err

    def test_seed_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "--system", "double-pendulum", "--horizon", "0.5",
                "--dt", "0.001"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_scenario_file(self, tmp_path, capsys):
        spec = {
            "system": "pendulum",
            "q0": [0.0, -1.0],
            "qdot0": [1.0, 0.0],
            "horizon": 0.5,
            "dt": 0.001,
            "controller": {"kp": 10.0, "kd": 10.0, "sigma": 1.5,
                           "q_star": [0.8414709848078965, -0.5403023058681398]},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        rc = main(["simulate", "--scenario-file", str(path)])
        assert rc == 0
        assert "final position error" in capsys.readouterr().out

    def test_infinite_horizon_is_usage_error(self, capsys):
        assert main(["simulate", "--system", "pendulum", "--horizon", "inf"]) == 2
        assert "horizon must be a positive finite number" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags, message", [
        (["--target", "nan,0"], "--target must be finite, got 'nan,0'"),
        (["--target", "inf,0"], "--target must be finite, got 'inf,0'"),
        (["--target", "0.84,-0.54", "--sigma", "nan"], "--sigma must be a finite number, got nan"),
        (["--target", "0.84,-0.54", "--sigma", "inf"], "--sigma must be a finite number, got inf"),
        (["--target", "0.84,-0.54", "--kp", "inf"], "--kp must be a finite number, got inf"),
        (["--target", "0.84,-0.54", "--kd", "nan"], "--kd must be a finite number, got nan"),
    ], ids=["nan-target", "infinite-target", "nan-sigma", "infinite-sigma", "infinite-kp",
            "nan-kd"])
    def test_non_finite_flag_is_usage_error(self, capsys, flags, message):
        # named before any matrix is built from it: no warning, no traceback
        assert main(["simulate", "--system", "pendulum", *flags, "--horizon", "0.1",
                     "--dt", "0.01"]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_text_mu_is_usage_error(self, capsys):
        assert main(["simulate", "--system", "pendulum", "--mu", "abc"]) == 2
        assert "--mu must be a positive number or 'auto', got 'abc'" in capsys.readouterr().err

    def test_overflowing_step_count_is_usage_error(self, capsys):
        assert main(["simulate", "--system", "pendulum", "--horizon", "1e300",
                     "--dt", "1e-300"]) == 2
        assert "is not a finite step count" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ({"horizon": None}, "horizon must be a number"),
        ({"dt": [1]}, "dt must be a number"),
        ({"controller": {"q_star": [1, 0], "kp": "x"}}, "controller kp must be a number"),
        ({"controller": {"q_star": [1, 0], "kd": True}}, "controller kd must be a number"),
        ({"controller": {"q_star": [1, 0], "sigma": None}},
         "controller sigma must be a number"),
        ({"controller": [1, 0]}, "controller must be a JSON object"),
        # only an absent or null controller means an uncontrolled run
        ({"controller": {}}, "controller is missing the required field 'q_star'"),
        ({"controller": []}, "controller must be a JSON object, got []"),
        ({"controller": 0}, "controller must be a JSON object, got 0"),
        ({"controller": False}, "controller must be a JSON object, got False"),
        # rank decisions use the constant RANK_TOL; a file cannot set it
        ({"rank_tol": None}, "unknown key 'rank_tol' in a scenario file"),
        ({"system": [1, 0]}, "a system definition must be a JSON object"),
        ([1, 2], "must hold a JSON object"),
        ({"system": {"n": 2, "mass": {"diag": [1, 1]}, "constraints": 5}},
         "constraints must be a list"),
        # n is a positive JSON integer, not one after rounding or parsing
        ({"system": {"n": 2.7, "mass": {"diag": [1, 1]}}}, "n must be a positive integer"),
        ({"system": {"n": True, "mass": {"diag": [1, 1]}}}, "n must be a positive integer"),
        ({"system": {"n": "2", "mass": {"diag": [1, 1]}}}, "n must be a positive integer"),
        ({"system": {"n": 0, "mass": []}}, "n must be a positive integer, got 0"),
        ({"initial_active": [], "events": [["0.05", [0]]]},
         "events[0] time must be a number, got '0.05'"),
        ({"initial_active": [], "events": [[True, [0]]]},
         "events[0] time must be a number, got True"),
        # the flags' comma text is not a JSON list
        ({"q0": "1,0"}, "q0 must be a list of numbers, got '1,0'"),
        ({"qdot0": "0,0"}, "qdot0 must be a list of numbers, got '0,0'"),
        ({"controller": {"q_star": "1,0"}}, "controller q_star must be a list of numbers"),
        ({"q0": ["1", "0"]}, "q0 must be a list of numbers"),
        # an inline system is read by the same typed readers
        ({"system": _inline(term={"powers": [2.5, 0]})},
         "constraints[0].terms[0].powers must be a list of non-negative integers"),
        ({"system": _inline(term={"powers": [True, 0]})},
         "constraints[0].terms[0].powers must be"),
        ({"system": _inline(term={"powers": [-1, 0]})},
         "constraints[0].terms[0].powers must be"),
        ({"system": _inline(term={"coeff": True})},
         "constraints[0].terms[0].coeff must be a number, got True"),
        ({"system": _inline(gravity_force=["1", "0"])},
         "gravity_force must be a list of numbers"),
        ({"system": _inline(gravity_force=[True, False])},
         "gravity_force must be a list of numbers"),
        ({"system": _inline(mass={"diag": ["1", "1"]})},
         "mass.diag must be a list of numbers"),
        ({"system": _inline(name=5)}, "name must be text, got 5"),
        ({"system": _inline(mass={"full": [[1, 0], [0, 1]]})}, "unknown key 'full' in mass"),
        ({"system": _inline(mass={"diag": [1, 1], "scale": 3})},
         "unknown key 'scale' in mass"),
        ({"system": _inline(term={"note": "x"})},
         "unknown key 'note' in constraints[0].terms[0]"),
        # NaN and Infinity are JSON to Python's json, and not finite numbers
        ({"q0": [float("nan"), 0]}, "q0[0] must be finite, got nan"),
        ({"qdot0": [float("inf"), 0]}, "qdot0[0] must be finite, got inf"),
        ({"system": _inline(gravity_force=[float("nan"), 0])},
         "gravity_force[0] must be finite, got nan"),
        ({"system": _inline(mass={"diag": [float("inf"), 1]})},
         "mass.diag[0] must be finite, got inf"),
        ({"system": "teapot"}, "system: unknown system 'teapot'; known: pendulum"),
    ], ids=["null-horizon", "list-dt", "text-kp", "bool-kd", "null-sigma",
            "list-controller", "empty-controller", "empty-list-controller",
            "zero-controller", "false-controller", "null-rank-tol", "list-system",
            "list-file", "scalar-constraints", "fractional-n", "bool-n", "text-n", "zero-n",
            "text-event-time", "bool-event-time", "text-q0", "text-qdot0", "text-q-star",
            "text-entries-q0", "fractional-power", "bool-power", "negative-power",
            "bool-coeff", "text-gravity", "bool-gravity", "text-diag", "number-name",
            "full-mass", "mass-scale", "term-note", "nan-q0", "infinite-qdot0",
            "nan-gravity", "infinite-diag", "unknown-system"])
    def test_scenario_file_wrong_json_type_is_usage_error(self, tmp_path, capsys,
                                                          spec, message):
        if isinstance(spec, dict):
            spec = {"system": "pendulum", "q0": [1.0, 0.0], "horizon": 0.1,
                    "dt": 0.01, **spec}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", "--scenario-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("drop, message", [
        ("system", "a scenario file is missing the required field 'system'"),
        ("q0", "a scenario file is missing the required field 'q0'"),
        ("controller.q_star", "controller is missing the required field 'q_star'"),
        ("system.n", "a system definition is missing the required field 'n'"),
        ("system.mass", "a system definition is missing the required field 'mass'"),
    ])
    def test_scenario_file_missing_key_is_usage_error(self, tmp_path, capsys, drop, message):
        spec = {"system": {"n": 2, "mass": {"diag": [1, 1]}}, "q0": [1.0, 0.0],
                "horizon": 0.1, "dt": 0.01, "controller": {"q_star": [0.0, -1.0], "kp": 5.0}}
        *parents, key = drop.split(".")
        part = spec
        for name in parents:
            part = part[name]
        del part[key]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", "--scenario-file", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_scenario_file_text_rank_tol_is_usage_error(self, tmp_path, capsys):
        spec = {"system": "pendulum", "q0": [0.0, -1.0], "horizon": 0.1, "dt": 0.01,
                "rank_tol": "1e-8"}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", "--scenario-file", str(path)]) == 2
        assert "unknown key 'rank_tol' in a scenario file" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, message", [
        ({"rank_tol": 1e-8}, "unknown key 'rank_tol' in a scenario file"),
        ({"horizn": 0.1}, "unknown key 'horizn' in a scenario file"),
        ({"controller": {"q_star": [1, 0], "Kp": 5}}, "unknown key 'Kp' in controller"),
        ({"system": {"n": 2, "mass": {"diag": [1, 1]}, "coriolis": [[0, 1], [-1, 0]]}},
         "unknown key 'coriolis' in a system definition"),
        ({"horizn": 0.1, "seed": 1}, "unknown keys 'horizn', 'seed' in a scenario file"),
    ], ids=["rank-tol", "misspelt-horizon", "controller", "system", "two"])
    def test_scenario_file_unknown_key_is_usage_error(self, tmp_path, capsys, extra, message):
        # a key nothing reads would be silently ignored
        spec = {"system": "pendulum", "q0": [1.0, 0.0], "horizon": 0.1, "dt": 0.01, **extra}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", "--scenario-file", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--system", "pendulum"], ["--target", "0.84,-0.54"], ["--kp", "50"], ["--kd", "50"],
        ["--sigma", "2"], ["--horizon", "5"], ["--dt", "0.001"], ["--mu", "3"],
        ["--kp", "50", "--horizon", "5", "--mu", "3"]],
        ids=["system", "target", "kp", "kd", "sigma", "horizon", "dt", "mu", "three"])
    def test_flag_beside_scenario_file_is_usage_error(self, tmp_path, capsys, flags):
        # the file sets the run; a flag beside it would be silently ignored
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"system": "pendulum", "q0": [1.0, 0.0],
                                    "horizon": 0.1, "dt": 0.01}))
        assert main(["simulate", "--scenario-file", str(path), *flags]) == 2
        named = ", ".join(f for f in flags if f.startswith("--"))
        assert f"{named} cannot be combined with --scenario-file" in capsys.readouterr().err

    @pytest.mark.parametrize("q_star, message", [([0.5], "must have 2 components"),
                                                 ({"x": 0.5}, "list of numbers")])
    def test_scenario_file_malformed_q_star_is_usage_error(self, tmp_path, capsys,
                                                           q_star, message):
        spec = {"system": "pendulum", "q0": [0.0, -1.0], "horizon": 0.1, "dt": 0.01,
                "controller": {"q_star": q_star}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", "--scenario-file", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("state, message", [
        ({"q0": 5}, "q0 must be a list of numbers, got 5"),
        ({"q0": [1, 0, 0]}, "q0 must have 2 components, got 3"),
        ({"q0": [1, 0], "qdot0": [0.1]}, "qdot0 must have 2 components, got 1"),
        ({"q0": ["a", "b"]}, "q0 must be a list of numbers")],
        ids=["scalar-q0", "long-q0", "short-qdot0", "text-q0"])
    def test_scenario_file_malformed_state_is_usage_error(self, tmp_path, capsys,
                                                          state, message):
        spec = {"system": "pendulum", "horizon": 0.1, "dt": 0.01, **state}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", "--scenario-file", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_scenario_file_active_row_out_of_range_is_usage_error(self, tmp_path, capsys):
        spec = {"system": "pendulum", "q0": [1, 0], "horizon": 0.1, "dt": 0.01,
                "initial_active": [5]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", "--scenario-file", str(path)]) == 2
        assert "initial_active rows must be ints in range(1)" in capsys.readouterr().err

    @pytest.mark.parametrize("active, message", [
        ({"initial_active": 5}, "initial_active must be a list of row indices, got 5"),
        ({"initial_active": [], "events": [[0.05, 0]]},
         "events[0] active set must be a list of row indices, got 0"),
        ({"initial_active": [], "events": [0.05]}, "events[0] must be a [time, rows] pair"),
        ({"events": 0.05}, "events must be a list of [time, rows] pairs")],
        ids=["scalar-initial-active", "scalar-event-rows", "scalar-event", "scalar-events"])
    def test_scenario_file_active_set_not_a_list_is_usage_error(self, tmp_path, capsys,
                                                               active, message):
        spec = {"system": "pendulum", "q0": [1, 0], "horizon": 0.1, "dt": 0.01, **active}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", "--scenario-file", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_scenario_file_q_star_is_retracted_like_target(self, tmp_path):
        # an off-manifold target reaches the engine on the circle either way
        q0, qdot0 = pendulum().default_state
        spec = {"system": "pendulum", "q0": list(q0), "qdot0": list(qdot0),
                "horizon": 0.2, "dt": 0.01, "controller": {"q_star": [1.68, -1.08]}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        a, b = tmp_path / "file.csv", tmp_path / "target.csv"
        assert main(["simulate", "--scenario-file", str(path), "--out", str(a)]) == 0
        assert main(["simulate", "--system", "pendulum", "--horizon", "0.2",
                     "--dt", "0.01", "--target", "1.68,-1.08", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("system", catalog(), ids=lambda s: s.name)
    def test_scenario_file_builds_the_flag_run(self, tmp_path, system):
        # a file that spells out a flag run's state, events, active set and
        # target gives the same trace, so both build equal Scenarios
        q0, qdot0 = system.default_state
        target = 1.1 * q0 + 0.1
        spec = {"system": system.name, "q0": q0.tolist(), "qdot0": qdot0.tolist(),
                "horizon": 1.2, "dt": 0.01, "controller": {"q_star": target.tolist()},
                "events": [[t, list(rows)] for t, rows in system.default_events]}
        if system.default_initial_active is not None:
            spec["initial_active"] = list(system.default_initial_active)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        a, b = tmp_path / "file.csv", tmp_path / "flags.csv"
        assert main(["simulate", "--scenario-file", str(path), "--out", str(a)]) == 0
        assert main(["simulate", "--system", system.name, "--horizon", "1.2", "--dt", "0.01",
                     "--target", ",".join(map(repr, target.tolist())), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "trace.jsonl"
        rc = main(["simulate", "--system", "pendulum", "--horizon", "0.1",
                   "--dt", "0.01", "--out", str(out), "--format", "jsonl"])
        assert rc == 0
        records = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(records) == 11 and "energy" in records[0]

    def test_jsonl_keys_are_the_trace_layout(self, tmp_path):
        # written out here, not read from TRACE_KEYS, which to_jsonl builds
        # the keys from
        out = tmp_path / "trace.jsonl"
        assert main(["simulate", "--system", "switching-particle", "--horizon", "0.1",
                     "--dt", "0.01", "--out", str(out), "--format", "jsonl"]) == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert list(first) == ["t", "q", "qdot", "qdd", "f", "u", "f_c", "kinetic",
                               "potential", "energy", "lyapunov", "rank", "cond_mbar",
                               "drift"]

    @pytest.mark.parametrize("system", catalog(), ids=lambda s: s.name)
    def test_every_catalog_system_runs_from_its_flags(self, system):
        assert main(["simulate", "--system", system.name, "--horizon", "0.5",
                     "--dt", "0.01"]) == 0

    def test_scenario_file_switch_is_logged(self, tmp_path, capsys):
        # the crank starts with its slider row released and recaptures it,
        # so the switch raises the rank from 2 to 3
        spec = {"system": "slider-crank", "q0": [1, 0, 2, 0], "horizon": 0.5, "dt": 0.01,
                "initial_active": [0, 1], "events": [[0.2, [0, 1, 2]]]}
        path = tmp_path / "topology.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", "--scenario-file", str(path)]) == 0
        assert "event t=0.2: rank 2 -> 3" in capsys.readouterr().out

    def test_scenario_file_inline_system_runs(self, tmp_path, capsys):
        # its A and Adot are compiled from the file's polynomials
        spec = {"system": LOADED_SLIDER_CRANK, "q0": [1, 0, 2, 0], "horizon": 0.5, "dt": 0.01}
        path = tmp_path / "crank.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", "--scenario-file", str(path)]) == 0
        out = capsys.readouterr().out
        assert "system: loaded-slider-crank" in out and "steps: 50 " in out

    def test_drift_beyond_tolerance_exits_1(self, monkeypatch, capsys):
        # a domain failure of the run, not a usage error
        monkeypatch.setattr(Scenario, "drift_tol", -1.0)
        assert main(["simulate", "--system", "pendulum", "--horizon", "0.1",
                     "--dt", "0.01"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: step 1: velocity drift") and "Traceback" not in err

    def test_default_event_beyond_horizon_is_dropped(self, capsys):
        # the catalog's capture at t = 1 s is a default, not a request
        rc = main(["simulate", "--system", "switching-particle",
                   "--horizon", "0.5", "--dt", "0.01"])
        assert rc == 0
        assert "rank events: none" in capsys.readouterr().out

    def test_default_event_on_the_horizon_step_is_kept(self, capsys):
        # 0.9999999999999 is the grid time of step 1000 to 1e-12 relative, so
        # the catalog's capture at t = 1 s ends the run's last step
        rc = main(["simulate", "--system", "switching-particle",
                   "--horizon", "0.9999999999999", "--dt", "1e-3"])
        assert rc == 0
        assert "event t=1: rank 0 -> 1" in capsys.readouterr().out

    @pytest.mark.filterwarnings("error")
    def test_corner_capture_leaves_the_particle_at_rest(self, tmp_path, capsys):
        # a second row pins the particle (rank 2 = n): P = 0 exactly, and the
        # pinned state neither drifts nor needs a virtual mass chosen from P,
        # nor a warning
        path, out = tmp_path / "corner.json", tmp_path / "corner.jsonl"
        path.write_text(json.dumps(CORNER))
        rc = main(["simulate", "--scenario-file", str(path), "--out", str(out),
                   "--format", "jsonl"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "event t=0.02: rank 1 -> 2" in captured.out
        assert captured.err == ""
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["rank"] for r in records] == [1, 1, 2, 2, 2, 2]
        assert all(r["qdot"] == [0.0, 0.0] for r in records[2:])

    @pytest.mark.filterwarnings("error")
    def test_regulated_pinned_particle_runs(self, tmp_path, capsys):
        # both axis rows active, 1e-9 off the target: Gamma = 0, no force
        system = {"n": 2, "mass": {"diag": [1, 1]}, "gravity_force": [0, -9.81],
                  "constraints": [{"terms": [{"coeff": 1, "powers": [1, 0]}]},
                                  {"terms": [{"coeff": 1, "powers": [0, 1]}]}]}
        spec = {"system": system, "q0": [1e-9, 0], "horizon": 0.05, "dt": 0.01,
                "controller": {"q_star": [0, 0]}}
        path = tmp_path / "pinned.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", "--scenario-file", str(path)]) == 0
        captured = capsys.readouterr()
        assert "final position error: 1.000e-09, final speed: 0.000e+00" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("t_event", [0.0, 0.6])
    def test_scenario_file_event_out_of_range_is_usage_error(
            self, tmp_path, capsys, t_event):
        spec = {"system": "switching-particle", "q0": [0.0, 0.0],
                "qdot0": [1.0, 0.5], "horizon": 0.5, "dt": 0.01,
                "initial_active": [], "events": [[t_event, [0]]]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", "--scenario-file", str(path)]) == 2
        assert "outside the run" in capsys.readouterr().err

    def test_mu_that_makes_mbar_singular_is_named(self, tmp_path, capsys):
        spec = {"system": "pendulum", "q0": [1, 0], "horizon": 0.1, "dt": 0.01,
                "mu": 1e-300}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec))
        assert main(["simulate", "--scenario-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert "mu = 1e-300" in err and "singular" in err

    def test_missing_system_is_usage_error(self, capsys):
        assert main(["simulate"]) == 2

    def test_unknown_system(self, capsys):
        assert main(["simulate", "--system", "teapot"]) == 2
        # the message, not the repr of get_system's KeyError
        assert capsys.readouterr().err.startswith("error: unknown system 'teapot'; known: ")


class TestCheck:
    @pytest.mark.parametrize("seed", range(20))
    def test_battery_passes(self, seed, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main(["check", "--seed", str(seed), "--report", str(report_path)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "FAIL" not in text
        report = json.loads(report_path.read_text())
        assert report["passed"] and len(report["checks"]) >= 7

    def test_fault_injection_detected(self, capsys):
        rc = main(["check", "--inject-fault", "cbar-sign"])
        assert rc == 1
        text = capsys.readouterr().out
        assert "FAIL" in text
        failing = [l for l in text.splitlines() if l.startswith("FAIL")]
        assert any("skew" in l for l in failing)

    def test_nan_residual_fails_its_check(self, tmp_path, monkeypatch, capsys):
        """A NaN residual fails its check instead of vanishing into max()."""
        monkeypatch.setattr(forces, "acceleration",
                            lambda model, f, qdot: np.full(np.shape(qdot), np.nan))
        report_path = tmp_path / "report.json"
        assert main(["check", "--seed", "0", "--report", str(report_path)]) == 1
        checks = {c["name"]: c for c in json.loads(report_path.read_text())["checks"]}
        for name in ("acceleration-route-agreement", "kkt-oracle-equivalence"):
            assert np.isnan(checks[name]["max_residual"]) and not checks[name]["passed"]
        assert checks["projector-algebra"]["passed"]

    def test_negative_seed_is_usage_error(self, capsys):
        # named as the flag, not as numpy's default_rng argument
        assert main(["check", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be a non-negative integer, got -1\n"

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["check", "--seed", "3", "--report", str(a)]) == 0
        assert main(["check", "--seed", "3", "--report", str(b)]) == 0
        assert a.read_text() == b.read_text()


class TestAnalyze:
    def test_pendulum_interval(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["analyze", "--system", "pendulum", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "optimal-mu interval: [1, 1]" in text
        assert "minimum cond(Mbar) = 1" in text
        header, data = read_csv(out)
        assert header == ["mu", "cond_mbar"]
        assert data.shape[0] == 61

    def test_explicit_state(self, capsys):
        rc = main(["analyze", "--system", "slider-crank",
                   "--state", "0,1,0,0"])
        assert rc == 0
        assert "rank(A) = 2" in capsys.readouterr().out

    @pytest.mark.parametrize("system, state", [
        ("slider-crank", [0.0, 1.0, 0.0, 0.0]), ("double-pendulum", None),
        ("pendulum", None), ("redundant-pendulum", None)])
    def test_sweep_has_the_bits_of_one_assemble_per_mu(self, tmp_path, system, state):
        # the sweep is one stacked assemble; each row is the single-mu model's cond
        out = tmp_path / "sweep.csv"
        extra = [] if state is None else ["--state", ",".join(map(str, state))]
        assert main(["analyze", "--system", system, *extra, "--out", str(out)]) == 0
        sys_ = get_system(system)
        q, qdot = sys_.default_state
        q = q if state is None else np.array(state)
        plant, proj = sys_.plant(q, qdot), build_projectors(sys_.jacobian(q, qdot))
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == 61
        for row in rows:
            mu, cond = map(float, row.split(","))
            assert cond == assemble(plant, proj, mu).cond

    @pytest.mark.filterwarnings("error")
    def test_non_finite_state_is_usage_error(self, capsys):
        assert main(["analyze", "--system", "pendulum", "--state", "nan,0"]) == 2
        assert "--state must be finite, got 'nan,0'" in capsys.readouterr().err

    def test_grid_points_is_not_an_argument(self, capsys):
        # the mu grid is always 61 points
        with pytest.raises(SystemExit) as excinfo:
            main(["analyze", "--system", "pendulum", "--grid-points", "61"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --grid-points" in capsys.readouterr().err


class TestUsage:
    def test_no_command_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--system", "pendulum", "--frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "analyze"])
    def test_rank_tol_is_not_an_argument(self, capsys, command):
        # rank decisions use the constant RANK_TOL
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--system", "pendulum", "--rank-tol", "1e-8"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --rank-tol" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--system", "pendulum", "--target", "1,x"],
         "--target must be a list of numbers"),
        (["simulate", "--system", "pendulum", "--target", "1"],
         "--target must have 2 components, got 1"),
        (["analyze", "--system", "slider-crank", "--state", "0,1"],
         "--state must have 4 components, got 2"),
    ], ids=["text-target", "short-target", "short-state"])
    def test_malformed_vector_flag_is_usage_error(self, capsys, argv, message):
        # rejected before any run or analysis starts
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    def test_module_entry_point_exits_with_mains_code(self):
        """python -m projdyn.cli exits with main's return code: 0 for a passing
        battery, 1 for a detected fault, 2 for a usage error."""
        # the child imports the projdyn under test, installed or from a checkout
        path = [str(pathlib.Path(projdyn.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        for argv, code in [(["check", "--seed", "0"], 0),
                           (["check", "--seed", "0", "--inject-fault", "cbar-sign"], 1),
                           (["simulate"], 2)]:
            done = subprocess.run([sys.executable, "-m", "projdyn.cli", *argv],
                                  capture_output=True, text=True, env=env)
            assert done.returncode == code, (argv, done.stderr)
