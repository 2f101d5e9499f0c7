"""Self-tests of the benchmark.

    python3 -m pytest -q perfbench/test_bench.py

They run every workload at a tiny size, check that every metric of
BENCHMARK.json is reported with its unit, show that the output checks can
fail, and pin the per-step counts the seed commit is known to make.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import projdyn  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, is_count, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Executor  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_runs_tiny_and_reports_every_metric(name, trace):
    metrics, ex, _, errors = bench.measure(name, 3, 0, trace, scale=0.05, probes=1)
    result = bench.build_result(SPEC, trace, metrics, ex, errors)
    assert result["correct"], ex.problems + errors
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_command_prints_the_result_last():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "battery", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "free", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


# --- the output checks can fail ----------------------------------------------


@pytest.fixture
def free_trace():
    sc = WORKLOADS["free"](1, scale=0.05).scenarios(0)[0]
    return projdyn.run(sc)


def _corrupt_one_value(path):
    """Change the first decimal of the second number on the fourth line."""
    lines = path.read_text().splitlines()
    line = lines[3]
    i = line.index(".", line.index(".") + 1) + 1
    lines[3] = line[:i] + str((int(line[i]) + 1) % 10) + line[i + 1:]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_corrupted_export_is_counted(free_trace, tmp_path, fmt):
    path = tmp_path / f"trace.{fmt}"
    check = {"csv": workloads.check_csv, "jsonl": workloads.check_jsonl}[fmt]
    ex = Executor()

    def write(corrupt):
        getattr(free_trace, f"to_{fmt}")(path)
        if corrupt:
            _corrupt_one_value(path)

    ex.op("export", lambda: write(False), lambda _: check(free_trace, path))
    assert ex.failed == 0, ex.problems
    ex.op("export", lambda: write(True), lambda _: check(free_trace, path))
    assert ex.failed == 1 and ex.problems[0].startswith(f"export: {fmt}")


def test_dropped_export_row_is_counted(free_trace, tmp_path):
    path = tmp_path / "trace.csv"
    ex = Executor()

    def write():
        free_trace.to_csv(path)
        path.write_text("\n".join(path.read_text().splitlines()[:-1]) + "\n")

    ex.op("export", write, lambda _: workloads.check_csv(free_trace, path))
    assert ex.failed == 1 and "shape" in ex.problems[0]


def test_perturbed_regulated_trace_is_counted():
    sc = WORKLOADS["regulated"](1, scale=0.1).scenarios(0)[0]
    ex = Executor()
    ex.op("run", lambda: projdyn.run(sc), lambda tr: workloads.check_regulated(ex, sc, tr))
    assert ex.failed == 0, ex.problems

    def perturbed():
        trace = projdyn.run(sc)
        trace.lyapunov[5] = trace.lyapunov[4] + 1e-6
        return trace

    ex.op("run", perturbed, lambda tr: workloads.check_regulated(ex, sc, tr))
    assert ex.failed == 1 and "Lyapunov" in ex.problems[0]


def test_loader_oracle_and_capture_checks_can_fail():
    wl = WORKLOADS["sweep"](1, scale=0.1)
    scs = {sc.system.name: sc for sc in wl.scenarios(0)}
    ex = Executor()
    builtin = projdyn.run(workloads._retracted(scs["slider-crank"]))
    loaded = projdyn.run(workloads._retracted(scs["loaded-slider-crank"]))
    assert workloads.check_loaded(ex, scs["loaded-slider-crank"], loaded, builtin) == []
    loaded.q[-1, 0] += 1e-6
    assert workloads.check_loaded(ex, scs["loaded-slider-crank"], loaded, builtin)
    capture = projdyn.run(scs["switching-particle"])
    assert workloads.check_capture(ex, scs["switching-particle"], capture) == []
    capture.events.clear()
    assert workloads.check_capture(ex, scs["switching-particle"], capture)


def test_fault_check_needs_the_skew_check_to_flip():
    clean = {"checks": [{"name": "projector-algebra", "max_residual": 1e-12,
                         "passed": True},
                        {"name": "mbar-rate-skew-symmetry", "max_residual": 1e-9,
                         "passed": True}]}
    faulted = json.loads(json.dumps(clean))
    faulted["checks"][1].update(max_residual=3.0, passed=False)
    assert workloads.check_fault(1, faulted, clean) == []
    assert workloads.check_fault(0, faulted, clean)
    assert workloads.check_fault(1, clean, clean)


def test_free_crank_run_ends_clear_of_the_opposite_fold():
    """Across the seeded speed range the timed slider-crank run leaves its
    fold and stops before the crank gets near (0, -1), so it cannot fail on
    the re-crossing that the fold probe reports."""
    wl = WORKLOADS["free"](1)
    for w in np.linspace(0.5, 2.0, 7):
        trace = projdyn.run(wl.crank_scenario(w, wl.CRANK_STEPS))
        assert trace.rank[0] == 2 and trace.rank[-1] == 3
        assert trace.q[:, 1].min() > -0.9


def test_fold_probe_counts_a_bad_recrossing(monkeypatch):
    wl = WORKLOADS["free"](1, scale=0.05)
    assert wl.probes() == {"free.fold_recross_bad_frac": 0.0}

    def diverging(sc):
        raise projdyn.DivergenceError("forced")

    monkeypatch.setattr(projdyn, "run", diverging)
    assert wl.probes() == {"free.fold_recross_bad_frac": 1.0}


# --- counts ---------------------------------------------------------------------


def _traced_run(scenario):
    ex = Executor()
    with Tracer() as tr:
        ex.op("run", lambda: projdyn.run(scenario), lambda _: [],
              work=int(round(scenario.horizon / scenario.dt)))
    return layer_metrics(tr, ex)


def test_seed_commit_step_counts():
    free = projdyn.Scenario(system=projdyn.pendulum(), q0=np.array([1.0, 0.0]),
                            qdot0=np.zeros(2), horizon=0.05, dt=5e-3)
    m = _traced_run(free)
    assert m["systems.jacobian.calls_per_step"] == 7
    assert m["kernel.build_projectors.calls_per_step"] == 6
    assert m["kernel.svd_per_step"] == 6
    assert m["control.control_force.calls_per_step"] == 0
    gains = projdyn.RegulationGains(Kp=10 * np.eye(2), Kd=10 * np.eye(2), sigma=1.5)
    regulated = projdyn.Scenario(
        system=projdyn.pendulum(), q0=np.array([0.0, -1.0]), qdot0=np.zeros(2),
        horizon=0.05, dt=5e-3,
        controller=projdyn.SetpointRegulator(workloads.PENDULUM_TARGET, gains))
    assert _traced_run(regulated)["kernel.svd_per_step"] == 16


def test_tracer_puts_everything_back():
    originals = (projdyn.run, projdyn.engine.build_projectors, np.linalg.svd,
                 projdyn.systems.MechanicalSystem.jacobian, projdyn.cli.main)
    with Tracer():
        assert projdyn.run is not originals[0]
        assert projdyn.engine.build_projectors is not originals[1]
    assert (projdyn.run, projdyn.engine.build_projectors, np.linalg.svd,
            projdyn.systems.MechanicalSystem.jacobian, projdyn.cli.main) == originals


def test_counts_repeat_between_traced_replays():
    wl = WORKLOADS["sweep"](5, scale=0.1)
    runs = []
    for _ in range(2):
        ex = Executor()
        with Tracer() as tr:
            wl.play(0, ex)
        runs.append({k: v for k, v in layer_metrics(tr, ex).items() if is_count(k)})
    assert runs[0] == runs[1]
    assert runs[0]["loader.poly_evals_per_step"] > 0
    assert runs[0]["engine.events_per_run"] > 0
