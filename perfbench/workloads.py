"""The four benchmark workloads and the checks on their outputs.

A workload is played in rounds.  Round ``r`` draws its inputs from
``numpy.random.default_rng([seed, r])``, so a seed fixes every initial
condition, event time and battery seed, and successive rounds do not repeat
each other's work.  Each operation (one ``run``, one export or one battery
run) goes through an :class:`Executor`, which times it, checks its output
outside the timed region and counts failures.

The library is reached only through attributes looked up at call time
(``projdyn.run``, ``projdyn.cli.main`` and methods of returned objects), so
the tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import time
import traceback
from pathlib import Path

import numpy as np

import projdyn
import projdyn.cli
from calibration import Calibration

OUT = Path(__file__).resolve().parent / "out"
DT = 5e-3
RUN_KINDS = ("run", "export", "battery")

# Criterion 08 of the acceptance tests: gains and target of the regulated pendulum.
PENDULUM_TARGET = np.array([np.sin(1.0), -np.cos(1.0)])
LYAPUNOV_RISE_TOL = 1e-8
# Loaded and built-in slider-crank differ only in the summation order of A and Adot.
LOADER_ORACLE_TOL = 1e-9

# The catalog slider-crank written as polynomial constraints (unit masses and rods).
LOADED_SLIDER_CRANK = json.dumps({
    "name": "loaded-slider-crank",
    "n": 4,
    "mass": {"diag": [1.0, 1.0, 1.0, 1.0]},
    "gravity_force": [0.0, -9.81, 0.0, -9.81],
    "constraints": [
        {"terms": [{"coeff": 1, "powers": [2, 0, 0, 0]},
                   {"coeff": 1, "powers": [0, 2, 0, 0]},
                   {"coeff": -1, "powers": [0, 0, 0, 0]}]},
        {"terms": [{"coeff": 1, "powers": [0, 0, 2, 0]},
                   {"coeff": -2, "powers": [1, 0, 1, 0]},
                   {"coeff": 1, "powers": [2, 0, 0, 0]},
                   {"coeff": 1, "powers": [0, 0, 0, 2]},
                   {"coeff": -2, "powers": [0, 1, 0, 1]},
                   {"coeff": 1, "powers": [0, 2, 0, 0]},
                   {"coeff": -1, "powers": [0, 0, 0, 0]}]},
        {"terms": [{"coeff": 1, "powers": [0, 0, 0, 1]}]},
    ],
})

# Field order of a JSON-lines trace record, as documented in trace_schema.json.
JSONL_FIELDS = ("t", "q", "qdot", "qdd", "f", "u", "f_c", "kinetic", "potential",
                "energy", "lyapunov", "rank", "cond_mbar", "drift")


class Executor:
    """Times operations, checks their outputs and keeps the tallies.

    Each operation is bracketed by calibration chunks (see calibration.py);
    ``busy`` is wall time and ``ref_busy`` the same time at reference speed.
    ``work`` counts what completed operations produced: integration steps
    for runs, rows for exports and battery runs for the battery.  Accuracy
    figures are maxima over every checked output.
    """

    def __init__(self, calibration=None):
        self.cal = calibration or Calibration()
        self._chunk = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.busy = 0.0
        self.ref_busy = dict.fromkeys(RUN_KINDS, 0.0)
        self.work = dict.fromkeys(RUN_KINDS, 0)
        self.runs = 0
        self.battery_clean = 0
        self.battery_passed = 0
        self.accuracy = {"energy_rel_err": 0.0, "phi_max": 0.0, "reg_err_final": 0.0,
                         "battery.max_resid_ratio": 0.0}

    def op(self, kind, fn, check, work=1):
        """Run ``fn`` timed, then ``check(result)`` untimed; returns the result."""
        self.attempted += 1
        before = self._chunk if self._chunk is not None else self.cal.chunk()
        t0 = time.perf_counter()
        try:
            out = fn()
        except Exception:  # a failing operation is counted, not fatal
            self._add_time(kind, time.perf_counter() - t0, before)
            self._fail(kind, traceback.format_exc(limit=3).strip())
            return None
        self._add_time(kind, time.perf_counter() - t0, before)
        problems = check(out)
        if problems:
            self._fail(kind, "; ".join(problems))
        else:
            self.work[kind] += work
            self.runs += kind == "run"
        return out

    def forget_speed(self):
        """Take a fresh calibration before the next operation."""
        self._chunk = None

    def note(self, key, value):
        self.accuracy[key] = max(self.accuracy[key], float(value))

    def _add_time(self, kind, dt, chunk_before):
        self._chunk = self.cal.chunk()
        self.busy += dt
        self.ref_busy[kind] += dt * self.cal.speed(chunk_before, self._chunk)

    def _fail(self, kind, why):
        self.failed += 1
        self.problems.append(f"{kind}: {why}")


# --- output checks -----------------------------------------------------------


def check_run(ex, sc, trace, conservative):
    """No divergence (the run returned), drift within drift_tol at every
    recorded state, and the accuracy figures of the run noted."""
    problems = []
    # the engine's own drift test: |A qdot| <= drift_tol (1 + |qdot|)
    excess = trace.drift / (1.0 + np.linalg.norm(trace.qdot, axis=1))
    if excess.max() > sc.drift_tol:
        problems.append(f"drift {excess.max():.3e} (1 + |qdot|) > drift_tol "
                        f"{sc.drift_tol:.1e}")
    if conservative:
        e = trace.energy
        ex.note("energy_rel_err", np.max(np.abs(e - e[0])) / (1.0 + abs(e[0])))
    system = sc.system
    if system.residual is not None:
        rows = (list(range(system.m)) if sc.initial_active is None
                else list(sc.initial_active))
        phi = max(float(np.linalg.norm(np.asarray(system.residual(q))[rows]))
                  for q in trace.q)
        ex.note("phi_max", phi)
    return problems


def trace_matrix(trace):
    """The trace as one float matrix in the documented CSV column order."""
    parts = [trace.t, trace.q, trace.qdot, trace.qdd, trace.f, trace.u, trace.f_c,
             trace.kinetic, trace.potential, trace.energy, trace.lyapunov,
             trace.rank, trace.cond_mbar, trace.drift]
    return np.hstack([np.asarray(p, dtype=float).reshape(len(trace.t), -1)
                      for p in parts])


def _compare(name, got, want):
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, trace has {want.shape}"]
    if got.tobytes() != want.tobytes():
        bad = np.argwhere(got.view(np.int64) != want.view(np.int64))[0]
        return [f"{name}: row {bad[0]} column {bad[1]} reads {got[tuple(bad)]!r}, "
                f"trace has {want[tuple(bad)]!r}"]
    return []


def check_csv(trace, path):
    lines = Path(path).read_text().splitlines()
    got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return _compare("csv", got.reshape(len(lines) - 1, -1), trace_matrix(trace))


def check_jsonl(trace, path):
    lines = Path(path).read_text().splitlines()
    got = np.array([np.hstack([rec[k] for k in JSONL_FIELDS])
                    for rec in map(json.loads, lines)], dtype=float)
    return _compare("jsonl", got.reshape(len(lines), -1), trace_matrix(trace))


def check_regulated(ex, sc, trace):
    problems = check_run(ex, sc, trace, conservative=False)
    q_star = sc.controller.q_star
    rise = float(np.diff(trace.lyapunov).max())
    if not rise <= LYAPUNOV_RISE_TOL:
        problems.append(f"Lyapunov value rises by {rise:.3e}")
    e0 = np.linalg.norm(trace.q[0] - q_star)
    e1 = np.linalg.norm(trace.q[-1] - q_star)
    if not e1 < e0:
        problems.append(f"error grew from {e0:.3e} to {e1:.3e}")
    ex.note("reg_err_final", e1)
    return problems


def check_capture(ex, sc, trace):
    problems = check_run(ex, sc, trace, conservative=False)
    if not any(ev["rank_before"] == 0 and ev["rank_after"] == 1 for ev in trace.events):
        problems.append(f"no capture 0 -> 1 in event log {trace.events}")
    return problems


def check_loaded(ex, sc, trace, builtin):
    problems = check_run(ex, sc, trace, conservative=True)
    if builtin is None:
        return problems + ["no built-in slider-crank trace to compare with"]
    dq = float(np.max(np.abs(trace.q - builtin.q)))
    dv = float(np.max(np.abs(trace.qdot - builtin.qdot)))
    if not max(dq, dv) <= LOADER_ORACLE_TOL:
        problems.append(f"loaded slider-crank departs from the built-in one by "
                        f"{max(dq, dv):.3e}")
    return problems


def _read_report(path):
    with open(path) as fh:
        return json.load(fh)


def check_battery(ex, rc, report, n_checks):
    """The exit code follows the verdict and every residual is finite.

    Whether the battery passes is recorded, not required: at its fixed
    tolerances it fails on some seeds (see ``battery.pass_frac``).
    """
    problems = []
    if rc != (0 if report["passed"] else 1):
        problems.append(f"exit code {rc} for verdict passed={report['passed']}")
    if len(report["checks"]) != n_checks:
        problems.append(f"{len(report['checks'])} checks, expected {n_checks}")
    ratios = [c["max_residual"] / c["tolerance"] for c in report["checks"]]
    if not all(np.isfinite(ratios)):
        problems.append("non-finite residual")
    if not problems:
        ex.note("battery.max_resid_ratio", max(ratios))
        ex.battery_clean += 1
        ex.battery_passed += report["passed"]
    return problems


def check_fault(rc, faulted, clean):
    """The fault run exits 1 and differs from the clean run of the same seed
    exactly in the skew-symmetry check, which the fault breaks."""
    problems = []
    if rc != 1:
        problems.append(f"fault-injected battery exited {rc}, expected 1")
    for a, b in zip(faulted["checks"], clean["checks"]):
        if a["name"] == "mbar-rate-skew-symmetry":
            if a["passed"] or not b["passed"]:
                problems.append("skew-symmetry check did not flip under the fault")
        elif a["max_residual"] != b["max_residual"]:
            problems.append(f"fault changed the unrelated check {a['name']}")
    return problems


# --- workloads ---------------------------------------------------------------


def _retracted(sc):
    """The scenario with its initial configuration retracted onto Phi(q) = 0."""
    if sc.system.residual is None:
        return sc
    return dataclasses.replace(
        sc, q0=projdyn.project_to_constraints(sc.q0, sc.system))


def _steps(sc):
    return int(round(sc.horizon / sc.dt))


def _chain(a, b):
    p1 = np.array([np.sin(a), -np.cos(a)])
    return np.concatenate([p1, p1 + np.array([np.sin(b), -np.cos(b)])])


class Workload:
    """Systems built once at set-up; rounds of operations drawn from the seed.

    ``scale`` shortens every run; the benchmark uses 1, its self-tests less.
    """

    name = ""

    def __init__(self, seed, scale=1.0):
        self.seed = seed
        self.scale = scale
        self.catalog = {s.name: s for s in projdyn.catalog()}
        self.loaded = projdyn.load_system(LOADED_SLIDER_CRANK)

    def steps(self, n):
        return max(2, int(round(n * self.scale)))

    def rng(self, r):
        return np.random.default_rng([self.seed, r])

    def scenarios(self, r):
        return []

    def warmup(self):
        """One integration step, as the first run of a round would take."""
        sc = (self.scenarios(0) or [projdyn.Scenario(
            system=self.catalog["pendulum"], q0=np.array([1.0, 0.0]),
            qdot0=np.zeros(2), horizon=DT, dt=DT)])[0]
        projdyn.step(projdyn.GeneralizedState(0.0, sc.q0, sc.qdot0), sc)

    def play(self, r, ex):
        raise NotImplementedError

    def probes(self):
        """Untimed figures of the traced run that are not layer metrics."""
        return {}

    def describe(self):
        """The size of one round: its runs and other operations."""
        return {"runs": [{"system": sc.system.name, "dt": sc.dt,
                          "steps": _steps(sc),
                          "controlled": sc.controller is not None,
                          "events": len(sc.events)} for sc in self.scenarios(0)]}


class Free(Workload):
    """Long uncontrolled runs, each trace exported to CSV and JSONL (the
    ``projdyn simulate --out`` path).  The control layer does no work here.

    The slider-crank starts on its fold (0, 1, 0, 0), where rank(A) is 2,
    and leaves it at rank 3.  Its run ends after 140 steps (0.7 s), before
    the crank reaches the opposite fold (0, -1, 0, 0) for any seeded speed:
    fixed-step RK4 through that second crossing diverges or loses energy
    for some speeds (see :meth:`probes`), and a timed operation must not
    fail.
    """

    name = "free"

    CRANK_STEPS = 140
    # Full-turn runs of the fold re-crossing probe, and the energy error
    # above which one counts as bad.
    RECROSS_RUNS = 12
    RECROSS_STEPS = 300
    RECROSS_ENERGY_TOL = 1e-3

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        self.double = projdyn.double_pendulum(m1=1.3, m2=0.7)
        self.crank = projdyn.slider_crank(m1=1.2, m2=0.8)

    def crank_scenario(self, w, steps):
        """The slider-crank started on its fold with crank speed ``w``."""
        return projdyn.Scenario(system=self.crank, q0=np.array([0.0, 1.0, 0.0, 0.0]),
                                qdot0=np.array([w, 0.0, 2.0 * w, 0.0]),
                                horizon=steps * DT, dt=DT)

    def scenarios(self, r):
        rng = self.rng(r)
        q, qd = self.double.sample_state(rng)
        w = rng.uniform(0.5, 2.0)
        return [
            projdyn.Scenario(system=self.double, q0=q, qdot0=qd,
                             horizon=self.steps(300) * DT, dt=DT),
            self.crank_scenario(w, self.steps(self.CRANK_STEPS)),
        ]

    def probes(self):
        """Share of seeded full-turn slider-crank runs that cross the
        opposite fold badly: they diverge, or their energy error exceeds
        RECROSS_ENERGY_TOL.  Untimed; a known defect, reported, not failed."""
        rng = np.random.default_rng([self.seed, 1 << 20])
        bad = 0
        for w in rng.uniform(0.5, 2.0, size=self.RECROSS_RUNS):
            try:
                e = projdyn.run(self.crank_scenario(w, self.steps(self.RECROSS_STEPS))).energy
            except projdyn.DivergenceError:
                bad += 1
                continue
            bad += int(np.max(np.abs(e - e[0])) / (1.0 + abs(e[0])) > self.RECROSS_ENERGY_TOL)
        return {"free.fold_recross_bad_frac": bad / self.RECROSS_RUNS}

    def play(self, r, ex):
        OUT.mkdir(exist_ok=True)
        for sc in self.scenarios(r):
            trace = ex.op("run", lambda: projdyn.run(sc),
                          lambda tr: check_run(ex, sc, tr, conservative=True),
                          work=_steps(sc))
            if trace is None:
                continue
            csv, jsonl = OUT / "free.csv", OUT / "free.jsonl"
            ex.op("export", lambda: trace.to_csv(csv),
                  lambda _: check_csv(trace, csv), work=len(trace.t))
            ex.op("export", lambda: trace.to_jsonl(jsonl),
                  lambda _: check_jsonl(trace, jsonl), work=len(trace.t))

    def describe(self):
        return {**super().describe(), "exports_per_run": ["csv", "jsonl"]}


class Regulated(Workload):
    """Setpoint runs, where the control law's SVDs dominate each stage."""

    name = "regulated"

    def __init__(self, seed, scale=1.0):
        super().__init__(seed, scale)
        self.double = projdyn.double_pendulum(m1=1.3, m2=0.7)
        self.gains2 = projdyn.RegulationGains(Kp=10 * np.eye(2), Kd=10 * np.eye(2),
                                              sigma=1.5)
        self.gains4 = projdyn.RegulationGains(Kp=10 * np.eye(4), Kd=10 * np.eye(4),
                                              sigma=1.5)

    def scenarios(self, r):
        rng = self.rng(r)
        th, w = rng.uniform(-0.5, 0.5, size=2)
        a, b = rng.uniform(-0.3, 0.3, size=2)
        c, d = rng.uniform(0.3, 0.8, size=2)
        horizon = self.steps(200) * DT
        return [
            projdyn.Scenario(
                system=self.catalog["pendulum"],
                q0=np.array([np.sin(th), -np.cos(th)]),
                qdot0=w * np.array([np.cos(th), np.sin(th)]),
                horizon=horizon, dt=DT,
                controller=projdyn.SetpointRegulator(PENDULUM_TARGET, self.gains2)),
            projdyn.Scenario(
                system=self.double, q0=_chain(a, b), qdot0=np.zeros(4),
                horizon=horizon, dt=DT,
                controller=projdyn.SetpointRegulator(_chain(c, d), self.gains4)),
        ]

    def play(self, r, ex):
        for sc in self.scenarios(r):
            ex.op("run", lambda: projdyn.run(sc),
                  lambda tr: check_regulated(ex, sc, tr),
                  work=_steps(sc))


class Sweep(Workload):
    """Many short runs across the catalog and a JSON-loaded system, each
    starting with a retraction: per-run costs, events and the loader show
    here and nowhere else."""

    name = "sweep"

    def scenarios(self, r):
        rng = self.rng(r)
        horizon = self.steps(40) * DT
        out = []
        for name in ("pendulum", "double-pendulum", "slider-crank", "redundant-pendulum"):
            system = self.catalog[name]
            q, qd = system.sample_state(rng)
            # off the manifold by 1e-3; each run starts by retracting it
            raw = q + 1e-3 * rng.standard_normal(system.n)
            out.append(projdyn.Scenario(system=system, q0=raw, qdot0=qd,
                                        horizon=horizon, dt=DT))
        particle = self.catalog["switching-particle"]
        q, qd = particle.sample_state(rng)
        t_event = float(rng.uniform(0.2, 0.8)) * horizon
        out.append(projdyn.Scenario(system=particle, q0=q, qdot0=qd, horizon=horizon,
                                    dt=DT, initial_active=(),
                                    events=((t_event, (0,)),)))
        crank = out[2]
        out.append(projdyn.Scenario(system=self.loaded, q0=crank.q0,
                                    qdot0=crank.qdot0, horizon=horizon, dt=DT))
        return out

    def play(self, r, ex):
        traces = {}
        for sc in self.scenarios(r):
            name = sc.system.name
            if name == "switching-particle":
                check = lambda tr, sc=sc: check_capture(ex, sc, tr)
            elif name == "loaded-slider-crank":
                check = lambda tr, sc=sc: check_loaded(ex, sc, tr,
                                                       traces.get("slider-crank"))
            else:
                check = lambda tr, sc=sc: check_run(ex, sc, tr, conservative=True)
            traces[name] = ex.op("run", lambda sc=sc: projdyn.run(_retracted(sc)), check,
                                 work=_steps(sc))


class Battery(Workload):
    """Seeded ``projdyn check`` through cli.main, plus one fault-injected
    run in round 0; the only load on the battery and cli layers."""

    name = "battery"

    N_CHECKS = 7

    def battery_seed(self, r):
        return int(self.rng(r).integers(2 ** 31))

    def _check(self, seed, fault=False):
        """``projdyn check`` through cli.main; returns (exit code, report)."""
        path = OUT / ("battery-fault.json" if fault else "battery.json")
        argv = ["check", "--seed", str(seed), "--report", str(path)]
        if fault:
            argv += ["--inject-fault", "cbar-sign"]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = projdyn.cli.main(argv)
        return rc, _read_report(path)

    def play(self, r, ex):
        OUT.mkdir(exist_ok=True)
        seed = self.battery_seed(r)
        clean = ex.op("battery", lambda: self._check(seed),
                      lambda out: check_battery(ex, *out, self.N_CHECKS))
        if r == 0 and clean is not None:
            ex.op("battery", lambda: self._check(seed, fault=True),
                  lambda out: check_fault(out[0], out[1], clean[1]))

    def describe(self):
        return {"battery_runs": 1, "fault_runs_in_round_0": 1,
                "battery_seed_round_0": self.battery_seed(0)}


WORKLOADS = {w.name: w for w in (Free, Regulated, Sweep, Battery)}
