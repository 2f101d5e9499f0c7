"""Simulation engine: integration accuracy, events, traces, validation."""

import dataclasses
import json
import re

import numpy as np
import pytest

from projdyn import engine
from projdyn import (ConstrainedModel, DivergenceError, GeneralizedState,
                     InconsistentStateError, PlantMatrices, ProjectorBundle, RegulationGains,
                     Scenario, SetpointRegulator, acceleration,
                     assemble, build_projectors, constraint_force,
                     double_pendulum, kinetic_energy, load_system,
                     optimal_mu, pendulum, project_to_constraints, redundant_pendulum, run,
                     slider_crank, step, switching_particle)
from projdyn.systems import GRAVITY


class TestProjectToConstraints:
    def test_retracts_to_circle(self):
        q = project_to_constraints(np.array([0.0, -1.001]), pendulum())
        np.testing.assert_allclose(q, [0.0, -1.0], atol=1e-10)

    def test_leaves_consistent_point_alone(self):
        q0 = np.array([np.sin(0.3), -np.cos(0.3)])
        np.testing.assert_allclose(project_to_constraints(q0, pendulum()), q0,
                                   atol=1e-12)

    def test_fails_from_center(self):
        # the pivot itself: gradient vanishes, no retraction exists
        with pytest.raises(InconsistentStateError):
            project_to_constraints(np.zeros(2), pendulum())

    def test_needs_a_position_residual(self):
        with pytest.raises(ValueError, match="provides no position residual"):
            project_to_constraints(np.zeros(2), switching_particle())

    def test_last_step_is_tested_after_the_loop(self):
        # |Phi| is 1e-3, then 9.990e-07, then 2.5e-13: the second step lands
        # on the circle and only the test after the loop sees it
        q = project_to_constraints(np.array([0.0, -1.001]), pendulum(), max_iter=2)
        np.testing.assert_allclose(q, [0.0, -1.0], atol=1e-10)
        with pytest.raises(InconsistentStateError,
                           match=r"^retraction stalled with \|Phi\| = 9\.990e-07$"):
            project_to_constraints(np.array([0.0, -1.001]), pendulum(), max_iter=1)


class TestIntegration:
    def test_free_particle_is_exact(self):
        # no active constraint, no force: RK4 reproduces straight-line motion
        system = switching_particle()
        scenario = Scenario(system=system, q0=np.zeros(2),
                            qdot0=np.array([1.0, 0.5]), horizon=1.0, dt=0.01,
                            initial_active=(), events=())
        trace = run(scenario)
        expect = np.outer(trace.t, [1.0, 0.5])
        np.testing.assert_allclose(trace.q, expect, atol=1e-12)
        np.testing.assert_allclose(trace.qdot,
                                   np.tile([1.0, 0.5], (len(trace.t), 1)),
                                   atol=1e-12)

    def test_small_angle_period(self):
        # theta0 = 0.01: period within 0.1% of 2 pi sqrt(L/g)
        th0 = 0.01
        scenario = Scenario(system=pendulum(),
                            q0=np.array([np.sin(th0), -np.cos(th0)]),
                            qdot0=np.zeros(2), horizon=2.6, dt=5e-4)
        trace = run(scenario)
        x = trace.q[:, 0]
        # first two downward zero crossings bound one full period
        sign_changes = np.where((x[:-1] > 0) & (x[1:] <= 0))[0]
        assert len(sign_changes) >= 2
        crossings = []
        for i in sign_changes[:2]:
            frac = x[i] / (x[i] - x[i + 1])
            crossings.append(trace.t[i] + frac * 5e-4)
        period = crossings[1] - crossings[0]
        assert period == pytest.approx(2 * np.pi / np.sqrt(9.81), rel=1e-3)

    def test_energy_drift_short(self):
        scenario = Scenario(system=pendulum(), q0=np.array([1.0, 0.0]),
                            qdot0=np.zeros(2), horizon=2.0, dt=1e-3)
        trace = run(scenario)
        e0 = trace.energy[0]
        assert np.abs(trace.energy - e0).max() / (1 + abs(e0)) < 1e-8
        assert trace.drift.max() < 1e-12

    def test_step_matches_run(self):
        scenario = Scenario(system=pendulum(), q0=np.array([1.0, 0.0]),
                            qdot0=np.zeros(2), horizon=0.05, dt=1e-2)
        trace = run(scenario)
        state = GeneralizedState(t=0.0, q=scenario.q0, qdot=scenario.qdot0)
        for i in range(5):
            state = step(state, scenario)
            np.testing.assert_allclose(state.q, trace.q[i + 1], atol=1e-12)

    def test_record_count(self):
        scenario = Scenario(system=pendulum(), q0=np.array([1.0, 0.0]),
                            qdot0=np.zeros(2), horizon=0.5, dt=1e-3)
        trace = run(scenario)
        assert len(trace.t) == 501
        assert trace.t[-1] == pytest.approx(0.5)


class TestValidation:
    def test_rejects_inconsistent_initial_position(self):
        scenario = Scenario(system=pendulum(), q0=np.array([1.0, 1.0]),
                            qdot0=np.zeros(2), horizon=0.1, dt=1e-3)
        with pytest.raises(InconsistentStateError):
            run(scenario)

    def test_rejects_a_nan_initial_residual(self):
        # x^2 - y^2 - 1 overflows to inf - inf at (1e200, 1e200): |Phi| is NaN,
        # which a run rejects as it rejects the finite |Phi| = 7 at (3, 1)
        system = load_system({"n": 2, "mass": {"diag": [1, 1]}, "constraints": [{"terms": [
            {"coeff": 1, "powers": [2, 0]}, {"coeff": -1, "powers": [0, 2]},
            {"coeff": -1, "powers": [0, 0]}]}]})

        def scenario(q0):
            return Scenario(system=system, q0=np.array(q0), qdot0=np.zeros(2),
                            horizon=0.01, dt=0.01)

        with pytest.raises(InconsistentStateError, match=r"\|Phi\| = 7\.000e\+00;"):
            run(scenario([3.0, 1.0]))
        with pytest.raises(InconsistentStateError, match=r"\|Phi\| = nan;"), \
                pytest.warns(RuntimeWarning, match="overflow"):
            run(scenario([1e200, 1e200]))

    def test_initial_velocity_is_projected(self):
        # a normal velocity component is removed before integration starts
        scenario = Scenario(system=pendulum(), q0=np.array([0.0, -1.0]),
                            qdot0=np.array([1.0, 0.7]), horizon=0.01, dt=1e-3)
        trace = run(scenario)
        np.testing.assert_allclose(trace.qdot[0], [1.0, 0.0], atol=1e-12)

    def test_rejects_bad_scenario_parameters(self):
        with pytest.raises(ValueError):
            Scenario(system=pendulum(), q0=np.zeros(2), qdot0=np.zeros(2),
                     horizon=1.0, dt=-1e-3)
        with pytest.raises(ValueError):
            Scenario(system=pendulum(), q0=np.zeros(2), qdot0=np.zeros(2),
                     horizon=1.0, dt=1e-3, events=((2.0, ()), (1.0, (0,))))
        with pytest.raises(ValueError, match="not a multiple of dt"):
            # 3 steps of 0.3 would end the run at 0.9
            Scenario(system=pendulum(), q0=np.zeros(2), qdot0=np.zeros(2),
                     horizon=1.0, dt=0.3)
        with pytest.raises(ValueError, match=r"^horizon 1e\+300 over dt 1e-300 is not"):
            # a step count that overflows to infinity
            Scenario(system=pendulum(), q0=np.zeros(2), qdot0=np.zeros(2),
                     horizon=1e300, dt=1e-300)
        # active rows must index the system's constraint rows
        for kw, name in (({"initial_active": (5,)}, "initial_active"),
                         ({"initial_active": (-1,)}, "initial_active"),
                         ({"initial_active": (0.0,)}, "initial_active"),
                         ({"events": ((0.5, (3,)),)}, "events")):
            with pytest.raises(ValueError, match=f"^{name} rows must be ints"):
                Scenario(system=switching_particle(), q0=np.zeros(2), qdot0=np.zeros(2),
                         horizon=1.0, dt=1e-3, **kw)
        # run parameters must be positive finite numbers, each named if not
        for name, value in (("dt", float("nan")), ("dt", -1e-3), ("horizon", float("inf")),
                            ("horizon", 0.0), ("horizon", 10 ** 400)):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                Scenario(system=pendulum(), q0=np.zeros(2), qdot0=np.zeros(2),
                         **{"horizon": 1.0, "dt": 1e-3, name: value})
        # the initial state must be finite, each part named if not
        for name, value in (("q0", [np.nan, 0.0]), ("qdot0", [np.inf, 0.0]),
                            ("qdot0", [0.0, -np.inf])):
            with pytest.raises(ValueError, match=fr"^{name} must have shape \(2,\) and finite"):
                Scenario(system=pendulum(), **{"q0": np.zeros(2), "qdot0": np.zeros(2),
                                               name: value}, horizon=1.0, dt=1e-3)
        for mu in (-1.0, 0, "fast", float("nan"), True, 10 ** 400):
            with pytest.raises(ValueError, match="^mu must be 'auto' or a positive number"):
                Scenario(system=pendulum(), q0=np.zeros(2), qdot0=np.zeros(2),
                         horizon=1.0, dt=1e-3, mu=mu)
        # each state vector must be one value per coordinate, named if not
        for q0, qdot0, name in ((5.0, np.zeros(2), "q0"), (np.zeros(3), np.zeros(2), "q0"),
                                (np.zeros(2), [0.1], "qdot0")):
            with pytest.raises(ValueError, match=f"^{name} must have shape"):
                Scenario(system=pendulum(), q0=q0, qdot0=qdot0, horizon=1.0, dt=1e-3)
        # the controller must fit the system: q_star one finite value per
        # coordinate, Kp and Kd n x n
        gains2 = RegulationGains(Kp=np.eye(2), Kd=np.eye(2), sigma=1.5)
        gains3 = RegulationGains(Kp=np.eye(3), Kd=np.eye(3), sigma=1.5)
        for q_star, gains in (([0.0, -1.0, 0.0], gains2), ([np.nan, -1.0], gains2),
                              ([0.0, -1.0], gains3)):
            with pytest.raises(ValueError, match="^controller must regulate 2 coordinates"):
                Scenario(system=pendulum(), q0=np.array([0.0, -1.0]), qdot0=np.zeros(2),
                         horizon=1.0, dt=1e-3, controller=SetpointRegulator(q_star, gains))

    def test_divergence_reports_last_state(self):
        blowup = lambda t, q, qd, m: (np.array([np.inf, np.inf]), np.zeros(m.plant.k))
        scenario = Scenario(system=switching_particle(), q0=np.zeros(2),
                            qdot0=np.zeros(2), horizon=1.0, dt=0.1,
                            initial_active=(), events=(),
                            controller=blowup)
        with pytest.raises(DivergenceError) as excinfo, \
                np.errstate(invalid="ignore"):
            run(scenario)
        assert excinfo.value.last_state is not None

    def test_drift_beyond_tolerance_stops_the_run(self, monkeypatch):
        # no drift passes a negative tolerance, so the first step's end stops
        monkeypatch.setattr(Scenario, "drift_tol", -1.0)
        scenario = Scenario(system=pendulum(), q0=np.array([0.0, -1.0]), qdot0=np.zeros(2),
                            horizon=0.1, dt=0.01)
        with pytest.raises(DivergenceError,
                           match=r"^step 1: velocity drift .* exceeds tolerance$") as excinfo:
            run(scenario)
        assert excinfo.value.last_state.t == 0.01

    def test_rejects_a_controller_that_is_not_callable(self):
        with pytest.raises(ValueError, match=r"^controller must be a law .* got \[1\.0, 0\.0\]$"):
            Scenario(system=pendulum(), q0=np.array([0.0, -1.0]), qdot0=np.zeros(2),
                     horizon=0.1, dt=0.01, controller=[1.0, 0.0])

    @pytest.mark.parametrize("force", [
        (np.array([1.0]), np.zeros(2)), (1.0, np.zeros(2)), (np.zeros(2), np.zeros(3))],
        ids=["length-1", "scalar", "u-of-length-3"])
    def test_rejects_a_force_of_another_shape_where_it_enters(self, force):
        # neither f nor u broadcasts or fails after the run: the first
        # state's force, at t = 0, is rejected
        calls = []
        scenario = Scenario(system=switching_particle(), q0=np.zeros(2),
                            qdot0=np.array([1.0, 0.5]), horizon=0.1, dt=0.01,
                            initial_active=(),
                            controller=lambda t, q, qd, m: calls.append(t) or force)
        f_shape, u_shape = (np.shape(x) for x in force)
        with pytest.raises(ValueError, match=re.escape(
                f"controller returned f of shape {f_shape} and u of shape {u_shape} at "
                "t = 0; f has shape (2,), u (2,)")):
            run(scenario)
        assert calls == [0.0]


class TestEvents:
    def scenario(self, **kw):
        system = switching_particle()
        base = dict(system=system, q0=np.zeros(2),
                    qdot0=np.array([1.0, 0.5]), horizon=2.0, dt=1e-3,
                    initial_active=system.default_initial_active,
                    events=system.default_events)
        base.update(kw)
        return Scenario(**base)

    def test_capture_at_event(self):
        trace = run(self.scenario())
        assert len(trace.events) == 1
        ev = trace.events[0]
        assert ev["time"] == pytest.approx(1.0)
        assert (ev["rank_before"], ev["rank_after"]) == (0, 1)
        # inelastic capture of the vertical component: 0.5 * 0.5^2 = 0.125
        assert ev["energy_drop"] == pytest.approx(0.125, abs=1e-10)
        i = np.searchsorted(trace.t, 1.0)
        np.testing.assert_allclose(trace.qdot[i + 1], [1.0, 0.0], atol=1e-12)
        assert trace.rank[i - 1] == 0 and trace.rank[-1] == 1

    def test_post_event_drift(self):
        trace = run(self.scenario())
        after = trace.drift[trace.t > 1.0]
        assert after.max() <= 1e-12

    @pytest.mark.parametrize("t_event", [0.0, -0.5, 2.0 + 1e-9, 3.0])
    def test_rejects_event_outside_the_run(self, t_event):
        with pytest.raises(ValueError, match="outside the run"):
            self.scenario(events=((t_event, (0,)),))

    def test_rejects_conflicting_events_at_one_time(self):
        with pytest.raises(ValueError, match="conflicting"):
            self.scenario(events=((1.0, (0,)), (1.0, ())))
        self.scenario(events=((1.0, (0,)), (1.0, (0,))))   # a repeat is fine

    def test_event_at_the_horizon_is_applied(self):
        # 570 * 0.03 lands one ulp below 17.1; 17.1 / 0.03 is 570 to 1e-12
        # relative, so the switch ends the last step
        trace = run(self.scenario(horizon=17.1, dt=0.03,
                                  events=((17.1, (0,)),)))
        assert len(trace.events) == 1
        assert trace.rank[-1] == 1 and trace.qdot[-1, 1] == 0.0

    def test_switch_at_a_grid_time_ends_its_step(self):
        # 17.1 / 0.03 rounds to 570 + 1.1e-13: the switch is the grid time
        # that ends step 570 whether or not the run goes on past it
        at = run(self.scenario(horizon=17.1, dt=0.03, events=((17.1, (0,)),)))
        past = run(self.scenario(horizon=18.0, dt=0.03, events=((17.1, (0,)),)))
        assert past.rank[569] == 0 and past.rank[570] == 1
        for key in engine.TRACE_KEYS:
            np.testing.assert_array_equal(getattr(past, key)[:571], getattr(at, key))

    def test_switch_at_a_grid_time_takes_no_sliver_substep(self, monkeypatch):
        # 3 * 0.1 rounds up past 0.3, so a switch at 0.3 placed by comparing
        # times would split step 3 at 0.3 and take a 5.6e-17 s substep to
        # 3 * 0.1; on the grid it ends step 3 and 10 steps take 10 RK4 steps
        rk4, steps = engine._Runner._rk4, []

        def spy(runner, ev, h):
            steps.append(h)
            return rk4(runner, ev, h)
        monkeypatch.setattr(engine._Runner, "_rk4", spy)
        trace = run(self.scenario(horizon=1.0, dt=0.1, events=((0.3, (0,)),)))
        assert len(steps) == 10 and min(steps) > 0.09
        assert trace.events[0]["time"] == 0.3 and list(trace.rank[2:5]) == [0, 1, 1]

    def test_capture_freezes_the_forced_height(self):
        # RK4 is exact under push; after the off-grid capture the height
        # stays at its analytic value at the event time
        te = 0.9995
        trace = run(self.scenario(horizon=1.2, events=((te, (0,)),),
                                  controller=pushed))
        y_e = 0.5 * te - te ** 2 / 2 - te ** 3 / 6
        np.testing.assert_allclose(trace.q[trace.t > te, 1], y_e, rtol=0, atol=1e-12)

    def test_event_off_step_grid(self):
        # event time not a multiple of dt: the step is split internally
        trace = run(self.scenario(events=((0.9995, (0,)),)))
        assert len(trace.events) == 1
        assert trace.events[0]["time"] == pytest.approx(0.9995)
        assert len(trace.t) == 2001


class TestTraceExport:
    def make_trace(self):
        return run(Scenario(system=pendulum(), q0=np.array([0.0, -1.0]),
                            qdot0=np.array([1.0, 0.0]), horizon=0.1, dt=1e-2))

    def test_csv_round_trip(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header == trace.columns()
        assert len(lines) == len(trace.t) + 1
        row = lines[1].split(",")
        assert float(row[0]) == trace.t[0]
        # repr round-trips doubles exactly
        assert float(row[header.index("q1")]) == trace.q[0, 1]

    def test_csv_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        self.make_trace().to_csv(a)
        self.make_trace().to_csv(b)
        assert a.read_bytes() == b.read_bytes()

    def test_jsonl(self, tmp_path):
        trace = self.make_trace()
        path = tmp_path / "trace.jsonl"
        trace.to_jsonl(path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(records) == len(trace.t)
        assert records[3]["q"] == list(map(float, trace.q[3]))
        assert records[0]["rank"] == 1
        assert isinstance(records[0]["rank"], int) and trace.rank.dtype.kind == "i"

    def test_an_input_map_without_columns_has_no_u_columns(self, tmp_path):
        # widths come from the arrays: u is (rows, 0), so no CSV column
        base = pendulum()

        def plant_at(q, qdot):
            return dataclasses.replace(base.plant(q, qdot), B=np.zeros((2, 0)))

        trace = run(Scenario(system=dataclasses.replace(base, plant_at=plant_at),
                             q0=np.array([0.0, -1.0]), qdot0=np.array([1.0, 0.0]),
                             horizon=0.05, dt=1e-2))
        trace.to_csv(tmp_path / "trace.csv")
        trace.to_jsonl(tmp_path / "trace.jsonl")
        header = (tmp_path / "trace.csv").read_text().splitlines()[0]
        assert header.split(",") == trace.columns()
        assert "f0,f1,fc0,fc1" in header and ",u" not in header
        first = json.loads((tmp_path / "trace.jsonl").read_text().splitlines()[0])
        assert first["u"] == []


# The catalog slider-crank (unit rods) with non-unit masses, from polynomials.
LOADED_SLIDER_CRANK = {
    "name": "loaded-slider-crank", "n": 4,
    "mass": {"diag": [1.2, 1.2, 0.8, 0.8]},
    "gravity_force": [0.0, -1.2 * 9.81, 0.0, -0.8 * 9.81],
    "constraints": [{"terms": [{"coeff": c, "powers": p} for c, p in poly]} for poly in (
        [(1, [2, 0, 0, 0]), (1, [0, 2, 0, 0]), (-1, [0, 0, 0, 0])],
        [(1, [0, 0, 2, 0]), (-2, [1, 0, 1, 0]), (1, [2, 0, 0, 0]), (1, [0, 0, 0, 2]),
         (-2, [0, 1, 0, 1]), (1, [0, 2, 0, 0]), (-1, [0, 0, 0, 0])],
        [(1, [0, 0, 0, 1])])],
}


def push(t, q, qdot):
    """A time-dependent force under which RK4 is exact for the particle."""
    return np.array([0.5 * t, -1.0 - t])


def pushed(t, q, qdot, model):
    """push as an open-loop law: it reads no model, and its actuators rest."""
    return push(t, q, qdot), np.zeros(model.plant.k)


def _case(name):
    rng = np.random.default_rng(3)
    if name == "free-double-pendulum":
        system = double_pendulum(m1=1.3, m2=0.7)
        q, qd = system.sample_state(rng)
        return Scenario(system=system, q0=q, qdot0=qd, horizon=0.5, dt=5e-3)
    if name == "regulated-pendulum":
        gains = RegulationGains(Kp=10 * np.eye(2), Kd=10 * np.eye(2), sigma=1.5)
        target = np.array([np.sin(1.0), -np.cos(1.0)])
        return Scenario(system=pendulum(), q0=np.array([0.0, -1.0]),
                        qdot0=np.zeros(2), horizon=0.5, dt=5e-3,
                        controller=SetpointRegulator(target, gains))
    if name == "switching-particle":
        return Scenario(system=switching_particle(), q0=np.zeros(2),
                        qdot0=np.array([1.0, 0.5]), horizon=1.2, dt=1e-3,
                        initial_active=(), events=((0.9995, (0,)),),
                        controller=pushed)
    if name == "redundant-pendulum":
        return Scenario(system=redundant_pendulum(),
                        q0=np.array([np.sin(0.4), -np.cos(0.4)]),
                        qdot0=np.array([0.3, 0.1]), horizon=0.5, dt=5e-3)
    if name == "state-dependent-plant":
        # every catalog plant is constant; this one is built at each state
        def plant_at(q, qdot):
            return PlantMatrices(M=(1.0 + 0.5 * q[0] ** 2) * np.eye(2), C=np.zeros((2, 2)),
                                 f_g=[0.0, -GRAVITY], B=np.eye(2))

        system = dataclasses.replace(pendulum(), potential=None, plant_at=plant_at)
        return Scenario(system=system, q0=np.array([np.sin(0.4), -np.cos(0.4)]),
                        qdot0=np.array([0.3, 0.1]), horizon=0.5, dt=5e-3)
    q, qd = slider_crank().sample_state(rng)
    return Scenario(system=load_system(LOADED_SLIDER_CRANK), q0=q, qdot0=qd,
                    horizon=0.5, dt=5e-3)


@pytest.mark.parametrize("name", ["free-double-pendulum", "regulated-pendulum",
                                  "switching-particle", "redundant-pendulum",
                                  "loaded-slider-crank", "state-dependent-plant"])
def test_record_equals_a_fresh_evaluation(name):
    """Every row equals a fresh evaluation of its recorded (q, qdot) through
    the public functions, bit for bit: the engine's per-state cache cannot
    go stale across steps, events or the choice of mu."""
    sc = _case(name)
    trace = run(sc)
    system, law = sc.system, sc.controller
    mu = None
    for i, t in enumerate(trace.t):
        active = sc.initial_active
        for ev in trace.events:
            if ev["time"] <= t:
                active = ev["active"]
        q, qdot = trace.q[i], trace.qdot[i]
        phase = system if active is None else system.with_active(active)
        proj = build_projectors(phase.jacobian(q, qdot))
        plant = system.plant(q, qdot)
        # mu = "auto" picks mu once, at the first row; the particle's optimal
        # mu is its mass on both sides of the capture
        mu = optimal_mu(plant, proj) if mu is None else mu
        model = assemble(plant, proj, mu)
        f, u = np.zeros(system.n), np.zeros(plant.k)
        if law is not None:
            f, u = law(t, q, qdot, model)
        V = law.lyapunov(t, q, qdot, model.Mbar) if hasattr(law, "lyapunov") else np.nan
        ke = kinetic_energy(plant.M, qdot)
        pe = float(system.potential(q)) if system.potential else 0.0
        assert (trace.kinetic[i], trace.potential[i], trace.energy[i]) == (ke, pe, ke + pe)
        np.testing.assert_array_equal(trace.qdd[i], acceleration(model, f, qdot))
        np.testing.assert_array_equal(trace.f_c[i], constraint_force(model, f, qdot))
        np.testing.assert_array_equal(trace.f[i], f)
        np.testing.assert_array_equal(trace.u[i], u)
        assert trace.cond_mbar[i] == model.cond
        np.testing.assert_array_equal(trace.lyapunov[i], V)


def test_a_law_reads_its_state_model():
    """A law sees the model the engine built for its state: u = Gamma (-f_g)
    and f = R (-f_g) = B u cancel gravity in the motion space, and the
    pendulum released at rest at theta = 0.7 stays there (unforced, it moves
    by 1.29 in 1 s).  Measured: max |q - q0| 0.0 and max |qdot| 1.5e-16; the
    bound 1e-14 leaves a margin of 60 over the speed."""
    def law(t, q, qdot, model):
        return model.R @ -model.plant.f_g, model.Gamma @ -model.plant.f_g

    system, q0 = pendulum(), np.array([np.sin(0.7), -np.cos(0.7)])
    held, free = (run(Scenario(system=system, q0=q0, qdot0=np.zeros(2), horizon=1.0,
                               dt=1e-2, controller=c)) for c in (law, None))
    assert np.abs(free.q - q0).max() > 1.0
    assert np.abs(held.q - q0).max() <= 1e-14
    assert np.abs(held.qdot).max() <= 1e-14
    for q, qdot, u in zip(held.q, held.qdot, held.u):
        model = assemble(system.plant(q, qdot), build_projectors(system.jacobian(q, qdot)),
                         1.0)   # Gamma does not depend on mu
        np.testing.assert_array_equal(u, law(0.0, q, qdot, model)[1])
    assert np.isnan(held.lyapunov).all()


def test_event_state_is_evaluated_at_the_reselected_mu(monkeypatch):
    """Releasing the slider-crank's slider row (rank 3 -> 2) moves the
    optimal mu, so a post-event state evaluated before mu is re-selected
    would step with the old one."""
    seen = []
    apply_event = engine._Runner._apply_event

    def spy(runner, ev, t_e, new_active):
        mu_before = runner.mu_value
        ev, log = apply_event(runner, ev, t_e, new_active)
        seen.append((mu_before, runner.mu_value, ev, log))
        return ev, log

    monkeypatch.setattr(engine._Runner, "_apply_event", spy)
    system = slider_crank(m1=1.2, m2=0.8)
    q, qd = system.sample_state(np.random.default_rng(3))
    run(Scenario(system=system, q0=q, qdot0=qd, horizon=0.05, dt=5e-3,
                 events=((0.0123, (0, 1)),)))
    [(mu_before, mu, ev, log)] = seen
    assert (log["rank_before"], log["rank_after"]) == (3, 2)
    assert mu != mu_before
    proj = build_projectors(system.with_active((0, 1)).jacobian(ev.q, ev.qdot))
    model = assemble(system.plant(ev.q, ev.qdot), proj, mu)
    np.testing.assert_array_equal(ev.qdd, acceleration(model, np.zeros(4), ev.qdot))


def _linalg_calls(monkeypatch, *scenarios):
    """The SVD, solve and eigvalsh calls of a run of each scenario."""
    counts = {"svd": 0, "solve": 0, "eigvalsh": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    totals = []
    for scenario in scenarios:
        counts.update(dict.fromkeys(counts, 0))
        run(scenario)
        totals.append(dict(counts))
    return totals


def _per_step_linalg_calls(monkeypatch, scenario):
    """(SVDs, solves, eigvalsh) per step: the difference of a 20-step and a
    10-step run, so calls made once per run do not count; and the eigvalsh
    calls of each of the two runs."""
    totals = _linalg_calls(monkeypatch, *(
        dataclasses.replace(scenario, horizon=steps * scenario.dt) for steps in (10, 20)))
    return ([(totals[1][k] - totals[0][k]) / 10 for k in totals[0]],
            [total["eigvalsh"] for total in totals])


def test_per_step_linalg_cost(monkeypatch):
    """4 state evaluations per RK4 step, one SVD per A, and one per P B
    unless the input map is the identity, where Gamma is P.  No step takes a
    spectrum: a run takes two, optimal_mu's of P M P and the recorded states'
    Mbar for cond_mbar, as one stack."""
    free = Scenario(system=pendulum(), q0=np.array([1.0, 0.0]), qdot0=np.zeros(2),
                    horizon=0.05, dt=5e-3)
    (svd, solve, eig), eig_runs = _per_step_linalg_calls(monkeypatch, free)
    assert svd <= 4 and solve <= 4 and eig == 0 and eig_runs == [2, 2]
    regulated = _case("regulated-pendulum")
    (svd, solve, eig), eig_runs = _per_step_linalg_calls(monkeypatch, regulated)
    assert svd <= 4 and solve <= 4 and eig == 0 and eig_runs == [2, 2]
    # any other input map, here 2 I, still takes the SVD of P B at each state
    plant_at = regulated.system.plant_at
    doubled = dataclasses.replace(regulated.system, plant_at=lambda q, qdot: dataclasses.replace(
        plant_at(q, qdot), B=2.0 * np.eye(2)))
    (svd, solve, eig), eig_runs = _per_step_linalg_calls(
        monkeypatch, dataclasses.replace(regulated, system=doubled))
    assert svd == 8 and solve <= 4 and eig == 0 and eig_runs == [2, 2]


def test_a_switch_at_a_grid_time_costs_one_svd(monkeypatch):
    """The standard step's end takes one SVD with the old rows and one, its
    only projection, with the new: one SVD more than the same run without
    the switch, and no solve, since _apply_event evaluates that state once."""
    system = switching_particle()
    free, switched = (Scenario(system=system, q0=np.zeros(2), qdot0=np.array([1.0, 0.5]),
                               horizon=1.0, dt=1e-2, initial_active=(), events=events)
                      for events in ((), ((0.5, (0,)),)))
    before, after = _linalg_calls(monkeypatch, free, switched)
    assert (after["svd"] - before["svd"], after["solve"] - before["solve"]) == (1, 0)


def test_a_repeated_switch_is_applied_once(monkeypatch):
    """An exact repeat (same time, same rows) inside a step is one switch:
    the same trace bit for bit, one log entry and 805 assembled states."""
    calls = []
    assemble_ = engine.assemble
    monkeypatch.setattr(engine, "assemble", lambda *a: calls.append(1) or assemble_(*a))
    traces, counts = [], []
    for events in (((0.9995, (0,)),), ((0.9995, (0,)), (0.9995, (0,)))):
        calls.clear()
        traces.append(run(Scenario(system=switching_particle(), q0=np.zeros(2),
                                   qdot0=np.array([1.0, 0.5]), horizon=2.0, dt=1e-2,
                                   initial_active=(), events=events)))
        counts.append(len(calls))
    single, repeat = traces
    assert counts == [805, 805] and len(repeat.events) == 1
    assert repeat.events == single.events
    for key in engine.TRACE_KEYS:
        assert getattr(repeat, key).tobytes() == getattr(single, key).tobytes(), key


def test_a_repeat_at_a_grid_time_costs_no_svd(monkeypatch):
    """A repeat of the switch at the grid time 1.0 is not projected again."""
    single, repeat = (Scenario(system=switching_particle(), q0=np.zeros(2),
                               qdot0=np.array([1.0, 0.5]), horizon=2.0, dt=1e-2,
                               initial_active=(), events=events)
                      for events in (((1.0, (0,)),), ((1.0, (0,)), (1.0, (0,)))))
    once, twice = _linalg_calls(monkeypatch, single, repeat)
    assert twice == once


def test_a_step_evaluates_a_and_adot_four_times():
    """The velocity projection shares A(q), pinv(A), P and Q with the end
    state, so a step evaluates A and Adot once per RK4 stage: 4 each."""
    counts = {"A": 0, "Adot": 0}
    base = pendulum()

    def constraint(q):
        counts["A"] += 1
        return base.constraint(q)

    def constraint_rate(q, qdot):
        counts["Adot"] += 1
        return base.constraint_rate(q, qdot)

    system = dataclasses.replace(base, constraint=constraint,
                                 constraint_rate=constraint_rate)
    totals = []
    for steps in (10, 20):
        counts.update(A=0, Adot=0)
        run(Scenario(system=system, q0=np.array([1.0, 0.0]), qdot0=np.zeros(2),
                     horizon=steps * 5e-3, dt=5e-3))
        totals.append(dict(counts))
    assert [(totals[1][k] - totals[0][k]) / 10 for k in counts] == [4, 4]


def test_a_run_never_builds_cbar_or_pdot(monkeypatch):
    """Cbar and Pdot are analysis objects: no step of a free, regulated or
    capturing run reads them."""
    def unread(self):
        raise AssertionError("a run built Cbar or Pdot")
    monkeypatch.setattr(ConstrainedModel, "Cbar", property(unread))
    monkeypatch.setattr(ProjectorBundle, "Pdot", property(unread))
    for name in ("free-double-pendulum", "regulated-pendulum", "switching-particle"):
        trace = run(_case(name))
        assert np.isfinite(trace.qdd).all()
    assert [ev["rank_after"] for ev in trace.events] == [1]
