"""Fixed-step simulation of the non-minimal model with topology events.

Integration is classical fourth-order Runge-Kutta on (q, q').  Drift control
is the operator-consistent one: after every accepted step the velocity is
projected through P(q), so A(q) q' = 0 holds to round-off.  Constraint
activation events are handled as inelastic capture (the normal velocity
component is removed by the new P); matrix dimensions never change.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from numbers import Integral, Real

import numpy as np

from . import forces
from .control import SetpointRegulator, control_force, lyapunov_value
from .errors import DivergenceError, InconsistentStateError
from .kernel import (_lazy, _norm, build_projectors, configuration_projectors,
                     pseudo_inverse, with_adot)
from .model import PlantMatrices, _condition, assemble, kinetic_energy, optimal_mu
from .systems import MechanicalSystem


@dataclass(frozen=True)
class GeneralizedState:
    t: float
    q: np.ndarray
    qdot: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float))
        object.__setattr__(self, "qdot", np.asarray(self.qdot, dtype=float))


def _positive_finite(x) -> bool:
    return isinstance(x, Real) and not isinstance(x, bool) and 0 < x <= sys.float_info.max


@dataclass
class Scenario:
    """Everything needed to reproduce one run."""

    system: MechanicalSystem
    q0: np.ndarray
    qdot0: np.ndarray
    horizon: float
    dt: float
    mu: object = "auto"                  # "auto" (geometric mean) or a positive float
    controller: SetpointRegulator | None = None
    force_schedule: object = None        # callable (t, q, qdot) -> f
    events: tuple = ()                   # ((time, active-row-tuple), ...)
    initial_active: tuple | None = None  # None = all rows active
    drift_tol: float = 1e-12

    def __post_init__(self):
        for name in ("q0", "qdot0"):
            setattr(self, name, v := np.asarray(getattr(self, name), dtype=float))
            if v.shape != (self.system.n,) or not np.isfinite(v).all():
                raise ValueError(f"{name} must have shape ({self.system.n},) and finite "
                                 f"entries, got {v!r}")
        for name in ("dt", "horizon"):
            if not _positive_finite(v := getattr(self, name)):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
        steps = self.horizon / self.dt
        if steps == np.inf:
            raise ValueError(f"horizon {self.horizon:g} over dt {self.dt:g} is not a "
                             "finite step count")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValueError(f"horizon {self.horizon:g} is not a multiple of "
                             f"dt {self.dt:g}")
        times = [t for t, _ in self.events]
        if times != sorted(times):
            raise ValueError("events must be time-ordered")
        # the run ends on the last grid time, which rounding may put a hair off
        end = min(self.horizon, round(steps) * self.dt * (1 + 1e-12))
        if times and not 0.0 < times[0] <= times[-1] <= end:
            raise ValueError(f"event times {times} lie outside the run (0, {end:g}]")
        if len({(t, tuple(active)) for t, active in self.events}) > len(set(times)):
            raise ValueError("conflicting active sets for events at one time")
        m = self.system.m
        row_sets = [("events", active) for _, active in self.events]
        if self.initial_active is not None:
            row_sets.append(("initial_active", self.initial_active))
        for name, rows in row_sets:
            if not all(isinstance(i, Integral) and not isinstance(i, bool) and 0 <= i < m
                       for i in rows):
                raise ValueError(f"{name} rows must be ints in range({m}), got {rows!r}")
        if not (self.mu == "auto" if isinstance(self.mu, str) else
                _positive_finite(self.mu)):
            raise ValueError(f"mu must be 'auto' or a positive number, got {self.mu!r}")


TRACE_SCHEMA_VERSION = 1

# The trace layout, in column order: (record key, CSV column prefix, width).
# A width-1 field is one column named by its prefix; a width-"n" or "k" field
# is that many columns, prefix0, prefix1, ...  trace_schema.json describes
# the same layout and a test keeps the two in step.
TRACE_FIELDS = (
    ("t", "t", 1), ("q", "q", "n"), ("qdot", "qd", "n"), ("qdd", "qdd", "n"),
    ("f", "f", "n"), ("u", "u", "k"), ("f_c", "fc", "n"),
    ("kinetic", "kinetic", 1), ("potential", "potential", 1),
    ("energy", "energy", 1), ("lyapunov", "lyapunov", 1), ("rank", "rank", 1),
    ("cond_mbar", "cond_mbar", 1), ("drift", "drift", 1),
)
TRACE_KEYS = tuple(key for key, _, _ in TRACE_FIELDS)


@dataclass(eq=False)
class SimulationTrace:
    """Per-step records plus the event log; exportable as CSV or JSON lines.

    Each TRACE_FIELDS key is an attribute holding one row per recorded state
    (``trace.t``, ``trace.q``, ...); ``rank`` is an int array.
    """

    n: int
    k: int
    events: list = field(default_factory=list)

    def columns(self):
        size = {"n": self.n, "k": self.k}
        cols = []
        for _, prefix, width in TRACE_FIELDS:
            cols += ([prefix] if width == 1 else
                     [f"{prefix}{i}" for i in range(size[width])])
        return cols

    def to_csv(self, path):
        # Python floats and ints: repr is the shortest round-trip form
        cols = []
        for key, _, width in TRACE_FIELDS:
            values = getattr(self, key)
            cols += [values.tolist()] if width == 1 else values.T.tolist()
        with open(path, "w", newline="") as fh:
            fh.write(",".join(self.columns()) + "\n")
            for row in zip(*cols):
                fh.write(",".join(map(repr, row)) + "\n")

    def to_jsonl(self, path):
        with open(path, "w") as fh:
            for row in zip(*(getattr(self, key).tolist() for key in TRACE_KEYS)):
                fh.write(json.dumps(dict(zip(TRACE_KEYS, row))) + "\n")


def project_to_constraints(q_raw, system: MechanicalSystem, tol=1e-10,
                           max_iter=20, active=None) -> np.ndarray:
    """Retract a configuration onto the position-level constraint manifold.

    Gauss-Newton with the minimum-norm correction dq = -pinv(J) Phi; the
    constraint matrix A doubles as the Jacobian of Phi for holonomic rows.
    """
    if system.residual is None:
        raise ValueError(f"system {system.name!r} provides no position residual")
    q = np.asarray(q_raw, dtype=float).copy()
    rows = list(active) if active is not None else list(range(system.m))
    if not rows:
        return q
    for _ in range(max_iter):
        phi = np.asarray(system.residual(q), dtype=float)[rows]
        if np.linalg.norm(phi) <= tol:
            return q
        J = np.atleast_2d(np.asarray(system.constraint(q), dtype=float))[rows]
        Jp, r = pseudo_inverse(J)
        if r == 0:
            break
        q = q - Jp @ phi
    phi = np.asarray(system.residual(q), dtype=float)[rows]
    if np.linalg.norm(phi) <= tol:
        return q
    raise InconsistentStateError(
        f"retraction stalled with |Phi| = {np.linalg.norm(phi):.3e}")


class _Eval:
    """One state (t, q, qdot) of a run; each part is computed once, when first
    asked for.  The active set is fixed at creation, mu read at first use.
    A state made by _Runner._projected also carries its drift |A qdot|."""

    def __init__(self, runner, t, q, qdot):
        self.runner, self.t, self.q, self.qdot = runner, t, q, qdot
        self.active = runner.active

    @_lazy
    def jac(self):
        return self.runner.system.jacobian(self.q, self.qdot, active=self.active)

    @_lazy
    def proj(self):
        return build_projectors(self.jac)

    @_lazy
    def plant(self):
        return self.runner.system.plant(self.q, self.qdot)

    @_lazy
    def model(self):
        return assemble(self.plant, self.proj, self.runner.mu_value)

    @_lazy
    def force(self):
        """(f, u): the regulator's law, else the force schedule, else zero."""
        sc = self.runner.sc
        if (c := sc.controller) is not None:
            return control_force(self.q, self.qdot, c.q_star, c.gains, self.model)
        f = (np.zeros(sc.system.n) if sc.force_schedule is None else
             np.asarray(sc.force_schedule(self.t, self.q, self.qdot), dtype=float))
        return f, np.zeros(self.plant.k)

    @_lazy
    def qdd(self):
        f, _ = self.force
        return forces.acceleration(self.model, f, self.qdot)


class _Runner:
    """One simulation run; owns the phase state (active set, mu)."""

    def __init__(self, scenario: Scenario):
        self.sc = sc = scenario
        self.system = sc.system
        self.active = (tuple(range(self.system.m)) if sc.initial_active is None
                       else tuple(sc.initial_active))
        self.mu_value = None

    # --- model evaluation -------------------------------------------------

    def _select_mu(self, ev):
        self.mu_value = (optimal_mu(ev.plant, ev.proj)
                         if self.sc.mu == "auto" else float(self.sc.mu))

    def _projected(self, t, q, qdot):
        """The state with qdot projected through P(q), and its drift |A qdot|.
        A(q) and its SVD serve both velocities; the projected state adds only
        Adot.  configuration_projectors checks A and with_adot checks Adot,
        each once."""
        system, active = self.system, self.active
        A = system.constraint_matrix(q, active)
        config = configuration_projectors(A)
        ev = _Eval(self, t, q, config.P @ qdot)
        ev.proj = with_adot(config, system.constraint_rate_matrix(q, ev.qdot, active))
        ev.drift = _norm(A @ ev.qdot)
        return ev

    # --- stepping ---------------------------------------------------------

    def _rk4(self, ev, h):
        """One RK4 step of size h from ev; returns the raw end (q, qdot)."""
        t, q, qdot = ev.t, ev.q, ev.qdot
        s2 = _Eval(self, t + 0.5 * h, q + 0.5 * h * qdot, qdot + 0.5 * h * ev.qdd)
        s3 = _Eval(self, t + 0.5 * h, q + 0.5 * h * s2.qdot, qdot + 0.5 * h * s2.qdd)
        s4 = _Eval(self, t + h, q + h * s3.qdot, qdot + h * s3.qdd)
        q_new = q + (h / 6.0) * (qdot + 2 * s2.qdot + 2 * s3.qdot + s4.qdot)
        v_new = qdot + (h / 6.0) * (ev.qdd + 2 * s2.qdd + 2 * s3.qdd + s4.qdd)
        if not (np.isfinite(q_new).all() and np.isfinite(v_new).all()):
            raise DivergenceError("state became non-finite",
                                  last_state=GeneralizedState(t, q, qdot))
        return q_new, v_new

    def _apply_event(self, ev, new_active):
        rank_before = ev.proj.rank
        ke_before = kinetic_energy(ev.plant.M, ev.qdot)
        self.active = tuple(new_active)
        ev = self._projected(ev.t, ev.q, ev.qdot)   # inelastic capture
        ke_after = kinetic_energy(ev.plant.M, ev.qdot)
        self._select_mu(ev)                     # mu re-selected only at events
        return ev, {
            "time": float(ev.t),
            "rank_before": rank_before,
            "rank_after": ev.proj.rank,
            "energy_drop": ke_before - ke_after,
            "active": tuple(self.active),
        }

    def advance(self, ev, h, events_in_step):
        """Advance one grid step of size h from ev, splitting at any event
        times; the end state returned serves its record and the next step."""
        logs = []
        t_end = ev.t + h
        for t_e, new_active in events_in_step:
            if t_e > ev.t:
                ev = _Eval(self, t_e, *self._rk4(ev, t_e - ev.t))
            ev, log = self._apply_event(ev, new_active)
            logs.append(log)
        q, qdot = self._rk4(ev, t_end - ev.t) if t_end > ev.t else (ev.q, ev.qdot)
        end = self._projected(t_end, q, qdot)   # drift control
        if end.drift > self.sc.drift_tol * (1.0 + _norm(end.qdot)):
            raise DivergenceError(f"velocity drift {end.drift:.3e} exceeds tolerance",
                                  last_state=GeneralizedState(t_end, q, end.qdot))
        return end, logs

    # --- recording --------------------------------------------------------

    def record(self, t, ev):
        """The inputs of ev's trace row at time t, all computed by the step:
        (t, q, qdot, qdd, f, u, S, Omega, Mbar, plant, rank, drift).  _pack
        evaluates the rest of the row on the stack of them.  t is stamped on
        ev first: t + h in advance and (i + 1) dt in run can differ in the
        last bit."""
        ev.t = t
        model, (f, u) = ev.model, ev.force
        return (t, ev.q, ev.qdot, ev.qdd, f, u, model.S, ev.proj.Omega, model.Mbar,
                ev.plant, ev.proj.rank, ev.drift)


def step(state: GeneralizedState, scenario: Scenario) -> GeneralizedState:
    """One fixed step from an arbitrary state (no event handling)."""
    runner = _Runner(scenario)
    ev = _Eval(runner, state.t, state.q, state.qdot)
    runner._select_mu(ev)
    end, _ = runner.advance(ev, scenario.dt, [])
    return GeneralizedState(t=state.t + scenario.dt, q=end.q, qdot=end.qdot)


def run(scenario: Scenario) -> SimulationTrace:
    """Integrate a scenario and return the full trace."""
    sc = scenario
    runner = _Runner(sc)
    q = sc.q0.copy()

    if sc.system.residual is not None and runner.active:
        phi = np.asarray(sc.system.residual(q), dtype=float)[list(runner.active)]
        if np.linalg.norm(phi) > 1e-8:
            raise InconsistentStateError(
                f"initial configuration violates constraints: |Phi| = "
                f"{np.linalg.norm(phi):.3e}; retract with project_to_constraints")
    ev = runner._projected(0.0, q, sc.qdot0.copy())
    runner._select_mu(ev)

    nsteps = int(round(sc.horizon / sc.dt))
    records, logs = [runner.record(0.0, ev)], []
    events = list(sc.events)
    t = 0.0
    for i in range(nsteps):
        t_next = (i + 1) * sc.dt
        # the last step takes every remaining event, so none is lost to rounding
        in_step = [e for e in events if t < e[0] <= t_next + 1e-15 or i == nsteps - 1]
        try:
            ev, step_logs = runner.advance(ev, sc.dt, in_step)
        except DivergenceError as exc:
            raise DivergenceError(f"step {i + 1}: {exc}",
                                  last_state=exc.last_state) from exc
        events = [e for e in events if e not in in_step]
        logs += step_logs
        t = t_next
        records.append(runner.record(t, ev))
    return _pack(records, logs, sc)


def _pack(records, logs, sc: Scenario) -> SimulationTrace:
    """The trace of a run's records (_Runner.record).  The columns the step
    does not read are evaluated here, once, on the stack of recorded states;
    a stack gives each member the bits it has alone."""
    t, q, qdot, qdd, f, u, S, Omega, Mbar, plants, rank, drift = zip(*records)
    trace = SimulationTrace(n=sc.system.n, k=u[0].shape[0], events=logs)
    # rank holds Python ints, so its array is int
    trace.t, trace.q, trace.qdot, trace.qdd, trace.f, trace.u, trace.rank, trace.drift = (
        np.array(rows) for rows in (t, q, qdot, qdd, f, u, rank, drift))
    S, Omega, Mbar = np.array(S), np.array(Omega), np.array(Mbar)
    # a constant plant is one object: a stack of one, broadcast over the rows
    if all(p is plants[0] for p in plants):
        plants = plants[:1]
    M, C, f_g, B = (np.stack([getattr(p, x) for p in plants]) for x in ("M", "C", "f_g", "B"))
    q, qdot = trace.q[..., None], trace.qdot[..., None]
    trace.f_c = forces._constraint_force(S, PlantMatrices(M, C, f_g[..., None], B), Omega,
                                         trace.f[..., None], qdot)[..., 0]
    trace.kinetic = kinetic_energy(M, qdot)
    potential = sc.system.potential
    trace.potential = (np.array([float(potential(x)) for x in trace.q]) if potential
                       else np.zeros(len(trace.t)))
    trace.energy = trace.kinetic + trace.potential
    c = sc.controller
    trace.lyapunov = (lyapunov_value(q, qdot, c.q_star, c.gains, Mbar) if c is not None
                      else np.full(len(trace.t), np.nan))
    trace.cond_mbar = _condition(np.linalg.eigvalsh(Mbar))
    return trace
