"""Fixed-step simulation of the non-minimal model with topology events.

Integration is classical fourth-order Runge-Kutta on (q, q').  Drift control
is the operator-consistent one: after every accepted step the velocity is
projected through P(q), so A(q) q' = 0 holds to round-off.  Constraint
activation events are handled as inelastic capture (the normal velocity
component is removed by the new P); matrix dimensions never change.

Each state of a run is evaluated once, eagerly, in the order projectors,
plant, model, force, q'': an inner RK4 stage when it is made, a step's end
state in record (after its grid time is stamped), a post-switch state after
mu is re-selected on it (in advance before a substep, else in record), and
step()'s start state before it advances.  Each part goes through the public
entry points (system.jacobian, build_projectors, assemble, forces.acceleration,
control_force); an RK4 step takes 4 SVDs and 4 solves (8 when regulated).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Real

import numpy as np

from . import forces
from .control import SetpointRegulator, control_force, lyapunov_value
from .errors import DivergenceError, InconsistentStateError
from .kernel import (_float_array, _norm, build_projectors, configuration_projectors,
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


def _grid_step(t, dt):
    """A time t > 0 on the grid of dt: (i, True) when t / dt is the integer i
    to 1e-12 relative (t ends step i), else (ceil(t / dt), False)."""
    i = round(x := t / dt, 0)   # a float: inf and nan lie past every step
    return (i, True) if abs(x - i) <= 1e-12 * x else (np.ceil(x), False)


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
    drift_tol = 1e-12                    # |A qdot| <= drift_tol (1 + |qdot|); not a field

    def __post_init__(self):
        for name in ("q0", "qdot0"):
            setattr(self, name, v := np.asarray(getattr(self, name), dtype=float))
            if v.shape != (self.system.n,) or not np.isfinite(v).all():
                raise ValueError(f"{name} must have shape ({self.system.n},) and finite "
                                 f"entries, got {v!r}")
        n, c = self.system.n, self.controller
        if c is not None and not (c.q_star.shape == (n,) and np.isfinite(c.q_star).all()
                                  and c.gains.Kp.shape == c.gains.Kd.shape == (n, n)):
            raise ValueError(f"controller must regulate {n} coordinates: a finite q_star "
                             f"of shape ({n},) and Kp, Kd of shape ({n}, {n})")
        for name in ("dt", "horizon"):
            if not _positive_finite(v := getattr(self, name)):
                raise ValueError(f"{name} must be a positive finite number, got {v!r}")
        steps, on_grid = _grid_step(self.horizon, self.dt)
        if steps == np.inf:
            raise ValueError(f"horizon {self.horizon:g} over dt {self.dt:g} is not a "
                             "finite step count")
        if not on_grid:
            raise ValueError(f"horizon {self.horizon:g} is not a multiple of "
                             f"dt {self.dt:g}")
        times = [t for t, _ in self.events]
        if times != sorted(times):
            raise ValueError("events must be time-ordered")
        if times and not (0.0 < times[0] and _grid_step(times[-1], self.dt)[0] <= steps):
            raise ValueError(f"event times {times} lie outside the run (0, {self.horizon:g}]")
        if len({(t, tuple(active)) for t, active in self.events}) > len(set(times)):
            raise ValueError("conflicting active sets for events at one time")
        row_sets = [("events", active) for _, active in self.events]
        if self.initial_active is not None:
            row_sets.append(("initial_active", self.initial_active))
        for name, rows in row_sets:
            try:
                self.system.with_active(rows)
            except ValueError as exc:
                raise ValueError(f"{name} {exc}") from None
        if not (self.mu == "auto" if isinstance(self.mu, str) else
                _positive_finite(self.mu)):
            raise ValueError(f"mu must be 'auto' or a positive number, got {self.mu!r}")


# The trace layout, in column order: (record key, CSV column prefix, width).
# A width-1 field is one column named by its prefix; a width-"n" or "k" field
# is that many columns, prefix0, prefix1, ...
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
                           max_iter=20) -> np.ndarray:
    """Retract a configuration onto the manifold Phi(q) = 0 of the system's
    rows (of some rows: pass system.with_active(rows)).

    Gauss-Newton with the minimum-norm correction dq = -pinv(J) Phi; the
    constraint matrix A doubles as the Jacobian of Phi for holonomic rows.
    """
    if system.residual is None:
        raise ValueError(f"system {system.name!r} provides no position residual")
    q = np.asarray(q_raw, dtype=float).copy()
    for _ in range(max_iter):
        phi = np.asarray(system.residual(q), dtype=float)
        if np.linalg.norm(phi) <= tol:
            return q
        Jp, r = pseudo_inverse(system.constraint(q))
        if r == 0:
            break
        q = q - Jp @ phi
    phi = np.asarray(system.residual(q), dtype=float)
    if np.linalg.norm(phi) <= tol:
        return q
    raise InconsistentStateError(
        f"retraction stalled with |Phi| = {np.linalg.norm(phi):.3e}")


class _Eval:
    """One state (t, q, qdot) of a run and the parts a step reads of it.

    Nothing is computed on access.  The runner makes a state with its
    projectors and plant (_Runner._state, or _Runner._projected, which adds
    the drift |A qdot|) and evaluates the rest once, at the current mu and
    in the order model, force, qdd (_Runner._evaluate), at the point where
    the state's t and mu are final."""

    __slots__ = ("t", "q", "qdot", "proj", "plant", "drift", "model", "force", "qdd")

    def __init__(self, t, q, qdot, proj, plant, drift=None):
        self.t, self.q, self.qdot, self.proj, self.plant, self.drift = (
            t, q, qdot, proj, plant, drift)


@lru_cache(maxsize=64)
def _unforced(n, k):
    """The (f, u) of an unforced state: read-only zeros, built once per shape."""
    f, u = np.zeros(n), np.zeros(k)
    f.flags.writeable = u.flags.writeable = False
    return f, u


class _Runner:
    """One simulation run; owns the phase state: the system with the
    phase's active rows (MechanicalSystem.with_active) and mu."""

    def __init__(self, scenario: Scenario):
        self.sc = sc = scenario
        self.system = (sc.system if sc.initial_active is None
                       else sc.system.with_active(sc.initial_active))
        self.mu_value = None

    # --- model evaluation -------------------------------------------------

    def _select_mu(self, ev):
        self.mu_value = (optimal_mu(ev.plant, ev.proj)
                         if self.sc.mu == "auto" else float(self.sc.mu))

    def _state(self, t, q, qdot):
        """The state with its projectors, from the phase system's jacobian
        and build_projectors, and its plant."""
        system = self.system
        proj = build_projectors(system.jacobian(q, qdot))
        return _Eval(t, q, qdot, proj, system.plant(q, qdot))

    def _projected(self, t, q, qdot):
        """The state with qdot projected through P(q), its plant and its drift
        |A qdot|.  A(q) and its SVD serve both velocities; the projected state
        adds only Adot.  configuration_projectors checks A and with_adot checks
        Adot, each once."""
        system = self.system
        A = _float_array(system.constraint(q))
        config = configuration_projectors(A)
        qdot = config.P @ qdot
        proj = with_adot(config, system.constraint_rate(q, qdot))
        return _Eval(t, q, qdot, proj, system.plant(q, qdot), _norm(A @ qdot))

    def _evaluate(self, ev):
        """Evaluate ev's model at the current mu, then its force (f, u) (the
        regulator's law, else the force schedule at ev.t, else zero), then
        qdd; returns ev."""
        sc = self.sc
        ev.model = model = assemble(ev.plant, ev.proj, self.mu_value)
        if (c := sc.controller) is not None:
            f, u = control_force(ev.q, ev.qdot, c.q_star, c.gains, model)
        else:
            f, u = _unforced(self.system.n, ev.plant.k)
            if sc.force_schedule is not None:
                f = np.asarray(sc.force_schedule(ev.t, ev.q, ev.qdot), dtype=float)
        ev.force = f, u
        ev.qdd = forces.acceleration(model, f, ev.qdot)
        return ev

    # --- stepping ---------------------------------------------------------

    def _rk4(self, ev, h):
        """One RK4 step of size h from the evaluated state ev; returns the raw
        end (q, qdot).  Each inner stage is evaluated as it is made."""
        t, q, qdot = ev.t, ev.q, ev.qdot
        state, evaluate = self._state, self._evaluate
        s2 = evaluate(state(t + 0.5 * h, q + 0.5 * h * qdot, qdot + 0.5 * h * ev.qdd))
        s3 = evaluate(state(t + 0.5 * h, q + 0.5 * h * s2.qdot, qdot + 0.5 * h * s2.qdd))
        s4 = evaluate(state(t + h, q + h * s3.qdot, qdot + h * s3.qdd))
        q_new = q + (h / 6.0) * (qdot + 2 * s2.qdot + 2 * s3.qdot + s4.qdot)
        v_new = qdot + (h / 6.0) * (ev.qdd + 2 * s2.qdd + 2 * s3.qdd + s4.qdd)
        if not (np.isfinite(q_new).all() and np.isfinite(v_new).all()):
            raise DivergenceError("state became non-finite",
                                  last_state=GeneralizedState(t, q, qdot))
        return q_new, v_new

    def _apply_event(self, ev, new_active):
        """Capture at ev (which needs only its projectors and plant): the
        system with the new active rows, the projected state and mu
        re-selected on it; advance or record evaluates the state returned."""
        rank_before = ev.proj.rank
        ke_before = kinetic_energy(ev.plant.M, ev.qdot)
        self.system = self.sc.system.with_active(new_active)
        ev = self._projected(ev.t, ev.q, ev.qdot)   # inelastic capture
        ke_after = kinetic_energy(ev.plant.M, ev.qdot)
        self._select_mu(ev)                     # mu re-selected only at events
        return ev, {
            "time": float(ev.t),
            "rank_before": rank_before,
            "rank_after": ev.proj.rank,
            "energy_drop": ke_before - ke_after,
            "active": tuple(new_active),
        }

    def advance(self, ev, h, inside=(), at_end=()):
        """Advance one grid step of size h from the evaluated state ev: split at
        each (time, rows) switch inside it, take the rest of the step, apply
        the switches at its end (_grid_step).  The end state (projected once)
        has its projectors, plant and drift; record evaluates the rest."""
        logs = []
        t_end = ev.t + h
        for t_e, new_active in inside:   # t_e > ev.t: run drops exact repeats
            ev = self._state(t_e, *self._rk4(ev, t_e - ev.t))
            ev, log = self._apply_event(ev, new_active)
            logs.append(log)
            self._evaluate(ev)   # a substep follows
        q, qdot = self._rk4(ev, t_end - ev.t)
        end = self._state(t_end, q, qdot) if at_end else self._projected(t_end, q, qdot)
        for t_e, new_active in at_end:
            end.t = t_e   # the log keeps the scenario's switch time
            end, log = self._apply_event(end, new_active)
            logs.append(log)
        if end.drift > self.sc.drift_tol * (1.0 + _norm(end.qdot)):
            raise DivergenceError(f"velocity drift {end.drift:.3e} exceeds tolerance",
                                  last_state=GeneralizedState(t_end, q, end.qdot))
        return end, logs

    # --- recording --------------------------------------------------------

    def record(self, t, ev):
        """Stamp the grid time t on the end state ev, evaluate ev, and return
        the inputs of its trace row: (t, q, qdot, qdd, f, u, S, Omega, Mbar,
        plant, rank, drift).  _pack evaluates the rest of the row on the
        stack of them.  t comes first because t + h in advance and (i + 1) dt
        in run can differ in the last bit, and a force schedule is read at
        the row's time; the next step starts from the stamped t."""
        ev.t = t
        self._evaluate(ev)
        model, (f, u) = ev.model, ev.force
        return (t, ev.q, ev.qdot, ev.qdd, f, u, model.S, ev.proj.Omega, model.Mbar,
                ev.plant, ev.proj.rank, ev.drift)


def step(state: GeneralizedState, scenario: Scenario) -> GeneralizedState:
    """One fixed step from an arbitrary state (no event handling).  The start
    state is evaluated before the step, at the mu it selects; the end state
    is only projected, never evaluated."""
    runner = _Runner(scenario)
    ev = runner._state(state.t, state.q, state.qdot)
    runner._select_mu(ev)
    runner._evaluate(ev)
    end, _ = runner.advance(ev, scenario.dt)
    return GeneralizedState(t=state.t + scenario.dt, q=end.q, qdot=end.qdot)


def run(scenario: Scenario) -> SimulationTrace:
    """Integrate a scenario and return the full trace."""
    sc = scenario
    runner = _Runner(sc)
    q = sc.q0.copy()

    if runner.system.residual is not None:
        phi = np.asarray(runner.system.residual(q), dtype=float)
        if np.linalg.norm(phi) > 1e-8:
            raise InconsistentStateError(
                f"initial configuration violates constraints: |Phi| = "
                f"{np.linalg.norm(phi):.3e}; retract with project_to_constraints")
    ev = runner._projected(0.0, q, sc.qdot0.copy())
    runner._select_mu(ev)

    switches = {}   # step -> (switches inside it, switches at its end)
    # an exact repeat is applied once: with no conflict, the times strictly increase
    for t_e, active in dict.fromkeys((t, tuple(rows)) for t, rows in sc.events):
        i, on_grid = _grid_step(t_e, sc.dt)
        switches.setdefault(i, ([], []))[on_grid].append((t_e, active))
    records, logs = [runner.record(0.0, ev)], []
    for i in range(1, int(_grid_step(sc.horizon, sc.dt)[0]) + 1):
        try:
            ev, step_logs = runner.advance(ev, sc.dt, *switches.get(i, ()))
        except DivergenceError as exc:
            raise DivergenceError(f"step {i}: {exc}",
                                  last_state=exc.last_state) from exc
        logs += step_logs
        records.append(runner.record(i * sc.dt, ev))
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
