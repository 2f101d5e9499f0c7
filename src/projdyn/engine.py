"""Fixed-step simulation of the non-minimal model with topology events.

Integration is classical fourth-order Runge-Kutta on (q, q').  Drift control
is the operator-consistent one: after every accepted step the velocity is
projected through P(q), so A(q) q' = 0 holds to round-off.  Constraint
activation events are handled as inelastic capture (the normal velocity
component is removed by the new P); matrix dimensions never change.

Each state of a run is evaluated once, where it is made, after its phase's
mu is chosen, in the order projectors, plant, model, force, q'': an RK4
stage, a step's end state at its grid time, a post-switch state and a run's
or step()'s start state alike.  Each part goes through a public entry point
(system.plant, assemble, the scenario's controller law, forces.acceleration).
So do the projectors of an RK4 stage and of step()'s start (system.jacobian,
build_projectors), but not those of a run's start, a step's end or a
post-capture state: _Runner._projected reads the phase system's constraint
and constraint_rate fields and builds them through configuration_projectors
and with_adot, so one SVD of A serves the velocity before and after its
projection.  A step without a switch thus calls system.jacobian 3 times, for
its inner stages, and evaluates A and Adot 4 times each.  An RK4 step takes
4 SVDs and 4 solves; a regulated one takes 4 more SVDs, of P B, unless the
input map is the identity, where Gamma is P.  That B is the identity is
decided once per PlantMatrices, so once per run for a constant plant; an
unforced state's zero force is built once per phase.  A state's matrix
products take ndarray.dot through kernel._mm, and _pack's products on the
stack of recorded states take @: each gives a member the same bits.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from . import forces
from .control import SetpointRegulator
from .errors import DivergenceError, InconsistentStateError
from .kernel import (_finite, _float_array, _mm, _norm, build_projectors,
                     configuration_projectors, pseudo_inverse, with_adot)
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
    controller: object = None            # a law (t, q, qdot, model) -> (f, u); None: unforced
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
        if not (c is None or callable(c)):
            raise ValueError(f"controller must be a law (t, q, qdot, model) -> (f, u), got {c!r}")
        if isinstance(c, SetpointRegulator) and not (
                c.q_star.shape == (n,) and np.isfinite(c.q_star).all()
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


# The trace layout, in column order: (record key, CSV column prefix).  A field
# of one value per row is one column named by its prefix; a field of w values
# per row is w columns, prefix0, prefix1, ...
TRACE_FIELDS = (
    ("t", "t"), ("q", "q"), ("qdot", "qd"), ("qdd", "qdd"), ("f", "f"), ("u", "u"),
    ("f_c", "fc"), ("kinetic", "kinetic"), ("potential", "potential"),
    ("energy", "energy"), ("lyapunov", "lyapunov"), ("rank", "rank"),
    ("cond_mbar", "cond_mbar"), ("drift", "drift"),
)
TRACE_KEYS = tuple(key for key, _ in TRACE_FIELDS)


@dataclass(eq=False)
class SimulationTrace:
    """Per-step records plus the event log; exportable as CSV or JSON lines.

    Each TRACE_FIELDS key is an attribute holding one row per recorded state
    (``trace.t``, ``trace.q``, ...): a 1-D array for one value per row, else
    (rows, width); ``rank`` is an int array.
    """

    events: list = field(default_factory=list)

    def columns(self):
        cols = []
        for key, prefix in TRACE_FIELDS:
            values = getattr(self, key)
            cols += ([prefix] if values.ndim == 1 else
                     [f"{prefix}{i}" for i in range(values.shape[1])])
        return cols

    def to_csv(self, path):
        # Python floats and ints: repr is the shortest round-trip form
        cols = []
        for key, _ in TRACE_FIELDS:
            values = getattr(self, key)
            cols += [values.tolist()] if values.ndim == 1 else values.T.tolist()
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
        q = q - _mm(Jp, phi)
    phi = np.asarray(system.residual(q), dtype=float)
    if np.linalg.norm(phi) <= tol:
        return q
    raise InconsistentStateError(
        f"retraction stalled with |Phi| = {np.linalg.norm(phi):.3e}")


def check_configuration(system: MechanicalSystem, q) -> None:
    """Raise InconsistentStateError unless q is on the manifold Phi(q) = 0 of
    the system's position residual, to |Phi| <= 1e-8; a system without a
    residual accepts every q."""
    if system.residual is not None:
        phi = np.asarray(system.residual(q), dtype=float)
        if not np.linalg.norm(phi) <= 1e-8:   # not >: a NaN residual fails too
            raise InconsistentStateError(
                f"configuration violates constraints: |Phi| = "
                f"{np.linalg.norm(phi):.3e}; retract with project_to_constraints")


class _Eval:
    """One state (t, q, qdot) of a run and the parts a step reads of it.

    Nothing is computed on access.  The runner makes a state at its final
    time with its projectors and plant (_Runner._state, or _Runner._projected,
    which adds the drift |A qdot|) and, once its phase's mu is chosen,
    evaluates the rest once, in the order model, force, qdd
    (_Runner._evaluate).  Only a switch's pre-capture point is never
    evaluated."""

    __slots__ = ("t", "q", "qdot", "proj", "plant", "drift", "model", "force", "qdd")

    def __init__(self, t, q, qdot, proj, plant, drift=None):
        self.t, self.q, self.qdot, self.proj, self.plant, self.drift = (
            t, q, qdot, proj, plant, drift)


class _Runner:
    """One simulation run; owns the phase state: the system with the
    phase's active rows (MechanicalSystem.with_active), mu and the zero
    force of an unforced state."""

    def __init__(self, scenario: Scenario):
        self.sc = sc = scenario
        self.system = (sc.system if sc.initial_active is None
                       else sc.system.with_active(sc.initial_active))
        self.mu_value = self.unforced = None

    # --- model evaluation -------------------------------------------------

    def _start(self, ev):
        """Begin a phase at ev: select mu on it and build the phase's read-only
        zero force (f, u), then evaluate ev; returns ev."""
        self.mu_value = (optimal_mu(ev.plant, ev.proj)
                         if self.sc.mu == "auto" else float(self.sc.mu))
        self.unforced = np.zeros(self.system.n), np.zeros(ev.plant.k)
        for zero in self.unforced:
            zero.flags.writeable = False
        return self._evaluate(ev)

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
        qdot = _mm(config.P, qdot)
        proj = with_adot(config, system.constraint_rate(q, qdot))
        return _Eval(t, q, qdot, proj, system.plant(q, qdot), _norm(_mm(A, qdot)))

    def _evaluate(self, ev):
        """Evaluate ev's model at the current mu, then its force (f, u) (the
        controller law at (ev.t, ev.q, ev.qdot, model), else the phase's zero
        force), then qdd; returns ev."""
        ev.model = model = assemble(ev.plant, ev.proj, self.mu_value)
        if (law := self.sc.controller) is None:
            f, u = self.unforced
        else:
            f, u = law(ev.t, ev.q, ev.qdot, model)
            f, u = np.asarray(f, dtype=float), np.asarray(u, dtype=float)
            if (f.shape, u.shape) != ((n := self.system.n,), (k := ev.plant.k,)):
                raise ValueError(f"controller returned f of shape {f.shape} and u of shape "
                                 f"{u.shape} at t = {ev.t:g}; f has shape ({n},), u ({k},)")
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
        if not (_finite(q_new) and _finite(v_new)):
            raise DivergenceError("state became non-finite",
                                  last_state=GeneralizedState(t, q, qdot))
        return q_new, v_new

    def _apply_event(self, ev, t_e, new_active):
        """Capture at ev (which needs only its projectors and plant), logged at
        the switch time t_e: the system with the new active rows and the
        projected state, evaluated after mu is re-selected on it."""
        rank_before = ev.proj.rank
        ke_before = kinetic_energy(ev.plant.M, ev.qdot)
        self.system = self.sc.system.with_active(new_active)
        ev = self._projected(ev.t, ev.q, ev.qdot)   # inelastic capture
        ke_after = kinetic_energy(ev.plant.M, ev.qdot)
        self._start(ev)                         # mu re-selected only at events
        return ev, {
            "time": float(t_e),
            "rank_before": rank_before,
            "rank_after": ev.proj.rank,
            "energy_drop": ke_before - ke_after,
            "active": tuple(new_active),
        }

    def advance(self, ev, t, inside=(), at_end=()):
        """Advance one grid step from the evaluated state ev to the grid time t:
        split at each (time, rows) switch inside it, take the rest of the
        step, apply the switches at its end (_grid_step).  Returns the end
        state at t, projected once and evaluated, and the switches' logs.
        The step spans (ev.t + dt) - ev.t, not t - ev.t: the two can differ
        in the last bit, and the end state is stamped t either way."""
        logs = []
        t_end = ev.t + self.sc.dt
        for t_e, new_active in inside:   # t_e > ev.t: run drops exact repeats
            ev = self._state(t_e, *self._rk4(ev, t_e - ev.t))
            ev, log = self._apply_event(ev, t_e, new_active)
            logs.append(log)
        q, qdot = self._rk4(ev, t_end - ev.t)
        end = self._state(t, q, qdot) if at_end else self._projected(t, q, qdot)
        for t_e, new_active in at_end:
            end, log = self._apply_event(end, t_e, new_active)
            logs.append(log)
        if end.drift > self.sc.drift_tol * (1.0 + _norm(end.qdot)):
            raise DivergenceError(f"velocity drift {end.drift:.3e} exceeds tolerance",
                                  last_state=GeneralizedState(t_end, q, end.qdot))
        return (end if at_end else self._evaluate(end)), logs

    # --- recording --------------------------------------------------------

    def record(self, t, ev):
        """The inputs of the evaluated state ev's trace row: (t, q, qdot, qdd, f,
        u, S, Omega, Mbar, plant, rank, drift), with t = ev.t passed apart
        (perfbench's tracer reads it to tell a run's first row from a step's).
        _pack evaluates the rest of the row on the stack of them."""
        model, (f, u) = ev.model, ev.force
        return (t, ev.q, ev.qdot, ev.qdd, f, u, model.S, ev.proj.Omega, model.Mbar,
                ev.plant, ev.proj.rank, ev.drift)


def step(state: GeneralizedState, scenario: Scenario) -> GeneralizedState:
    """One fixed step from an arbitrary state (no event handling).  Both ends
    are evaluated at the mu the start state selects, as in a run."""
    runner = _Runner(scenario)
    ev = runner._start(runner._state(state.t, state.q, state.qdot))
    end, _ = runner.advance(ev, state.t + scenario.dt)
    return GeneralizedState(t=end.t, q=end.q, qdot=end.qdot)


def run(scenario: Scenario) -> SimulationTrace:
    """Integrate a scenario and return the full trace."""
    sc = scenario
    runner = _Runner(sc)
    q = sc.q0.copy()

    check_configuration(runner.system, q)
    ev = runner._start(runner._projected(0.0, q, sc.qdot0.copy()))

    switches = {}   # step -> (switches inside it, switches at its end)
    # an exact repeat is applied once: with no conflict, the times strictly increase
    for t_e, active in dict.fromkeys((t, tuple(rows)) for t, rows in sc.events):
        i, on_grid = _grid_step(t_e, sc.dt)
        switches.setdefault(i, ([], []))[on_grid].append((t_e, active))
    records, logs = [runner.record(0.0, ev)], []
    for i in range(1, int(_grid_step(sc.horizon, sc.dt)[0]) + 1):
        try:
            ev, step_logs = runner.advance(ev, i * sc.dt, *switches.get(i, ()))
        except DivergenceError as exc:
            raise DivergenceError(f"step {i}: {exc}",
                                  last_state=exc.last_state) from exc
        logs += step_logs
        records.append(runner.record(ev.t, ev))
    return _pack(records, logs, sc)


def _pack(records, logs, sc: Scenario) -> SimulationTrace:
    """The trace of a run's records (_Runner.record).  The columns the step
    does not read are evaluated here, once, on the stack of recorded states;
    a stack gives each member the bits it has alone."""
    t, q, qdot, qdd, f, u, S, Omega, Mbar, plants, rank, drift = zip(*records)
    trace = SimulationTrace(events=logs)
    # rank holds Python ints, so its array is int
    trace.t, trace.q, trace.qdot, trace.qdd, trace.f, trace.u, trace.rank, trace.drift = (
        np.array(rows) for rows in (t, q, qdot, qdd, f, u, rank, drift))
    S, Omega, Mbar = np.array(S), np.array(Omega), np.array(Mbar)
    plant = PlantMatrices.stack(plants)   # a constant plant: a stack of one
    q, qdot = trace.q[..., None], trace.qdot[..., None]
    trace.f_c = forces._constraint_force(S, plant, Omega, trace.f[..., None], qdot)[..., 0]
    trace.kinetic = kinetic_energy(plant.M, qdot)
    potential = sc.system.potential
    trace.potential = (np.array([float(potential(x)) for x in trace.q]) if potential
                       else np.zeros(len(trace.t)))
    trace.energy = trace.kinetic + trace.potential
    lyapunov = getattr(sc.controller, "lyapunov", None)
    trace.lyapunov = (lyapunov(trace.t, q, qdot, Mbar) if lyapunov is not None
                      else np.full(len(trace.t), np.nan))
    trace.cond_mbar = _condition(np.linalg.eigvalsh(Mbar))
    return trace
