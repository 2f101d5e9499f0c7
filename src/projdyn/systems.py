"""Benchmark mechanical systems in Cartesian (dependent) coordinates.

Every system supplies its plant M, C, f_g and B at a state as one
PlantMatrices (plant_at), analytic A and Adot (constraint_rate is a required
field) and, where meaningful, the position-level residual Phi
and potential energy.  Every link has unit length and gravity is GRAVITY;
the point masses of the pendulum, the double pendulum and the slider-crank
are the only keywords.  The catalog is chosen to exercise the hard cases: a
kinematic singularity (slider-crank at the folded configuration), redundant
constraint rows, and a run-time topology switch (particle capture).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernel import ConstraintJacobian, _float_array
from .model import PlantMatrices

GRAVITY = 9.81


def _constant_plant(M, C, f_g, B) -> Callable:
    """The plant_at of a system whose M, C, f_g and B do not depend on the
    state: one PlantMatrices of read-only arrays, built once and returned at
    every state."""
    arrays = [np.array(x, dtype=float) for x in (M, C, f_g, B)]
    for x in arrays:
        x.flags.writeable = False
    plant = PlantMatrices(*arrays)
    return lambda q, qdot: plant


@dataclass(frozen=True)
class MechanicalSystem:
    name: str
    n: int
    m: int
    plant_at: Callable       # (q, qdot) -> PlantMatrices
    constraint: Callable
    constraint_rate: Callable
    residual: Callable | None = None
    potential: Callable | None = None
    sample_state: Callable | None = None
    default_state: tuple | None = None
    default_initial_active: tuple | None = None   # None = all rows active
    default_events: tuple = ()

    def jacobian(self, q, qdot, active=None) -> ConstraintJacobian:
        """A and Adot at a state, with inactive rows zeroed (fixed dimension).
        The system's own matrices go to ConstraintJacobian, which converts
        and checks each once."""
        q = np.asarray(q, dtype=float)
        A = self.constraint(q)
        Adot = self.constraint_rate(q, np.asarray(qdot, dtype=float))
        if active is not None and len(set(active)) < self.m:   # a proper subset
            A, Adot = self._active_rows(A, active), self._active_rows(Adot, active)
        return ConstraintJacobian(A=A, Adot=Adot)

    def constraint_matrix(self, q, active=None) -> np.ndarray:
        """A(q), m x n, with inactive rows zeroed."""
        q = np.asarray(q, dtype=float)
        return self._active_rows(_float_array(self.constraint(q)), active)

    def constraint_rate_matrix(self, q, qdot, active=None) -> np.ndarray:
        """Adot(q, qdot), m x n, with inactive rows zeroed."""
        q = np.asarray(q, dtype=float)
        qdot = np.asarray(qdot, dtype=float)
        return self._active_rows(_float_array(self.constraint_rate(q, qdot)), active)

    def _active_rows(self, X, active):
        """X with the rows outside active zeroed; X itself when every row is
        active."""
        if active is None or len(set(active)) == self.m:
            return X
        mask = np.zeros(self.m, dtype=bool)
        mask[list(active)] = True
        return np.where(mask[:, None], X, 0.0)

    def plant(self, q, qdot) -> PlantMatrices:
        """M, C, f_g and B at a state."""
        return self.plant_at(q, qdot)


def pendulum(mass_val=1.0) -> MechanicalSystem:
    """Point mass on a unit rigid massless rod, coordinates q = (x, y)."""

    def sample(rng):
        th = rng.uniform(-np.pi, np.pi)
        w = rng.uniform(-2.0, 2.0)
        q = np.array([np.sin(th), -np.cos(th)])
        qd = w * np.array([np.cos(th), np.sin(th)])
        return q, qd

    return MechanicalSystem(
        name="pendulum", n=2, m=1,
        plant_at=_constant_plant(mass_val * np.eye(2), np.zeros((2, 2)),
                                 [0.0, -mass_val * GRAVITY], np.eye(2)),
        constraint=lambda q: 2.0 * q[None, :],
        constraint_rate=lambda q, qd: 2.0 * qd[None, :],
        residual=lambda q: np.array([q @ q - 1.0]),
        potential=lambda q: mass_val * GRAVITY * q[1],
        sample_state=sample,
        default_state=(np.array([1.0, 0.0]), np.zeros(2)),
    )


def redundant_pendulum() -> MechanicalSystem:
    """Pendulum with its constraint row duplicated: rank(A) = 1 < m = 2."""
    base = pendulum()

    return MechanicalSystem(
        name="redundant-pendulum", n=2, m=2,
        plant_at=base.plant_at,
        constraint=lambda q: np.array([2.0 * q, 2.0 * q]),
        constraint_rate=lambda q, qd: np.array([2.0 * qd, 2.0 * qd]),
        residual=lambda q: np.array([q @ q - 1.0, q @ q - 1.0]),
        potential=base.potential,
        sample_state=base.sample_state,
        default_state=base.default_state,
    )


def _links(v) -> list:
    """The rows of two unit links, ground to point 1 and point 1 to point 2,
    for v = (x1, y1, x2, y2).  They are linear and homogeneous in v: at q
    they are rows of A, at qdot the same rows of Adot."""
    x1, y1, x2, y2 = v
    return [[2 * x1, 2 * y1, 0.0, 0.0],
            [-2 * (x2 - x1), -2 * (y2 - y1), 2 * (x2 - x1), 2 * (y2 - y1)]]


def _link_residuals(q) -> list:
    """Phi of the two unit links at q = (x1, y1, x2, y2)."""
    x1, y1, x2, y2 = q
    return [x1 ** 2 + y1 ** 2 - 1.0, (x2 - x1) ** 2 + (y2 - y1) ** 2 - 1.0]


def _two_links(m1, m2) -> dict:
    """The constant plant and the potential of point masses m1 and m2 at
    q = (x1, y1, x2, y2) under gravity."""
    return dict(plant_at=_constant_plant(np.diag([m1, m1, m2, m2]), np.zeros((4, 4)),
                                         [0.0, -m1 * GRAVITY, 0.0, -m2 * GRAVITY],
                                         np.eye(4)),
                potential=lambda q: GRAVITY * (m1 * q[1] + m2 * q[3]))


def double_pendulum(m1=1.0, m2=1.0) -> MechanicalSystem:
    """Two point masses chained by unit rigid rods, q = (x1, y1, x2, y2)."""

    def sample(rng):
        t1, t2 = rng.uniform(-np.pi, np.pi, size=2)
        w1, w2 = rng.uniform(-1.5, 1.5, size=2)
        p1 = np.array([np.sin(t1), -np.cos(t1)])
        p2 = p1 + np.array([np.sin(t2), -np.cos(t2)])
        v1 = w1 * np.array([np.cos(t1), np.sin(t1)])
        v2 = v1 + w2 * np.array([np.cos(t2), np.sin(t2)])
        return np.concatenate([p1, p2]), np.concatenate([v1, v2])

    return MechanicalSystem(
        name="double-pendulum", n=4, m=2, **_two_links(m1, m2),
        constraint=lambda q: np.array(_links(q)),
        constraint_rate=lambda q, qd: np.array(_links(qd)),
        residual=lambda q: np.array(_link_residuals(q)),
        sample_state=sample,
        default_state=(np.array([1.0, 0.0, 1.0, -1.0]), np.zeros(4)),
    )


def slider_crank(m1=1.0, m2=1.0) -> MechanicalSystem:
    """Planar slider-crank with q = (x1, y1, x2, y2): crank pin and slider,
    on a unit crank and a unit rod, the slider held to y2 = 0.

    The folded configuration q = (0, 1, 0, 0) drops the constraint rank
    from 3 to 2 (kinematic singularity).
    """

    def sample(rng):
        # crank angles where the slider position is real-valued
        while True:
            th = rng.uniform(-np.pi, np.pi)
            y1 = np.sin(th)
            if abs(y1) < 0.95:
                break
        x1 = np.cos(th)
        x2 = x1 + np.sqrt(1.0 - y1 ** 2)
        q = np.array([x1, y1, x2, 0.0])
        # admissible velocity from the crank rate
        w = rng.uniform(-1.5, 1.5)
        v1 = w * np.array([-np.sin(th), np.cos(th)])
        dx2 = v1[0] - y1 * v1[1] / np.sqrt(1.0 - y1 ** 2)
        qd = np.array([v1[0], v1[1], dx2, 0.0])
        return q, qd

    return MechanicalSystem(
        name="slider-crank", n=4, m=3, **_two_links(m1, m2),
        constraint=lambda q: np.array(_links(q) + [[0.0, 0.0, 0.0, 1.0]]),
        constraint_rate=lambda q, qd: np.array(_links(qd) + [[0.0, 0.0, 0.0, 0.0]]),
        residual=lambda q: np.array(_link_residuals(q) + [q[3]]),
        sample_state=sample,
        default_state=(np.array([1.0, 0.0, 2.0, 0.0]), np.zeros(4)),
    )


def switching_particle() -> MechanicalSystem:
    """Free unit-mass planar particle that acquires the constraint y = const
    at t = 1 s.

    The constraint row is defined for all time; the event schedule merely
    activates it, so every matrix keeps its dimension through the switch.
    """

    def sample(rng):
        return rng.uniform(-1, 1, size=2), rng.uniform(-1, 1, size=2)

    return MechanicalSystem(
        name="switching-particle", n=2, m=1,
        plant_at=_constant_plant(np.eye(2), np.zeros((2, 2)), np.zeros(2), np.eye(2)),
        constraint=lambda q: np.array([[0.0, 1.0]]),
        constraint_rate=lambda q, qd: np.zeros((1, 2)),
        residual=None,
        potential=lambda q: 0.0,
        sample_state=sample,
        default_state=(np.zeros(2), np.array([1.0, 0.5])),
        default_initial_active=(),
        default_events=((1.0, (0,)),),
    )


def catalog() -> list[MechanicalSystem]:
    return [pendulum(), double_pendulum(), slider_crank(),
            switching_particle(), redundant_pendulum()]


def get_system(name: str) -> MechanicalSystem:
    for sys_ in catalog():
        if sys_.name == name:
            return sys_
    raise KeyError(f"unknown system {name!r}; known: "
                   + ", ".join(s.name for s in catalog()))


def self_test(system: MechanicalSystem, samples=100, rng=None) -> dict:
    """Verify the structural invariants of a system at random reachable states.

    Checks M symmetry and positive definiteness, skew-symmetry of
    (dM/dt - 2C), and the analytic Adot against a finite difference of A
    along the velocity.  Report-only; returns the worst violations.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if system.sample_state is None:
        raise ValueError(f"system {system.name!r} has no state sampler")
    worst = {"M_asym": 0.0, "M_min_eig": np.inf, "skew": 0.0, "Adot_fd": 0.0}
    fd_step = 1e-5
    for _ in range(samples):
        q, qd = system.sample_state(rng)
        plant = system.plant(q, qd)
        M, C = plant.M, plant.C
        worst["M_asym"] = max(worst["M_asym"], float(np.linalg.norm(M - M.T)))
        worst["M_min_eig"] = min(worst["M_min_eig"],
                                 float(np.linalg.eigvalsh(0.5 * (M + M.T))[0]))
        Mdot = (system.plant(q + fd_step * qd, qd).M
                - system.plant(q - fd_step * qd, qd).M) / (2 * fd_step)
        X = Mdot - 2.0 * C
        worst["skew"] = max(worst["skew"], float(np.linalg.norm(X + X.T)))
        jac = system.jacobian(q, qd)
        Afd = (np.atleast_2d(system.constraint(q + fd_step * qd))
               - np.atleast_2d(system.constraint(q - fd_step * qd))) / (2 * fd_step)
        worst["Adot_fd"] = max(worst["Adot_fd"], float(np.linalg.norm(jac.Adot - Afd)))
    worst["passed"] = (worst["M_asym"] <= 1e-12 and worst["M_min_eig"] > 0.0
                       and worst["skew"] <= 1e-6 and worst["Adot_fd"] <= 1e-6)
    return worst
