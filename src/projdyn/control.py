"""Setpoint regulation of the dependent coordinates.

A run's controller is a law (t, q, qdot, model) -> (f, u), called at each
evaluated state with its ConstrainedModel; a method lyapunov(t, q, qdot, Mbar)
of the law fills the trace's lyapunov column from the stack of recorded rows.
SetpointRegulator is one:  f = -R(q) ( f_g(q) + Kp (e + sigma |e| eta) + Kd q' )
with e = q - q*, eta the unit vector along q' (tapered below the speed
EPS_V; the first nonzero column of P, normalized, at a stalled rest point),
and R = B Gamma the oblique projector of the state's ConstrainedModel.
The same inner vector premultiplied by Gamma gives the actuator forces
directly.  With sigma > 1 the closed loop can rest with e != 0 only where
P Kp e = 0, at a critical point of e^T Kp e on the constraint manifold, and
a local minimum of it there is a stable rest point.  So with Kp = k I, e = 0
is the only rest point only where |e|^2 has no other critical point on the
manifold.  The crank has one: slider_crank(1.2, 0.8) from rest at
(1, 0, 2, 0), with Kp = Kd = 10 I, toward (cos 60deg, sin 60deg, 0, 0) on the
other assembly mode, rests at theta = 84.0 deg, |e| = 0.465, the least |e|
along the curve it started on.  A general Kp can add such points on any
system: the pendulum hanging at (0, -1) toward (sin 1, -cos 1) with
Kp = [[1, -1.83], [-1.83, 10]] has one at theta = -0.448.
At rank(A) = n (P = 0: fully constrained) Gamma = 0 and the law applies no force.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .kernel import ProjectorBundle, _mm, _norm
from .model import ConstrainedModel, kinetic_energy

EPS_V = 0.3   # speed below which eta tapers linearly to zero


@dataclass(frozen=True)
class RegulationGains:
    """Gains of the regulation law; Kp, Kd square, finite, symmetric
    positive definite, sigma a real number (not a bool), finite and > 1."""

    Kp: np.ndarray
    Kd: np.ndarray
    sigma: float

    def __post_init__(self):
        Kp = np.atleast_2d(np.asarray(self.Kp, dtype=float))
        Kd = np.atleast_2d(np.asarray(self.Kd, dtype=float))
        for name, K in (("Kp", Kp), ("Kd", Kd)):
            if K.ndim != 2 or K.shape[0] != K.shape[1] or not K.size:
                raise ValueError(f"{name} must be a square matrix, got shape "
                                 f"{np.shape(getattr(self, name))}")
            if not np.isfinite(K).all():
                raise ValueError(f"{name} must be finite")
            if not np.allclose(K, K.T):
                raise ValueError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(K)[0] <= 0.0:
                raise ValueError(f"{name} must be positive definite")
        if not isinstance(self.sigma, Real) or isinstance(self.sigma, bool):
            raise ValueError(f"sigma must be a real number, got {self.sigma!r}")
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma!r}")
        if self.sigma <= 1.0:
            raise ValueError("sigma must exceed 1")
        object.__setattr__(self, "Kp", Kp)
        object.__setattr__(self, "Kd", Kd)


def fallback_direction(proj: ProjectorBundle) -> np.ndarray:
    """A unit vector in the admissible space, the first nonzero column of P
    normalized (below rank n one has norm >= 1/sqrt(n)); 0 where P = 0."""
    for j in range(proj.n):
        col = proj.P[:, j]
        nrm = np.linalg.norm(col)
        if nrm > 1e-12:
            return col / nrm
    return np.zeros(proj.n)


def velocity_direction(qdot, e, Kp, proj: ProjectorBundle) -> np.ndarray:
    """eta = q'/|q'| above the EPS_V threshold, tapered as q'/EPS_V below it.

    The raw unit vector is discontinuous at q' = 0 and, interpreted by any
    convergent integrator, acts as Coulomb friction of magnitude
    sigma |e| |Kp| that exceeds the restoring force (sigma > 1) and freezes
    the loop short of the target.  Tapering inside |q'| < EPS_V keeps the
    descent inequality (q'^T eta >= 0 still holds) while restoring smooth
    convergence.  The constant admissible direction of fallback_direction
    takes over only at the stalled rest points it exists to escape: at rest
    with a spring force Kp e != 0 but none in the motion space (P Kp e = 0),
    where the tapered law would sit forever.  Kp e is computed only at rest.
    At rank(A) = n there is no admissible direction to take and nothing to
    escape: P = 0, Gamma = 0, and eta = 0.
    """
    qdot = np.asarray(qdot, dtype=float)
    speed = _norm(qdot)
    if speed <= 1e-15:
        spring = _mm(Kp, np.asarray(e, dtype=float))
        force = _norm(spring)
        if force > 0.0 and _norm(_mm(proj.P, spring)) <= 1e-9 * (1.0 + force):
            return fallback_direction(proj)
        return np.zeros_like(qdot)
    return qdot / max(speed, EPS_V)


def control_force(q, qdot, q_star, gains: RegulationGains, model: ConstrainedModel):
    """Evaluate the regulation law at the state of model; returns (f, u).

    Raises AdmissibilityError when range(P B) cannot realize the commanded
    motion-space force at this configuration.
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    e = q - np.asarray(q_star, dtype=float)
    eta = velocity_direction(qdot, e, gains.Kp, model.proj)
    inner = model.plant.f_g + _mm(gains.Kp, e + gains.sigma * _norm(e) * eta) \
        + _mm(gains.Kd, qdot)
    u = -_mm(model.Gamma, inner)
    return _mm(model.plant.B, u), u


def lyapunov_value(q, qdot, q_star, gains: RegulationGains, Mbar) -> float | np.ndarray:
    """V = 0.5 q'^T Mbar q' + 0.5 e^T Kp e; zero only at the target at rest.

    For a stack of states q and qdot are columns (..., n, 1), Mbar is the
    stack of the states' Mbar, and V is one value per member."""
    qdot = np.asarray(qdot, dtype=float)
    q = np.asarray(q, dtype=float)
    e = q - np.asarray(q_star, dtype=float).reshape(q.shape[-2:])
    # 0.5 e^T Kp e is the quadratic form of kinetic_energy, under Kp
    return kinetic_energy(Mbar, qdot) + kinetic_energy(gains.Kp, e)


@dataclass(frozen=True)
class SetpointRegulator:
    """The regulation target q* and the gains that drive a run toward it."""

    q_star: np.ndarray
    gains: RegulationGains

    def __post_init__(self):
        object.__setattr__(self, "q_star", np.asarray(self.q_star, dtype=float))

    def __call__(self, t, q, qdot, model):
        """The law at the state of model: control_force's (f, u)."""
        return control_force(q, qdot, self.q_star, self.gains, model)

    def lyapunov(self, t, q, qdot, Mbar):
        """lyapunov_value of one state or a stack of them, with their Mbar."""
        return lyapunov_value(q, qdot, self.q_star, self.gains, Mbar)
