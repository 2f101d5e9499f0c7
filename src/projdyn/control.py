"""Setpoint regulation of the dependent coordinates.

Control law:  f = -R(q) ( f_g(q) + Kp (e + sigma |e| eta) + Kd q' )
with e = q - q*, eta the unit vector along q' (tapered below the speed
EPS_V; the first nonzero column of P, normalized, at a stalled rest point),
and R = B Gamma the oblique projector of the state's ConstrainedModel.
The same inner vector premultiplied by Gamma gives the actuator forces
directly.  With sigma > 1 the only rest point of the closed loop is e = 0.
At rank(A) = n (P = 0: fully constrained) Gamma = 0 and the law applies no force.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernel import ProjectorBundle, _norm
from .model import ConstrainedModel, kinetic_energy

EPS_V = 0.3   # speed below which eta tapers linearly to zero


@dataclass(frozen=True)
class RegulationGains:
    """Gains of the regulation law; Kp, Kd finite, symmetric positive
    definite, sigma finite and > 1."""

    Kp: np.ndarray
    Kd: np.ndarray
    sigma: float

    def __post_init__(self):
        Kp = np.atleast_2d(np.asarray(self.Kp, dtype=float))
        Kd = np.atleast_2d(np.asarray(self.Kd, dtype=float))
        for name, K in (("Kp", Kp), ("Kd", Kd)):
            if not np.isfinite(K).all():
                raise ValueError(f"{name} must be finite")
            if not np.allclose(K, K.T):
                raise ValueError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(K)[0] <= 0.0:
                raise ValueError(f"{name} must be positive definite")
        if not np.isfinite(self.sigma):
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


def velocity_direction(qdot, e, proj: ProjectorBundle) -> np.ndarray:
    """eta = q'/|q'| above the EPS_V threshold, tapered as q'/EPS_V below it.

    The raw unit vector is discontinuous at q' = 0 and, interpreted by any
    convergent integrator, acts as Coulomb friction of magnitude
    sigma |e| |Kp| that exceeds the restoring force (sigma > 1) and freezes
    the loop short of the target.  Tapering inside |q'| < EPS_V keeps the
    descent inequality (q'^T eta >= 0 still holds) while restoring smooth
    convergence.  The constant admissible direction of fallback_direction
    takes over only at the stalled rest points it exists to escape: at rest
    with e != 0 but no motion-space spring force (P e = 0), where the
    tapered law would sit forever.  At rank(A) = n there is no admissible
    direction to take and nothing to escape: P = 0, Gamma = 0, and eta = 0.
    """
    qdot = np.asarray(qdot, dtype=float)
    e = np.asarray(e, dtype=float)
    speed = _norm(qdot)
    if speed <= 1e-15:
        err = _norm(e)
        if err > 0.0 and _norm(proj.P @ e) <= 1e-9 * (1.0 + err):
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
    eta = velocity_direction(qdot, e, model.proj)
    inner = model.plant.f_g + gains.Kp @ (e + gains.sigma * _norm(e) * eta) \
        + gains.Kd @ qdot
    u = -(model.Gamma @ inner)
    return model.plant.B @ u, u


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
