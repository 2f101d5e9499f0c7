"""Setpoint regulation of the dependent coordinates.

Control law:  f = -R(q) ( f_g(q) + Kp (e + sigma |e| eta) + Kd q' )
with e = q - q*, eta the unit vector along q' (a fixed admissible unit
vector xi when the velocity vanishes), and R = B Gamma the oblique projector
of the state's ConstrainedModel.  The same inner vector premultiplied by
Gamma gives the actuator forces directly.  With sigma > 1 the only rest
point of the closed loop is e = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError
from .kernel import ProjectorBundle
from .model import ConstrainedModel


@dataclass(frozen=True)
class RegulationGains:
    """Gains of the regulation law; Kp, Kd symmetric positive definite,
    sigma > 1.  xi is the zero-velocity fallback direction (unit vector in
    the admissible space); None lets the caller derive it from P."""

    Kp: np.ndarray
    Kd: np.ndarray
    sigma: float
    xi: np.ndarray | None = None
    eps_v: float = 0.3

    def __post_init__(self):
        Kp = np.atleast_2d(np.asarray(self.Kp, dtype=float))
        Kd = np.atleast_2d(np.asarray(self.Kd, dtype=float))
        for name, K in (("Kp", Kp), ("Kd", Kd)):
            if not np.allclose(K, K.T):
                raise ValueError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(K)[0] <= 0.0:
                raise ValueError(f"{name} must be positive definite")
        if self.sigma <= 1.0:
            raise ValueError("sigma must exceed 1")
        object.__setattr__(self, "Kp", Kp)
        object.__setattr__(self, "Kd", Kd)
        if self.xi is not None:
            xi = np.asarray(self.xi, dtype=float)
            nrm = np.linalg.norm(xi)
            if nrm == 0.0:
                raise ValueError("xi must be a nonzero direction")
            object.__setattr__(self, "xi", xi / nrm)


def fallback_direction(proj: ProjectorBundle, xi=None) -> np.ndarray:
    """A unit vector in the admissible space: xi re-projected through the
    current P, or the first nonzero column of P when xi is absent/annihilated."""
    if xi is not None:
        v = proj.P @ np.asarray(xi, dtype=float)
        nrm = np.linalg.norm(v)
        if nrm > 1e-12:
            return v / nrm
    for j in range(proj.n):
        col = proj.P[:, j]
        nrm = np.linalg.norm(col)
        if nrm > 1e-12:
            return col / nrm
    raise AdmissibilityError("P = 0: no admissible direction exists")


def velocity_direction(qdot, e, proj: ProjectorBundle, gains: RegulationGains) -> np.ndarray:
    """eta = q'/|q'| above the eps_v threshold, tapered as q'/eps_v below it.

    The raw unit vector is discontinuous at q' = 0 and, interpreted by any
    convergent integrator, acts as Coulomb friction of magnitude
    sigma |e| |Kp| that exceeds the restoring force (sigma > 1) and freezes
    the loop short of the target.  Tapering inside |q'| < eps_v keeps the
    descent inequality (q'^T eta >= 0 still holds) while restoring smooth
    convergence.  The constant admissible direction xi takes over only at
    the stalled rest points it exists to escape: at rest with e != 0 but no
    motion-space spring force (P e = 0), where the tapered law would sit
    forever.
    """
    qdot = np.asarray(qdot, dtype=float)
    e = np.asarray(e, dtype=float)
    speed = np.linalg.norm(qdot)
    if speed <= 1e-15:
        err = np.linalg.norm(e)
        if err > 0.0 and np.linalg.norm(proj.P @ e) <= 1e-9 * (1.0 + err):
            return fallback_direction(proj, gains.xi)
        return np.zeros_like(qdot)
    return qdot / max(speed, gains.eps_v)


def control_force(q, qdot, q_star, gains: RegulationGains, model: ConstrainedModel):
    """Evaluate the regulation law at the state of model; returns (f, u).

    Raises AdmissibilityError when range(P B) cannot realize the commanded
    motion-space force at this configuration.
    """
    q = np.asarray(q, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    e = q - np.asarray(q_star, dtype=float)
    eta = velocity_direction(qdot, e, model.proj, gains)
    inner = model.plant.f_g + gains.Kp @ (e + gains.sigma * np.linalg.norm(e) * eta) \
        + gains.Kd @ qdot
    u = -(model.Gamma @ inner)
    return model.plant.B @ u, u


def lyapunov_value(q, qdot, q_star, gains: RegulationGains,
                   model: ConstrainedModel) -> float:
    """V = 0.5 q'^T Mbar q' + 0.5 e^T Kp e; zero only at the target at rest."""
    qdot = np.asarray(qdot, dtype=float)
    e = np.asarray(q, dtype=float) - np.asarray(q_star, dtype=float)
    return 0.5 * float(qdot @ model.Mbar @ qdot) + 0.5 * float(e @ gains.Kp @ e)


@dataclass(frozen=True)
class SetpointRegulator:
    """The regulation target q* and the gains that drive a run toward it."""

    q_star: np.ndarray
    gains: RegulationGains

    def __post_init__(self):
        object.__setattr__(self, "q_star", np.asarray(self.q_star, dtype=float))
