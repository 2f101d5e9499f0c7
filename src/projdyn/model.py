"""Non-minimal constrained inertia model and virtual-mass conditioning.

The constrained equations of motion are written with fixed dimension n as

    Mbar(q) q'' + Cbar(q, q') q' = P (f + f_g)

where Mbar = P M P + mu Q is symmetric positive definite for any mu > 0,
even when the constraint matrix loses rank.  The scalar mu ("virtual mass")
never changes the motion; it only moves the mu-eigenvalues of Mbar, so it can
be picked to minimize the condition number.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import ProjectorBundle, default_rank_tol


@dataclass(frozen=True)
class PlantMatrices:
    """Unconstrained plant at one state: M(q), C(q,q'), f_g(q), B(q)."""

    M: np.ndarray
    C: np.ndarray
    f_g: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "M", np.asarray(self.M, dtype=float))
        object.__setattr__(self, "C", np.asarray(self.C, dtype=float))
        object.__setattr__(self, "f_g", np.asarray(self.f_g, dtype=float))
        B = np.asarray(self.B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.M.shape[0]

    @property
    def k(self) -> int:
        return self.B.shape[1]


@dataclass(frozen=True)
class ConstrainedModel:
    """Mbar and spectrum metadata at one state; Cbar is built on first access."""

    Mbar: np.ndarray
    mu: float
    plant: PlantMatrices
    proj: ProjectorBundle
    spectrum: np.ndarray | None = None
    cond: float | None = None

    @cached_property
    def Cbar(self) -> np.ndarray:
        """Cbar = P C P + P M Pdot - mu Lambda P."""
        P, Lam, plant = self.proj.P, self.proj.Lambda, self.plant
        return P @ plant.C @ P + P @ plant.M @ self.proj.Pdot - self.mu * (Lam @ P)


def assemble(plant: PlantMatrices, proj: ProjectorBundle, mu: float,
             with_spectrum: bool = True) -> ConstrainedModel:
    """Assemble Mbar = P M P + mu Q and, with_spectrum, its eigenvalues."""
    mu = float(mu)
    if mu <= 0.0:
        raise ValueError("virtual mass mu must be positive")
    Mbar = proj.P @ plant.M @ proj.P + mu * proj.Q
    Mbar = 0.5 * (Mbar + Mbar.T)
    spectrum = cond = None
    if with_spectrum:
        spectrum = np.linalg.eigvalsh(Mbar)
        cond = float(spectrum[-1] / spectrum[0])
    return ConstrainedModel(Mbar, mu, plant, proj, spectrum, cond)


def _pmp_eigenvalues(plant: PlantMatrices, proj: ProjectorBundle):
    PMP = proj.P @ plant.M @ proj.P
    return np.linalg.eigvalsh(0.5 * (PMP + PMP.T))


def nonzero_pmp_eigenvalues(plant: PlantMatrices, proj: ProjectorBundle,
                            rank_tol: float | None = None) -> np.ndarray:
    """Nonzero eigenvalues of P M P, thresholded consistently with the rank."""
    if rank_tol is None:
        rank_tol = default_rank_tol()
    lam = _pmp_eigenvalues(plant, proj)
    if lam.size == 0 or lam[-1] <= 0.0:
        return np.empty(0)
    return lam[lam > rank_tol * lam[-1]]


def spectrum_of_mbar(plant: PlantMatrices, proj: ProjectorBundle, mu: float):
    """Eigenvalues of Mbar (ascending) and its condition number.

    The multiset is {mu repeated r} plus the nonzero eigenvalues of P M P,
    with r the rank of the constraint matrix.
    """
    model = assemble(plant, proj, mu, with_spectrum=True)
    return model.spectrum, model.cond


def optimal_mu(plant: PlantMatrices, proj: ProjectorBundle,
               policy="geometric-mean", rank_tol: float | None = None) -> float:
    """Pick mu inside the condition-optimal interval [lam_min!=0, lam_max] of P M P.

    policy: "geometric-mean" (default), "midpoint", or a positive number used
    verbatim.  Any mu in the interval attains cond(Mbar) = lam_max / lam_min!=0.
    When P = 0 there is no admissible direction, Mbar = mu Q with Q = I, and
    the choice is arbitrary; the mean eigenvalue of M is returned with a
    warning.
    """
    if isinstance(policy, (int, float)) and not isinstance(policy, bool):
        mu = float(policy)
        if mu <= 0.0:
            raise ValueError("fixed mu must be positive")
        return mu
    lam = nonzero_pmp_eigenvalues(plant, proj, rank_tol)
    if lam.size == 0:
        warnings.warn("P = 0: fully constrained state, mu is arbitrary; "
                      "using the mean eigenvalue of M")
        return float(np.mean(np.linalg.eigvalsh(plant.M)))
    lo, hi = float(lam[0]), float(lam[-1])
    if policy == "geometric-mean":
        return float(np.sqrt(lo * hi))
    if policy == "midpoint":
        return 0.5 * (lo + hi)
    raise ValueError(f"unknown mu policy {policy!r}")


def kinetic_energy(plant: PlantMatrices, proj: ProjectorBundle, mu: float,
                   qdot, admissibility_tol: float = 1e-8) -> float:
    """Kinetic energy 0.5 q'^T Mbar q'.

    For admissible velocities (Q q' = 0) this equals 0.5 q'^T M q' for every
    mu.  An inadmissible q' is flagged with a warning, not rejected: the two
    quadratic forms then differ by the mu-weighted normal component.
    """
    qdot = np.asarray(qdot, dtype=float)
    model = assemble(plant, proj, mu, with_spectrum=False)
    perp = np.linalg.norm(proj.Q @ qdot)
    if perp > admissibility_tol * (1.0 + np.linalg.norm(qdot)):
        warnings.warn(f"velocity has a normal component |Q qdot| = {perp:.3e}; "
                      "kinetic energy is mu-dependent here")
    return 0.5 * float(qdot @ model.Mbar @ qdot)
