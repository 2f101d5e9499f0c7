"""Accelerations, constraint forces and the two oblique projectors.

Sign convention used throughout (it matters): the lumped nonlinear vector is

    h(q, q') = f_g(q) - C(q, q') q'

and the generalized acceleration is

    q'' = Mbar^{-1} P (f + h) + S^T Omega q'

with S = I - M Mbar^{-1} P the oblique projector whose range is the
constraint-reaction space.  The constraint force follows without Lagrange
multipliers as f_c = -S (f + h - M Omega q').
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, InvalidTargetError
from .kernel import ProjectorBundle, pseudo_inverse
from .model import ConstrainedModel, PlantMatrices


@dataclass(frozen=True)
class ObliqueProjectors:
    """R = B Gamma maps desired motion-space forces to realizable ones;
    S extracts the constraint-reaction component.  Both are idempotent but
    not symmetric in general."""

    R: np.ndarray
    Gamma: np.ndarray
    S: np.ndarray


@dataclass(frozen=True)
class ForceDecomposition:
    f_par: np.ndarray
    f_perp: np.ndarray
    f_c: np.ndarray
    u: np.ndarray


def _pinv_pb(B, proj: ProjectorBundle, rank_tol):
    """pinv(P B), B as a matrix, and the ranks of P B and P from the same SVD."""
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    Gamma, rank_pb = pseudo_inverse(proj.P @ B, rank_tol)
    return Gamma, B, {"rank_PB": rank_pb, "rank_P": proj.n - proj.rank}


def check_admissibility(B, proj: ProjectorBundle, rank_tol: float | None = None):
    """True iff range(P B) spans the whole admissible space null(A).

    Returns (ok, diagnostic) with both ranks reported.
    """
    _, _, diag = _pinv_pb(B, proj, rank_tol)
    return diag["rank_PB"] == diag["rank_P"], diag


def _gamma(B, proj: ProjectorBundle, rank_tol):
    """Gamma = pinv(P B); minimum-norm right inverse of u -> P B u.

    Computed by truncated SVD rather than (B^T P B)^{-1} B^T P so that
    redundant actuation (rank-deficient B^T P B with admissibility intact)
    still yields the minimum-norm map.  The same SVD decides admissibility.
    """
    Gamma, B, diag = _pinv_pb(B, proj, rank_tol)
    if diag["rank_PB"] != diag["rank_P"]:
        raise AdmissibilityError(
            "range(P B) does not span null(A): rank(P B) = "
            f"{diag['rank_PB']} < rank(P) = {diag['rank_P']}")
    return Gamma, B


def build_oblique(plant: PlantMatrices, proj: ProjectorBundle,
                  model: ConstrainedModel, rank_tol: float | None = None) -> ObliqueProjectors:
    """Build R, Gamma and S at one state.

    R needs the admissibility condition; S exists unconditionally because
    Mbar is always invertible.
    """
    Gamma, B = _gamma(plant.B, proj, rank_tol)
    return ObliqueProjectors(R=B @ Gamma, Gamma=Gamma, S=model.S)


def nonlinear_vector(plant: PlantMatrices, qdot) -> np.ndarray:
    """h(q, q') = f_g - C q'."""
    qdot = np.asarray(qdot, dtype=float)
    return plant.f_g - plant.C @ qdot


def acceleration(plant: PlantMatrices, proj: ProjectorBundle,
                 model: ConstrainedModel, f, qdot) -> np.ndarray:
    """q'' = Mbar^{-1} P (f + h) + S^T Omega q'."""
    qdot = np.asarray(qdot, dtype=float)
    return (model.X @ (np.asarray(f, dtype=float) + nonlinear_vector(plant, qdot))
            + model.S.T @ (proj.Omega @ qdot))


def acceleration_nonminimal(plant: PlantMatrices, proj: ProjectorBundle,
                            model: ConstrainedModel, f, qdot) -> np.ndarray:
    """Cross-check route: solve Mbar q'' = P (f + f_g) - Cbar q' directly."""
    f = np.asarray(f, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    rhs = proj.P @ (f + plant.f_g) - model.Cbar @ qdot
    return np.linalg.solve(model.Mbar, rhs)


def constraint_force(plant: PlantMatrices, proj: ProjectorBundle,
                     model: ConstrainedModel, f, qdot) -> np.ndarray:
    """f_c = -S (f + h - M Omega q'); always lies in the reaction space."""
    qdot = np.asarray(qdot, dtype=float)
    return -model.S @ (np.asarray(f, dtype=float) + nonlinear_vector(plant, qdot)
                       - plant.M @ (proj.Omega @ qdot))


def resolve_actuation(f_par_desired, B, proj: ProjectorBundle,
                      rank_tol: float | None = None):
    """Minimum-norm actuator forces realizing a motion-space force.

    u = Gamma f_par is the smallest u with P B u = f_par; the realized
    generalized force is f = R f_par = B u.
    """
    f_par = np.asarray(f_par_desired, dtype=float)
    Gamma, B = _gamma(B, proj, rank_tol)
    u = Gamma @ f_par
    return u, B @ u


def force_split_for_control(f_par, f_c_desired, plant: PlantMatrices,
                            proj: ProjectorBundle, model: ConstrainedModel,
                            qdot, target_tol: float = 1e-8) -> np.ndarray:
    """Normal-space input force f_perp that makes the reaction equal f_c_desired.

    Uses the algebraic split f_perp + f_c = -S (f_par + h) + S M Omega q'.
    The target must lie in the reaction space (P f_c_desired = 0).
    """
    f_par = np.asarray(f_par, dtype=float)
    fc_d = np.asarray(f_c_desired, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    leak = np.linalg.norm(proj.P @ fc_d)
    if leak > target_tol * (1.0 + np.linalg.norm(fc_d)):
        raise InvalidTargetError(
            f"desired constraint force has a motion-space component |P f_c| = {leak:.3e}")
    return constraint_force(plant, proj, model, f_par, qdot) - fc_d


def decompose(plant: PlantMatrices, proj: ProjectorBundle, model: ConstrainedModel,
              f, qdot, rank_tol: float | None = None) -> ForceDecomposition:
    """Split an applied force into motion/normal parts, reaction and actuation."""
    f = np.asarray(f, dtype=float)
    f_par = proj.P @ f
    u, _ = resolve_actuation(f_par, plant.B, proj, rank_tol)
    return ForceDecomposition(
        f_par=f_par,
        f_perp=proj.Q @ f,
        f_c=constraint_force(plant, proj, model, f, qdot),
        u=u,
    )


def kkt_oracle(plant: PlantMatrices, jac, f, qdot):
    """Independent ground truth: least-squares solve of the augmented system

        [ M  A^T ] [q'']   [ f + f_g - C q' ]
        [ A   0  ] [-lam] = [    -Adot q'    ]

    Returns (q'', lam).  At rank-deficient A the minimum-norm solution keeps
    q'' unique while lam is the minimum-norm multiplier.
    """
    f = np.asarray(f, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    A, Adot = jac.A, jac.Adot
    n, m = A.shape[1], A.shape[0]
    K = np.zeros((n + m, n + m))
    K[:n, :n] = plant.M
    K[:n, n:] = A.T
    K[n:, :n] = A
    rhs = np.concatenate([f + plant.f_g - plant.C @ qdot, -Adot @ qdot])
    sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol[:n], sol[n:]
