"""Accelerations and constraint forces at one state (or, for the acceleration
and constraint-force routes and the KKT oracle, at each of a stack).

Sign convention used throughout (it matters): the lumped nonlinear vector is

    h(q, q') = f_g(q) - C(q, q') q'

and the generalized acceleration is

    q'' = Mbar^{-1} P (f + h) + S^T Omega q'

with S = I - M Mbar^{-1} P the oblique projector whose range is the
constraint-reaction space.  The constraint force follows without Lagrange
multipliers as f_c = -S (f + h - M Omega q').  S, and the actuation maps
Gamma = pinv(P B) and R = B Gamma, live on the ConstrainedModel of the state.
For a stack of states, forces and velocities are columns, shape (..., n, 1).
kkt_oracle is the independent reference: it solves the multiplier form that
the model removes, by an SVD with its own cutoff, and reads no projector.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidTargetError
from .kernel import _mm
from .model import ConstrainedModel, PlantMatrices


def nonlinear_vector(plant: PlantMatrices, qdot) -> np.ndarray:
    """h(q, q') = f_g - C q'."""
    qdot = np.asarray(qdot, dtype=float)
    return plant.f_g - _mm(plant.C, qdot)


def acceleration(model: ConstrainedModel, f, qdot) -> np.ndarray:
    """q'' = Mbar^{-1} P (f + h) + S^T Omega q'."""
    qdot = np.asarray(qdot, dtype=float)
    return (_mm(model.X, np.asarray(f, dtype=float) + nonlinear_vector(model.plant, qdot))
            + _mm(model.S.swapaxes(-1, -2), _mm(model.proj.Omega, qdot)))


def acceleration_nonminimal(model: ConstrainedModel, f, qdot) -> np.ndarray:
    """Cross-check route: solve Mbar q'' = P (f + f_g) - Cbar q' directly."""
    f = np.asarray(f, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    rhs = _mm(model.proj.P, f + model.plant.f_g) - _mm(model.Cbar, qdot)
    return np.linalg.solve(model.Mbar, rhs)


def constraint_force(model: ConstrainedModel, f, qdot) -> np.ndarray:
    """f_c = -S (f + h - M Omega q'); always lies in the reaction space."""
    return _constraint_force(model.S, model.plant, model.proj.Omega, f, qdot)


def _constraint_force(S, plant: PlantMatrices, Omega, f, qdot) -> np.ndarray:
    """constraint_force from the parts of the model it reads: S, the plant
    and Omega (or stacks of them, which may broadcast a constant plant)."""
    qdot = np.asarray(qdot, dtype=float)
    return _mm(-S, np.asarray(f, dtype=float) + nonlinear_vector(plant, qdot)
               - _mm(plant.M, _mm(Omega, qdot)))


def force_split_for_control(f_par, f_c_desired, model: ConstrainedModel,
                            qdot) -> np.ndarray:
    """Normal-space input force f_perp that makes the reaction equal f_c_desired.

    Uses the algebraic split f_perp + f_c = -S (f_par + h) + S M Omega q'.
    The target must lie in the reaction space: |P f_c_desired| at most
    1e-8 (1 + |f_c_desired|).
    """
    f_par = np.asarray(f_par, dtype=float)
    fc_d = np.asarray(f_c_desired, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    leak = np.linalg.norm(_mm(model.proj.P, fc_d))
    if leak > 1e-8 * (1.0 + np.linalg.norm(fc_d)):
        raise InvalidTargetError(
            f"desired constraint force has a motion-space component |P f_c| = {leak:.3e}")
    return constraint_force(model, f_par, qdot) - fc_d


def kkt_oracle(plant: PlantMatrices, jac, f, qdot):
    """Independent ground truth at one state, or at each of a stack:
    least-squares solve of the augmented system

        [ M  A^T ] [q'']   [ f + f_g - C q' ]
        [ A   0  ] [-lam] = [    -Adot q'    ]

    Returns (q'', lam), columns for a stack like f and q'.  At
    rank-deficient A the minimum-norm solution keeps q'' unique while lam is
    the minimum-norm multiplier.  The solve is the SVD one (Golub & Van Loan,
    Matrix Computations, 5.5): x = V diag(s_inv) U^T rhs, keeping the
    singular values s > (n + m) eps s_max, the cutoff of lstsq at
    rcond=None.  The cutoff is the solve's own, not the kernel's RANK_TOL,
    so the oracle shares nothing with the projector route.  One stacked SVD
    of K per call; one state is the stack of one.
    """
    f = np.asarray(f, dtype=float)
    qdot = np.asarray(qdot, dtype=float)
    A, Adot = jac.A, jac.Adot
    m, n = A.shape[-2:]
    K = np.zeros(A.shape[:-2] + (n + m, n + m))
    K[..., :n, :n] = plant.M
    K[..., :n, n:] = A.swapaxes(-1, -2)
    K[..., n:, :n] = A
    axis = -1 if qdot.ndim == 1 else -2     # a 1-D vector, or a stack's columns
    rhs = np.concatenate([f + plant.f_g - plant.C @ qdot, -Adot @ qdot], axis=axis)
    U, s, Vt = np.linalg.svd(K.reshape(-1, n + m, n + m))
    keep = s > (n + m) * np.finfo(float).eps * s[:, :1]
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=keep)[..., None]
    sol = Vt.swapaxes(-1, -2) @ ((U.swapaxes(-1, -2) @ rhs.reshape(-1, n + m, 1)) * s_inv)
    return tuple(np.split(sol.reshape(rhs.shape), [n], axis=axis))
