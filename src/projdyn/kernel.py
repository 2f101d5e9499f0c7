"""Orthogonal projection operators built from the constraint matrix.

Given the Pfaffian constraint A(q) q' = 0, the admissible velocities live in
null(A).  Everything downstream is expressed through the orthogonal projector
P onto null(A), its complement Q = I - P, and the rate operators

    Lambda = -pinv(A) Adot,    Pdot = Lambda P + P Lambda^T,
    Omega  = Lambda - Lambda^T  (skew-symmetric).

All operators keep the fixed dimension n regardless of how many constraint
rows are active or independent, which is what makes rank drops and topology
switches unremarkable here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteInputError


RANK_TOL = 1e-10   # default relative singular-value cutoff of every rank decision


class _lazy:
    """functools.cached_property without its lock (Python < 3.12 takes a
    class-wide RLock on every first access): the value is computed on first
    access and stored in the instance's __dict__, which then shadows this
    non-data descriptor, also on frozen dataclasses."""

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class ConstraintJacobian:
    """Constraint matrix A and its total time derivative Adot, both m x n."""

    A: np.ndarray
    Adot: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        Adot = np.atleast_2d(np.asarray(self.Adot, dtype=float))
        if A.shape != Adot.shape:
            raise ValueError(f"A {A.shape} and Adot {Adot.shape} differ in shape")
        if not (np.isfinite(A).all() and np.isfinite(Adot).all()):
            raise NonFiniteInputError("constraint matrices must be finite")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "Adot", Adot)


@dataclass(frozen=True)
class ProjectorBundle:
    """P, Q = I - P, Lambda, Omega, rank and pinv of A; Pdot is built when read.

    P, Q, rank and pinv(A) depend on q alone (configuration_projectors);
    Lambda and Omega also need qdot and are None until with_adot adds them.
    rank_tol is the relative cutoff the rank was decided with; every later
    rank decision at this state reads it.
    """

    P: np.ndarray
    Q: np.ndarray
    Lambda: np.ndarray
    Omega: np.ndarray
    rank: int
    rank_tol: float
    A_pinv: np.ndarray

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @_lazy
    def Pdot(self) -> np.ndarray:
        return self.Lambda @ self.P + self.P @ self.Lambda.T


@lru_cache(maxsize=64)
def _identity(n: int) -> np.ndarray:   # built once per n, read-only
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def pseudo_inverse(A, rank_tol: float = RANK_TOL):
    """Moore-Penrose pseudo-inverse by rank-truncated SVD.

    Returns (A_pinv, r) where r counts the singular values above
    rank_tol * sigma_max.  This is the epsilon -> 0 limit of the Tikhonov
    regularized inverse, realized the numerically standard way.
    """
    if not 0 < rank_tol < np.inf:
        raise ValueError(f"rank_tol must be a positive finite number, got {rank_tol!r}")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if not np.isfinite(A).all():
        raise NonFiniteInputError("matrix to pseudo-invert must be finite")
    m, n = A.shape
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    r = int(np.count_nonzero(s > rank_tol * s[0])) if s.size else 0
    if r == 0:
        return np.zeros((n, m)), 0
    return Vt[:r].T @ (U[:, :r] / s[:r]).T, r


def configuration_projectors(A, rank_tol: float = RANK_TOL) -> ProjectorBundle:
    """P, Q, pinv(A) and the rank at one configuration, from one SVD of the
    m x n float array A.

    P = I - pinv(A) A is symmetrized explicitly so that downstream identities
    (P^2 = P, P Lambda = 0, ...) hold to round-off rather than to SVD backward
    error in the asymmetric part.  Lambda and Omega are left None.
    """
    Apinv, r = pseudo_inverse(A, rank_tol)
    eye = _identity(Apinv.shape[0])
    P = eye - Apinv @ A
    P = 0.5 * (P + P.T)
    return ProjectorBundle(P, eye - P, None, None, r, rank_tol, Apinv)


def build_projectors(jac: ConstraintJacobian, rank_tol: float = RANK_TOL) -> ProjectorBundle:
    """Build P, Q, Lambda and Omega at one state: the configuration part of
    jac.A plus the rates of jac.Adot."""
    return with_adot(configuration_projectors(jac.A, rank_tol), jac.Adot)


def with_adot(proj: ProjectorBundle, Adot) -> ProjectorBundle:
    """The bundle of the same A (same q) with another Adot (another velocity):
    only Lambda and Omega are rebuilt, from the stored pinv(A)."""
    Lam = -proj.A_pinv @ Adot
    return ProjectorBundle(proj.P, proj.Q, Lam, Lam - Lam.T, proj.rank, proj.rank_tol,
                           proj.A_pinv)

