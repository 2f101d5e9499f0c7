"""Orthogonal projection operators built from the constraint matrix.

Given the Pfaffian constraint A(q) q' = 0, the admissible velocities live in
null(A).  Everything downstream is expressed through the orthogonal projector
P onto null(A), its complement Q = I - P, and the rate operators

    Lambda = -pinv(A) Adot,    Pdot = Lambda P + P Lambda^T,
    Omega  = Lambda - Lambda^T  (skew-symmetric).

One full SVD of A gives pinv(A), its rank and P = V0^T V0 from the right-
singular vectors past the rank: A P is round-off of order eps |A| near a
rank drop too, and P is exactly 0 at rank n.  All operators keep the fixed
dimension n however many constraint rows are active or independent, which
is what makes rank drops and topology switches unremarkable here.

Every function takes one m x n matrix or a stack of them, shape (..., m, n),
through the same code: a single matrix is the stack of one, with the same
bits as each member of a stack.  Only rank changes type, a Python int for one
matrix and an int array for a stack.  In a stack a vector is a column,
(..., n, 1), so that M @ v and solve(M, v) keep the form they have for one
state.  The products of the per-state chain here and in model, forces,
control and engine go through _mm: on operands without batch axes it takes
ndarray.dot, which reaches matmul's BLAS call without the ufunc's dispatch
and gives its bits; a stack takes @.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NonFiniteInputError


RANK_TOL = 1e-10   # relative singular-value cutoff of every rank decision


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


def _norm(v) -> float:
    """|v| of a 1-D float array: the sqrt(v . v) that np.linalg.norm computes
    for such a vector, without its dispatch."""
    return math.sqrt(v.dot(v))


def _mm(a, b):
    """a @ b of float arrays.  Where neither has batch axes, ndarray.dot: the
    same BLAS call without the matmul ufunc's dispatch, and the same bits.  A
    stack, and a one-element a, take @: for a 1 x 1 a, matmul's loop gives a
    zero product as +0.0 where dot gives -0.0."""
    if a.ndim < 3 and b.ndim < 3 and a.size > 1:
        return a.dot(b)
    return a @ b


def _finite(x) -> bool:
    """np.isfinite(x).all() as one ufunc reduction, without the method's dispatch."""
    return np.logical_and.reduce(np.isfinite(x), axis=None)


def _float_array(x) -> np.ndarray:
    """x as a float array with at least two axes; a float ndarray that has
    them already is returned as it is, not converted again."""
    if type(x) is np.ndarray and x.dtype == np.float64 and x.ndim > 1:
        return x
    return np.atleast_2d(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class ConstraintJacobian:
    """Constraint matrix A and its total time derivative Adot, both m x n (or
    stacks of them)."""

    A: np.ndarray
    Adot: np.ndarray

    def __post_init__(self):
        A, Adot = _float_array(self.A), _float_array(self.Adot)
        if A.shape != Adot.shape:
            raise ValueError(f"A {A.shape} and Adot {Adot.shape} differ in shape")
        if not (_finite(A) and _finite(Adot)):
            raise NonFiniteInputError("constraint matrices must be finite")
        if A is not self.A:
            object.__setattr__(self, "A", A)
        if Adot is not self.Adot:
            object.__setattr__(self, "Adot", Adot)


@dataclass(frozen=True)
class ProjectorBundle:
    """P, Q = I - P, Lambda, Omega, rank and pinv of A; Pdot is built when read.

    P, Q, rank and pinv(A) depend on q alone (configuration_projectors);
    Lambda and Omega also need qdot and are None until with_adot adds them.
    For a stack of states every array has the leading batch axes and rank is
    an int array.
    """

    P: np.ndarray
    Q: np.ndarray
    Lambda: np.ndarray
    Omega: np.ndarray
    rank: int | np.ndarray
    A_pinv: np.ndarray

    @property
    def n(self) -> int:
        return self.P.shape[-1]

    @_lazy
    def Pdot(self) -> np.ndarray:
        return _mm(self.Lambda, self.P) + _mm(self.P, self.Lambda.swapaxes(-1, -2))


@lru_cache(maxsize=64)
def _identity(n: int) -> np.ndarray:   # built once per n, read-only
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _checked(A) -> np.ndarray:
    """A as a float array (..., m, n), checked finite."""
    A = _float_array(A)
    if not _finite(A):
        raise NonFiniteInputError("constraint and input matrices must be finite")
    return A


def pseudo_inverse(A):
    """Moore-Penrose pseudo-inverse by rank-truncated SVD.

    Returns (A_pinv, r) where r counts the singular values above
    RANK_TOL * sigma_max.  This is the epsilon -> 0 limit of the Tikhonov
    regularized inverse, realized the numerically standard way.  The full
    SVD is not sliced at r: A_pinv = V W^T with W = U / s on the kept
    singular values and 0 on the cut ones, so every member of a stack has
    one shape (Golub & Van Loan, Matrix Computations, 2.5); Vt past r gives P.
    """
    return _pinv(_checked(A))[:2]


def _pinv(A):
    """pseudo_inverse of a float array (..., m, n) that its caller has
    checked finite, and the full SVD's Vt, n x n."""
    U, s, Vt = np.linalg.svd(A)
    U = U[..., :s.shape[-1]]   # the columns that meet a singular value
    # s[..., :1] is sigma_max, empty where a matrix has no rows or no columns
    keep = s > RANK_TOL * s[..., :1]
    # U / s, not U * (1 / s): the product rounds differently
    W = np.divide(U, s[..., None, :], out=np.zeros(U.shape), where=keep[..., None, :])
    r = np.count_nonzero(keep, axis=-1) if keep.ndim > 1 else int(np.count_nonzero(keep))
    return _mm(Vt[..., :U.shape[-1], :].swapaxes(-1, -2), W.swapaxes(-1, -2)), r, Vt


@lru_cache(maxsize=64)
def _null_rows(n: int) -> np.ndarray:   # built once per n
    """Row r scales the first r rows of an n x n Vt by 0 and the rest by 1."""
    return 1.0 - np.tri(n + 1, n, -1)[..., None]


def _configuration(A):
    """pinv(A), its rank, P and Q of a checked float array A, from one SVD.

    P = V0^T V0, where V0 is Vt with its first rank(A) rows scaled by 0
    (Golub & Van Loan, Matrix Computations, 2.5).  It is symmetric bit for
    bit: numpy takes an array times its own transpose to BLAS syrk, which
    mirrors one triangle.  This rank is the one answer to "is there an
    admissible direction?": at rank n every row is scaled by 0, so P is
    exactly +0.0 and Q = I, with no special case.
    """
    Apinv, r, Vt = _pinv(A)
    V0 = Vt * _null_rows(n := Vt.shape[-1])[r]
    P = _mm(V0.swapaxes(-1, -2), V0)
    return Apinv, r, P, _identity(n) - P


def configuration_projectors(A) -> ProjectorBundle:
    """P, Q, pinv(A) and the rank at one configuration, from one SVD of the
    m x n array A (or at each configuration of a stack).  Lambda and Omega
    are left None."""
    Apinv, r, P, Q = _configuration(_checked(A))
    return ProjectorBundle(P, Q, None, None, r, Apinv)


def _rates(Apinv, Adot):
    """Lambda = -pinv(A) Adot and Omega = Lambda - Lambda^T."""
    Lam = _mm(-Apinv, Adot)
    return Lam, Lam - Lam.swapaxes(-1, -2)


def build_projectors(jac: ConstraintJacobian) -> ProjectorBundle:
    """Build P, Q, Lambda and Omega at one state: the configuration part of
    jac.A plus the rates of jac.Adot, both checked by ConstraintJacobian."""
    Apinv, r, P, Q = _configuration(jac.A)
    return ProjectorBundle(P, Q, *_rates(Apinv, jac.Adot), r, Apinv)


def with_adot(proj: ProjectorBundle, Adot) -> ProjectorBundle:
    """The bundle of the same A (same q) with another Adot (another velocity),
    checked finite and of A's shape: only Lambda and Omega are rebuilt, from
    the stored pinv(A)."""
    Adot = _checked(Adot)
    if Adot.shape != (shape := proj.A_pinv.swapaxes(-1, -2).shape):
        raise ValueError(f"A {shape} and Adot {Adot.shape} differ in shape")
    return ProjectorBundle(proj.P, proj.Q, *_rates(proj.A_pinv, Adot), proj.rank, proj.A_pinv)
