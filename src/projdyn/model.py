"""Non-minimal constrained inertia model and virtual-mass conditioning.

The constrained equations of motion are written with fixed dimension n as

    Mbar(q) q'' + Cbar(q, q') q' = P (f + f_g)

where Mbar = P M P + mu Q is symmetric positive definite for any mu > 0,
even when the constraint matrix loses rank.  The scalar mu ("virtual mass")
never changes the motion; it only moves the mu-eigenvalues of Mbar, so it can
be picked to minimize the condition number.

Like the kernel, everything here takes one state or a stack of states
(arrays with leading batch axes) through the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError
from .kernel import ProjectorBundle, _identity, _lazy, _mm, pseudo_inverse


def _per_member(x):
    """A scalar as it is; an array of one value per member of a stack with two
    trailing axes, so that it scales each member's matrices."""
    return x[..., None, None] if isinstance(x, np.ndarray) else x


@dataclass(frozen=True)
class PlantMatrices:
    """Unconstrained plant at one state: M(q), C(q,q'), f_g(q), B(q); or
    stacks of them, with f_g a column (..., n, 1).  A 1-D B is read as one
    column only for one state.  Its arrays must not be modified after
    construction: what is decided from them, such as identity_input, is
    decided once per object, which for a constant plant means once per run."""

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
    def k(self) -> int:
        return self.B.shape[-1]

    @_lazy
    def identity_input(self) -> bool:
        """True iff B is exactly the n x n identity, at every member of a stack."""
        n = self.M.shape[-1]
        return self.B.shape[-2:] == (n, n) and bool((self.B == _identity(n)).all())

    @classmethod
    def stack(cls, plants) -> PlantMatrices:
        """The stack of one-state plants, f_g a column.  A plant that every
        member shares, as every constant plant is, is a stack of one."""
        if all(p is plants[0] for p in plants):
            plants = plants[:1]
        return cls(*map(np.array, zip(*((p.M, p.C, p.f_g[:, None], p.B) for p in plants))))


@dataclass(frozen=True)
class ConstrainedModel:
    """Mbar at one state.  X = Mbar^{-1} P, S, the spectrum of Mbar, Cbar and
    the actuation maps Gamma and R are built on first access, so a state pays
    only for what it reads.  For a stack of states mu is a float or an array
    with one value per member."""

    Mbar: np.ndarray
    mu: float | np.ndarray
    plant: PlantMatrices
    proj: ProjectorBundle

    @_lazy
    def X(self) -> np.ndarray:
        """Mbar^{-1} P, the state's one solve; it commutes with P and equals
        pinv(P M P)."""
        try:
            return np.linalg.solve(self.Mbar, self.proj.P)
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"virtual mass mu = {self.mu!r} makes Mbar = P M P + mu Q "
                             "singular") from exc

    @_lazy
    def S(self) -> np.ndarray:
        """S = I - M X, the oblique projector onto the reaction space."""
        return _identity(self.proj.n) - _mm(self.plant.M, self.X)

    @_lazy
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of Mbar, ascending: mu repeated rank(A) times plus the
        nonzero eigenvalues of P M P."""
        return np.linalg.eigvalsh(self.Mbar)

    @_lazy
    def cond(self) -> float | np.ndarray:
        return _condition(self.spectrum)

    @_lazy
    def Cbar(self) -> np.ndarray:
        """Cbar = P C P + P M Pdot - mu Lambda P."""
        P, Lam, plant = self.proj.P, self.proj.Lambda, self.plant
        return (_mm(_mm(P, plant.C), P) + _mm(_mm(P, plant.M), self.proj.Pdot)
                - _per_member(self.mu) * _mm(Lam, P))

    @_lazy
    def _pb_pinv(self):
        """(pinv(P B), rank(P B)).  For B = I (plant.identity_input) that is
        (P, n - rank(A)): P is its own pseudo-inverse, and the kernel's rank the
        one rank decision.  Any other B takes one truncated SVD, cut like rank(A);
        unlike (B^T P B)^{-1} B^T P it stays the minimum-norm map under redundant
        actuation.  At rank(A) = n, P B = 0: rank 0 = n - n, so Gamma = 0."""
        proj = self.proj
        if self.plant.identity_input:
            return proj.P, proj.n - proj.rank
        return pseudo_inverse(_mm(proj.P, self.plant.B))   # P is finite: this checks B

    @_lazy
    def admissible(self) -> bool:
        """True iff range(P B) is null(A): rank(P B) = rank(P) = n - rank(A)."""
        return self._pb_pinv[1] == self.proj.n - self.proj.rank

    @_lazy
    def Gamma(self) -> np.ndarray:
        """Gamma = pinv(P B): u = Gamma f_par is the smallest u with
        P B u = f_par.  Raises AdmissibilityError where rank(P B) < rank(P)
        (at any member of a stack), which never holds for B = I."""
        if not (self.plant.identity_input or np.all(self.admissible)):
            r, want = self._pb_pinv[1], self.proj.n - self.proj.rank
            raise AdmissibilityError("range(P B) does not span null(A): "
                                     f"rank(P B) = {r} < rank(P) = {want}")
        return self._pb_pinv[0]

    @_lazy
    def R(self) -> np.ndarray:
        """R = B Gamma, the oblique projector that maps a desired motion-space
        force to the realizable one B u."""
        return _mm(self.plant.B, self.Gamma)


def _condition(spectrum) -> float | np.ndarray:
    """cond = lam_max / lam_min of ascending eigenvalues (..., n) of a
    positive definite matrix: a float for one, an array for a stack."""
    cond = spectrum[..., -1] / spectrum[..., 0]
    return float(cond) if cond.ndim == 0 else cond


def assemble(plant: PlantMatrices, proj: ProjectorBundle, mu) -> ConstrainedModel:
    """Assemble Mbar = P M P + mu Q; for a stack, mu is one number or an
    array of one value per member."""
    # isinstance, not np.ndim and np.any: those cost more than the rest on one state
    if isinstance(mu, np.ndarray) and mu.ndim:     # one mu per member of a stack
        mu = mu.astype(float)
        bad = (mu <= 0.0).any()
    else:
        mu = float(mu)
        bad = mu <= 0.0
    if bad:
        raise ValueError("virtual mass mu must be positive")
    Mbar = _mm(_mm(proj.P, plant.M), proj.P) + _per_member(mu) * proj.Q
    return ConstrainedModel(0.5 * (Mbar + Mbar.swapaxes(-1, -2)), mu, plant, proj)


def pmp_eigenvalues(plant: PlantMatrices, proj: ProjectorBundle):
    """Eigenvalues of P M P, ascending, and the mask of the nonzero ones: the
    largest n - rank(A), since P M P has rank(P) nonzero eigenvalues (M is
    positive definite).  At rank(A) = n the mask is empty."""
    PMP = _mm(_mm(proj.P, plant.M), proj.P)
    lam = np.linalg.eigvalsh(0.5 * (PMP + PMP.swapaxes(-1, -2)))
    return lam, np.arange(proj.n) >= np.asarray(proj.rank)[..., None]


def optimal_mu(plant: PlantMatrices, proj: ProjectorBundle) -> float:
    """The geometric mean of the condition-optimal interval [lam_min!=0, lam_max]
    of P M P.

    Any mu in the interval attains cond(Mbar) = lam_max / lam_min!=0.  At
    rank(A) = n, P = 0: no admissible direction, and every mu gives
    Mbar = mu I with cond 1; the mean eigenvalue of M is returned.  For a
    stack, one mu per member.
    """
    lam, nonzero = pmp_eigenvalues(plant, proj)
    lam_min = np.min(lam, axis=-1, where=nonzero, initial=np.inf)
    with np.errstate(invalid="ignore"):   # NaN where P = 0; replaced below
        mu = np.sqrt(lam_min * lam[..., -1])
    pinned = ~nonzero.any(axis=-1)
    if pinned.any():
        mu = np.where(pinned, np.mean(np.linalg.eigvalsh(plant.M), axis=-1), mu)
    return float(mu) if mu.ndim == 0 else mu


def kinetic_energy(M, qdot) -> float | np.ndarray:
    """Kinetic energy 0.5 q'^T M q' under the inertia M: the plant's M, or
    Mbar, which gives the same value for an admissible q' (Q q' = 0).  For a
    stack of states q' is a column (..., n, 1) and the result one value per
    member."""
    qdot = np.asarray(qdot, dtype=float)
    if qdot.ndim == 1:
        return 0.5 * float(_mm(_mm(qdot, M), qdot))
    return 0.5 * _mm(_mm(qdot.swapaxes(-1, -2), M), qdot)[..., 0, 0]
