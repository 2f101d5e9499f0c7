"""Invariant battery behind `projdyn check`.

Each check returns (name, max_residual, tolerance); the battery passes when
every residual is within its tolerance.  All randomness flows from one seed,
so reports are reproducible.  A check draws its random states one at a time,
in a fixed order, and then evaluates the states of one shape as one stack;
each member has the bits it would have alone.  The worst residual keeps NaN,
so a non-finite residual fails its check.  The optional fault injection
flips a sign in Cbar before the skew-symmetry check, to prove the harness
actually rejects a broken model.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import forces
from .kernel import (RANK_TOL, ConstraintJacobian, build_projectors,
                     configuration_projectors, pseudo_inverse)
from .model import PlantMatrices, assemble, optimal_mu, pmp_eigenvalues
from .systems import catalog, pendulum, double_pendulum


def _random_spd(rng, n, lo=0.5, hi=3.0):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ np.diag(rng.uniform(lo, hi, size=n)) @ Q.T


def _random_jacobian(rng, n=None, m=None):
    if n is None:
        n = int(rng.integers(2, 9))
    if m is None:
        m = int(rng.integers(1, n + 1))
    return ConstraintJacobian(A=rng.standard_normal((m, n)),
                              Adot=rng.standard_normal((m, n)))


def _random_plant(rng, B):
    """A random SPD M with C and f_g zero and input map B."""
    n = len(B)
    return PlantMatrices(M=_random_spd(rng, n), C=np.zeros((n, n)), f_g=np.zeros(n), B=B)


def _stack(items):
    """One stack of same-shape items: floats, matrices, vectors (stacked as
    columns), or dataclasses of them, which are stacked field by field."""
    if dataclasses.is_dataclass(items[0]):
        cls = type(items[0])
        return cls(*(_stack([getattr(x, f.name) for x in items])
                     for f in dataclasses.fields(cls)))
    stack = np.stack(items)
    return stack[..., None] if stack.ndim == 2 else stack


def _by_shape(draws):
    """Stack draws, tuples that begin with a ConstraintJacobian, into one
    tuple of stacks per shape of A."""
    groups = {}
    for draw in draws:
        groups.setdefault(draw[0].A.shape, []).append(draw)
    return [tuple(map(_stack, zip(*group))) for group in groups.values()]


def _norms(X):
    """The Frobenius norm of each matrix or vector of a stack, bit-equal to
    np.linalg.norm of each: one dot product per member (norm(axis=...)
    would sum in another order)."""
    flat = X.reshape(len(X), -1)
    return np.sqrt(flat[:, None, :] @ flat[:, :, None])[:, 0, 0]


def _worst(residuals):
    """The largest of the residuals, or NaN if one is NaN (max() drops it)."""
    return float(np.max(np.concatenate([np.ravel(r) for r in residuals])))


def _catalog_states(rng):
    """Sixty sampled states of each catalog system, each with a random force
    drawn after the state: yields one stack per system, (jacs, plants, model,
    qd, f).  qd is projected onto the constraints, the model is at the
    optimal mu of each state, and jacs and plants are the states' own."""
    for system in catalog():
        draws = []
        for _ in range(60):
            q, qd = system.sample_state(rng)
            draws.append((q, qd, rng.standard_normal(system.n)))
        q, qd, f = (list(x) for x in zip(*draws))
        jacs = [system.jacobian(*state) for state in zip(q, qd)]
        proj = build_projectors(_stack(jacs))
        qd = proj.P @ _stack(qd)
        plants = [system.plant(q_i, qd_i[:, 0]) for q_i, qd_i in zip(q, qd)]
        plant = _stack(plants)
        yield jacs, plants, assemble(plant, proj, optimal_mu(plant, proj)), qd, _stack(f)


def check_projector_algebra(rng):
    residuals = []
    for (jac,) in _by_shape([(_random_jacobian(rng),) for _ in range(200)]):
        proj = build_projectors(jac)
        P, Lam = proj.P, proj.Lambda
        residuals += [_norms(P @ P - P), _norms(P - P.swapaxes(-1, -2)),
                      _norms(jac.A @ P), _norms(P @ Lam), _norms(Lam.swapaxes(-1, -2) @ P)]
    return "projector-algebra", _worst(residuals), 1e-10


def pdot_fd_check(jac_at, t: float, h: float) -> float:
    """Residual between the closed-form Pdot and a central finite difference.

    jac_at(t) must return the ConstraintJacobian along a smooth path.  The
    caller asserts O(h^2) decay; the rank must not change on [t-h, t+h] for
    the difference quotient to be meaningful.
    """
    if h <= 0:
        raise ValueError("step h must be positive")
    plus = build_projectors(jac_at(t + h))
    minus = build_projectors(jac_at(t - h))
    center = build_projectors(jac_at(t))
    fd = (plus.P - minus.P) / (2.0 * h)
    return float(np.linalg.norm(fd - center.Pdot))


def check_pdot_finite_difference(rng):
    residuals = []
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        A0, A1, A2 = (rng.standard_normal((m, n)) for _ in range(3))

        def jac_at(t):
            return ConstraintJacobian(A=A0 + t * A1 + np.sin(t) * A2,
                                      Adot=A1 + np.cos(t) * A2)

        residuals.append(pdot_fd_check(jac_at, 0.3, 1e-4))
    return "pdot-finite-difference", _worst(residuals), 1e-5


def check_skew_symmetry(rng, fault=None):
    residuals = []
    h = 1e-5
    # non-unit masses and mu != eig(M) keep Mbar genuinely state-dependent,
    # so a sign error in Cbar cannot hide behind a constant Mbar
    for system in (pendulum(mass_val=1.3), double_pendulum(m1=1.2, m2=0.7)):
        q, qd = map(np.stack, zip(*(system.sample_state(rng) for _ in range(40))))

        def model_at(qq):
            states = list(zip(qq, qd))
            proj = build_projectors(_stack([system.jacobian(*s) for s in states]))
            return assemble(_stack([system.plant(*s) for s in states]), proj, 2.0)

        Cbar = model_at(q).Cbar
        if fault == "cbar-sign":
            Cbar = -Cbar
        # first-order state transport is enough for an O(h^2) quotient
        X = (model_at(q + h * qd).Mbar - model_at(q - h * qd).Mbar) / (2 * h) - 2.0 * Cbar
        residuals.append(_norms(X + X.swapaxes(-1, -2)))
    return "mbar-rate-skew-symmetry", _worst(residuals), 1e-6


def check_spectrum_law(rng):
    draws = []
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        jac = _random_jacobian(rng, n, m)
        draws.append((jac, _random_plant(rng, np.eye(n)), float(rng.uniform(0.2, 5.0))))
    residuals = []
    for jac, plant, mu in _by_shape(draws):
        proj = build_projectors(jac)
        model = assemble(plant, proj, mu)
        lam, _ = pmp_eigenvalues(plant, proj)
        nonzero = lam > RANK_TOL * lam[..., -1:]   # cut here, to count against rank(A)
        # the law: mu rank(A) times, and the nonzero eigenvalues of P M P
        expected = np.sort(np.where(nonzero, lam, mu[:, None]), axis=-1)
        residual = np.max(np.abs(np.sort(model.spectrum, axis=-1) - expected), axis=-1)
        residuals.append(np.where(nonzero.sum(axis=-1) == proj.n - proj.rank,
                                  residual, np.inf))
    return "mbar-spectrum-law", _worst(residuals), 1e-9


def check_oracle_equivalence(rng):
    residuals = []
    for jacs, plants, model, qd, f in _catalog_states(rng):
        qdd = forces.acceleration(model, f, qd)
        f_c = forces.constraint_force(model, f, qd)
        # the oracle stays per state: lstsq has no stacked form
        oracle = [forces.kkt_oracle(*state, f_i[:, 0], qd_i[:, 0])
                  for *state, f_i, qd_i in zip(plants, jacs, f, qd)]
        qdd_o = _stack([qdd_i for qdd_i, _ in oracle])
        f_c_o = _stack([-jac.A.T @ lam for jac, (_, lam) in zip(jacs, oracle)])
        residuals += [_norms(qdd - qdd_o), _norms(f_c - f_c_o)]
    return "kkt-oracle-equivalence", _worst(residuals), 1e-8


def check_oblique_identities(rng):
    draws = []
    while len(draws) < 150:
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        jac = _random_jacobian(rng, n, m)
        proj = configuration_projectors(jac.A)
        B = rng.standard_normal((n, n))
        # the test decides whether the next draw is this state's M: per candidate
        sv = np.linalg.svd(proj.P @ B, compute_uv=False)
        if sv[max(n - proj.rank - 1, 0)] < 0.1:
            continue                     # keep tests away from near-inadmissibility
        draws.append((jac, _random_plant(rng, B), float(rng.uniform(0.2, 5.0))))
    residuals = []
    for jac, plant, mu in _by_shape(draws):
        proj = build_projectors(jac)
        model = assemble(plant, proj, mu)
        R, S, P, Q = model.R, model.S, proj.P, proj.Q
        PMP = P @ plant.M @ P
        pmp_pinv, _ = pseudo_inverse(0.5 * (PMP + PMP.swapaxes(-1, -2)))
        residuals += [_norms(R @ R - R), _norms(P @ R - P), _norms(R @ P - R),
                      _norms(S @ S - S), _norms(Q @ S - S), _norms(S @ Q - Q),
                      _norms(model.X - pmp_pinv)]
    return "oblique-identities", _worst(residuals), 1e-10


def check_acceleration_routes(rng):
    residuals = []
    for _, _, model, qd, f in _catalog_states(rng):
        a1 = forces.acceleration(model, f, qd)
        a2 = forces.acceleration_nonminimal(model, f, qd)
        residuals.append(_norms(a1 - a2))
    return "acceleration-route-agreement", _worst(residuals), 1e-9


def run_battery(seed=0, fault=None) -> dict:
    """Run every invariant check; returns a machine-readable report."""
    rng = np.random.default_rng(seed)
    results = [
        check_projector_algebra(rng),
        check_pdot_finite_difference(rng),
        check_skew_symmetry(rng, fault=fault),
        check_spectrum_law(rng),
        check_oracle_equivalence(rng),
        check_oblique_identities(rng),
        check_acceleration_routes(rng),
    ]
    checks = [{"name": name, "max_residual": res, "tolerance": tol,
               "passed": bool(res <= tol)} for name, res, tol in results]
    return {"seed": seed, "fault": fault, "checks": checks,
            "passed": all(c["passed"] for c in checks)}
