"""Invariant battery behind `projdyn check`.

Each check returns (name, max_residual, tolerance); the battery passes when
every residual is within its tolerance.  All randomness flows from one seed,
so reports are reproducible.  The optional fault injection flips a sign in
Cbar before the skew-symmetry check, to prove the harness actually rejects a
broken model.
"""

from __future__ import annotations

import numpy as np

from . import forces
from .kernel import ConstraintJacobian, build_projectors, pseudo_inverse
from .model import PlantMatrices, assemble, nonzero_pmp_eigenvalues, optimal_mu
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


def _random_model(rng, proj, B):
    """Mbar at proj for a random SPD M and then a random mu, with C and f_g
    zero."""
    n = proj.n
    plant = PlantMatrices(M=_random_spd(rng, n), C=np.zeros((n, n)), f_g=np.zeros(n), B=B)
    return assemble(plant, proj, float(rng.uniform(0.2, 5.0)))


def _catalog_states(rng):
    """Sixty sampled states of each catalog system, each with a random force
    drawn after the state: yields (jac, model, qd, f), with qd projected onto
    the constraints and the model at the optimal mu."""
    for system in catalog():
        for _ in range(60):
            q, qd = system.sample_state(rng)
            f = rng.standard_normal(system.n)
            jac = system.jacobian(q, qd)
            proj = build_projectors(jac)
            qd = proj.P @ qd
            plant = system.plant(q, qd)
            yield jac, assemble(plant, proj, optimal_mu(plant, proj)), qd, f


def check_projector_algebra(rng):
    worst = 0.0
    for _ in range(200):
        jac = _random_jacobian(rng)
        proj = build_projectors(jac)
        P, Lam = proj.P, proj.Lambda
        worst = max(worst,
                    np.linalg.norm(P @ P - P),
                    np.linalg.norm(P - P.T),
                    np.linalg.norm(jac.A @ P),
                    np.linalg.norm(P @ Lam),
                    np.linalg.norm(Lam.T @ P))
    return "projector-algebra", float(worst), 1e-10


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
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        A0, A1, A2 = (rng.standard_normal((m, n)) for _ in range(3))

        def jac_at(t):
            return ConstraintJacobian(A=A0 + t * A1 + np.sin(t) * A2,
                                      Adot=A1 + np.cos(t) * A2)

        worst = max(worst, pdot_fd_check(jac_at, 0.3, 1e-4))
    return "pdot-finite-difference", float(worst), 1e-5


def check_skew_symmetry(rng, fault=None):
    worst = 0.0
    h = 1e-5
    # non-unit masses and mu != eig(M) keep Mbar genuinely state-dependent,
    # so a sign error in Cbar cannot hide behind a constant Mbar
    for system in (pendulum(mass_val=1.3), double_pendulum(m1=1.2, m2=0.7)):
        for _ in range(40):
            q, qd = system.sample_state(rng)
            plant = system.plant(q, qd)

            def mbar_at(dt_):
                qq = q + dt_ * qd
                # first-order state transport is enough for an O(h^2) quotient
                proj_ = build_projectors(system.jacobian(qq, qd))
                return assemble(system.plant(qq, qd), proj_, 2.0).Mbar

            proj = build_projectors(system.jacobian(q, qd))
            Cbar = assemble(plant, proj, 2.0).Cbar
            if fault == "cbar-sign":
                Cbar = -Cbar
            X = (mbar_at(h) - mbar_at(-h)) / (2 * h) - 2.0 * Cbar
            worst = max(worst, float(np.linalg.norm(X + X.T)))
    return "mbar-rate-skew-symmetry", worst, 1e-6


def check_spectrum_law(rng):
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        proj = build_projectors(_random_jacobian(rng, n, m))
        model = _random_model(rng, proj, np.eye(n))
        expected = np.sort(np.concatenate([np.full(proj.rank, model.mu),
                                           nonzero_pmp_eigenvalues(model.plant, proj)]))
        worst = max(worst, float(np.max(np.abs(np.sort(model.spectrum) - expected))))
    return "mbar-spectrum-law", worst, 1e-9


def check_oracle_equivalence(rng):
    worst = 0.0
    for jac, model, qd, f in _catalog_states(rng):
        qdd = forces.acceleration(model, f, qd)
        f_c = forces.constraint_force(model, f, qd)
        qdd_o, lam = forces.kkt_oracle(model.plant, jac, f, qd)
        worst = max(worst,
                    float(np.linalg.norm(qdd - qdd_o)),
                    float(np.linalg.norm(f_c - (-jac.A.T @ lam))))
    return "kkt-oracle-equivalence", worst, 1e-8


def check_oblique_identities(rng):
    worst = 0.0
    done = 0
    while done < 150:
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        jac = _random_jacobian(rng, n, m)
        proj = build_projectors(jac)
        B = rng.standard_normal((n, n))
        sv = np.linalg.svd(proj.P @ B, compute_uv=False)
        if sv[max(n - proj.rank - 1, 0)] < 0.1:
            continue                     # keep tests away from near-inadmissibility
        done += 1
        model = _random_model(rng, proj, B)
        R, S, P, Q = model.R, model.S, proj.P, proj.Q
        PMP = P @ model.plant.M @ P
        pmp_pinv, _ = pseudo_inverse(0.5 * (PMP + PMP.T))
        worst = max(worst,
                    np.linalg.norm(R @ R - R), np.linalg.norm(P @ R - P),
                    np.linalg.norm(R @ P - R), np.linalg.norm(S @ S - S),
                    np.linalg.norm(Q @ S - S), np.linalg.norm(S @ Q - Q),
                    np.linalg.norm(model.X - pmp_pinv))
    return "oblique-identities", float(worst), 1e-10


def check_acceleration_routes(rng):
    worst = 0.0
    for _, model, qd, f in _catalog_states(rng):
        a1 = forces.acceleration(model, f, qd)
        a2 = forces.acceleration_nonminimal(model, f, qd)
        worst = max(worst, float(np.linalg.norm(a1 - a2)))
    return "acceleration-route-agreement", worst, 1e-9


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
