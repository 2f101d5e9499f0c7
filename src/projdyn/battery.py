"""Invariant checks: the battery behind `projdyn check`, and self_test.

Each battery check returns (name, max_residual, tolerance); the battery
passes when every residual is within its tolerance.  All randomness flows
from one seed, so reports are reproducible.  A check first draws its random
inputs as plain arrays, one state at a time and in a fixed order, and then
builds them once per shape: one stacked ConstraintJacobian (which validates
every member), one PlantMatrices, one QR for the stack of random masses, and
one evaluation of the stack.  Each operator is stacked by the shape it
reads: A by (m, n), and the n x n operators of the spectrum law and the
oblique check (their masses, Mbar, R, S and X) by n.  A system gives a
stack's A, Adot and plant through its own jacobian and plant; so does
self_test's one stack of a system's sampled states.  Each member has the
bits it would have alone.  The oblique check draws each candidate whole,
its M and mu too, tests the candidates once on stacks, keeps those that
pass and draws fresh ones for those that fail.  The oracle check solves
each catalog system's stack of states in multiplier form with one stacked
SVD (forces.kkt_oracle), cut at its own tolerance, not at RANK_TOL, so the
reference shares no rank decision with the route it checks.  Every derivative
check takes _central_difference: of P along a path (the pdot checks), of
Mbar along q' (the skew check) and of M and A along q' (self_test).  The
pdot check's reference is the Richardson extrapolation (4 D(h/2) - D(h)) / 3
of central differences D of P (Hairer, Norsett & Wanner, Solving ODEs I,
II.9), whose O(h^4) error, unlike D's O(h^2), stays within tolerance near a
rank drop.  The worst residual keeps NaN, so a non-finite residual fails its
check.  The optional fault injection flips a sign in Cbar before the
skew-symmetry check, to prove the harness actually rejects a broken model.
"""

from __future__ import annotations

import numpy as np

from . import forces
from .kernel import (RANK_TOL, ConstraintJacobian, ProjectorBundle, build_projectors,
                     configuration_projectors, pseudo_inverse)
from .model import PlantMatrices, assemble, optimal_mu, pmp_eigenvalues
from .systems import catalog, pendulum, double_pendulum

FAULTS = ("cbar-sign",)


def _groups(draws):
    """Draws, tuples of arrays and numbers, grouped by the shape of their
    first array and stacked item by item: one tuple of stacks per shape."""
    groups = {}
    for draw in draws:
        groups.setdefault(draw[0].shape, []).append(draw)
    return [tuple(map(np.array, zip(*group))) for group in groups.values()]


def _spd_draw(rng, n):
    """The draws of a random SPD n x n mass: a Gaussian matrix, whose
    orthogonal factor is the eigenbasis, then the eigenvalues in [0.5, 3)."""
    return rng.standard_normal((n, n)), rng.uniform(0.5, 3.0, size=n)


def _spd_plant(G, d, B):
    """The plant of the stacks of _spd_draw's (G, d): M = Q diag(d) Q^T with
    Q of one stacked QR of G, C and f_g zero, and input maps B."""
    Q, _ = np.linalg.qr(G)
    M = (Q * d[..., None, :]) @ Q.swapaxes(-1, -2)
    return PlantMatrices(M, np.zeros_like(M), np.zeros(M.shape[:-1] + (1,)), B)


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
    drawn after the state: yields one stack per system, (jac, model, qd, f),
    with qd and f columns.  jac is at the sampled velocity, qd is that
    velocity projected onto the constraints, and the model is at the optimal
    mu of each state."""
    for system in catalog():
        q, qd, f = map(np.array, zip(*((*system.sample_state(rng), rng.standard_normal(system.n))
                                       for _ in range(60))))
        proj = build_projectors(jac := system.jacobian(q, qd))
        qd = proj.P @ qd[..., None]
        plant = system.plant(q, qd[..., 0])
        yield jac, assemble(plant, proj, optimal_mu(plant, proj)), qd, f[..., None]


def check_projector_algebra(rng):
    draws = []
    for _ in range(200):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 1))
        draws.append(tuple(rng.standard_normal((2, m, n))))    # A, then Adot
    residuals = []
    for A, Adot in _groups(draws):
        proj = build_projectors(ConstraintJacobian(A, Adot))
        P, Lam = proj.P, proj.Lambda
        residuals += [_norms(P @ P - P), _norms(P - P.swapaxes(-1, -2)),
                      _norms(A @ P), _norms(P @ Lam), _norms(Lam.swapaxes(-1, -2) @ P)]
    return "projector-algebra", _worst(residuals), 1e-10


def _central_difference(f, t, h):
    """(f(t + h) - f(t - h)) / 2h, for f of one state or of a stack."""
    return (f(t + h) - f(t - h)) / (2.0 * h)


def pdot_fd_check(jac_at, t: float, h: float) -> float:
    """Residual between the closed-form Pdot and a central finite difference.

    jac_at(t) must return the ConstraintJacobian along a smooth path.  The
    caller asserts O(h^2) decay; the rank must not change on [t-h, t+h] for
    the difference quotient to be meaningful.
    """
    if not 0.0 < h < np.inf:
        raise ValueError(f"step h must be positive and finite, got {h!r}")
    fd = _central_difference(lambda s: build_projectors(jac_at(s)).P, t, h)
    return float(np.linalg.norm(fd - build_projectors(jac_at(t)).Pdot))


def check_pdot_finite_difference(rng):
    draws = []
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        draws.append(tuple(rng.standard_normal((3, m, n))))    # A0, A1, A2
    residuals = []
    for A0, A1, A2 in _groups(draws):
        def jac_at(t):
            return ConstraintJacobian(A0 + t * A1 + np.sin(t) * A2, A1 + np.cos(t) * A2)

        h, P_at = 1e-4, lambda t: build_projectors(jac_at(t)).P
        fd = (4.0 * _central_difference(P_at, 0.3, h / 2)
              - _central_difference(P_at, 0.3, h)) / 3.0
        residuals.append(_norms(fd - build_projectors(jac_at(0.3)).Pdot))
    return "pdot-finite-difference", _worst(residuals), 1e-5


def check_skew_symmetry(rng, fault=None):
    residuals = []
    # non-unit masses and mu != eig(M) keep Mbar genuinely state-dependent,
    # so a sign error in Cbar cannot hide behind a constant Mbar
    for system in (pendulum(mass_val=1.3), double_pendulum(m1=1.2, m2=0.7)):
        q, qd = map(np.array, zip(*(system.sample_state(rng) for _ in range(40))))

        def model_at(qq):
            return assemble(system.plant(qq, qd), build_projectors(system.jacobian(qq, qd)), 2.0)

        Cbar = model_at(q).Cbar
        if fault == "cbar-sign":
            Cbar = -Cbar
        # first-order state transport is enough for an O(h^2) quotient
        X = _central_difference(lambda t: model_at(q + t * qd).Mbar, 0.0, 1e-5) - 2.0 * Cbar
        residuals.append(_norms(X + X.swapaxes(-1, -2)))
    return "mbar-rate-skew-symmetry", _worst(residuals), 1e-6


def self_test(system, samples=100, rng=None) -> dict:
    """Verify the structural invariants of a system at samples random
    reachable states, evaluated as one stack: M symmetric and positive
    definite, dM/dt - 2C skew, and the analytic Adot against a central
    difference of A along the velocity.  Report-only; returns the worst
    violations."""
    if type(samples) is bool or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise ValueError(f"samples must be a positive int, got {samples!r}")
    rng = np.random.default_rng(0) if rng is None else rng
    if system.sample_state is None:
        raise ValueError(f"system {system.name!r} has no state sampler")
    q, qd = map(np.array, zip(*(system.sample_state(rng) for _ in range(samples))))
    plant, h = system.plant(q, qd), 1e-5
    M, Mt = plant.M, plant.M.swapaxes(-1, -2)
    X = _central_difference(lambda t: system.plant(q + t * qd, qd).M, 0.0, h) - 2.0 * plant.C
    Afd = _central_difference(lambda t: system.jacobian(q + t * qd, qd).A, 0.0, h)
    report = {"M_asym": _worst([_norms(M - Mt)]),
              "M_min_eig": float(np.min(np.linalg.eigvalsh(0.5 * (M + Mt))[:, 0])),
              "skew": _worst([_norms(X + X.swapaxes(-1, -2))]),
              "Adot_fd": _worst([_norms(system.jacobian(q, qd).Adot - Afd)])}
    report["passed"] = (report["M_asym"] <= 1e-12 and report["M_min_eig"] > 0.0
                        and report["skew"] <= 1e-6 and report["Adot_fd"] <= 1e-6)
    return report


def check_spectrum_law(rng):
    draws = []
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        A, _ = rng.standard_normal((2, m, n))    # Adot: drawn, not read
        draws.append((A, *_spd_draw(rng, n), rng.uniform(0.2, 5.0)))
    members = []
    for A, G, d, mu in _groups(draws):
        proj = configuration_projectors(A)
        members += zip(proj.P, proj.Q, proj.rank, G, d, mu)
    residuals = []
    for P, Q, rank, G, d, mu in _groups(members):       # the rest reads n x n: by n
        proj = ProjectorBundle(P, Q, None, None, rank, None)
        plant = _spd_plant(G, d, np.eye(proj.n))
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
    for jac, model, qd, f in _catalog_states(rng):
        qdd_o, lam = forces.kkt_oracle(model.plant, jac, f, qd)
        f_c_o = -jac.A.swapaxes(-1, -2) @ lam
        residuals += [_norms(forces.acceleration(model, f, qd) - qdd_o),
                      _norms(forces.constraint_force(model, f, qd) - f_c_o)]
    return "kkt-oracle-equivalence", _worst(residuals), 1e-8


def check_oblique_identities(rng):
    kept = []
    while len(kept) < 150:
        candidates = []
        for _ in range(150 - len(kept)):        # each drawn whole, M and mu too
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n))
            A, _ = rng.standard_normal((2, m, n))    # Adot: drawn, not read
            candidates.append((A, rng.standard_normal((n, n)), *_spd_draw(rng, n),
                               rng.uniform(0.2, 5.0)))
        for A, B, G, d, mu in _groups(candidates):
            proj = configuration_projectors(A)
            sv = np.linalg.svd(proj.P @ B, compute_uv=False)
            # keep tests away from near-inadmissibility
            rejected = sv[np.arange(len(sv)), A.shape[-1] - proj.rank - 1] < 0.1
            kept += zip(*(x[~rejected] for x in (proj.P, proj.Q, proj.rank, B, G, d, mu)))
    residuals = []
    for P, Q, rank, B, G, d, mu in _groups(kept):       # R, S and X read n x n: by n
        proj = ProjectorBundle(P, Q, None, None, rank, None)
        plant = _spd_plant(G, d, B)
        model = assemble(plant, proj, mu)
        R, S = model.R, model.S
        PMP = P @ plant.M @ P
        pmp_pinv, _ = pseudo_inverse(0.5 * (PMP + PMP.swapaxes(-1, -2)))
        residuals += [_norms(R @ R - R), _norms(P @ R - P), _norms(R @ P - R),
                      _norms(S @ S - S), _norms(Q @ S - S), _norms(S @ Q - Q),
                      _norms(model.X - pmp_pinv)]
    return "oblique-identities", _worst(residuals), 1e-10


def check_acceleration_routes(rng):
    residuals = []
    for _, model, qd, f in _catalog_states(rng):
        a1 = forces.acceleration(model, f, qd)
        a2 = forces.acceleration_nonminimal(model, f, qd)
        residuals.append(_norms(a1 - a2))
    return "acceleration-route-agreement", _worst(residuals), 1e-9


def run_battery(seed=0, fault=None) -> dict:
    """Run every invariant check; returns a machine-readable report.  fault
    is None or one of FAULTS."""
    if fault is not None and fault not in FAULTS:
        raise ValueError(f"unknown fault {fault!r}; expected one of {', '.join(FAULTS)}")
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
