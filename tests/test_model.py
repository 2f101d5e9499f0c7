"""Non-minimal model assembly: spectrum law, virtual-mass selection, invariants."""

import dataclasses

import numpy as np
import pytest

from projdyn import (ConstraintJacobian, PlantMatrices, RegulationGains, Scenario,
                     SetpointRegulator, assemble, build_projectors, kinetic_energy,
                     optimal_mu, pendulum, pseudo_inverse, run)
from projdyn.model import pmp_eigenvalues


def pendulum_proj(q=(0.0, -1.0), qd=(0.0, 0.0)):
    q = np.asarray(q, float)
    qd = np.asarray(qd, float)
    return build_projectors(ConstraintJacobian(A=2 * q[None, :],
                                               Adot=2 * qd[None, :]))


def pendulum_plant():
    return PlantMatrices(M=np.eye(2), C=np.zeros((2, 2)),
                         f_g=np.array([0.0, -9.81]), B=np.eye(2))


class TestAssemble:
    def test_pendulum_unit_mu(self):
        model = assemble(pendulum_plant(), pendulum_proj(), mu=1.0)
        np.testing.assert_allclose(model.Mbar, np.eye(2), atol=1e-14)
        assert model.cond == pytest.approx(1.0)

    def test_pendulum_mu_five(self):
        model = assemble(pendulum_plant(), pendulum_proj(), mu=5.0)
        np.testing.assert_allclose(model.Mbar, np.diag([1.0, 5.0]), atol=1e-14)
        assert model.cond == pytest.approx(5.0)

    def test_unconstrained_reduces_to_plant(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((3, 3))
        plant = PlantMatrices(M=X @ X.T + 3 * np.eye(3),
                              C=rng.standard_normal((3, 3)),
                              f_g=rng.standard_normal(3), B=np.eye(3))
        proj = build_projectors(ConstraintJacobian(A=np.zeros((1, 3)),
                                                   Adot=np.zeros((1, 3))))
        model = assemble(plant, proj, mu=2.0)
        np.testing.assert_allclose(model.Mbar, plant.M, atol=1e-12)
        np.testing.assert_allclose(model.Cbar, plant.C, atol=1e-12)

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            assemble(pendulum_plant(), pendulum_proj(), mu=0.0)

    def test_positive_definite_at_singularity(self):
        # rank-deficient Jacobian must not destroy definiteness of Mbar
        A = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        proj = build_projectors(ConstraintJacobian(A=A, Adot=np.zeros_like(A)))
        plant = PlantMatrices(M=np.diag([1.0, 2.0, 3.0]), C=np.zeros((3, 3)),
                              f_g=np.zeros(3), B=np.eye(3))
        model = assemble(plant, proj, mu=0.5)
        assert np.linalg.eigvalsh(model.Mbar).min() >= 0.5 - 1e-12

    def test_rate_skew_symmetry(self):
        # d/dt(Mbar) - 2 Cbar must be skew along any constrained motion
        h = 1e-5
        plant = pendulum_plant()

        def model_at(t):
            q = np.array([np.sin(t), -np.cos(t)])
            qd = np.array([np.cos(t), np.sin(t)])
            return assemble(plant, pendulum_proj(q, qd), mu=2.0)

        for t in (0.0, 0.7, 2.1):
            dM = (model_at(t + h).Mbar - model_at(t - h).Mbar) / (2 * h)
            X = dM - 2 * model_at(t).Cbar
            assert np.linalg.norm(X + X.T) < 1e-6


class TestSpectrum:
    def test_pendulum_spectrum(self):
        model = assemble(pendulum_plant(), pendulum_proj(), mu=2.0)
        np.testing.assert_allclose(sorted(model.spectrum), [1.0, 2.0], atol=1e-12)
        assert model.cond == pytest.approx(2.0)

    def test_three_dof_spectrum(self):
        plant = PlantMatrices(M=np.diag([1.0, 4.0, 2.0]), C=np.zeros((3, 3)),
                              f_g=np.zeros(3), B=np.eye(3))
        proj = build_projectors(ConstraintJacobian(A=[[0.0, 0.0, 1.0]],
                                                   Adot=np.zeros((1, 3))))
        model = assemble(plant, proj, mu=2.0)
        np.testing.assert_allclose(sorted(model.spectrum), [1.0, 2.0, 4.0],
                                   atol=1e-12)
        assert model.cond == pytest.approx(4.0)

    def test_spectrum_law_random(self):
        # eig(Mbar) = {mu} x rank union nonzero eig(PMP), for random instances
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n))
            X = rng.standard_normal((n, n))
            plant = PlantMatrices(M=X @ X.T + n * np.eye(n),
                                  C=np.zeros((n, n)), f_g=np.zeros(n),
                                  B=np.eye(n))
            proj = build_projectors(ConstraintJacobian(
                A=rng.standard_normal((m, n)), Adot=np.zeros((m, n))))
            mu = float(rng.uniform(0.1, 10.0))
            model = assemble(plant, proj, mu=mu)
            lam, nonzero = pmp_eigenvalues(plant, proj)
            predicted = np.sort(np.concatenate([np.full(proj.rank, mu), lam[nonzero]]))
            direct = np.sort(np.linalg.eigvalsh(model.Mbar))
            np.testing.assert_allclose(direct, predicted,
                                       rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(np.sort(model.spectrum), predicted,
                                       rtol=1e-9, atol=1e-9)


class TestOptimalMu:
    def test_geometric_mean_default(self):
        plant = PlantMatrices(M=np.diag([1.0, 4.0, 2.0]), C=np.zeros((3, 3)),
                              f_g=np.zeros(3), B=np.eye(3))
        proj = build_projectors(ConstraintJacobian(A=[[0.0, 0.0, 1.0]],
                                                   Adot=np.zeros((1, 3))))
        assert optimal_mu(plant, proj) == pytest.approx(2.0)

    def test_single_nonzero_eigenvalue(self):
        plant = pendulum_plant()
        proj = pendulum_proj()
        mu = optimal_mu(plant, proj)
        assert mu == pytest.approx(1.0)
        assert assemble(plant, proj, mu=mu).cond == pytest.approx(1.0)

    def test_grid_sweep_oracle(self):
        # the selected mu must achieve the minimum condition number over a
        # dense grid spanning well beyond the optimal interval
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, n))
            X = rng.standard_normal((n, n))
            plant = PlantMatrices(M=X @ X.T + n * np.eye(n),
                                  C=np.zeros((n, n)), f_g=np.zeros(n),
                                  B=np.eye(n))
            proj = build_projectors(ConstraintJacobian(
                A=rng.standard_normal((m, n)), Adot=np.zeros((m, n))))
            lam, nonzero = pmp_eigenvalues(plant, proj)
            lam = lam[nonzero]
            if lam.size == 0:
                continue
            mu_star = optimal_mu(plant, proj)
            cond_star = assemble(plant, proj, mu=mu_star).cond
            grid = np.geomspace(1e-3 * lam.min(), 1e3 * lam.max(), 200)
            best = min(assemble(plant, proj, mu=float(g)).cond for g in grid)
            assert cond_star <= best * (1 + 1e-9)
            assert cond_star == pytest.approx(lam.max() / lam.min(), rel=1e-9)

    @pytest.mark.filterwarnings("error")
    def test_fully_constrained_needs_no_warning(self):
        # P = 0: every mu gives Mbar = mu I, so the mean eigenvalue of M is
        # taken without a warning
        plant = pendulum_plant()
        proj = build_projectors(ConstraintJacobian(A=np.eye(2),
                                                   Adot=np.zeros((2, 2))))
        assert optimal_mu(plant, proj) == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error")
    def test_full_rank_takes_the_pinned_branch(self):
        """At square full-rank A the kernel's P is exactly 0, so optimal_mu
        takes its P = 0 branch (for one state and for each full-rank member
        of a stack), without a warning, and the state is admissible with
        Gamma = 0."""
        rng = np.random.default_rng(9)
        for n in range(2, 7):
            G = rng.standard_normal((n, n))
            plant = PlantMatrices(M=G @ G.T + n * np.eye(n), C=np.zeros((n, n)),
                                  f_g=np.zeros(n), B=rng.standard_normal((n, 2)))
            mean = np.mean(np.linalg.eigvalsh(plant.M))
            A = rng.standard_normal((n, n))
            proj = build_projectors(ConstraintJacobian(A=A, Adot=np.zeros((n, n))))
            mu = optimal_mu(plant, proj)
            assert mu == mean
            model = assemble(plant, proj, mu)
            assert model.admissible and not model.Gamma.any()
            deficient = np.vstack([A[:-1], A[0]])
            stack = build_projectors(ConstraintJacobian(A=np.stack([A, deficient]),
                                                        Adot=np.zeros((2, n, n))))
            mu = optimal_mu(plant, stack)
            assert mu[0] == mean and mu[1] == optimal_mu(plant, build_projectors(
                ConstraintJacobian(A=deficient, Adot=np.zeros((n, n)))))


class TestKineticEnergy:
    def test_mu_independent_on_admissible_velocity(self):
        plant = pendulum_plant()
        w = 1.4
        proj = pendulum_proj(qd=(w, 0.0))
        qd = np.array([w, 0.0])
        values = [kinetic_energy(assemble(plant, proj, mu).Mbar, qd)
                  for mu in (0.1, 1.0, 10.0)]
        np.testing.assert_allclose(values, 0.5 * w ** 2, atol=1e-12)

    def test_zero_velocity(self):
        assert kinetic_energy(assemble(pendulum_plant(), pendulum_proj(), 1.0).Mbar,
                              np.zeros(2)) == 0.0


def test_lazy_pdot_and_cbar_equal_the_eager_formulas():
    """Pdot, Cbar, X, S, the spectrum, Gamma and R, built on first access, are
    bit for bit the formulas they replace, also where A has a dependent row."""
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n + 1))
        A, Adot = rng.standard_normal((m, n)), rng.standard_normal((m, n))
        if trial % 3 == 0:
            A, Adot = np.vstack([A, 2 * A[:1]]), np.vstack([Adot, 2 * Adot[:1]])
        proj = build_projectors(ConstraintJacobian(A=A, Adot=Adot))
        G = rng.standard_normal((n, n))
        M, C = G @ G.T + n * np.eye(n), rng.standard_normal((n, n))
        plant = PlantMatrices(M=M, C=C, f_g=np.zeros(n), B=np.eye(n))
        mu = float(rng.uniform(0.2, 5.0))
        model = assemble(plant, proj, mu)
        P, Lam = proj.P, proj.Lambda
        Pdot = Lam @ P + P @ Lam.T
        np.testing.assert_array_equal(proj.Pdot, Pdot)
        np.testing.assert_array_equal(model.Cbar, P @ C @ P + P @ M @ Pdot - mu * (Lam @ P))
        X = np.linalg.solve(model.Mbar, P)
        np.testing.assert_array_equal(model.X, X)
        np.testing.assert_array_equal(model.S, np.eye(n) - M @ X)
        spectrum = np.linalg.eigvalsh(model.Mbar)
        np.testing.assert_array_equal(model.spectrum, spectrum)
        assert model.cond == spectrum[-1] / spectrum[0]
        # B = I: Gamma is P, so 0 at rank(A) = n, where there is nothing to actuate
        assert model.admissible
        np.testing.assert_array_equal(model.Gamma, P)
        np.testing.assert_array_equal(model.R, plant.B @ P)
        # any other B: Gamma is pinv(P B) from the same state
        doubled = assemble(dataclasses.replace(plant, B=2 * np.eye(n)), proj, mu)
        if proj.rank < n:
            Gamma, rank_pb = pseudo_inverse(P @ doubled.plant.B)
            assert doubled.admissible and rank_pb == n - proj.rank
            np.testing.assert_array_equal(doubled.Gamma, Gamma)
            np.testing.assert_array_equal(doubled.R, doubled.plant.B @ doubled.Gamma)
        else:
            # rank(A) = n: P B is round-off and there is nothing to actuate
            assert doubled.admissible
            np.testing.assert_array_equal(doubled.Gamma, np.zeros((n, n)))
            np.testing.assert_array_equal(doubled.R, np.zeros((n, n)))


def test_cond_of_a_stack_with_two_batch_axes():
    """cond is each member's lam_max / lam_min, and optimal_mu each member's
    own call bit for bit, in the stack's own shape, also with two leading
    axes: (2, 3), and (3, 3), where pairing one member's eigenvalues with
    another's would broadcast without an error."""
    rng = np.random.default_rng(13)
    n = 4
    for shape in ((2, 3), (3, 3)):
        jac = ConstraintJacobian(A=rng.standard_normal(shape + (1, n)),
                                 Adot=rng.standard_normal(shape + (1, n)))
        proj = build_projectors(jac)
        G = rng.standard_normal(shape + (n, n))
        plant = PlantMatrices(M=G @ G.swapaxes(-1, -2) + n * np.eye(n), C=np.zeros((n, n)),
                              f_g=np.zeros((n, 1)), B=np.eye(n))
        model = assemble(plant, proj, 1.0)
        assert model.cond.shape == shape
        mu = optimal_mu(plant, proj)
        assert mu.shape == shape
        for i in np.ndindex(shape):
            spectrum = np.linalg.eigvalsh(model.Mbar[i])
            assert model.cond[i] == spectrum[-1] / spectrum[0]
            member = PlantMatrices(M=plant.M[i], C=plant.C, f_g=np.zeros(n), B=plant.B)
            one = build_projectors(ConstraintJacobian(A=jac.A[i], Adot=jac.Adot[i]))
            assert mu[i] == optimal_mu(member, one)


def test_admissible_and_the_actuation_maps_share_one_svd(monkeypatch):
    """model.admissible, model.Gamma and model.R all come from one SVD of P B,
    or from none where B = I."""
    rng = np.random.default_rng(12)
    n, m = 4, 2
    proj = build_projectors(ConstraintJacobian(A=rng.standard_normal((m, n)),
                                               Adot=rng.standard_normal((m, n))))
    plant = PlantMatrices(M=np.eye(n), C=np.zeros((n, n)), f_g=np.zeros(n),
                          B=rng.standard_normal((n, 3)))
    model = assemble(plant, proj, 1.0)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    assert model.admissible
    assert model.Gamma.shape == (3, n) and model.R.shape == (n, n)
    assert len(calls) == 1
    # the identity input map takes none: Gamma is P, and the rank is the kernel's
    calls.clear()
    model = assemble(dataclasses.replace(plant, B=np.eye(n)), proj, 1.0)
    assert model.admissible
    assert model.Gamma.tobytes() == proj.P.tobytes() and model.R.shape == (n, n)
    assert model._pb_pinv[1] == n - proj.rank and calls == []


def test_the_identity_decision_is_made_once_per_plant(monkeypatch):
    """Whether B = I is decided once per PlantMatrices object: once in a
    regulated pendulum run on the catalog's constant plant, and once per
    state where plant_at builds a new plant per state, here with B = 2 I,
    whose states still take the SVD of P B: 8 SVDs per step."""
    decided = []
    decide = PlantMatrices.identity_input.fn
    monkeypatch.setattr(PlantMatrices.identity_input, "fn",
                        lambda plant: decided.append(plant) or decide(plant))
    system = pendulum()
    gains = RegulationGains(Kp=10 * np.eye(2), Kd=10 * np.eye(2), sigma=1.5)
    regulated = Scenario(system=system, q0=np.array([1.0, 0.0]), qdot0=np.zeros(2),
                         horizon=0.1, dt=0.01,
                         controller=SetpointRegulator(np.array([0.0, -1.0]), gains))
    run(regulated)
    assert len(decided) == 1 and decided[0] is system.plant_at(None, None)
    plants, svds = [], []

    def doubled(q, qdot):
        plants.append(dataclasses.replace(system.plant_at(q, qdot), B=2.0 * np.eye(2)))
        return plants[-1]

    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: svds.append(1) or svd(*a, **kw))
    counts = []
    for steps in (10, 20):
        for calls in (decided, plants, svds):
            calls.clear()
        run(dataclasses.replace(regulated, system=dataclasses.replace(system, plant_at=doubled),
                                horizon=steps * regulated.dt))
        assert len(decided) == len(plants) == 4 * steps + 1
        assert all(d is p for d, p in zip(decided, plants))
        counts.append(len(svds))
    assert counts[1] - counts[0] == 8 * 10
