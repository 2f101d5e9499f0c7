"""Force resolution: oblique projectors, actuation, accelerations, reactions,
DAE oracle."""

import dataclasses

import numpy as np
import pytest

from projdyn import (AdmissibilityError, ConstraintJacobian, InvalidTargetError,
                     PlantMatrices, acceleration, acceleration_nonminimal,
                     assemble, build_projectors, constraint_force,
                     catalog, force_split_for_control, kkt_oracle, pseudo_inverse,
                     redundant_pendulum, slider_crank)
from projdyn.kernel import RANK_TOL


def pendulum_proj(q=(0.0, -1.0), qd=(0.0, 0.0)):
    q = np.asarray(q, float)
    qd = np.asarray(qd, float)
    return build_projectors(ConstraintJacobian(A=2 * q[None, :],
                                               Adot=2 * qd[None, :]))


def pendulum_plant(B=None):
    return PlantMatrices(M=np.eye(2), C=np.zeros((2, 2)),
                         f_g=np.array([0.0, -9.81]),
                         B=np.eye(2) if B is None else B)


def random_instance(rng, n=None, m=None, k=None):
    n = n or int(rng.integers(2, 7))
    m = m or int(rng.integers(1, n))
    k = k or n
    X = rng.standard_normal((n, n))
    plant = PlantMatrices(M=X @ X.T + n * np.eye(n),
                          C=rng.standard_normal((n, n)),
                          f_g=rng.standard_normal(n),
                          B=rng.standard_normal((n, k)))
    proj = build_projectors(ConstraintJacobian(A=rng.standard_normal((m, n)),
                                               Adot=rng.standard_normal((m, n))))
    model = assemble(plant, proj, mu=float(rng.uniform(0.3, 3.0)))
    return plant, proj, model


def pendulum_model(B=None):
    return assemble(pendulum_plant(B), pendulum_proj(), mu=1.0)


class TestAdmissibility:
    def test_identity_input_map(self):
        model = pendulum_model(np.eye(2))
        assert model.admissible and model.proj.n - model.proj.rank == 1
        assert np.linalg.matrix_rank(model.Gamma) == 1

    def test_orthogonal_actuator_fails(self):
        model = pendulum_model(np.array([0.0, 1.0]))
        assert not model.admissible
        with pytest.raises(AdmissibilityError, match=r"rank\(P B\) = 0 < rank\(P\) = 1"):
            model.Gamma

    @pytest.mark.parametrize("short", [1e-6, 1e-7])
    def test_a_scaled_identity_spans_null_a_near_the_fold(self, short):
        # 1e-6 and 1e-7 rad short of the crank's fold, B = 2 I spans null(A)
        # as B = I does: P = V0^T V0 carries no round-off for rank(P B) to
        # read above rank(P), as I - pinv(A) A did
        th = np.pi / 2 - short
        x1, y1 = np.cos(th), np.sin(th)   # placed as slider_crank's sample_state places it
        q, qd = np.array([x1, y1, x1 + np.sqrt(1.0 - y1 ** 2), 0.0]), np.zeros(4)
        crank = slider_crank()
        proj = build_projectors(crank.jacobian(q, qd))
        model = assemble(dataclasses.replace(crank.plant(q, qd), B=2 * np.eye(4)), proj, 1.0)
        assert model.admissible
        assert model._pb_pinv[1] == proj.n - proj.rank == 1
        np.testing.assert_allclose(model.Gamma, 0.5 * proj.P, rtol=0, atol=1e-12)

    def test_gamma_raises_when_inadmissible(self):
        model = pendulum_model(np.array([[0.0], [1.0]]))
        with pytest.raises(AdmissibilityError):
            model.Gamma
        with pytest.raises(AdmissibilityError):
            model.R

    def test_nullspace_basis_gives_orthogonal_r(self):
        # B spanning null(A) exactly makes R an orthogonal projector (= P)
        rng = np.random.default_rng(2)
        for _ in range(20):
            n, m = 5, 2
            A = rng.standard_normal((m, n))
            proj = build_projectors(ConstraintJacobian(A=A, Adot=np.zeros((m, n))))
            _, _, vt = np.linalg.svd(A)
            B = vt[m:].T  # orthonormal basis of null(A)
            plant = PlantMatrices(M=np.eye(n), C=np.zeros((n, n)),
                                  f_g=np.zeros(n), B=B)
            model = assemble(plant, proj, mu=1.0)
            np.testing.assert_allclose(model.R, model.R.T, atol=1e-10)
            np.testing.assert_allclose(model.R, proj.P, atol=1e-10)


class TestObliqueIdentities:
    def test_pendulum_s(self):
        plant = pendulum_plant()
        proj = pendulum_proj()
        model = assemble(plant, proj, mu=1.0)
        np.testing.assert_allclose(model.S, np.diag([0.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(model.R, proj.P, atol=1e-12)

    def test_unconstrained_s_vanishes(self):
        rng = np.random.default_rng(4)
        plant, _, _ = random_instance(rng, n=3, m=1)
        proj = build_projectors(ConstraintJacobian(A=np.zeros((1, 3)),
                                                   Adot=np.zeros((1, 3))))
        model = assemble(plant, proj, mu=1.0)
        np.testing.assert_allclose(model.S, np.zeros((3, 3)), atol=1e-12)

    def test_random_identities(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 100:
            plant, proj, model = random_instance(rng)
            # keep instances where actuation is comfortably admissible
            sv = np.linalg.svd(proj.P @ plant.B, compute_uv=False)
            if sv[min(len(sv), proj.n - proj.rank) - 1] < 0.1:
                continue
            checked += 1
            P, R, S, Q = proj.P, model.R, model.S, proj.Q
            scale = 1 + np.linalg.norm(R) ** 2 + np.linalg.norm(S) ** 2
            for name, X in [("R2", R @ R - R), ("PR", P @ R - P),
                            ("RP", R @ P - R), ("S2", S @ S - S),
                            ("QS", Q @ S - S), ("SQ", S @ Q - Q),
                            ("PS", P @ S)]:
                assert np.linalg.norm(X) / scale < 1e-10, name

    def test_mbar_inverse_p_equals_pinv_pmp(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            plant, proj, model = random_instance(rng)
            X = model.X
            pinv_pmp, _ = pseudo_inverse(proj.P @ plant.M @ proj.P)
            np.testing.assert_allclose(X, pinv_pmp, atol=1e-9)
            np.testing.assert_allclose(X, X.T, atol=1e-9)


class TestAcceleration:
    def test_pendulum_swing(self):
        w = 1.7
        plant = pendulum_plant()
        proj = pendulum_proj(qd=(w, 0.0))
        model = assemble(plant, proj, mu=1.0)
        qdd = acceleration(model, np.array([0.0, 9.81]), np.array([w, 0.0]))
        # gravity cancelled by the applied force: pure centripetal acceleration
        np.testing.assert_allclose(qdd, [0.0, w ** 2], atol=1e-12)

    def test_static_equilibrium(self):
        plant = pendulum_plant()
        proj = pendulum_proj()
        model = assemble(plant, proj, mu=1.0)
        qdd = acceleration(model, np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(qdd, np.zeros(2), atol=1e-12)

    def test_unconstrained_newton(self):
        rng = np.random.default_rng(6)
        plant, _, _ = random_instance(rng, n=4, m=1)
        proj = build_projectors(ConstraintJacobian(A=np.zeros((1, 4)),
                                                   Adot=np.zeros((1, 4))))
        model = assemble(plant, proj, mu=1.0)
        f = rng.standard_normal(4)
        qd = rng.standard_normal(4)
        qdd = acceleration(model, f, qd)
        expect = np.linalg.solve(plant.M, f + plant.f_g - plant.C @ qd)
        np.testing.assert_allclose(qdd, expect, atol=1e-10)

    def test_two_routes_agree(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            plant, proj, model = random_instance(rng)
            f = rng.standard_normal(proj.n)
            qd = proj.P @ rng.standard_normal(proj.n)
            a1 = acceleration(model, f, qd)
            a2 = acceleration_nonminimal(model, f, qd)
            assert np.linalg.norm(a1 - a2) / (1 + np.linalg.norm(a1)) < 1e-9


class TestConstraintForce:
    def test_pendulum_tension(self):
        # string tension m (g + w^2 L) pointing back to the pivot
        w = 1.7
        plant = pendulum_plant()
        proj = pendulum_proj(qd=(w, 0.0))
        model = assemble(plant, proj, mu=1.0)
        f_c = constraint_force(model, np.zeros(2), np.array([w, 0.0]))
        np.testing.assert_allclose(f_c, [0.0, 9.81 + w ** 2], atol=1e-10)

    def test_reaction_is_normal(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            plant, proj, model = random_instance(rng)
            f = rng.standard_normal(proj.n)
            qd = proj.P @ rng.standard_normal(proj.n)
            f_c = constraint_force(model, f, qd)
            assert np.linalg.norm(proj.P @ f_c) / (1 + np.linalg.norm(f_c)) < 1e-9


class TestKktOracle:
    def test_matches_projection_route(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            m = int(rng.integers(1, n))
            X = rng.standard_normal((n, n))
            plant = PlantMatrices(M=X @ X.T + n * np.eye(n),
                                  C=rng.standard_normal((n, n)),
                                  f_g=rng.standard_normal(n), B=np.eye(n))
            A = rng.standard_normal((m, n))
            if rng.random() < 0.3 and m > 1:
                A[-1] = 2.0 * A[0]  # force rank deficiency sometimes
            jac = ConstraintJacobian(A=A, Adot=rng.standard_normal((m, n)))
            proj = build_projectors(jac)
            model = assemble(plant, proj, mu=1.0)
            f = rng.standard_normal(n)
            qd = proj.P @ rng.standard_normal(n)
            qdd_o, lam = kkt_oracle(plant, jac, f, qd)
            qdd = acceleration(model, f, qd)
            f_c = constraint_force(model, f, qd)
            scale = 1 + np.linalg.norm(qdd_o)
            assert np.linalg.norm(qdd - qdd_o) / scale < 1e-8
            assert np.linalg.norm(f_c - (-jac.A.T @ lam)) / scale < 1e-8

    def test_a_stack_has_the_bits_of_its_members(self):
        """On a stack, with f and q' as columns (..., n, 1), each member gets
        the bits of its own call with 1-D vectors, also with two leading
        axes: random SPD M with nonzero C and f_g, the redundant pendulum, and
        the crank at its fold, where rank(A) drops from 3 to 2."""
        rng = np.random.default_rng(37)
        groups = []
        for n, m in [(2, 1), (4, 2), (5, 4), (6, 6), (3, 5)]:
            states = []
            for _ in range(6):
                X = rng.standard_normal((n, n))
                plant = PlantMatrices(M=X @ X.T + n * np.eye(n), C=rng.standard_normal((n, n)),
                                      f_g=rng.standard_normal(n), B=np.eye(n))
                jac = ConstraintJacobian(A=rng.standard_normal((m, n)),
                                         Adot=rng.standard_normal((m, n)))
                states.append((plant, jac, rng.standard_normal(n), rng.standard_normal(n)))
            groups.append(states)
        pend, crank = redundant_pendulum(), slider_crank()
        groups.append([(pend.plant(q, qd), pend.jacobian(q, qd), rng.standard_normal(2), qd)
                       for q, qd in (pend.sample_state(rng) for _ in range(6))])
        fold = np.array([0.0, 1.0, 0.0, 0.0])
        groups.append([(crank.plant(fold, qd), crank.jacobian(fold, qd), rng.standard_normal(4), qd)
                       for qd in rng.standard_normal((6, 4))])
        assert build_projectors(groups[-1][0][1]).rank == 2
        for states in groups:
            plants, jacs, f, qd = zip(*states)
            M, C, f_g, B = (np.stack([getattr(p, k) for p in plants]) for k in "M C f_g B".split())
            A, Adot = (np.stack([getattr(j, k) for j in jacs]) for k in ("A", "Adot"))
            f, qd = np.stack(f)[..., None], np.stack(qd)[..., None]
            stacked = kkt_oracle(PlantMatrices(M, C, f_g[..., None], B),
                                 ConstraintJacobian(A, Adot), f, qd)
            for i, state in enumerate(states):
                for alone, x in zip(kkt_oracle(*state), stacked):
                    assert alone.tobytes() == x[i, :, 0].tobytes()
            two = [x.reshape((2, 3) + x.shape[1:]) for x in (M, C, f_g[..., None], B, A, Adot, f, qd)]
            lead = kkt_oracle(PlantMatrices(*two[:4]), ConstraintJacobian(*two[4:6]), *two[6:])
            for x, y in zip(lead, stacked):
                assert x.shape == (2, 3) + y.shape[1:] and x.tobytes() == y.tobytes()

    @staticmethod
    def _lstsq(plant, jac, f, qd):
        """(q'', lam) of np.linalg.lstsq(K, rhs, rcond=None) at one state."""
        A = jac.A
        m, n = A.shape
        K = np.block([[plant.M, A.T], [A, np.zeros((m, m))]])
        rhs = np.concatenate([f + plant.f_g - plant.C @ qd, -jac.Adot @ qd])
        x = np.linalg.lstsq(K, rhs, rcond=None)[0]
        return x[:n], x[n:]

    def test_matches_lstsq_on_the_catalog(self):
        """On every catalog system's sampled states, the redundant pendulum's
        rank-deficient K among them, and on the crank at its fold, the
        stacked SVD solve agrees with lstsq member by member: each of q'' and
        lam to 1e-10 relative.  Over the 6000 oracle states of run_battery
        at seeds 0-19 the worst was 2.8e-13 for q'' and 1.3e-12 for lam, a
        margin of 75 or more."""
        rng = np.random.default_rng(43)
        crank, fold = slider_crank(), np.array([0.0, 1.0, 0.0, 0.0])
        stacks = [[(system, *system.sample_state(rng)) for _ in range(60)]
                  for system in catalog()]
        stacks.append([(crank, fold, qd) for qd in rng.standard_normal((6, 4))])
        assert build_projectors(crank.jacobian(fold, stacks[-1][0][2])).rank == 2
        for states in stacks:
            system = states[0][0]
            q, qd = (np.array(x) for x in zip(*(state[1:] for state in states)))
            f = rng.standard_normal(qd.shape)
            plant, jac = system.plant(q, qd), system.jacobian(q, qd)
            stacked = kkt_oracle(plant, jac, f[..., None], qd[..., None])
            for i in range(len(q)):
                alone = self._lstsq(system.plant(q[i], qd[i]), system.jacobian(q[i], qd[i]),
                                    f[i], qd[i])
                for x, ref in zip(stacked, alone):
                    assert np.linalg.norm(x[i, :, 0] - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_keeps_a_singular_value_below_the_rank_cutoff(self):
        """A particle held by the badly scaled row 1e-6 x1 = 0: K's singular
        values are 1, 1 and 1e-12, so its smallest ratio lies between lstsq's
        cutoff 3 eps and the kernel's RANK_TOL.  The oracle keeps it, as lstsq
        does, and finds x1'' = -(Adot q') / 1e-6 = -1e6; a cut at RANK_TOL
        would drop the constraint and give x1'' close to f_1 = 1."""
        plant = PlantMatrices(M=np.eye(2), C=np.zeros((2, 2)), f_g=np.zeros(2), B=np.eye(2))
        jac = ConstraintJacobian(A=np.array([[1e-6, 0.0]]), Adot=np.array([[0.0, 1.0]]))
        f, qd = np.array([1.0, 0.5]), np.array([0.0, 1.0])
        K = np.block([[plant.M, jac.A.T], [jac.A, np.zeros((1, 1))]])
        s = np.linalg.svd(K, compute_uv=False)
        assert 3 * np.finfo(float).eps < s[-1] / s[0] < RANK_TOL
        qdd, lam = kkt_oracle(plant, jac, f, qd)
        for x, ref in zip((qdd, lam), self._lstsq(plant, jac, f, qd)):
            assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        np.testing.assert_allclose(qdd, [-1e6, 0.5], rtol=1e-10)


class TestActuation:
    def test_identity_map(self):
        model = pendulum_model(np.eye(2))
        f_par = np.array([3.0, 0.0])
        np.testing.assert_allclose(model.Gamma @ f_par, [3.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(model.R @ f_par, [3.0, 0.0], atol=1e-12)

    def test_redundant_columns_split_equally(self):
        model = pendulum_model(np.array([[1.0, 1.0], [0.0, 0.0]]))
        f_par = np.array([3.0, 0.0])
        np.testing.assert_allclose(model.Gamma @ f_par, [1.5, 1.5], atol=1e-12)
        np.testing.assert_allclose(model.R @ f_par, [3.0, 0.0], atol=1e-12)

    def test_minimum_norm_against_normal_equations(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n, m, k = 5, 2, 4
            A = rng.standard_normal((m, n))
            proj = build_projectors(ConstraintJacobian(A=A, Adot=np.zeros((m, n))))
            B = rng.standard_normal((n, k))
            plant = PlantMatrices(M=np.eye(n), C=np.zeros((n, n)), f_g=np.zeros(n), B=B)
            model = assemble(plant, proj, mu=1.0)
            if not model.admissible:
                continue
            f_par = proj.P @ rng.standard_normal(n)
            u = model.Gamma @ f_par
            np.testing.assert_allclose(proj.P @ B @ u, f_par, atol=1e-9)
            np.testing.assert_allclose(model.R @ f_par, B @ u, atol=1e-9)
            # oracle: min-norm u via lstsq on P B u = f_par
            u_star, *_ = np.linalg.lstsq(proj.P @ B, f_par, rcond=None)
            np.testing.assert_allclose(u, u_star, atol=1e-8)


class TestForceSplit:
    def test_natural_reaction_needs_no_input(self):
        rng = np.random.default_rng(43)
        plant, proj, model = random_instance(rng)
        qd = proj.P @ rng.standard_normal(proj.n)
        f_par = proj.P @ rng.standard_normal(proj.n)
        natural = constraint_force(model, f_par, qd)
        f_perp = force_split_for_control(f_par, natural, model, qd)
        assert np.linalg.norm(f_perp) / (1 + np.linalg.norm(natural)) < 1e-9

    def test_round_trip(self):
        # applying the computed f_perp must realize the requested reaction
        rng = np.random.default_rng(47)
        for _ in range(20):
            plant, proj, model = random_instance(rng)
            qd = proj.P @ rng.standard_normal(proj.n)
            f_par = proj.P @ rng.standard_normal(proj.n)
            fc_d = proj.Q @ rng.standard_normal(proj.n)
            f_perp = force_split_for_control(f_par, fc_d, model, qd)
            realized = constraint_force(model, f_par + f_perp, qd)
            scale = 1 + np.linalg.norm(fc_d)
            assert np.linalg.norm(proj.Q @ (realized - fc_d)) / scale < 1e-8

    def test_rejects_motion_space_target(self):
        with pytest.raises(InvalidTargetError):
            force_split_for_control(np.zeros(2), np.array([1.0, 0.0]),
                                    pendulum_model(), np.zeros(2))
