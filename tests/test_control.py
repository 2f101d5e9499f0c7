"""Setpoint regulation: law evaluation, Lyapunov accounting, closed loop."""

import numpy as np
import pytest

from projdyn import (RANK_TOL, AdmissibilityError, ConstraintJacobian, PlantMatrices,
                     RegulationGains, Scenario, SetpointRegulator, assemble,
                     build_projectors, control_force, lyapunov_value, pendulum, run)
from projdyn.control import EPS_V, fallback_direction, velocity_direction


def free_scalar_proj():
    return build_projectors(ConstraintJacobian(A=np.zeros((1, 1)),
                                               Adot=np.zeros((1, 1))))


class TestGains:
    def test_sigma_must_exceed_one(self):
        with pytest.raises(ValueError):
            RegulationGains(Kp=np.eye(1), Kd=np.eye(1), sigma=1.0)

    def test_kp_must_be_positive_definite(self):
        with pytest.raises(ValueError):
            RegulationGains(Kp=-np.eye(2), Kd=np.eye(2), sigma=2.0)

    def test_kd_must_be_symmetric(self):
        with pytest.raises(ValueError):
            RegulationGains(Kp=np.eye(2), Kd=np.array([[1.0, 1.0], [0.0, 1.0]]),
                            sigma=2.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gains, message", [
        (dict(Kp=np.diag([np.inf, 1.0])), "^Kp must be finite$"),
        (dict(Kd=np.full((2, 2), np.nan)), "^Kd must be finite$"),
        (dict(sigma=float("nan")), "^sigma must be finite, got nan$"),
        (dict(sigma=float("inf")), "^sigma must be finite, got inf$"),
    ], ids=["infinite-kp", "nan-kd", "nan-sigma", "infinite-sigma"])
    def test_gains_must_be_finite(self, gains, message):
        # checked before symmetry and definiteness, which NaN and inf defeat
        with pytest.raises(ValueError, match=message):
            RegulationGains(**{"Kp": np.eye(2), "Kd": np.eye(2), "sigma": 2.0, **gains})


class TestVelocityDirection:
    def test_unit_above_threshold(self):
        proj = build_projectors(ConstraintJacobian(A=np.zeros((1, 2)),
                                                   Adot=np.zeros((1, 2))))
        eta = velocity_direction(np.array([0.0, -2.0]), np.ones(2), proj)
        np.testing.assert_allclose(eta, [0.0, -1.0], atol=1e-14)

    def test_tapered_below_threshold(self):
        proj = build_projectors(ConstraintJacobian(A=np.zeros((1, 2)),
                                                   Adot=np.zeros((1, 2))))
        qd = np.array([0.1, 0.0])
        eta = velocity_direction(qd, np.ones(2), proj)
        np.testing.assert_allclose(eta, qd / EPS_V, atol=1e-14)

    def test_rest_with_reachable_error_gives_zero(self):
        proj = build_projectors(ConstraintJacobian(A=np.zeros((1, 2)),
                                                   Adot=np.zeros((1, 2))))
        eta = velocity_direction(np.zeros(2), np.array([0.3, 0.0]), proj)
        np.testing.assert_array_equal(eta, np.zeros(2))

    def test_stalled_rest_uses_fallback(self):
        # e entirely in the normal space at rest: kick along an admissible
        # direction instead of sitting at the spurious equilibrium
        q = np.array([0.0, -1.0])
        proj = build_projectors(ConstraintJacobian(A=2 * q[None, :],
                                                   Adot=np.zeros((1, 2))))
        eta = velocity_direction(np.zeros(2), np.array([0.0, -2.0]), proj)
        assert np.linalg.norm(eta) == pytest.approx(1.0)
        assert np.linalg.norm(proj.Q @ eta) < 1e-12

    def test_fallback_requires_admissible_space(self):
        # rank(A) = n: P = 0, so there is no direction to take
        proj = build_projectors(ConstraintJacobian(A=np.eye(2),
                                                   Adot=np.zeros((2, 2))))
        np.testing.assert_array_equal(fallback_direction(proj), np.zeros(2))

    def test_fallback_is_a_unit_admissible_vector(self):
        # off the axes P's first column has norm 1/sqrt(2), not 1
        proj = build_projectors(ConstraintJacobian(A=np.array([[1.0, 1.0]]),
                                                   Adot=np.zeros((1, 2))))
        assert np.linalg.norm(proj.P[:, 0]) == pytest.approx(np.sqrt(0.5))
        eta = fallback_direction(proj)
        assert np.linalg.norm(eta) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(proj.Q @ eta) < 1e-12


class TestControlForce:
    def test_scalar_hand_computation(self):
        # n = 1 free mass, Kp = Kd = 1, sigma = 2, e = 0.5, qdot = -1:
        # eta = -1, inner = 0.5 + 2*0.5*(-1) - 1 = -1.5, f = 1.5
        plant = PlantMatrices(M=np.eye(1), C=np.zeros((1, 1)),
                              f_g=np.zeros(1), B=np.eye(1))
        gains = RegulationGains(Kp=np.eye(1), Kd=np.eye(1), sigma=2.0)
        f, u = control_force(np.array([0.5]), np.array([-1.0]), np.zeros(1),
                             gains, assemble(plant, free_scalar_proj(), mu=1.0))
        np.testing.assert_allclose(f, [1.5], atol=1e-14)
        np.testing.assert_allclose(u, [1.5], atol=1e-14)

    def test_gravity_compensation_at_target(self):
        plant = PlantMatrices(M=np.eye(1), C=np.zeros((1, 1)),
                              f_g=np.array([-9.81]), B=np.eye(1))
        gains = RegulationGains(Kp=np.eye(1), Kd=np.eye(1), sigma=2.0)
        f, _ = control_force(np.zeros(1), np.zeros(1), np.zeros(1),
                             gains, assemble(plant, free_scalar_proj(), mu=1.0))
        np.testing.assert_allclose(f, [9.81], atol=1e-12)

    def test_force_lies_in_range_of_b(self):
        rng = np.random.default_rng(8)
        n, m = 4, 2
        A = rng.standard_normal((m, n))
        proj = build_projectors(ConstraintJacobian(A=A, Adot=np.zeros((m, n))))
        plant = PlantMatrices(M=np.eye(n), C=np.zeros((n, n)),
                              f_g=rng.standard_normal(n),
                              B=rng.standard_normal((n, n)))
        gains = RegulationGains(Kp=np.eye(n), Kd=np.eye(n), sigma=1.5)
        f, u = control_force(rng.standard_normal(n),
                             proj.P @ rng.standard_normal(n),
                             rng.standard_normal(n), gains, assemble(plant, proj, mu=1.0))
        np.testing.assert_allclose(f, plant.B @ u, atol=1e-12)

    def test_admissibility_cutoff_is_rank_tol(self):
        # P B is cut like rank(A), at RANK_TOL: the law runs where
        # sigma_min(P B) / sigma_max = 1e-5 and finds P B rank-deficient
        # where it is 1e-12
        proj = build_projectors(ConstraintJacobian(A=np.zeros((1, 2)), Adot=np.zeros((1, 2))))
        gains = RegulationGains(Kp=np.eye(2), Kd=np.eye(2), sigma=1.5)
        state = (np.ones(2), np.zeros(2), np.zeros(2), gains)
        for ratio in (1e-5, 1e-12):
            plant = PlantMatrices(M=np.eye(2), C=np.zeros((2, 2)), f_g=np.zeros(2),
                                  B=np.diag([1.0, ratio]))
            sv = np.linalg.svd(proj.P @ plant.B, compute_uv=False)
            assert sv[-1] / sv[0] == ratio
            model = assemble(plant, proj, mu=1.0)
            if ratio > RANK_TOL:
                control_force(*state, model)
            else:
                with pytest.raises(AdmissibilityError):
                    control_force(*state, model)


    @pytest.mark.parametrize("A", [np.eye(2), np.array([[0.3, 0.7], [0.6, -0.2]])],
                             ids=["axis-rows", "corner-rows"])
    def test_pinned_particle_gets_no_force(self, A):
        # rank(A) = n at rest, 1e-9 from the target: P = 0 exactly, Gamma = 0,
        # and no admissible direction is sought, so the law applies no force
        proj = build_projectors(ConstraintJacobian(A=A, Adot=np.zeros((2, 2))))
        plant = PlantMatrices(M=np.eye(2), C=np.zeros((2, 2)), f_g=np.array([0.0, -9.81]),
                              B=np.eye(2))
        gains = RegulationGains(Kp=10 * np.eye(2), Kd=10 * np.eye(2), sigma=1.5)
        f, u = control_force(np.array([1e-9, 0.0]), np.zeros(2), np.zeros(2), gains,
                             assemble(plant, proj, mu=1.0))
        np.testing.assert_array_equal(f, np.zeros(2))
        np.testing.assert_array_equal(u, np.zeros(2))


class TestLyapunov:
    def test_zero_at_target_at_rest(self):
        plant = PlantMatrices(M=np.eye(2), C=np.zeros((2, 2)),
                              f_g=np.zeros(2), B=np.eye(2))
        proj = build_projectors(ConstraintJacobian(A=np.zeros((1, 2)),
                                                   Adot=np.zeros((1, 2))))
        model = assemble(plant, proj, mu=1.0)
        gains = RegulationGains(Kp=2 * np.eye(2), Kd=np.eye(2), sigma=2.0)
        q_star = np.array([1.0, 2.0])
        assert lyapunov_value(q_star, np.zeros(2), q_star, gains, model.Mbar) == 0.0
        v = lyapunov_value(q_star + [0.1, 0.0], np.zeros(2), q_star, gains,
                           model.Mbar)
        assert v == pytest.approx(0.5 * 2 * 0.01)

    def test_closed_loop_descent(self):
        # short regulated pendulum run: V non-increasing, error shrinking
        system = pendulum()
        gains = RegulationGains(Kp=10 * np.eye(2), Kd=10 * np.eye(2),
                                sigma=1.5)
        q_star = np.array([np.sin(0.6), -np.cos(0.6)])
        scenario = Scenario(system=system, q0=np.array([0.0, -1.0]),
                            qdot0=np.zeros(2), horizon=3.0, dt=1e-3,
                            controller=SetpointRegulator(q_star, gains))
        trace = run(scenario)
        dV = np.diff(trace.lyapunov)
        assert dV.max() <= 1e-8
        e0 = np.linalg.norm(trace.q[0] - q_star)
        e1 = np.linalg.norm(trace.q[-1] - q_star)
        assert e1 < 0.5 * e0
        assert trace.lyapunov[-1] < 0.2 * trace.lyapunov[0]
