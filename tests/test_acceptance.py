"""End-to-end acceptance suite.

Eleven numbered criteria covering projector algebra, the always-invertible
constrained inertia matrix, virtual-mass conditioning, the KKT ground-truth
oracle, oblique-projection identities, energy behavior, setpoint regulation,
topology switching, an analytic tension check, and constraint-force control.  Each test prints a
one-line PASS/FAIL verdict with the measured figure of merit.
"""

import numpy as np

from projdyn import (ConstraintJacobian, InvalidTargetError, PlantMatrices, RegulationGains,
                     Scenario, SetpointRegulator, acceleration, assemble,
                     build_projectors, catalog,
                     constraint_force, double_pendulum, force_split_for_control,
                     kkt_oracle, optimal_mu, pendulum, pseudo_inverse, run,
                     slider_crank, switching_particle)
from projdyn.battery import pdot_fd_check
from projdyn.model import pmp_eigenvalues

# the slider-crank's fold, where rank(A) drops from 3 to 2
FOLD = np.array([0.0, 1.0, 0.0, 0.0])


def verdict(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, detail


def random_spd(rng, n):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return Q @ np.diag(rng.uniform(0.5, 3.0, size=n)) @ Q.T


def test_criterion_01_projector_algebra():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n + 1))
        jac = ConstraintJacobian(A=rng.standard_normal((m, n)),
                                 Adot=rng.standard_normal((m, n)))
        proj = build_projectors(jac)
        P, Lam = proj.P, proj.Lambda
        worst = max(worst,
                    float(np.linalg.norm(P @ P - P)),
                    float(np.linalg.norm(P - P.T)),
                    float(np.linalg.norm(jac.A @ P)),
                    float(np.linalg.norm(P @ Lam)),
                    float(np.linalg.norm(Lam.T @ P)))
    ratios = []
    for _ in range(20):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        A0, A1, A2 = (rng.standard_normal((m, n)) for _ in range(3))

        def jac_at(t):
            return ConstraintJacobian(A=A0 + t * A1 + np.sin(t) * A2,
                                      Adot=A1 + np.cos(t) * A2)

        ratios.append(pdot_fd_check(jac_at, 0.3, 2e-3)
                      / pdot_fd_check(jac_at, 0.3, 1e-3))
    ratios = np.array(ratios)
    ok = worst <= 1e-10 and bool(np.all((ratios > 3.5) & (ratios < 4.5)))
    verdict(1, ok, f"max identity residual {worst:.3e} (tol 1e-10), "
                   f"fd ratios in [{ratios.min():.2f}, {ratios.max():.2f}]")


def test_criterion_02_inertia_invertible_at_singularity():
    system = slider_crank()
    q = FOLD
    proj = build_projectors(system.jacobian(q, np.zeros(4)))
    assert proj.rank == 2  # rank drop from the generic 3
    plant = system.plant(q, np.zeros(4))
    mu = optimal_mu(plant, proj)
    model = assemble(plant, proj, mu)
    lam, nonzero = pmp_eigenvalues(plant, proj)
    lam = lam[nonzero]
    bound = min(mu, float(lam[0]))
    min_eig = float(np.linalg.eigvalsh(model.Mbar)[0])
    inv_res = float(np.linalg.norm(
        model.Mbar @ np.linalg.inv(model.Mbar) - np.eye(4)))
    ok = min_eig >= bound - 1e-9 and inv_res <= 1e-9
    verdict(2, ok, f"min eig(Mbar) {min_eig:.6g} >= bound {bound:.6g}, "
                   f"inversion residual {inv_res:.3e} (tol 1e-9)")


def test_criterion_03_skew_symmetry_along_trajectories():
    h = 1e-5
    worst = 0.0
    for system in (pendulum(mass_val=1.3), double_pendulum(m1=1.2, m2=0.7)):
        q0, _ = system.default_state
        qd0 = np.zeros(system.n)
        scenario = Scenario(system=system, q0=q0, qdot0=qd0,
                            horizon=2.0, dt=1e-3)
        trace = run(scenario)
        for i in np.linspace(50, len(trace.t) - 1, 15, dtype=int):
            q, qd = trace.q[i], trace.qdot[i]

            def mbar_at(dt_):
                qq = q + dt_ * qd
                proj_ = build_projectors(system.jacobian(qq, qd))
                return assemble(system.plant(qq, qd), proj_, 2.0).Mbar

            proj = build_projectors(system.jacobian(q, qd))
            Cbar = assemble(system.plant(q, qd), proj, 2.0).Cbar
            X = (mbar_at(h) - mbar_at(-h)) / (2 * h) - 2.0 * Cbar
            worst = max(worst, float(np.linalg.norm(X + X.T)))
    ok = worst <= 1e-6
    verdict(3, ok, f"max skew-symmetry residual {worst:.3e} (tol 1e-6)")


def test_criterion_04_conditioning_sweep():
    rng = np.random.default_rng(104)
    worst_rel = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, n))
        proj = build_projectors(ConstraintJacobian(
            A=rng.standard_normal((m, n)), Adot=np.zeros((m, n))))
        plant = PlantMatrices(M=random_spd(rng, n), C=np.zeros((n, n)),
                              f_g=np.zeros(n), B=np.eye(n))
        lam, nonzero = pmp_eigenvalues(plant, proj)
        lam = lam[nonzero]
        if lam.size == 0:
            continue
        lo, hi = float(lam[0]), float(lam[-1])
        target = hi / lo
        grid = np.unique(np.concatenate(
            [np.geomspace(1e-3 * lo, 1e3 * hi, 120),
             [lo, np.sqrt(lo * hi), hi]]))
        conds = np.array([assemble(plant, proj, float(g)).cond for g in grid])
        # the sweep minimum must equal lam_max/lam_min
        worst_rel = max(worst_rel, abs(conds.min() - target) / target)
        # ... attained exactly on the closed interval [lam_min, lam_max]
        inside = (grid >= lo * (1 - 1e-12)) & (grid <= hi * (1 + 1e-12))
        assert np.all(np.abs(conds[inside] - target) / target <= 1e-9)
        outside = grid[~inside][np.abs(np.log(grid[~inside] / np.clip(grid[~inside], lo, hi))) > 1e-6]
        conds_out = np.array([assemble(plant, proj, float(g)).cond
                              for g in outside])
        assert np.all(conds_out > target * (1 - 1e-9))
        mu_star = optimal_mu(plant, proj)
        assert lo * (1 - 1e-12) <= mu_star <= hi * (1 + 1e-12)
    ok = worst_rel <= 1e-9
    verdict(4, ok, f"worst relative gap to lam_max/lam_min: {worst_rel:.3e} "
                   "(tol 1e-9), minimum attained on the closed interval")


def test_criterion_05_kkt_oracle_equivalence():
    worst = 0.0
    for system in catalog():
        rng = np.random.default_rng(105)
        for _ in range(500):
            q, qd = system.sample_state(rng)
            jac = system.jacobian(q, qd)
            proj = build_projectors(jac)
            qd = proj.P @ qd
            plant = system.plant(q, qd)
            model = assemble(plant, proj, optimal_mu(plant, proj))
            f = rng.standard_normal(system.n)
            qdd = acceleration(model, f, qd)
            f_c = constraint_force(model, f, qd)
            qdd_o, lam = kkt_oracle(plant, jac, f, qd)
            worst = max(worst,
                        float(np.linalg.norm(qdd - qdd_o)),
                        float(np.linalg.norm(f_c - (-jac.A.T @ lam))))
    # the singular slider-crank configuration, explicitly
    system = slider_crank()
    q = FOLD
    jac = system.jacobian(q, np.zeros(4))
    proj = build_projectors(jac)
    rng = np.random.default_rng(1055)
    for _ in range(20):
        qd = proj.P @ rng.standard_normal(4)
        jac = system.jacobian(q, qd)
        proj = build_projectors(jac)
        qd = proj.P @ qd
        plant = system.plant(q, qd)
        model = assemble(plant, proj, optimal_mu(plant, proj))
        f = rng.standard_normal(4)
        qdd = acceleration(model, f, qd)
        f_c = constraint_force(model, f, qd)
        qdd_o, lam = kkt_oracle(plant, jac, f, qd)
        worst = max(worst,
                    float(np.linalg.norm(qdd - qdd_o)),
                    float(np.linalg.norm(f_c - (-jac.A.T @ lam))))
    ok = worst <= 1e-8
    verdict(5, ok, f"max deviation from KKT oracle {worst:.3e} (tol 1e-8), "
                   "including rank-deficient configurations")


def test_criterion_06_oblique_identities():
    rng = np.random.default_rng(106)
    worst = 0.0
    done = 0
    while done < 500:
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        proj = build_projectors(ConstraintJacobian(
            A=rng.standard_normal((m, n)), Adot=rng.standard_normal((m, n))))
        B = rng.standard_normal((n, n))
        sv = np.linalg.svd(proj.P @ B, compute_uv=False)
        if sv[max(n - proj.rank - 1, 0)] < 0.1:
            continue
        done += 1
        plant = PlantMatrices(M=random_spd(rng, n), C=np.zeros((n, n)),
                              f_g=np.zeros(n), B=B)
        model = assemble(plant, proj, float(rng.uniform(0.2, 5.0)))
        R, S, P, Q = model.R, model.S, proj.P, proj.Q
        PMP = P @ plant.M @ P
        pmp_pinv, _ = pseudo_inverse(0.5 * (PMP + PMP.T))
        worst = max(worst,
                    float(np.linalg.norm(R @ R - R)),
                    float(np.linalg.norm(P @ R - P)),
                    float(np.linalg.norm(R @ P - R)),
                    float(np.linalg.norm(S @ S - S)),
                    float(np.linalg.norm(Q @ S - S)),
                    float(np.linalg.norm(S @ Q - Q)),
                    float(np.linalg.norm(model.X - pmp_pinv)))
    # special case: columns of B spanning null(A) exactly make R orthogonal
    ortho_worst = 0.0
    for _ in range(20):
        n, m = 6, 2
        A = rng.standard_normal((m, n))
        proj = build_projectors(ConstraintJacobian(A=A, Adot=np.zeros((m, n))))
        _, _, vt = np.linalg.svd(A)
        B = vt[m:].T
        plant = PlantMatrices(M=random_spd(rng, n), C=np.zeros((n, n)),
                              f_g=np.zeros(n), B=B)
        model = assemble(plant, proj, 1.0)
        ortho_worst = max(ortho_worst,
                           float(np.linalg.norm(model.R - model.R.T)),
                           float(np.linalg.norm(model.R - proj.P)))
    ok = worst <= 1e-10 and ortho_worst <= 1e-10
    verdict(6, ok, f"max identity residual {worst:.3e}, orthogonal special "
                   f"case {ortho_worst:.3e} (tol 1e-10)")


def test_criterion_07_energy_and_mu_invariance():
    traces = {}
    for mu in (0.1, 1.0, 10.0):
        scenario = Scenario(system=pendulum(), q0=np.array([1.0, 0.0]),
                            qdot0=np.zeros(2), horizon=10.0, dt=1e-3, mu=mu)
        traces[mu] = run(scenario)
    drift = max(float(np.abs(tr.energy - tr.energy[0]).max()
                      / (1 + abs(tr.energy[0]))) for tr in traces.values())
    state_gap = 0.0
    base = traces[1.0]
    for mu in (0.1, 10.0):
        state_gap = max(state_gap,
                        float(np.abs(traces[mu].q - base.q).max()),
                        float(np.abs(traces[mu].qdot - base.qdot).max()))
    ok = drift <= 1e-5 and state_gap <= 1e-6
    verdict(7, ok, f"relative energy drift {drift:.3e} (tol 1e-5), "
                   f"mu-invariance state gap {state_gap:.3e} (tol 1e-6)")


def test_criterion_08_setpoint_regulation():
    th_star = 1.0
    q_star = np.array([np.sin(th_star), -np.cos(th_star)])
    gains = RegulationGains(Kp=10 * np.eye(2), Kd=10 * np.eye(2), sigma=1.5)
    scenario = Scenario(system=pendulum(), q0=np.array([0.0, -1.0]),
                        qdot0=np.zeros(2), horizon=20.0, dt=1e-3,
                        controller=SetpointRegulator(q_star, gains))
    trace = run(scenario)
    e_final = float(np.linalg.norm(trace.q[-1] - q_star))
    speed_final = float(np.linalg.norm(trace.qdot[-1]))
    dV_max = float(np.diff(trace.lyapunov).max())
    ok = e_final < 1e-3 and speed_final < 1e-3 and dV_max <= 1e-8
    verdict(8, ok, f"final |e| {e_final:.3e}, final speed {speed_final:.3e} "
                   f"(tol 1e-3), max Lyapunov increase {dV_max:.3e} (tol 1e-8)")


def test_criterion_09_topology_switching():
    system = switching_particle()
    scenario = Scenario(system=system, q0=np.zeros(2),
                        qdot0=np.array([1.0, 0.5]), horizon=2.0, dt=1e-3,
                        initial_active=system.default_initial_active,
                        events=system.default_events)
    trace = run(scenario)
    ev = trace.events[0] if trace.events else None
    post_drift = float(trace.drift[trace.t > 1.0].max())
    ok = (ev is not None and ev["rank_before"] == 0 and ev["rank_after"] == 1
          and trace.q.shape[1] == 2 and post_drift <= 1e-12)
    logged = (f"rank {ev['rank_before']} -> {ev['rank_after']} at "
              f"t={ev['time']:g}" if ev else "no event logged")
    verdict(9, ok, f"{logged}, post-event drift {post_drift:.3e} (tol 1e-12)")


def test_criterion_10_pendulum_tension():
    worst = 0.0
    system = pendulum()  # m = 1, L = 1, g = 9.81
    q = np.array([0.0, -1.0])
    for w in (0.5, 1.0, 2.0):
        qd = np.array([w, 0.0])
        proj = build_projectors(system.jacobian(q, qd))
        plant = system.plant(q, qd)
        model = assemble(plant, proj, optimal_mu(plant, proj))
        f_c = constraint_force(model, np.zeros(2), qd)
        analytic = 9.81 + w ** 2  # m (g + w^2 L)
        worst = max(worst, abs(float(np.linalg.norm(f_c)) - analytic))
    ok = worst <= 1e-8
    verdict(10, ok, f"max tension error vs m(g + w^2 L): {worst:.3e} (tol 1e-8)")


def test_criterion_11_constraint_force_control():
    # the paper's second oblique projector at work: a normal-space input
    # f_perp sets the constraint reaction while f_par sets the motion
    worst_natural = worst_realized = 0.0
    rejected = states = 0
    for system in (double_pendulum(), slider_crank()):
        rng = np.random.default_rng(111)
        for _ in range(50):
            q, qd = system.sample_state(rng)
            proj = build_projectors(system.jacobian(q, qd))
            qd = proj.P @ qd
            proj = build_projectors(system.jacobian(q, qd))
            plant = system.plant(q, qd)
            model = assemble(plant, proj, optimal_mu(plant, proj))
            f_par = proj.P @ rng.standard_normal(system.n)
            natural = constraint_force(model, f_par, qd)
            worst_natural = max(worst_natural, float(np.linalg.norm(
                force_split_for_control(f_par, natural, model, qd)))
                / (1 + float(np.linalg.norm(natural))))
            fc_d = proj.Q @ rng.standard_normal(system.n)
            f_perp = force_split_for_control(f_par, fc_d, model, qd)
            realized = constraint_force(model, f_par + f_perp, qd)
            worst_realized = max(worst_realized, float(np.linalg.norm(realized - fc_d))
                                 / (1 + float(np.linalg.norm(fc_d))))
            try:
                force_split_for_control(f_par, proj.P @ rng.standard_normal(system.n),
                                        model, qd)
            except InvalidTargetError:
                rejected += 1
            states += 1
    ok = worst_natural <= 1e-8 and worst_realized <= 1e-8 and rejected == states
    verdict(11, ok, f"natural reaction needs input {worst_natural:.3e}, requested "
                    f"reaction error {worst_realized:.3e} (tol 1e-8 relative), "
                    f"motion-space targets rejected at {rejected}/{states} states")
