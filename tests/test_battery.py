"""The invariant checks, the battery behind `projdyn check` and self_test:
their inputs are built once per shape with each member's own bits, and
their arguments are checked."""

import copy
import dataclasses
from collections import Counter

import numpy as np
import pytest

import projdyn
from projdyn import (ConstrainedModel, PlantMatrices, ProjectorBundle, assemble, battery, forces,
                     double_pendulum, pendulum, pseudo_inverse, systems)
from projdyn.kernel import configuration_projectors, with_adot
from projdyn.battery import run_battery, self_test
from projdyn.systems import GRAVITY, MechanicalSystem


def test_an_unknown_fault_is_rejected():
    """A misspelt fault is an error that names the known one, not a clean
    battery that records the typo as its fault and passes."""
    with pytest.raises(ValueError, match="cbar-sign"):
        run_battery(seed=0, fault="cbar_sign")


def test_a_wrong_sign_in_r_fails_the_oblique_check_alone(monkeypatch):
    """R = -B Gamma is no projector, and only the oblique check reads R: with
    that fault every other check of a run passes."""
    monkeypatch.setattr(ConstrainedModel, "R",
                        property(lambda model: -(model.plant.B @ model.Gamma)))
    report = run_battery(seed=0)
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["oblique-identities"]


@pytest.mark.parametrize("seed", [0, 1, 2])     # oracle residuals 32.4, 31.0 and 31.9
def test_a_wrong_sign_in_the_constraint_force_fails_the_oracle_check_alone(monkeypatch, seed):
    """A reaction of the wrong sign leaves the acceleration as it is, and
    only the oracle check compares f_c with a reference (-A^T lam): with
    that fault every other check of a run passes."""
    right = forces.constraint_force
    monkeypatch.setattr(forces, "constraint_force",
                        lambda model, f, qdot: -right(model, f, qdot))
    report = run_battery(seed=seed)
    assert [c["name"] for c in report["checks"] if not c["passed"]] == ["kkt-oracle-equivalence"]


def test_linalg_cost_of_a_run(monkeypatch):
    """One run at seed 0 stacks each operator by the shape it reads: one QR
    per n of random masses in each of the spectrum law's and the oblique
    check's (14 in all, against 250 masses drawn), 198 SVDs, 22 solves and
    24 eigvalsh, every SVD, QR and solve on a stack.  The oracle check
    solves its 300 catalog states with one SVD per system (5 of the 198),
    and no lstsq."""
    calls = {"qr": [], "svd": [], "solve": [], "eigvalsh": [], "lstsq": []}
    for name, seen in calls.items():
        original = getattr(np.linalg, name)

        def counted(a, *args, _seen=seen, _fn=original, **kwargs):
            _seen.append(np.shape(a))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    run_battery(seed=0)
    assert {name: len(shapes) for name, shapes in calls.items()} == {
        "qr": 14, "svd": 198, "solve": 22, "eigvalsh": 24, "lstsq": 0}
    assert sorted(shape[-1] for shape in calls["qr"]) == sorted([*range(2, 9)] * 2)
    assert all(len(shape) == 3 for name in ("qr", "svd", "solve") for shape in calls[name])


def _oblique_identities_per_candidate(rng):
    """The oblique check run one candidate at a time, each drawn whole before
    its test: the reference for the draw stream of the stacked test.
    Returns the check's result and the number of candidates rejected."""
    draws, rejected = [], 0
    while len(draws) < 150:
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, n))
        A, Adot = rng.standard_normal((2, m, n))
        proj = configuration_projectors(A)
        B = rng.standard_normal((n, n))
        mass = (*battery._spd_draw(rng, n), rng.uniform(0.2, 5.0))
        sv = np.linalg.svd(proj.P @ B, compute_uv=False)
        if sv[n - proj.rank - 1] < 0.1:
            rejected += 1
            continue
        draws.append((Adot, proj.P, proj.Q, proj.rank, proj.A_pinv, B, *mass))
    residuals = []
    for Adot, P, Q, rank, A_pinv, B, G, d, mu in battery._groups(draws):
        proj = with_adot(ProjectorBundle(P, Q, None, None, rank, A_pinv), Adot)
        plant = battery._spd_plant(G, d, B)
        model = assemble(plant, proj, mu)
        R, S = model.R, model.S
        PMP = P @ plant.M @ P
        pmp_pinv, _ = pseudo_inverse(0.5 * (PMP + PMP.swapaxes(-1, -2)))
        residuals += [battery._norms(R @ R - R), battery._norms(P @ R - P),
                      battery._norms(R @ P - R), battery._norms(S @ S - S),
                      battery._norms(Q @ S - S), battery._norms(S @ Q - Q),
                      battery._norms(model.X - pmp_pinv)]
    return ("oblique-identities", battery._worst(residuals), 1e-10), rejected


@pytest.mark.parametrize("seed", [2, 4, 24, 42])     # 0, 3, 1 and 1 candidates rejected
def test_the_oblique_check_keeps_the_draw_stream(seed):
    """The stacked candidate test draws what the per-candidate test draws:
    the same report, and the generator left in the same state for the
    checks after it."""
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    assert battery.check_oblique_identities(rng) == _oblique_identities_per_candidate(reference)[0]
    assert rng.bit_generator.state == reference.bit_generator.state


def test_the_oblique_check_tests_each_candidate_once(monkeypatch):
    """In run_battery(seed=42) the oblique check hands configuration_projectors
    150 + k members, k its rejections (2): a rejection costs one fresh
    candidate, not a re-test of every candidate after it."""
    rng = np.random.default_rng(42)
    for check in (battery.check_projector_algebra, battery.check_pdot_finite_difference,
                  battery.check_skew_symmetry, battery.check_spectrum_law,
                  battery.check_oracle_equivalence):
        check(rng)
    _, rejected = _oblique_identities_per_candidate(copy.deepcopy(rng))
    members, original = [], battery.configuration_projectors
    monkeypatch.setattr(battery, "configuration_projectors",
                        lambda A: members.append(len(A)) or original(A))
    battery.check_oblique_identities(rng)
    assert rejected == 2 and sum(members) == 150 + rejected


def test_the_pdot_check_evaluates_stacks(monkeypatch):
    """The pdot check evaluates its 20 paths as one stack per shape group at
    each of its five points, t, t +- h and t +- h/2: no one-state
    build_projectors call."""
    shapes = []
    original = battery.build_projectors
    monkeypatch.setattr(battery, "build_projectors",
                        lambda jac: shapes.append(jac.A.shape) or original(jac))
    battery.check_pdot_finite_difference(np.random.default_rng(0))
    assert all(len(shape) == 3 for shape in shapes)
    per_group = Counter(shapes)
    assert set(per_group.values()) == {5} and sum(shape[0] for shape in per_group) == 20


def _system_calls(monkeypatch):
    """The shapes of q at each MechanicalSystem.jacobian and .plant call, by
    method name, filled in as the calls are made."""
    calls = {"jacobian": [], "plant": []}
    for name, seen in calls.items():
        original = getattr(MechanicalSystem, name)

        def counted(system, q, qdot, _seen=seen, _fn=original):
            _seen.append(np.shape(q))
            return _fn(system, q, qdot)
        monkeypatch.setattr(MechanicalSystem, name, counted)
    return calls


def test_system_evaluations_of_a_run(monkeypatch):
    """A catalog system's stack goes through its own jacobian and plant: two
    stacks per catalog system (the oracle and the route checks) and three
    per skew-symmetry system, 16 calls of each, every one on a 2-D stack."""
    calls = _system_calls(monkeypatch)
    run_battery(seed=0)
    assert {name: [len(shape) for shape in shapes] for name, shapes in calls.items()} == {
        "jacobian": [2] * 16, "plant": [2] * 16}


def test_self_test_lives_in_the_battery():
    assert projdyn.self_test is self_test and not hasattr(systems, "self_test")


def test_self_test_evaluates_one_stack(monkeypatch):
    """self_test evaluates its samples as one (N, n) stack at q and q +- h qd:
    three jacobian and three plant calls, whatever the sample count."""
    calls = _system_calls(monkeypatch)
    assert self_test(double_pendulum(), samples=7, rng=np.random.default_rng(4))["passed"]
    assert calls == {"jacobian": [(7, 4)] * 3, "plant": [(7, 4)] * 3}


@pytest.mark.parametrize("samples", [0, -3])
def test_self_test_needs_a_sample(samples):
    """A run that checks no state is an error, not a pass."""
    with pytest.raises(ValueError, match="samples must be a positive int"):
        self_test(pendulum(), samples=samples)


@pytest.mark.parametrize("coriolis, passed", [(0.5, True), (0.0, False)])
def test_self_test_sees_mdot(coriolis, passed):
    """A pendulum with M = (1 + 0.5 x^2) I, so Mdot = x xdot I is not zero,
    and C = coriolis x xdot I.  At coriolis 0.5, Mdot - 2C = 0 and the
    report passes (skew measured at 4.3e-11); at 0 it fails (2.70).  Every
    catalog plant has Mdot = 0 and C = 0, so this is the test that sees
    self_test drop either term of Mdot - 2C."""
    def plant_at(q, qdot):
        return PlantMatrices(M=(1.0 + 0.5 * q[0] ** 2) * np.eye(2),
                             C=coriolis * q[0] * qdot[0] * np.eye(2),
                             f_g=[0.0, -GRAVITY], B=np.eye(2))

    system = dataclasses.replace(pendulum(), plant_at=plant_at)
    report = self_test(system, samples=60, rng=np.random.default_rng(1))
    assert report["passed"] is passed
    assert report["skew"] < 1e-9 if passed else report["skew"] > 1.0


def test_stacked_qr_and_mass_keep_each_members_bits():
    """The stacked build of the random masses gives each member the bits of
    its own QR and of Q @ diag(d) @ Q.T, for every n the battery draws."""
    rng = np.random.default_rng(23)
    for n in range(2, 9):
        G, d = rng.standard_normal((9, n, n)), rng.uniform(0.5, 3.0, size=(9, n))
        Q, R = np.linalg.qr(G)
        M = battery._spd_plant(G, d, np.eye(n)).M
        for i in range(9):
            Q_i, R_i = np.linalg.qr(G[i])
            assert Q_i.tobytes() == Q[i].tobytes() and R_i.tobytes() == R[i].tobytes()
            assert M[i].tobytes() == (Q_i @ np.diag(d[i]) @ Q_i.T).tobytes(), (n, i)


def test_a_stacked_matvec_keeps_each_members_bits():
    """(N, r, c) @ (N, c, 1) gives each member the bits of its 1-D matvec,
    also on a transposed view: the products kkt_oracle and the oracle check
    take on the stack (C q', Adot q', A^T lam)."""
    rng = np.random.default_rng(29)
    for r in range(1, 10):
        for c in range(1, 10):
            X, v = rng.standard_normal((7, r, c)), rng.standard_normal((7, c))
            Xt = rng.standard_normal((7, c, r)).swapaxes(-1, -2)
            for Y in (X, Xt):
                stacked = Y @ v[..., None]
                for i in range(7):
                    assert (Y[i] @ v[i]).tobytes() == stacked[i, :, 0].tobytes(), (r, c, i)
