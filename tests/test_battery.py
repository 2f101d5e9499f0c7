"""The invariant checks, the battery behind `projdyn check` and self_test:
their inputs are built once per shape with each member's own bits, and
their arguments are checked."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

import projdyn
from projdyn import PlantMatrices, battery, double_pendulum, pendulum, systems
from projdyn.battery import run_battery, self_test
from projdyn.systems import GRAVITY, MechanicalSystem


def test_an_unknown_fault_is_rejected():
    """A misspelt fault is an error that names the known one, not a clean
    battery that records the typo as its fault and passes."""
    with pytest.raises(ValueError, match="cbar-sign"):
        run_battery(seed=0, fault="cbar_sign")


def test_linalg_cost_of_a_run(monkeypatch):
    """One run at seed 0 takes one QR per shape group of random masses (the
    spectrum law's and the oblique check's groups, 55 in all, against 250
    masses drawn), at most 479 SVDs (the pdot check's five per shape group of
    paths among them), and one lstsq per catalog state of the oracle check
    (5 systems x 60)."""
    calls = {"qr": [], "svd": [], "lstsq": []}
    for name, seen in calls.items():
        original = getattr(np.linalg, name)

        def counted(a, *args, _seen=seen, _fn=original, **kwargs):
            _seen.append(np.shape(a))
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    groups = []
    by_shape = battery._groups
    monkeypatch.setattr(battery, "_groups",
                        lambda draws: groups.append(len(stacks := by_shape(draws))) or stacks)
    run_battery(seed=0)
    _, _, spectrum, oblique = groups         # projector algebra and pdot draw no masses
    assert len(calls["qr"]) == spectrum + oblique == 55
    assert all(len(shape) == 3 for shape in calls["qr"])        # every QR is a stack
    assert len(calls["svd"]) <= 479 and len(calls["lstsq"]) == 300


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
