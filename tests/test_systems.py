"""Built-in system catalog and the structured-definition loader."""

import dataclasses
import itertools
import json
import warnings

import numpy as np
import pytest

from projdyn import (AdmissibilityError, assemble, build_projectors, catalog,
                     double_pendulum, get_system, load_system, pendulum,
                     project_to_constraints, redundant_pendulum, self_test, slider_crank,
                     switching_particle)
from projdyn.loader import regulator
from projdyn.model import PlantMatrices
from test_engine import LOADED_SLIDER_CRANK, _case


class TestCatalog:
    def test_names_and_lookup(self):
        names = {s.name for s in catalog()}
        assert names == {"pendulum", "double-pendulum", "slider-crank",
                         "switching-particle", "redundant-pendulum"}
        assert get_system("pendulum").n == 2
        with pytest.raises(KeyError):
            get_system("nope")

    @pytest.mark.parametrize("system", catalog(), ids=lambda s: s.name)
    def test_structural_invariants(self, system):
        report = self_test(system, samples=60, rng=np.random.default_rng(1))
        assert report["passed"], report

    def test_self_test_without_rng_is_reproducible(self):
        assert self_test(double_pendulum(), samples=3) == self_test(double_pendulum(), samples=3)

    def test_self_test_needs_a_state_sampler(self):
        with pytest.raises(ValueError, match="has no state sampler"):
            self_test(load_system(LOADED_SLIDER_CRANK))

    @pytest.mark.parametrize("system", catalog(), ids=lambda s: s.name)
    def test_constant_plant_parts_are_shared_and_read_only(self, system):
        rng = np.random.default_rng(2)
        a = system.plant(*system.sample_state(rng))
        b = system.plant(*system.sample_state(rng))
        assert a is b      # one PlantMatrices per constant system
        for part in ("M", "C", "f_g", "B"):
            x = getattr(a, part)
            assert x is getattr(b, part)
            with pytest.raises(ValueError):
                x.flat[0] = 1.0

    @pytest.mark.parametrize("system", catalog(), ids=lambda s: s.name)
    def test_default_state_is_consistent(self, system):
        q0, qd0 = system.default_state
        active = system.default_initial_active
        if system.residual is not None:
            res = np.asarray(system.residual(q0), float)
            idx = list(range(system.m)) if active is None else list(active)
            assert np.all(np.abs(res[idx]) < 1e-10)
        phase = system if active is None else system.with_active(active)
        jac = phase.jacobian(q0, qd0)
        assert np.linalg.norm(jac.A @ qd0) < 1e-10

    def test_pendulum_geometry(self):
        system = pendulum()
        jac = system.jacobian(np.array([0.0, -1.0]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(jac.A, [[0.0, -2.0]], atol=1e-12)
        np.testing.assert_allclose(jac.Adot, [[2.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(system.residual(np.array([0.0, -1.0])),
                                   [0.0], atol=1e-15)

    def test_redundant_pendulum_same_projector(self):
        # the duplicated row changes m but not the constrained geometry
        q = np.array([np.sin(0.4), -np.cos(0.4)])
        qd = 0.8 * np.array([np.cos(0.4), np.sin(0.4)])
        p1 = build_projectors(pendulum().jacobian(q, qd))
        p2 = build_projectors(redundant_pendulum().jacobian(q, qd))
        assert p2.rank == 1
        np.testing.assert_allclose(p1.P, p2.P, atol=1e-12)
        np.testing.assert_allclose(p1.Pdot, p2.Pdot, atol=1e-12)

    def test_slider_crank_rank_drop(self):
        system = slider_crank()
        q_sing = np.array([0.0, 1.0, 0.0, 0.0])   # the folded configuration
        generic = build_projectors(
            system.jacobian(*system.default_state))
        singular = build_projectors(
            system.jacobian(q_sing, np.zeros(4)))
        assert generic.rank == 3
        assert singular.rank == 2

    def test_switching_particle_defaults(self):
        system = switching_particle()
        assert system.default_initial_active == ()
        assert system.default_events == ((1.0, (0,)),)
        jac = system.with_active(()).jacobian(np.zeros(2), np.ones(2))
        np.testing.assert_array_equal(jac.A, np.zeros((1, 2)))

    def test_double_pendulum_masses(self):
        system = double_pendulum(m1=2.0, m2=3.0)
        M = system.plant(*system.default_state).M
        np.testing.assert_allclose(M, np.diag([2.0, 2.0, 3.0, 3.0]),
                                   atol=1e-12)


class TestWithActive:
    SYSTEMS = catalog() + [load_system(LOADED_SLIDER_CRANK)]

    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
    def test_zeroes_the_inactive_rows(self, system):
        """For every subset of rows, A, Adot and Phi are the system's own with
        the other rows zeroed, bit for bit."""
        rng = np.random.default_rng(17)
        states = rng.standard_normal((5, 2, system.n))
        for size in range(system.m + 1):
            for rows in itertools.combinations(range(system.m), size):
                keep = np.isin(np.arange(system.m), rows)
                phase = system.with_active(rows)
                for q, qd in states:
                    jac, base = phase.jacobian(q, qd), system.jacobian(q, qd)
                    for got, want in ((jac.A, base.A), (jac.Adot, base.Adot)):
                        assert got.tobytes() == np.where(keep[:, None], want, 0.0).tobytes()
                    if system.residual is None:
                        assert phase.residual is None
                    else:
                        want = np.where(keep, system.residual(q), 0.0)
                        assert np.asarray(phase.residual(q)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("system", SYSTEMS, ids=lambda s: s.name)
    def test_every_row_active_is_the_system_itself(self, system):
        assert system.with_active(range(system.m)) is system
        assert system.with_active(reversed(range(system.m))) is system

    @pytest.mark.parametrize("rows", [(-1,), (1,), (True,), (0.0,)])
    def test_rejects_rows_outside_the_system(self, rows):
        with pytest.raises(ValueError, match=r"^rows must be ints in range\(1\), got "):
            pendulum().with_active(rows)

    def test_retraction_onto_the_active_rows(self):
        """The slider-crank with its slider row released retracts onto its two
        links, as the double pendulum does, and leaves y2 off zero."""
        crank = slider_crank()
        q = np.array([1.01, -0.02, 2.03, 0.05])
        retracted = project_to_constraints(q, crank.with_active((0, 1)))
        phi = crank.residual(retracted)
        assert np.linalg.norm(phi[:2]) < 1e-10
        assert abs(phi[2]) > 1e-2
        np.testing.assert_allclose(retracted, project_to_constraints(q, double_pendulum()),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("kp, kd, gain", [(np.inf, 10.0, "Kp"), (10.0, np.inf, "Kd"),
                                          (np.nan, 10.0, "Kp")])
def test_regulator_names_a_non_finite_gain_without_a_warning(kp, kd, gain):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{gain} must be finite$"):
            regulator(pendulum(), np.array([0.84, -0.54]), kp, kd, 1.5)


def test_regulator_gains_are_the_gain_times_the_identity():
    reg = regulator(double_pendulum(), np.array([1.0, 0.0, 1.0, -1.0]), 3.0, 7.5, 1.5)
    assert reg.gains.Kp.tobytes() == (3.0 * np.eye(4)).tobytes()
    assert reg.gains.Kd.tobytes() == (7.5 * np.eye(4)).tobytes()


def term_by_term(spec):
    """Phi, A and Adot of a loaded spec, each entry summed one term at a time
    in Python scalars, with each derivative taken term by term."""
    n = spec["n"]
    phis = [[(float(t["coeff"]), tuple(t["powers"])) for t in c["terms"]]
            for c in spec["constraints"]]

    def d(terms, j):
        return [(c * pw[j], pw[:j] + (pw[j] - 1,) + pw[j + 1:]) for c, pw in terms if pw[j]]

    def value(terms, q):
        total = 0.0
        for c, pw in terms:
            val = c
            for j, p in enumerate(pw):
                if p:
                    val *= q[j] ** p
            total += val
        return total

    def Phi(q):
        return np.array([value(phi, q) for phi in phis])

    def A(q):
        return np.array([[value(d(phi, j), q) for j in range(n)] for phi in phis])

    def Adot(q, qd):
        return np.array([[sum(value(d(d(phi, j), l), q) * qd[l] for l in range(n))
                          for j in range(n)] for phi in phis])
    return Phi, A, Adot


PENDULUM_SPEC = {
    "name": "loaded-pendulum",
    "n": 2,
    "mass": {"diag": [1, 1]},
    "gravity_force": [0, -9.81],
    "constraints": [
        {"terms": [{"coeff": 1, "powers": [2, 0]},
                   {"coeff": 1, "powers": [0, 2]},
                   {"coeff": -1, "powers": [0, 0]}]}
    ],
}


# q2^3: A keeps q2^2, which numpy's array ** would round unlike pow()
CUBIC_SPEC = {"name": "cubic", "n": 3, "mass": {"diag": [1, 2, 3]},
              "constraints": [{"terms": [{"coeff": 2, "powers": [1, 1, 0]},
                                         {"coeff": -1, "powers": [0, 0, 3]}]}]}


def _first_term(**fields):
    """PENDULUM_SPEC's constraints with fields set in the first term."""
    terms = PENDULUM_SPEC["constraints"][0]["terms"]
    return {"constraints": [{"terms": [dict(terms[0], **fields), *terms[1:]]}]}


class TestLoader:
    def test_matches_builtin_pendulum(self):
        loaded = load_system(PENDULUM_SPEC)
        builtin = pendulum()
        rng = np.random.default_rng(14)
        for _ in range(20):
            th = rng.uniform(-np.pi, np.pi)
            w = rng.uniform(-2, 2)
            q = np.array([np.sin(th), -np.cos(th)])
            qd = w * np.array([np.cos(th), np.sin(th)])
            ja, jb = loaded.jacobian(q, qd), builtin.jacobian(q, qd)
            np.testing.assert_allclose(ja.A, jb.A, atol=1e-10)
            np.testing.assert_allclose(ja.Adot, jb.Adot, atol=1e-10)
            np.testing.assert_allclose(loaded.residual(q), builtin.residual(q),
                                       atol=1e-12)

    def test_accepts_json_text(self):
        from_text = load_system(json.dumps(PENDULUM_SPEC))
        from_dict = load_system(PENDULUM_SPEC)
        q = np.array([0.6, -0.8])
        np.testing.assert_array_equal(from_text.constraint(q), from_dict.constraint(q))
        assert from_text.name == "loaded-pendulum"

    def test_plant_parts_are_shared_and_read_only(self):
        system = load_system(PENDULUM_SPEC)
        a = system.plant(np.array([0.6, -0.8]), np.zeros(2))
        b = system.plant(np.zeros(2), np.ones(2))
        assert a is b      # one PlantMatrices per constant system
        for part in ("M", "C", "f_g", "B"):
            assert getattr(a, part) is getattr(b, part)
            with pytest.raises(ValueError):
                getattr(a, part).flat[0] = 1.0

    def test_analytic_rate_matches_finite_difference(self):
        spec = {
            "n": 3,
            "mass": {"diag": [1, 2, 3]},
            "constraints": [
                {"terms": [{"coeff": 2, "powers": [1, 1, 0]},
                           {"coeff": -1, "powers": [0, 0, 3]}]}
            ],
        }
        system = load_system(spec)
        rng = np.random.default_rng(15)
        q = rng.standard_normal(3)
        qd = rng.standard_normal(3)
        h = 1e-6
        Afd = (system.constraint(q + h * qd) - system.constraint(q - h * qd)) / (2 * h)
        np.testing.assert_allclose(system.constraint_rate(q, qd), Afd,
                                   atol=1e-7)

    @pytest.mark.parametrize("spec", [PENDULUM_SPEC, LOADED_SLIDER_CRANK, CUBIC_SPEC],
                             ids=["pendulum", "slider-crank", "cubic"])
    def test_compiled_polynomials_have_the_term_by_term_bits(self, spec):
        system = load_system(spec)
        Phi, A, Adot = term_by_term(spec)
        rng = np.random.default_rng(16)
        for _ in range(200):
            q, qd = rng.standard_normal((2, spec["n"]))
            assert system.residual(q).tobytes() == Phi(q).tobytes()
            assert system.constraint(q).tobytes() == A(q).tobytes()
            assert system.constraint_rate(q, qd).tobytes() == Adot(q, qd).tobytes()

    def test_potential_matches_gravity(self):
        system = load_system(PENDULUM_SPEC)
        q = np.array([0.3, -0.7])
        assert system.potential(q) == pytest.approx(-(-9.81) * q[1])

    def test_rejects_bad_mass(self):
        bad = dict(PENDULUM_SPEC, mass=[[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            load_system(bad)
        with pytest.raises(ValueError):
            load_system(dict(PENDULUM_SPEC, mass={"diag": [1, -1]}))

    @pytest.mark.parametrize("field, value, message", [
        ("gravity_force", [0, -9.81, 0], "must have"),
        ("gravity_force", -9.81, r"must be a list of numbers, got -9\.81$"),
        ("input_map", [[1, 0, 0]], "must have"),
        ("input_map", [1, 0, 0], "must have"),
    ], ids=["gravity_force-value0", "gravity_force--9.81", "input_map-value2",
            "input_map-value3"])
    def test_rejects_misshapen_force_and_input_map(self, field, value, message):
        # one entry per coordinate, one input_map row per coordinate
        with pytest.raises(ValueError, match=f"^{field} {message}"):
            load_system(dict(PENDULUM_SPEC, **{field: value}))

    @pytest.mark.parametrize("change, message", [
        ({"constraints": 5}, r"^constraints must be"),
        ({"constraints": [{"powers": [2, 0]}]},
         r"^unknown key 'powers' in constraints\[0\]; known: terms$"),
        ({"constraints": [PENDULUM_SPEC["constraints"][0],
                          {"terms": [{"coeff": "a", "powers": [2, 0]}]}]},
         r"^constraints\[1\]\.terms\[0\]\.coeff must be a number, got 'a'$"),
        # a JSON type the field does not take is an error, not truncated or coerced
        (_first_term(powers=[2.5, 0]),
         r"^constraints\[0\]\.terms\[0\]\.powers must be a list of non-negative integers, "
         r"got \[2\.5, 0\]$"),
        (_first_term(powers=[True, 0]), r"^constraints\[0\]\.terms\[0\]\.powers must be"),
        (_first_term(powers=[-1, 0]), r"^constraints\[0\]\.terms\[0\]\.powers must be"),
        (_first_term(coeff=True), r"^constraints\[0\]\.terms\[0\]\.coeff must be a number"),
        ({"gravity_force": ["1", "0"]}, r"^gravity_force must be a list of numbers"),
        ({"gravity_force": [True, False]}, r"^gravity_force must be a list of numbers"),
        ({"mass": {"diag": ["1", "1"]}}, r"^mass\.diag must be a list of numbers"),
        ({"name": 5}, r"^name must be text, got 5$"),
        # a mass object is {"diag": [...]}; a nested key nothing reads is an error
        ({"mass": {"full": [[1, 0], [0, 1]]}}, r"^unknown key 'full' in mass; known: diag$"),
        ({"mass": {"diag": [1, 1], "scale": 3}}, r"^unknown key 'scale' in mass"),
        ({"constraints": [dict(PENDULUM_SPEC["constraints"][0], weight=2)]},
         r"^unknown key 'weight' in constraints\[0\]; known: terms$"),
        (_first_term(note="x"), r"^unknown key 'note' in constraints\[0\]\.terms\[0\]"),
        # JSON text may hold NaN and Infinity, which Python's json reads
        ({"gravity_force": [float("nan"), 0]},
         r"^gravity_force\[0\] must be finite, got nan$"),
        ({"mass": {"diag": [float("inf"), 1]}}, r"^mass\.diag\[0\] must be finite, got inf$"),
        (_first_term(coeff=float("nan")),
         r"^constraints\[0\]\.terms\[0\]\.coeff must be finite, got nan$"),
    ], ids=["scalar", "no-terms", "text-coeff", "fractional-power", "bool-power",
            "negative-power", "bool-coeff", "text-gravity", "bool-gravity", "text-diag",
            "number-name", "full-mass", "mass-scale", "constraint-weight", "term-note",
            "nan-gravity", "infinite-diag", "nan-coeff"])
    def test_rejects_malformed_constraints(self, change, message):
        # the error names the field's path, down to the one entry at fault
        with pytest.raises(ValueError, match=message):
            load_system(dict(PENDULUM_SPEC, **change))
        with pytest.raises(ValueError, match=message):
            load_system(json.dumps(dict(PENDULUM_SPEC, **change)))

    def test_input_map_defaults_to_the_identity(self):
        system = load_system(PENDULUM_SPEC)
        B = system.plant(np.array([1.0, 0.0]), np.zeros(2)).B
        assert B.tobytes() == np.eye(2).tobytes() and B.shape == (2, 2)
        explicit = load_system(dict(PENDULUM_SPEC, input_map=[[1, 0], [0, 1]]))
        assert explicit.plant(np.array([1.0, 0.0]), np.zeros(2)).B.tobytes() == B.tobytes()

    def test_input_map_column_is_accepted(self):
        system = load_system(dict(PENDULUM_SPEC, input_map=[1, 0]))
        assert system.plant(np.array([1.0, 0.0]), np.zeros(2)).k == 1

    def test_input_map_without_columns_cannot_actuate(self):
        # a map with no inputs loads, and reading Gamma raises the domain error
        system = load_system(dict(PENDULUM_SPEC, input_map=[[], []]))
        q, qdot = np.array([1.0, 0.0]), np.zeros(2)
        model = assemble(system.plant(q, qdot), build_projectors(system.jacobian(q, qdot)), 1.0)
        assert not model.admissible
        with pytest.raises(AdmissibilityError, match="rank\\(P B\\) = 0"):
            model.Gamma


STACKED = catalog() + [slider_crank().with_active((0, 1)), load_system(LOADED_SLIDER_CRANK),
                       load_system(CUBIC_SPEC), _case("state-dependent-plant").system]


@pytest.mark.parametrize("system", STACKED,
                         ids=[*(s.name for s in catalog()), "slider-crank-released",
                              "loaded-slider-crank", "cubic", "state-dependent-plant"])
def test_a_stack_has_the_bits_of_its_members(system):
    """system.jacobian and system.plant of a stack (N, n) equal N one-state
    calls bit for bit; a plant every member shares is a stack of one."""
    rng = np.random.default_rng(24)
    Q, Qd = rng.standard_normal((2, 7, system.n))
    jac, plant = system.jacobian(Q, Qd), system.plant(Q, Qd)
    shared = system.plant(Q[0], Qd[0]) is system.plant(Q[1], Qd[1])
    assert len(plant.M) == (1 if shared else 7)
    assert plant.f_g.shape == (len(plant.M), system.n, 1)
    for i, (q, qd) in enumerate(zip(Q, Qd)):
        one, alone = system.jacobian(q, qd), system.plant(q, qd)
        assert jac.A[i].tobytes() == one.A.tobytes()
        assert jac.Adot[i].tobytes() == one.Adot.tobytes()
        j = 0 if shared else i
        for got, want in ((plant.M, alone.M), (plant.C, alone.C), (plant.B, alone.B),
                          (plant.f_g[..., 0], alone.f_g)):
            assert got[j].tobytes() == want.tobytes()


@pytest.mark.parametrize("qdot_shape", [(5, 2), (7, 3), (2,), (1, 7, 2)])
def test_a_stack_with_mismatched_states_is_rejected(qdot_shape):
    # zip would silently truncate the longer stack
    system, Q = pendulum(), np.zeros((7, 2))
    for method in (system.jacobian, system.plant):
        with pytest.raises(ValueError, match=r"^a stack's q \(7, 2\) and qdot "):
            method(Q, np.zeros(qdot_shape))


def test_a_stack_whose_members_differ_in_shape_is_rejected():
    # members with one and two constraint rows cannot form one stack; only
    # the type is asserted, since the message is numpy's, not projdyn's
    base = pendulum()
    system = dataclasses.replace(
        base, constraint=lambda q: np.tile(base.constraint(q), (1 + (q[0] < 0), 1)),
        constraint_rate=lambda q, qd: np.tile(base.constraint_rate(q, qd), (1 + (q[0] < 0), 1)))
    Q = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert system.jacobian(Q[0], Q[0]).A.shape == (1, 2)
    assert system.jacobian(Q[1], Q[1]).A.shape == (2, 2)
    with pytest.raises(ValueError):
        system.jacobian(Q, np.zeros_like(Q))
    plants = [pendulum().plant(np.array([0.0, -1.0]), np.zeros(2)),
              double_pendulum().plant(np.array([0.0, -1.0, 0.0, -2.0]), np.zeros(4))]
    with pytest.raises(ValueError):
        PlantMatrices.stack(plants)
