"""Projector construction: examples, Moore-Penrose oracle, rate identities."""

import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest

from projdyn import (ConstraintJacobian, NonFiniteInputError, PlantMatrices, ProjectorBundle,
                     Scenario, SetpointRegulator, RegulationGains, acceleration, assemble,
                     build_projectors, constraint_force, kinetic_energy, lyapunov_value,
                     optimal_mu, pendulum, pseudo_inverse, run, slider_crank)
from projdyn.battery import check_projector_algebra, pdot_fd_check
from projdyn.forces import acceleration_nonminimal
from projdyn.kernel import _lazy, _mm, _norm, configuration_projectors, with_adot
from projdyn.model import pmp_eigenvalues


def mp_residuals(A, Apinv):
    """The four Moore-Penrose conditions, checked directly."""
    return [
        np.linalg.norm(A @ Apinv @ A - A),
        np.linalg.norm(Apinv @ A @ Apinv - Apinv),
        np.linalg.norm((A @ Apinv).T - A @ Apinv),
        np.linalg.norm((Apinv @ A).T - Apinv @ A),
    ]


def exact_rank(M):
    """Row-reduction rank over exact rationals (independent oracle)."""
    rows = [[Fraction(x).limit_denominator(10 ** 12) for x in row] for row in M]
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    col = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, nrows) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(nrows):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


class TestPseudoInverse:
    def test_row_vector(self):
        Apinv, r = pseudo_inverse(np.array([[0.0, -2.0]]))
        np.testing.assert_allclose(Apinv, [[0.0], [-0.5]], atol=1e-14)
        assert r == 1
        assert max(mp_residuals(np.array([[0.0, -2.0]]), Apinv)) < 1e-14

    def test_zero_matrix(self):
        Apinv, r = pseudo_inverse(np.zeros((1, 2)))
        np.testing.assert_array_equal(Apinv, np.zeros((2, 1)))
        assert r == 0

    def test_redundant_rows(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        Apinv, r = pseudo_inverse(A)
        np.testing.assert_allclose(Apinv, [[0.5, 0.5], [0.0, 0.0]], atol=1e-14)
        assert r == 1
        assert max(mp_residuals(A, Apinv)) < 1e-14

    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteInputError):
            pseudo_inverse(np.array([[np.nan, 1.0]]))

    def test_random_moore_penrose(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m, n = rng.integers(1, 7, size=2)
            A = rng.standard_normal((m, n))
            Apinv, _ = pseudo_inverse(A)
            assert max(mp_residuals(A, Apinv)) < 1e-12

    def test_rank_against_row_reduction_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            m, n = rng.integers(1, 7, size=2)
            # integer matrices with deliberate row duplication half the time
            A = rng.integers(-3, 4, size=(m, n)).astype(float)
            if m > 1 and rng.random() < 0.5:
                A[-1] = A[0]
            _, r = pseudo_inverse(A)
            assert r == exact_rank(A)


class TestBuildProjectors:
    def test_pendulum_bottom(self):
        jac = ConstraintJacobian(A=[[0.0, -2.0]], Adot=[[0.0, 0.0]])
        proj = build_projectors(jac)
        np.testing.assert_allclose(proj.P, np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(proj.Q, np.diag([0.0, 1.0]), atol=1e-14)
        assert proj.rank == 1

    def test_pendulum_moving(self):
        w = 1.3
        jac = ConstraintJacobian(A=[[0.0, -2.0]], Adot=[[2 * w, 0.0]])
        proj = build_projectors(jac)
        np.testing.assert_allclose(proj.Lambda, [[0.0, 0.0], [w, 0.0]], atol=1e-14)
        np.testing.assert_allclose(proj.Pdot, [[0.0, w], [w, 0.0]], atol=1e-14)

    def test_inactive_constraints(self):
        jac = ConstraintJacobian(A=np.zeros((2, 3)), Adot=np.zeros((2, 3)))
        proj = build_projectors(jac)
        np.testing.assert_array_equal(proj.P, np.eye(3))
        np.testing.assert_array_equal(proj.Lambda, np.zeros((3, 3)))
        np.testing.assert_array_equal(proj.Pdot, np.zeros((3, 3)))
        assert proj.rank == 0

    def test_full_rank_leaves_exactly_no_admissible_direction(self):
        """At rank(A) = n, P is exactly +0.0 and Q exactly I, not the round-off
        of I - pinv(A) A: for one square or tall matrix, and for each
        full-rank member of a stack that mixes ranks, whose rank-deficient
        member keeps the bits it has alone."""
        rng = np.random.default_rng(5)
        for n in range(2, 8):
            square, tall = rng.standard_normal((n, n)), rng.standard_normal((n + 1, n))
            deficient = rng.standard_normal((n, n - 1)) @ rng.standard_normal((n - 1, n))
            for A in (square, tall):
                proj = build_projectors(ConstraintJacobian(A=A, Adot=np.zeros(A.shape)))
                assert proj.rank == n
                assert not proj.P.any() and not np.signbit(proj.P).any()
                np.testing.assert_array_equal(proj.Q, np.eye(n))
            proj = configuration_projectors(np.stack([square, deficient, square]))
            assert list(proj.rank) == [n, n - 1, n]
            for i in (0, 2):
                assert not proj.P[i].any() and not np.signbit(proj.P[i]).any()
                np.testing.assert_array_equal(proj.Q[i], np.eye(n))
            assert proj.P[1].tobytes() == configuration_projectors(deficient).P.tobytes()
            assert abs(np.trace(proj.P[1]) - 1.0) < 1e-12

    def test_a_p_is_round_off_of_a_near_the_fold(self):
        """|A P v| <= 100 eps |A| |v| at slider-crank states 1e-1 to 1e-9 rad
        short of the fold (0, 1, 0, 0), for every v: the null rows of the SVD
        are orthogonal to A's rows to round-off, where I - pinv(A) A leaves
        an error of order eps cond(A), up to 3e7 eps |A| there."""
        crank = slider_crank()
        th = np.pi / 2 - np.logspace(-9, -1, 81)
        x1, y1 = np.cos(th), np.sin(th)   # placed as slider_crank's sample_state places it
        A = np.array([crank.constraint(q) for q in
                      np.stack([x1, y1, x1 + np.sqrt(1.0 - y1 ** 2), 0.0 * th], axis=-1)])
        P = configuration_projectors(A).P
        norm_ap, norm_a = (np.linalg.norm(X, 2, axis=(-2, -1)) for X in (A @ P, A))
        assert (norm_ap <= 100 * np.finfo(float).eps * norm_a).all()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ConstraintJacobian(A=np.zeros((1, 2)), Adot=np.zeros((2, 2)))

    def test_random_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(1, n + 1))
            A = rng.standard_normal((m, n))
            Adot = rng.standard_normal((m, n))
            jac = ConstraintJacobian(A=A, Adot=Adot)
            proj = build_projectors(jac)
            Apinv, r = pseudo_inverse(A)
            assert np.linalg.norm(proj.P @ proj.P - proj.P) < 1e-10
            assert np.linalg.norm(proj.P - proj.P.T) < 1e-10
            assert np.linalg.norm(A @ proj.P) / (1 + np.linalg.norm(A)) < 1e-10
            assert np.linalg.norm(proj.P @ Apinv) / (1 + np.linalg.norm(Apinv)) < 1e-10
            scale = 1 + np.linalg.norm(proj.Lambda)
            assert np.linalg.norm(proj.P @ proj.Lambda) / scale < 1e-10
            assert np.linalg.norm(proj.Lambda.T @ proj.P) / scale < 1e-10
            assert np.linalg.norm(proj.Omega + proj.Omega.T) == 0.0
            assert abs(np.trace(proj.P) - (n - r)) < 1e-9
            assert proj.rank == r


class TestPdotFiniteDifference:
    @staticmethod
    def pendulum_path(t):
        q = np.array([np.sin(t), -np.cos(t)])
        qd = np.array([np.cos(t), np.sin(t)])
        return ConstraintJacobian(A=2 * q[None, :], Adot=2 * qd[None, :])

    def test_pendulum_residual(self):
        assert pdot_fd_check(self.pendulum_path, 0.4, 1e-4) <= 1e-6

    def test_constant_jacobian(self):
        jac = ConstraintJacobian(A=[[1.0, 2.0]], Adot=[[0.0, 0.0]])
        assert pdot_fd_check(lambda t: jac, 0.0, 1e-4) < 1e-12

    def test_second_order_decay(self):
        rng = np.random.default_rng(5)
        A0, A1, A2 = (rng.standard_normal((2, 5)) for _ in range(3))

        def jac_at(t):
            return ConstraintJacobian(A=A0 + t * A1 + np.sin(t) * A2,
                                      Adot=A1 + np.cos(t) * A2)

        r1 = pdot_fd_check(jac_at, 0.2, 2e-3)
        r2 = pdot_fd_check(jac_at, 0.2, 1e-3)
        assert 3.5 < r1 / r2 < 4.5

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            pdot_fd_check(self.pendulum_path, 0.0, 0.0)

    @pytest.mark.parametrize("h", [np.nan, np.inf])
    def test_rejects_a_non_finite_step(self, h):
        """On a path that stays finite, a NaN step would give a NaN residual
        and an infinite one the norm of Pdot, with no difference taken."""
        jac = ConstraintJacobian(A=[[1.0, 2.0]], Adot=[[0.5, -1.0]])
        with pytest.raises(ValueError, match="step h must be positive and finite"):
            pdot_fd_check(lambda t: jac, 0.0, h)


class TestLazyAttribute:
    def test_computed_once_per_instance(self):
        calls = []

        class Holder:
            @_lazy
            def value(self):
                calls.append(self)
                return object()

        a, b = Holder(), Holder()
        assert a.value is a.value and b.value is b.value and a.value is not b.value
        assert calls == [a, b]

    def test_works_on_a_frozen_bundle(self):
        jac = ConstraintJacobian(A=np.array([[1.0, 2.0]]), Adot=np.array([[0.5, -1.0]]))
        proj = build_projectors(jac)
        assert proj.Pdot is proj.Pdot
        np.testing.assert_array_equal(proj.Pdot,
                                      proj.Lambda @ proj.P + proj.P @ proj.Lambda.T)

    def test_class_attribute_stays_patchable(self, monkeypatch):
        jac = ConstraintJacobian(A=np.array([[1.0, 2.0]]), Adot=np.array([[0.5, -1.0]]))
        assert isinstance(ProjectorBundle.Pdot, _lazy)
        monkeypatch.setattr(ProjectorBundle, "Pdot", property(lambda self: "patched"))
        assert build_projectors(jac).Pdot == "patched"


def sliced_pinv(A, rank_tol=1e-10):
    """Reference: the pseudo-inverse from the full SVD sliced at the rank."""
    U, s, Vt = np.linalg.svd(A)
    r = int(np.count_nonzero(s > rank_tol * s[0]))
    if r == 0:
        return np.zeros(A.shape[::-1])
    return Vt[:r].T @ (U[:, :r] / s[:r]).T


def assert_one_bundle_is_the_split_one(jac):
    """build_projectors(jac) has the bits of the configuration bundle of jac.A
    with the rates of jac.Adot added by with_adot."""
    one = build_projectors(jac)
    split = with_adot(configuration_projectors(jac.A), jac.Adot)
    for name in ("P", "Q", "Lambda", "Omega", "A_pinv"):
        assert getattr(one, name).tobytes() == getattr(split, name).tobytes(), name
    assert np.array_equal(one.rank, split.rank) and type(one.rank) is type(split.rank)


def assert_stack_has_the_bits_of_its_members(rng, n, m):
    """The members of stacks of m x n constraint matrices of every rank, with
    random plants, forces and velocities, against the same calls on each
    member alone."""
    A = []
    for r in range(min(m, n) + 1):
        full = rng.standard_normal((m, r)) @ rng.standard_normal((r, n))
        zeroed = full.copy()
        zeroed[rng.integers(m)] = 0.0          # an inactive constraint row
        A += [full, zeroed]
    A = np.stack(A)
    N = len(A)
    Adot = rng.standard_normal(A.shape)
    G = rng.standard_normal((N, n, n))
    M = G @ G.swapaxes(-1, -2) + n * np.eye(n)
    C, f_g = rng.standard_normal((N, n, n)), rng.standard_normal((N, n))
    mu = rng.uniform(0.2, 5.0, size=N)
    f, qdot = rng.standard_normal((N, n)), rng.standard_normal((N, n))
    gains, q_star = RegulationGains(Kp=M[0], Kd=M[0], sigma=2.0), f[0]

    def outputs(A, Adot, M, C, f_g, mu, f, qdot):
        Apinv, rank = pseudo_inverse(A)
        proj = build_projectors(ConstraintJacobian(A=A, Adot=Adot))
        assert_one_bundle_is_the_split_one(ConstraintJacobian(A=A, Adot=Adot))
        plant = PlantMatrices(M=M, C=C, f_g=f_g, B=np.eye(n))
        model = assemble(plant, proj, mu)
        mu_opt = np.asarray(optimal_mu(plant, proj))
        return rank, [Apinv, proj.P, proj.Q, proj.Lambda, proj.Omega, proj.Pdot,
                      *pmp_eigenvalues(plant, proj), mu_opt,
                      model.Mbar, np.asarray(model.cond), model.X, model.S,
                      model.Cbar, model.Gamma,
                      acceleration(model, f, qdot), constraint_force(model, f, qdot),
                      acceleration_nonminimal(model, f, qdot),
                      np.asarray(kinetic_energy(M, qdot)),
                      np.asarray(lyapunov_value(f, qdot, q_star, gains, model.Mbar))]

    ranks, stacked = outputs(A, Adot, M, C, f_g[..., None], mu, f[..., None],
                             qdot[..., None])
    assert ranks.dtype.kind == "i" and ranks.shape == (N,)
    for i in range(N):
        rank, alone = outputs(A[i], Adot[i], M[i], C[i], f_g[i], mu[i], f[i], qdot[i])
        assert type(rank) is int and rank == ranks[i]
        assert alone[0].tobytes() == sliced_pinv(A[i]).tobytes(), (n, m, i)
        assert alone[1].tobytes() == alone[1].T.tobytes(), (n, m, i)   # P, zeros' signs too
        for k, (x, y) in enumerate(zip(alone, stacked)):
            assert x.tobytes() == y[i].tobytes(), (n, m, i, k)


def test_a_stack_has_the_bits_of_its_members():
    """Kernel, model, force and energy functions take (..., m, n) stacks, with
    vectors as (..., n, 1) columns: each member of a stacked call is byte for
    byte the call on that member alone, for n from 1 to 8, every rank down
    to 0 and zeroed rows; one matrix keeps the bits of the full SVD sliced
    at its rank, and its P is symmetric bit for bit.  build_projectors has
    the bits of configuration_projectors plus with_adot, for one matrix, for
    stacks and for matrices without rows or columns."""
    rng = np.random.default_rng(21)
    for n in range(2, 9):
        for m in sorted({1, n - 1, n, n + 1}):
            assert_stack_has_the_bits_of_its_members(rng, n, m)
    # one coordinate: a 1 x 1 product, where matmul and ndarray.dot differ in
    # the sign of a zero; its own generator keeps the draws above
    rng = np.random.default_rng(1)
    for m in (1, 2):
        assert_stack_has_the_bits_of_its_members(rng, 1, m)
    for shape in [(0, 3), (3, 0), (2, 0, 3), (2, 3, 0)]:
        assert_one_bundle_is_the_split_one(ConstraintJacobian(A=np.zeros(shape),
                                                              Adot=np.zeros(shape)))


def test_a_one_state_product_has_the_bits_of_matmul():
    """_mm(a, b) is byte for byte a @ b in the layouts of the per-state chain:
    matrix times matrix, vector or transposed view, vector times matrix or
    vector, inner dimension 1 and 1 x 1 operands, stacks, with zero, -0.0 and
    identity operands.  On a 1 x 1 or one-element a, ndarray.dot would give
    -0.0 where matmul gives +0.0."""
    rng = np.random.default_rng(33)

    def operands(shape):
        x = rng.standard_normal(shape)
        signed_zeros = np.where(rng.random(shape) < 0.4, np.copysign(0.0, x), x)
        out = [x, signed_zeros, np.zeros(shape), -np.zeros(shape)]
        return out + [np.eye(shape[0])] if shape[0] == shape[1] else out

    sizes = (1, 2, 3, 5)
    for m, k, p in ((m, k, p) for m in sizes for k in sizes for p in sizes):
        for a in operands((m, k)):
            for b in operands((k, p)):
                pairs = [(a, b), (np.asfortranarray(a), b), (a, np.asfortranarray(b)),
                         (a, b[:, 0].copy()), (a[0], b), (a[0], b[:, 0].copy()),
                         (a.T, a), (a, a.T), (b.T, a.T), (np.stack([a, -a]), b)]
                for x, y in pairs:
                    assert _mm(x, y).tobytes() == (x @ y).tobytes(), (x, y)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (2, 0, 3), (2, 3, 0)],
                         ids=["no-rows", "no-columns", "stack-no-rows", "stack-no-columns"])
def test_a_matrix_without_rows_or_columns_has_rank_zero(shape):
    """No singular value to keep: the pseudo-inverse is the zero matrix of
    the transposed shape, and the rank is 0 (per member of a stack)."""
    Apinv, rank = pseudo_inverse(np.zeros(shape))
    assert Apinv.shape == shape[:-2] + shape[-2:][::-1] and not Apinv.any()
    assert np.array_equal(rank, np.zeros(shape[:-2], dtype=int))
    assert (type(rank) is int) == (len(shape) == 2)


def _nan_pendulum(part):
    """The pendulum with A, Adot or the input map all NaN."""
    field, nan = {"A": ("constraint", lambda q: np.full((1, 2), np.nan)),
                  "Adot": ("constraint_rate", lambda q, qd: np.full((1, 2), np.nan)),
                  "B": ("plant_at", lambda q, qd: dataclasses.replace(
                      pendulum().plant(q, qd), B=np.full((2, 2), np.nan)))}[part]
    return dataclasses.replace(pendulum(), **{field: nan})


@pytest.mark.parametrize("part", ["A", "Adot", "B"])
def test_a_nonfinite_part_raises_on_every_route(part):
    """Each array is checked once, where it enters: A and Adot at
    ConstraintJacobian, A at configuration_projectors, Adot at with_adot, the
    input map at P B.  A non-finite one raises NonFiniteInputError through
    build_projectors (or model.Gamma for the input map), through with_adot
    and through a regulated run; so does one non-finite member of a stack,
    through ConstraintJacobian, configuration_projectors and with_adot (or
    model.Gamma)."""
    system = _nan_pendulum(part)
    q, qdot = np.array([1.0, 0.0]), np.array([0.0, 0.5])
    with pytest.raises(NonFiniteInputError):
        if part == "B":
            assemble(system.plant(q, qdot), build_projectors(system.jacobian(q, qdot)),
                     1.0).Gamma
        else:
            build_projectors(system.jacobian(q, qdot))
    if part == "Adot":
        with pytest.raises(NonFiniteInputError):
            with_adot(configuration_projectors(system.constraint(q)),
                      system.constraint_rate(q, qdot))
    gains = RegulationGains(Kp=10 * np.eye(2), Kd=10 * np.eye(2), sigma=1.5)
    with pytest.raises(NonFiniteInputError):
        run(Scenario(system=system, q0=q, qdot0=qdot, horizon=0.02, dt=0.01,
                     controller=SetpointRegulator(np.array([0.0, -1.0]), gains)))
    # a stack of three states whose middle member alone is non-finite
    Q, Qdot = np.array([[0.6, -0.8], q, [0.0, -1.0]]), np.array([[0.8, 0.6], qdot, [0.5, 0.0]])
    jac = pendulum().jacobian(Q, Qdot)
    if part == "B":
        plants = [pendulum().plant(x, v) for x, v in zip(Q, Qdot)]
        plants[1] = system.plant(q, qdot)
        with pytest.raises(NonFiniteInputError):
            assemble(PlantMatrices.stack(plants), build_projectors(jac), 1.0).Gamma
        return
    A, Adot = jac.A.copy(), jac.Adot.copy()
    {"A": A, "Adot": Adot}[part][1] = np.nan
    with pytest.raises(NonFiniteInputError):
        ConstraintJacobian(A=A, Adot=Adot)
    with pytest.raises(NonFiniteInputError):
        with_adot(configuration_projectors(A), Adot)   # A fails first, else Adot


@pytest.mark.parametrize("A_shape, Adot_shape", [((3, 2, 4), (2, 4)), ((2, 4), (3, 4)),
                                                  ((2, 4), (2, 5))],
                         ids=["one-for-a-stack", "more-rows", "more-columns"])
def test_with_adot_rejects_an_adot_of_another_shape(A_shape, Adot_shape):
    """An Adot must have its bundle's A shape, as in ConstraintJacobian: one
    Adot is not broadcast to every member of a stack, and a wrong row or
    column count is named, not left to numpy's matmul or broadcast error."""
    rng = np.random.default_rng(27)
    proj = configuration_projectors(rng.standard_normal(A_shape))
    message = f"A {A_shape} and Adot {Adot_shape} differ in shape"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        with_adot(proj, rng.standard_normal(Adot_shape))


def test_projector_algebra_holds_on_every_seed():
    """The battery's projector-algebra check is within its 1e-10 on seeds
    0-19: at square full-rank A, the round-off that I - pinv(A) A would
    leave in P, amplified by |Lambda|, reached 2.7e-8."""
    results = {seed: check_projector_algebra(np.random.default_rng(seed))
               for seed in range(20)}
    assert {seed: res for seed, (_, res, tol) in results.items() if not res <= tol} == {}


def test_norm_has_the_bits_of_np_linalg_norm():
    """kernel._norm is np.linalg.norm of a 1-D float vector, bit for bit, at
    every size a catalog state has and far from unit scale."""
    rng = np.random.default_rng(14)
    for size in range(1, 9):
        for scale in 10.0 ** np.arange(-8, 9):
            for _ in range(20):
                v = scale * rng.standard_normal(size)
                assert _norm(v) == np.linalg.norm(v)
