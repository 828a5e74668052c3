"""Parameter box, affine containers, coefficient evaluation, sampling."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import rbx
from rbx import affine
from rbx.affine import (
    AffineProblem,
    KroneckerSum,
    ParameterBox,
    SeparableInnerProduct,
    TrainingSet,
    evaluate_theta_batch,
    factorize,
    rhs_scale_batch,
    sample_training_set,
)
from rbx.bounds import ConstantBound
from rbx.errors import InvalidParameterError, NumericalFailureError, ResourceError
from rbx.greedy import GreedyConfig, run_greedy
from rbx.truth import TruthDiscretization, riesz_solve, truth_solve

from conftest import explicit
from test_golden_traces import EXPECTED


class TestParameterBox:
    # a single parameter is checked as a row of one
    def test_dim_and_contains(self):
        box = ParameterBox([0.0, -1.0], [1.0, 2.0])
        assert box.dim == 2
        box.validate_rows(np.asarray([0.5, 0.0])[None])
        with pytest.raises(InvalidParameterError, match="at row 0 lies outside the box"):
            box.validate_rows(np.asarray([1.5, 0.0])[None])
        with pytest.raises(InvalidParameterError, match=r"shape \(1, 1\), expected \(b, 2\)"):
            box.validate_rows(np.asarray([0.5])[None])

    def test_validate_passes_through_interior_point(self):
        box = ParameterBox([0.0], [1.0])
        mus = box.validate_rows(np.asarray([0.25], dtype=float)[None])
        assert mus.dtype == float and mus.shape == (1, 1) and mus[0, 0] == 0.25

    def test_validate_rejects_outside_and_wrong_shape(self, thermal_small):
        from rbx.reduced import ReducedModel, extend_basis, reduced_solve

        box = ParameterBox([0.0, 0.0], [1.0, 1.0])
        for mu in ([2.0, 0.5], [0.5], [[0.5, 0.5]]):
            with pytest.raises(InvalidParameterError):
                box.validate_rows(np.asarray(mu, dtype=float)[None])
        # a (1, p) row is not a single parameter
        mu = np.full(thermal_small.dim, 2.0)
        model = ReducedModel(thermal_small)
        extend_basis(model, truth_solve(thermal_small, mu))
        for call in (truth_solve, lambda problem, mu: reduced_solve(model, mu)):
            with pytest.raises(InvalidParameterError, match=r"shape \(1, 1, 9\)"):
                call(thermal_small, mu[None])
            with pytest.raises(InvalidParameterError, match="outside the box"):
                call(thermal_small, np.full(thermal_small.dim, 1e3))
            with pytest.raises(InvalidParameterError, match=r"expected \(b, 9\)"):
                call(thermal_small, mu[:-1])

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(InvalidParameterError):
            ParameterBox([0.0, 1.0], [1.0, 1.0])


class TestTrainingSampling:
    def test_grid_shape_order_and_endpoints(self):
        box = ParameterBox([0.0, 10.0], [1.0, 20.0])
        train = sample_training_set(box, kind="grid", n_per_dim=3)
        assert train.points.shape == (9, 2)
        # first coordinate varies slowest, endpoints included
        np.testing.assert_allclose(train.points[0], [0.0, 10.0])
        np.testing.assert_allclose(train.points[1], [0.0, 15.0])
        np.testing.assert_allclose(train.points[3], [0.5, 10.0])
        np.testing.assert_allclose(train.points[-1], [1.0, 20.0])

    def test_random_reproducible_and_inside_box(self):
        box = ParameterBox([0.1] * 3, [10.0] * 3)
        a = sample_training_set(box, kind="random", count=50, seed=7)
        b = sample_training_set(box, kind="random", count=50, seed=7)
        c = sample_training_set(box, kind="random", count=50, seed=8)
        np.testing.assert_array_equal(a.points, b.points)
        assert not np.array_equal(a.points, c.points)
        assert np.all(a.points >= 0.1) and np.all(a.points <= 10.0)

    def test_grid_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(affine, "TRAINING_CAP_ENTRIES", 10_000)
        box = ParameterBox([0.0] * 4, [1.0] * 4)
        with pytest.raises(ResourceError):
            sample_training_set(box, kind="grid", n_per_dim=100)

    def test_random_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(affine, "TRAINING_CAP_ENTRIES", 50)
        box = ParameterBox([0.0], [1.0])
        with pytest.raises(ResourceError):
            sample_training_set(box, kind="random", count=100, seed=0)

    def test_bad_arguments(self):
        box = ParameterBox([0.0], [1.0])
        with pytest.raises(InvalidParameterError):
            sample_training_set(box, kind="grid", n_per_dim=1)
        with pytest.raises(InvalidParameterError):
            sample_training_set(box, kind="random", count=0)
        with pytest.raises(InvalidParameterError):
            sample_training_set(box, kind="sobol", count=10)

    def test_training_set_len_and_dim(self):
        train = TrainingSet(np.zeros((5, 2)))
        assert train.n_train == 5 and train.points.shape == (5, 2)
        with pytest.raises(InvalidParameterError):
            TrainingSet(np.zeros(5))


class TestAffineProblem:
    def test_shape_validation(self):
        box = ParameterBox([0.0], [1.0])
        good = np.eye(3)
        base = dict(
            box=box,
            theta=lambda mu: np.array([1.0]),
            components=[good],
            rhs=np.ones(3),
            output=np.ones(3),
            discretization=TruthDiscretization(good),
            coercivity=ConstantBound(1.0),
        )
        AffineProblem(**base)
        for bad in (
            dict(components=[]),
            dict(components=[good, np.eye(4)]),
            dict(rhs=np.ones(4)),
        ):
            with pytest.raises(InvalidParameterError):
                AffineProblem(**{**base, **bad})
        with pytest.raises(InvalidParameterError, match="x_inner"):
            AffineProblem(**{**base, "discretization": TruthDiscretization(np.eye(4))})

    def test_coercivity_is_required(self):
        good = np.eye(3)
        base = dict(
            box=ParameterBox([0.0], [1.0]),
            theta=lambda mu: np.array([1.0]),
            components=[good],
            rhs=np.ones(3),
            output=np.ones(3),
            discretization=TruthDiscretization(good),
        )
        with pytest.raises(TypeError, match="coercivity"):
            AffineProblem(**base)
        with pytest.raises(InvalidParameterError, match="coercivity"):
            AffineProblem(**base, coercivity=None)

    def test_theta_evaluation_and_batch_agree(self, diffusion_small):
        mus = np.array([[0.3, -0.4], [0.0, 0.9], [-0.98, 0.01]])
        batch = evaluate_theta_batch(diffusion_small, mus)
        rows = np.concatenate([evaluate_theta_batch(diffusion_small, m[None, :]) for m in mus])
        np.testing.assert_allclose(batch, rows)
        np.testing.assert_allclose(batch[:, 0], 1.0)
        np.testing.assert_allclose(batch[:, 1:], mus)

    def test_theta_shape_error(self, diffusion_small):
        diffusion_small.theta = lambda mus: mus  # one term short
        with pytest.raises(InvalidParameterError, match="theta returned shape"):
            evaluate_theta_batch(diffusion_small, [[0.1, 0.1]])
        with pytest.raises(InvalidParameterError):
            truth_solve(diffusion_small, [0.1, 0.1])

    def test_rhs_scale_defaults_to_one(self, diffusion_small):
        mus = np.zeros((4, 2))
        np.testing.assert_array_equal(rhs_scale_batch(diffusion_small, mus), np.ones(4))

    def test_rhs_scale_custom(self, diffusion_small):
        diffusion_small.rhs_theta = lambda mus: 2.0 * mus[:, 0]
        mus = np.array([[0.1, 0.0], [0.5, 0.0]])
        np.testing.assert_allclose(rhs_scale_batch(diffusion_small, mus), [0.2, 1.0])

    def test_assemble_matches_manual_sum(self, diffusion_small):
        theta = np.array([1.0, 0.37, -0.61])
        a = diffusion_small.assemble(theta)
        comps = [explicit(c) for c in diffusion_small.components]
        manual = comps[0] + theta[1] * comps[1] + theta[2] * comps[2]
        np.testing.assert_allclose(explicit(a), manual, atol=1e-14)

    def test_assemble_sparse_stays_sparse(self, thermal_small):
        import scipy.sparse as sp

        a = thermal_small.assemble(np.full(9, 2.5))
        assert sp.issparse(a)
        total = sum(c.toarray() for c in thermal_small.components)
        np.testing.assert_allclose(a.toarray(), 2.5 * total, atol=1e-12)

    def test_symmetry_flag(self, diffusion_small, thermal_small):
        # exact equality with the transpose, decided once at construction
        assert thermal_small.symmetric
        assert not diffusion_small.symmetric
        sym = rbx.AffineProblem(
            box=diffusion_small.box,
            theta=diffusion_small.theta,
            components=[c + c.T for c in diffusion_small.components],
            rhs=diffusion_small.rhs,
            output=diffusion_small.output,
            discretization=diffusion_small.discretization,
            coercivity=diffusion_small.coercivity,
        )
        assert sym.symmetric

    def test_pattern_assembly_matches_sequential_sum(self, thermal_small):
        pattern = thermal_small.pattern
        # entries that are zero in every component are left out
        union = set()
        for c in thermal_small.components:
            coo = c.tocsr().tocoo()  # duplicates summed
            nonzero = coo.data != 0
            union |= set(zip(coo.row[nonzero].tolist(), coo.col[nonzero].tolist()))
        assert pattern.indices.size == len(union)
        mu = np.array([0.3, 7.1, 2.0, 9.9, 0.1, 4.4, 1.5, 6.0, 3.3])
        a = thermal_small.assemble(mu).toarray()
        sequential = sum(t * c.toarray() for t, c in zip(mu, thermal_small.components))
        assert np.abs(a - sequential).max() <= 1e-14 * np.abs(sequential).max()

    def test_truth_solves_reuse_one_pattern(self, thermal_small, monkeypatch):
        built = []
        init = affine.SparsePattern.__init__

        def counted(self, matrices):
            built.append(self)
            init(self, matrices)

        monkeypatch.setattr(affine.SparsePattern, "__init__", counted)
        truth_solve(thermal_small, np.full(9, 2.0))
        truth_solve(thermal_small, np.linspace(0.1, 10.0, 9))
        assert len(built) == 1 and thermal_small.pattern is built[0]

    def test_dense_problems_have_no_pattern(self, diffusion_small):
        # neither dense components nor Kronecker sums have a sparse pattern
        dense = dataclasses.replace(
            diffusion_small, components=[explicit(c) for c in diffusion_small.components]
        )
        assert dense.pattern is None
        assert diffusion_small.pattern is None

    def test_sizes(self, diffusion_small, thermal_small):
        assert diffusion_small.n_dof == 64  # (10 - 2)^2 interior nodes
        assert diffusion_small.n_terms == 3
        assert diffusion_small.dim == 2
        assert thermal_small.n_terms == 9
        assert thermal_small.dim == 9
        assert thermal_small.n_dof == 42  # 7*7 nodes minus the clamped top row

    def test_condition_estimate_of_a_singular_matrix_is_inf(self):
        # SuperLU refuses an exactly singular matrix; its condition is inf
        assert affine.condition_estimate(np.diag([1.0, 0.0])) == np.inf
        assert affine.condition_estimate(np.diag([1.0, 2.0])) == pytest.approx(2.0)

    def test_failing_dense_truth_solve_reports_inf(self):
        # a dense A(mu) is factorized as its CSR copy: SuperLU refuses the
        # exactly singular matrix, and the failure reports its inf condition
        problem = AffineProblem(
            box=ParameterBox([0.0], [1.0]),
            theta=lambda mus: np.ones((len(mus), 1)),
            components=[np.array([[1.0, 1.0], [0.0, 0.0]])],
            rhs=np.ones(2),
            output=np.ones(2),
            discretization=TruthDiscretization(np.eye(2)),
            coercivity=ConstantBound(1.0),
        )
        with pytest.raises(NumericalFailureError, match="factorization") as failure:
            truth_solve(problem, [0.5])
        assert failure.value.condition_estimate == np.inf


class TestKroneckerSum:
    m = 5

    def factors(self, seed=0):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((self.m, self.m)), rng.standard_normal((self.m, self.m))

    def test_matmul_matches_explicit_matrix(self):
        a = KroneckerSum(*self.factors())
        dense = explicit(a)
        n = self.m * self.m
        rng = np.random.default_rng(1)
        wide = rng.standard_normal((n, 10))
        for v in (rng.standard_normal(n), wide[:, :1].copy(), wide[:, :7].copy(), wide[:, 3:]):
            got = a @ v
            want = dense @ v
            assert got.shape == v.shape
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_transpose(self):
        a = KroneckerSum(*self.factors())
        np.testing.assert_array_equal(explicit(a.T), explicit(a).T)
        assert a.T.shape == a.shape == (self.m**2, self.m**2)

    def test_scalars_and_sums_stay_factored(self):
        a, b = KroneckerSum(*self.factors(0)), KroneckerSum(*self.factors(1))
        c = np.float64(-0.7)
        for got in (c * a + 2.0 * b, a * c + b * 2.0):
            assert isinstance(got, KroneckerSum)
            want = c * explicit(a) + 2.0 * explicit(b)
            np.testing.assert_allclose(explicit(got), want, atol=1e-14)

    def problem(self, comps):
        n = self.m**2
        return AffineProblem(
            box=ParameterBox([0.0, 0.0], [1.0, 1.0]),
            theta=lambda mus: np.column_stack([np.ones(len(mus)), mus]),
            components=comps,
            rhs=np.ones(n),
            output=np.ones(n),
            discretization=TruthDiscretization(np.eye(n)),
            coercivity=ConstantBound(1.0),
        )

    def test_assemble_matches_explicit_sum(self):
        comps = [KroneckerSum(*self.factors(q)) for q in range(3)]
        problem = self.problem(comps)
        theta = np.array([1.0, 0.37, -0.61])
        a = problem.assemble(theta)
        assert isinstance(a, KroneckerSum) and problem.pattern is None
        want = sum(t * explicit(c) for t, c in zip(theta, comps))
        np.testing.assert_allclose(explicit(a), want, atol=1e-14)

    def test_mixed_components_refused(self):
        # a Kronecker sum does not add to an explicit matrix, so assembly
        # would fail at the first truth solve
        comps = [KroneckerSum(*self.factors(q)) for q in range(3)]
        with pytest.raises(InvalidParameterError, match="KroneckerSum"):
            self.problem([comps[0], explicit(comps[1]), comps[2]])

    def test_symmetric_reads_the_factors(self):
        p, r = self.factors()
        sym_p, sym_r = p + p.T, r + r.T
        assert KroneckerSum(sym_p, sym_r).symmetric
        assert not KroneckerSum(sym_p, r).symmetric
        assert not KroneckerSum(p, sym_r).symmetric

    def test_offline_path_forms_no_explicit_operator(self, diffusion_small, monkeypatch):
        # the golden diffusion cdm run never needs an n_dof x n_dof operator
        def refuse(self):
            raise AssertionError("an explicit Kronecker-sum matrix was formed")

        monkeypatch.setattr(KroneckerSum, "tocsr", refuse)
        train = rbx.sample_training_set(diffusion_small.box, kind="random", count=60, seed=2)
        config = GreedyConfig(eps_tol=1e-2, n_max=30, seed=0, method="cdm", k_damp=1)
        model, trace = run_greedy(diffusion_small, train, config)
        expected = EXPECTED[("diffusion", "cdm")]
        assert model.snapshot_indices == expected["snapshot_indices"]
        assert trace.certified is expected["certified"]


class TestSeparableInnerProduct:
    """diffusion2d's X = (W + K) (x) W + W (x) K, kept as its 1-d factors."""

    def test_matmul_matches_explicit_matrix(self, diffusion_small):
        x = diffusion_small.discretization.x_inner
        assert isinstance(x, SeparableInnerProduct)
        explicit_x = x.tocsr()
        n = x.shape[0]
        rng = np.random.default_rng(5)
        wide = rng.standard_normal((n, 10))
        rows = rng.standard_normal((7, n))
        blocks = (wide[:, :1].copy(), wide[:, :7].copy(), wide[:, 3:], rows.T)
        for v in (rng.standard_normal(n),) + blocks:
            got = x @ v
            want = explicit_x @ v
            assert got.shape == v.shape
            assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_explicit_form_is_symmetric_positive_definite(self, diffusion_small):
        a = diffusion_small.discretization.x_inner.tocsr()
        assert (a != a.T).nnz == 0
        assert np.linalg.eigvalsh(a.toarray()).min() > 0

    def test_fast_diagonalization_solves(self, diffusion_small):
        x = diffusion_small.discretization.x_inner
        solve = factorize(x, spd=True)
        rng = np.random.default_rng(6)
        n = x.shape[0]
        rows = rng.standard_normal((7, n))
        for b in (rng.standard_normal(n), rng.standard_normal((n, 1)), rows.T):
            u = solve(b)
            assert u.shape == b.shape
            assert np.linalg.norm(x.tocsr() @ u - b) <= 1e-12 * np.linalg.norm(b)

    def test_factors_are_checked(self):
        with pytest.raises(InvalidParameterError, match="positive"):
            SeparableInnerProduct([1.0, 0.0], np.eye(2))
        with pytest.raises(InvalidParameterError, match="m x m"):
            SeparableInnerProduct([1.0, 1.0], np.eye(3))
        # W (x) W + K (x) W + W (x) K = -3 I: not SPD
        with pytest.raises(NumericalFailureError) as failure:
            factorize(SeparableInnerProduct(np.ones(3), -2.0 * np.eye(3)), spd=True)
        assert failure.value.condition_estimate == pytest.approx(1.0)

    def test_set_up_and_riesz_path_form_no_dense_operator(self):
        # a dense X at n_x = 35 holds 1089^2 floats (9.5 MB); the build, a
        # product and a Riesz solve stay within a fraction of one
        tracemalloc.start()
        try:
            problem = rbx.build_diffusion2d(35)
            problem.discretization.x_inner @ problem.rhs
            riesz_solve(problem.discretization, problem.rhs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2e6, f"peak {peak / 1e6:.1f} MB"
