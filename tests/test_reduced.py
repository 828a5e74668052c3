"""Reduced model algebra checked against explicit truth-space computations."""

import numpy as np
import pytest

import rbx
from rbx.affine import assemble_operator, rhs_scale
from rbx.errors import BasisRejectionError
from rbx.reduced import (
    ReducedModel,
    ReducedSolution,
    error_estimate,
    estimate_batch,
    extend_basis,
    reconstruct,
    reduced_output,
    reduced_solve,
    residual_dual_norm_sq,
    residual_norm_sq_batch,
)
from rbx.truth import truth_solve, x_norm

from conftest import build_model, direct_residual_dual_norm_sq


@pytest.fixture
def diffusion_model(diffusion_small, diffusion_train_small):
    model, trace = build_model(diffusion_small, diffusion_train_small, n_target=6)
    return model


@pytest.fixture
def thermal_model(thermal_small, thermal_train_small):
    model, trace = build_model(thermal_small, thermal_train_small, n_target=5)
    return model


class TestBasis:
    def test_gram_identity(self, diffusion_model):
        basis = diffusion_model.basis
        gram = basis.T @ diffusion_model.disc.x_apply(basis)
        np.testing.assert_allclose(gram, np.eye(diffusion_model.n), atol=1e-10)

    def test_gram_identity_sparse_inner(self, thermal_model):
        basis = thermal_model.basis
        gram = basis.T @ thermal_model.disc.x_apply(basis)
        np.testing.assert_allclose(gram, np.eye(thermal_model.n), atol=1e-10)

    def test_snapshot_coordinates_reproduce_snapshots(self, diffusion_small, diffusion_model):
        # basis @ snapshot_in_basis must reproduce the raw snapshots
        model = diffusion_model
        for j, mu in enumerate(model.snapshot_params):
            raw = truth_solve(diffusion_small, mu).coefficients
            rebuilt = model.basis @ model.snapshot_in_basis[:, j]
            np.testing.assert_allclose(rebuilt, raw, atol=1e-9 * max(1.0, np.abs(raw).max()))

    def test_snapshot_coordinates_upper_triangular(self, diffusion_model):
        r = diffusion_model.snapshot_in_basis
        np.testing.assert_allclose(r, np.triu(r), atol=0.0)
        assert np.all(np.diag(r) > 0)

    def test_duplicate_snapshot_rejected(self, diffusion_small, diffusion_model):
        mu = diffusion_model.snapshot_params[0]
        snap = truth_solve(diffusion_small, mu)
        with pytest.raises(BasisRejectionError):
            extend_basis(diffusion_model, snap)

    def test_zero_snapshot_rejected(self, diffusion_small):
        from rbx.truth import TruthSolution

        model = ReducedModel(diffusion_small)
        snap = TruthSolution(mu=np.zeros(2), coefficients=np.zeros(diffusion_small.n_dof))
        with pytest.raises(BasisRejectionError):
            extend_basis(model, snap)


class TestGalerkinSolve:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_matches_explicit_projection(self, diffusion_small, diffusion_model, n):
        mu = np.array([0.71, -0.42])
        basis = diffusion_model.basis[:, :n]
        a = assemble_operator(diffusion_small, mu)
        mat = basis.T @ (a @ basis)
        b = basis.T @ (rhs_scale(diffusion_small, mu) * diffusion_small.rhs)
        expected = np.linalg.solve(mat, b)
        sol = reduced_solve(diffusion_model, mu, n=n)
        np.testing.assert_allclose(sol.coeffs, expected, rtol=1e-9, atol=1e-12)

    def test_matches_explicit_projection_thermal(self, thermal_small, thermal_model):
        mu = np.array([0.4, 6.0, 2.0, 1.0, 1.0, 3.3, 0.2, 8.0, 5.0])
        basis = thermal_model.basis
        a = assemble_operator(thermal_small, mu)
        mat = basis.T @ (a @ basis)
        b = basis.T @ thermal_small.rhs
        expected = np.linalg.solve(mat, b)
        sol = reduced_solve(thermal_model, mu)
        np.testing.assert_allclose(sol.coeffs, expected, rtol=1e-9, atol=1e-12)

    def test_truncation_out_of_range(self, diffusion_model):
        with pytest.raises(ValueError):
            reduced_solve(diffusion_model, [0.0, 0.0], n=diffusion_model.n + 1)

    def test_empty_truncation(self, diffusion_model):
        sol = reduced_solve(diffusion_model, [0.0, 0.0], n=0)
        assert sol.n == 0 and sol.coeffs.size == 0

    def test_output_and_reconstruction(self, diffusion_small, diffusion_model):
        mu = np.array([0.2, 0.9])
        sol = reduced_solve(diffusion_model, mu)
        lifted = reconstruct(diffusion_model, sol)
        assert lifted.shape == (diffusion_small.n_dof,)
        np.testing.assert_allclose(
            reduced_output(diffusion_model, sol),
            float(diffusion_small.output @ lifted),
            rtol=1e-12,
        )

    def test_snapshot_parameter_reproduced_exactly(self, diffusion_small, diffusion_model):
        # at a snapshot parameter the Galerkin solution is the snapshot
        mu = diffusion_model.snapshot_params[2]
        sol = reduced_solve(diffusion_model, mu)
        lifted = reconstruct(diffusion_model, sol)
        raw = truth_solve(diffusion_small, mu).coefficients
        err = x_norm(diffusion_small.discretization, lifted - raw)
        assert err <= 1e-8 * x_norm(diffusion_small.discretization, raw)


class TestResidualDualNorm:
    @pytest.mark.parametrize("fixture_name", ["diffusion", "thermal"])
    def test_factor_path_matches_direct_riesz(self, request, fixture_name):
        problem = request.getfixturevalue(f"{fixture_name}_small")
        model = request.getfixturevalue(f"{fixture_name}_model")
        rng = np.random.default_rng(11)
        lo, hi = problem.box.lower, problem.box.upper
        for _ in range(8):
            mu = lo + rng.random(problem.dim) * (hi - lo)
            sol = reduced_solve(model, mu)
            got = residual_dual_norm_sq(model, mu, sol)
            ref = direct_residual_dual_norm_sq(model, problem, mu, sol)
            assert got == pytest.approx(ref, rel=1e-6, abs=1e-14)

    def test_empty_basis_norm_is_load_dual_norm(self, diffusion_small):
        model = ReducedModel(diffusion_small)
        mu = np.array([0.5, -0.5])
        sol = ReducedSolution(mu=mu, coeffs=np.zeros(0))
        got = residual_dual_norm_sq(model, mu, sol)
        f = diffusion_small.rhs
        rep = diffusion_small.discretization.x_factorization().solve(f)
        np.testing.assert_allclose(got, float(f @ rep), rtol=1e-10)


class TestErrorEstimate:
    def test_certified_on_parametrically_coercive_problem(self, thermal_small, thermal_model):
        # min-theta coercivity bound is provably below the true constant,
        # so the estimate must dominate the true X-norm error
        rng = np.random.default_rng(13)
        disc = thermal_small.discretization
        for _ in range(20):
            mu = 0.1 + rng.random(9) * 9.9
            sol = reduced_solve(thermal_model, mu)
            delta = error_estimate(thermal_model, thermal_small, mu, sol=sol)
            truth = truth_solve(thermal_small, mu).coefficients
            err = x_norm(disc, truth - reconstruct(thermal_model, sol))
            assert delta >= err * (1.0 - 1e-10)

    def test_estimate_vanishes_on_snapshots(self, thermal_small, thermal_model):
        for mu in thermal_model.snapshot_params:
            top = error_estimate(thermal_model, thermal_small, mu)
            empty = error_estimate(
                thermal_model, thermal_small, mu, sol=ReducedSolution(mu, np.zeros(0))
            )
            assert top <= 1e-8 * empty

    def test_estimator_is_online_only(self, diffusion_small, diffusion_model):
        counters = diffusion_small.counters
        base = counters.snapshot()
        for mu in ([0.3, 0.3], [-0.5, 0.8]):
            error_estimate(diffusion_model, diffusion_small, mu)
        after = counters.snapshot()
        assert after["truth_solves"] == base["truth_solves"]
        assert after["riesz_solves"] == base["riesz_solves"]
        assert after["truth_factorizations"] == base["truth_factorizations"]
        assert after["estimator_evals"] == base["estimator_evals"] + 2

    def test_estimate_kind_buckets(self, diffusion_small, diffusion_model):
        counters = diffusion_small.counters
        base = counters.snapshot()
        error_estimate(diffusion_model, diffusion_small, [0.1, 0.1], kind="check")
        after = counters.snapshot()
        assert after["reproduction_checks"] == base["reproduction_checks"] + 1
        assert after["estimator_evals"] == base["estimator_evals"] + 1


class TestBatchedSweeps:
    def test_batch_matches_pointwise(self, diffusion_small, diffusion_model):
        rng = np.random.default_rng(14)
        mus = -0.99 + 1.98 * rng.random((40, 2))
        batch = estimate_batch(diffusion_model, diffusion_small, mus, chunk=7)
        single = np.array(
            [error_estimate(diffusion_model, diffusion_small, mu) for mu in mus]
        )
        np.testing.assert_allclose(batch, single, rtol=1e-9)

    @pytest.mark.parametrize("chunk", [64, 4096])
    def test_batch_threaded_matches_serial(self, diffusion_small, diffusion_model, chunk):
        # bitwise invariance in chunk size and worker count
        rng = np.random.default_rng(15)
        mus = -0.99 + 1.98 * rng.random((2 * 4096 + 100, 2))
        whole = estimate_batch(diffusion_model, diffusion_small, mus, chunk=len(mus))
        serial = estimate_batch(diffusion_model, diffusion_small, mus, chunk=chunk)
        threaded = estimate_batch(
            diffusion_model, diffusion_small, mus, chunk=chunk, workers=2
        )
        np.testing.assert_array_equal(serial, whole)
        np.testing.assert_array_equal(threaded, whole)

    def test_batch_residuals_match_quadratic_form(self, thermal_small, thermal_model):
        from rbx.affine import evaluate_theta_batch, rhs_scale_batch

        rng = np.random.default_rng(16)
        mus = 0.1 + rng.random((10, 9)) * 9.9
        thetas = evaluate_theta_batch(thermal_small, mus)
        scales = rhs_scale_batch(thermal_small, mus)
        coeffs = np.stack([reduced_solve(thermal_model, mu).coeffs for mu in mus])
        batch = residual_norm_sq_batch(thermal_model, thetas, scales, coeffs)
        for i, mu in enumerate(mus):
            ref = residual_dual_norm_sq(
                thermal_model, mu, ReducedSolution(mu, coeffs[i])
            )
            assert batch[i] == pytest.approx(ref, rel=1e-9, abs=1e-14)

    def test_batch_counts_estimates(self, diffusion_small, diffusion_model):
        counters = diffusion_small.counters
        base = counters.snapshot()
        mus = np.zeros((25, 2))
        estimate_batch(diffusion_model, diffusion_small, mus, kind="global")
        after = counters.snapshot()
        assert after["estimator_evals"] == base["estimator_evals"] + 25
        assert after["sweep_evals_global"] == base["sweep_evals_global"] + 25


class TestSinglePointIsBatchOfOne:
    """Single-point calls run the float64 kernels of the sweeps on one row."""

    @staticmethod
    def _points(problem, model, count=12, seed=17):
        rng = np.random.default_rng(seed)
        lo, hi = problem.box.lower, problem.box.upper
        drawn = lo + rng.random((count, problem.dim)) * (hi - lo)
        # snapshot parameters put the estimate at round-off level
        return np.vstack([drawn, np.asarray(model.snapshot_params)])

    @pytest.mark.parametrize("fixture_name", ["diffusion", "thermal"])
    def test_estimate_equals_batch(self, request, fixture_name):
        problem = request.getfixturevalue(f"{fixture_name}_small")
        model = request.getfixturevalue(f"{fixture_name}_model")
        mus = self._points(problem, model)
        single = np.array([error_estimate(model, problem, mu) for mu in mus])
        batch = estimate_batch(model, problem, mus)
        empty = estimate_batch(model, problem, mus, n=0)
        assert np.all(np.abs(single - batch) <= 1e-12 * empty)

    @pytest.mark.parametrize("fixture_name", ["diffusion", "thermal"])
    def test_solve_equals_batch_coefficients(self, request, fixture_name):
        problem = request.getfixturevalue(f"{fixture_name}_small")
        model = request.getfixturevalue(f"{fixture_name}_model")
        mus = self._points(problem, model)
        _, coeffs, _, _ = estimate_batch(model, problem, mus, return_coeffs=True)
        single = np.stack([reduced_solve(model, mu).coeffs for mu in mus])
        np.testing.assert_allclose(single, coeffs, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("kind", ["global", "surrogate", "check", "other"])
    def test_query_counts_one_solve_and_one_estimate(
        self, thermal_small, thermal_model, kind
    ):
        counters = thermal_small.counters
        before = counters.snapshot()
        mu = np.full(thermal_small.dim, 2.5)
        sol = reduced_solve(thermal_model, mu)
        error_estimate(thermal_model, thermal_small, mu, sol=sol, kind=kind)
        reduced_output(thermal_model, sol)
        bucket = {
            "global": "sweep_evals_global",
            "surrogate": "sweep_evals_surrogate",
            "check": "reproduction_checks",
        }
        expected = dict(before)
        expected["reduced_solves"] += 1
        expected["estimator_evals"] += 1
        if kind in bucket:
            expected[bucket[kind]] += 1
        assert counters.snapshot() == expected

    def test_singular_system_reports_condition(self, diffusion_small, diffusion_model):
        from rbx.errors import NumericalFailureError

        diffusion_model.reduced_components = np.zeros_like(diffusion_model.reduced_components)
        with pytest.raises(NumericalFailureError, match="singular") as info:
            reduced_solve(diffusion_model, [0.1, 0.2])
        assert info.value.condition_estimate == np.inf
