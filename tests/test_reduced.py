"""Reduced model algebra checked against explicit truth-space computations."""

import dataclasses
import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

import rbx
from rbx import reduced
from rbx.errors import BasisRejectionError, InvalidParameterError, NumericalFailureError
from rbx.reduced import (
    ReducedModel,
    TrainingSystems,
    augmented_weights,
    error_estimate,
    estimate_batch,
    extend_basis,
    reconstruct,
    reduced_output,
    reduced_solve,
    reduced_solve_batch,
    residual_dual_norm_sq,
    residual_norm_sq_batch,
)
from rbx.truth import truth_solve, x_norm

from conftest import (
    build_model,
    call_in_subprocess,
    direct_residual_dual_norm_sq,
    sequential_sum,
)


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
        gram = basis.T @ (diffusion_model.disc.x_inner @ basis)
        np.testing.assert_allclose(gram, np.eye(diffusion_model.n), atol=1e-10)

    def test_gram_identity_sparse_inner(self, thermal_model):
        basis = thermal_model.basis
        gram = basis.T @ (thermal_model.disc.x_inner @ basis)
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
        snap = TruthSolution(
            mu=np.zeros(2), coefficients=np.zeros(diffusion_small.n_dof), solve=None
        )
        with pytest.raises(BasisRejectionError):
            extend_basis(model, snap)


def per_column_fold(disc, basis, vectors, rtol):
    """Reference fold: each column by two-pass Gram-Schmidt against the grown basis."""
    m = vectors.shape[1]
    coords = np.zeros((basis.shape[1] + m, m))
    for j in range(m):
        k = basis.shape[1]
        v = vectors[:, j].copy()
        for _ in range(2 if k else 0):
            h = basis.T @ (disc.x_inner @ v)
            v -= basis @ h
            coords[:k, j] += h
        nrm = x_norm(disc, v)
        if nrm > rtol * math.hypot(float(np.linalg.norm(coords[:k, j])), nrm):
            basis = np.concatenate([basis, (v / nrm)[:, None]], axis=1)
            coords[k, j] = nrm
    return basis, coords[: basis.shape[1]]


def x_orthonormal_basis(disc, k, seed):
    """k X-orthonormal columns from a Cholesky factor of X, independent of the fold."""
    x = disc.x_inner.tocsr().toarray()
    inv_lt = scipy.linalg.solve_triangular(np.linalg.cholesky(x), np.eye(x.shape[0]), lower=True).T
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((x.shape[0], k)))
    return inv_lt @ q  # (L^-T q)^T X (L^-T q) = q^T q


def x_gram(disc, basis):
    return basis.T @ (disc.x_inner @ basis)


@pytest.fixture(params=["diffusion_small", "thermal_small"])
def fold_problem(request):
    """Separable X (diffusion n_x=10) and sparse X (thermal block 7)."""
    return request.getfixturevalue(request.param)


class TestOrthonormalFold:
    RTOL = reduced.RESIDUAL_BASIS_RTOL

    def test_block_inside_a_full_basis_adds_nothing(self, fold_problem):
        disc = fold_problem.discretization
        basis = x_orthonormal_basis(disc, fold_problem.n_dof, seed=0)
        block = np.random.default_rng(1).standard_normal((fold_problem.n_dof, 5))
        grown, coords = reduced.orthonormal_fold(disc, basis, block, self.RTOL)
        assert grown.shape == basis.shape and coords.shape == (fold_problem.n_dof, 5)
        np.testing.assert_allclose(grown @ coords, block, atol=1e-12 * np.abs(block).max())

    def test_dependent_columns_with_rounding_noise_are_dropped(self, fold_problem):
        disc = fold_problem.discretization
        rng = np.random.default_rng(2)
        basis = x_orthonormal_basis(disc, 4, seed=3)
        a, b, c = rng.standard_normal((3, fold_problem.n_dof))
        noise = 1e-14 * rng.standard_normal((2, fold_problem.n_dof))
        block = np.column_stack(
            [a, b, a + b + noise[0] * np.abs(a + b).max(), c, 2 * c - a + noise[1] * np.abs(c).max()]
        )
        grown, coords = reduced.orthonormal_fold(disc, basis, block, self.RTOL)
        assert grown.shape[1] == 4 + 3
        np.testing.assert_allclose(grown[:, :4], basis, rtol=0, atol=0)
        np.testing.assert_allclose(grown @ coords, block, atol=1e-12 * np.abs(block).max())
        np.testing.assert_allclose(x_gram(disc, grown), np.eye(7), atol=1e-12)

    def test_small_new_direction_is_kept_orthonormal(self, fold_problem):
        # the third column keeps only 1e-9 of its norm after the in-block
        # pass, and the fourth lies mostly along that direction: their
        # remainders are far from X-orthogonal to the old basis until the
        # re-orthogonalization, whose Cholesky factor enters the coordinates
        disc = fold_problem.discretization
        rng = np.random.default_rng(4)
        basis = x_orthonormal_basis(disc, 6, seed=5)
        a, b, d = rng.standard_normal((3, fold_problem.n_dof))
        block = np.column_stack([a, b, a - 3 * b + 1e-9 * np.abs(a - 3 * b).max() * d, d])
        grown, coords = reduced.orthonormal_fold(disc, basis, block, self.RTOL)
        assert grown.shape[1] == 6 + 4
        np.testing.assert_allclose(x_gram(disc, grown), np.eye(10), atol=1e-12)
        np.testing.assert_allclose(grown @ coords, block, atol=1e-12 * np.abs(block).max())

    def test_cdm_generator_blocks_match_the_per_column_fold(self, fold_problem, monkeypatch):
        from rbx import surrogate

        # the residual's Riesz folds (1e-12) and cdm's generator folds
        # (1e-9) both run through GeneratorFactor.grow
        disc = fold_problem.discretization
        real = reduced.orthonormal_fold
        seen, gaps = [], []

        def project(basis, vectors):
            return basis @ (basis.T @ (disc.x_inner @ vectors))

        def checked(disc_, basis, vectors, rtol):
            grown, coords = real(disc_, basis, vectors, rtol)
            ref, _ = per_column_fold(disc_, basis, vectors, rtol)
            k0 = basis.shape[1]
            assert grown.shape[1] == ref.shape[1]
            # the same space as the block sees it: equal X-projections of its
            # columns (a direction kept at a remainder near rtol is fixed only
            # to rounding over rtol, so the bases themselves may differ there)
            gap = project(grown, vectors) - project(ref, vectors)
            scale = np.sqrt(np.einsum("ij,ij->j", vectors, disc.x_inner @ vectors))
            gaps.append(float((np.sqrt(np.einsum("ij,ij->j", gap, disc.x_inner @ gap)) / scale).max()))
            seen.append((rtol, vectors.shape[1], grown.shape[1] - k0))
            return grown, coords

        monkeypatch.setattr(reduced, "orthonormal_fold", checked)
        train = rbx.sample_training_set(fold_problem.box, kind="random", count=60, seed=2)
        model, trace = rbx.run_greedy(
            fold_problem, train, rbx.GreedyConfig(eps_tol=1e-4, method="cdm")
        )
        assert trace.certified
        generator_folds = [(m, k) for rtol, m, k in seen if rtol == surrogate.GENERATOR_RTOL]
        assert len(generator_folds) >= 5
        assert any(rtol == self.RTOL for rtol, _, _ in seen)
        # each fold leaves out remainders below rtol times their column
        assert max(gaps) < 10 * self.RTOL
        # the blocks hold dependent columns, so the rank test is exercised
        assert sum(m for m, _ in generator_folds) > sum(k for _, k in generator_folds)


class TestGalerkinSolve:
    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_matches_explicit_projection(self, diffusion_small, diffusion_model, n):
        mu = np.array([0.71, -0.42])
        basis = diffusion_model.basis[:, :n]
        a = sequential_sum(diffusion_small, mu)
        mat = basis.T @ (a @ basis)
        b = basis.T @ diffusion_small.rhs  # the load does not depend on mu
        expected = np.linalg.solve(mat, b)
        sol = reduced_solve(diffusion_model, mu, n=n)
        np.testing.assert_allclose(sol.coeffs, expected, rtol=1e-9, atol=1e-12)

    def test_matches_explicit_projection_thermal(self, thermal_small, thermal_model):
        mu = np.array([0.4, 6.0, 2.0, 1.0, 1.0, 3.3, 0.2, 8.0, 5.0])
        basis = thermal_model.basis
        a = sequential_sum(thermal_small, mu)
        mat = basis.T @ (a @ basis)
        b = basis.T @ thermal_small.rhs
        expected = np.linalg.solve(mat, b)
        sol = reduced_solve(thermal_model, mu)
        np.testing.assert_allclose(sol.coeffs, expected, rtol=1e-9, atol=1e-12)

    def test_truncation_out_of_range(self, diffusion_small, diffusion_model):
        points = np.zeros((5, 2))
        for n in (diffusion_model.n + 1, -1):
            with pytest.raises(ValueError, match="out of range"):
                reduced_solve(diffusion_model, [0.0, 0.0], n=n)
            with pytest.raises(ValueError, match="out of range"):
                estimate_batch(diffusion_model, diffusion_small, points, n=n)

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
            got = residual_dual_norm_sq(model, sol)
            ref = direct_residual_dual_norm_sq(model, problem, mu, sol)
            assert got == pytest.approx(ref, rel=1e-6, abs=1e-14)

    def test_empty_basis_norm_is_load_dual_norm(self, diffusion_small):
        model = ReducedModel(diffusion_small)
        mu = np.array([0.5, -0.5])
        sol = reduced_solve(model, mu, n=0)
        got = residual_dual_norm_sq(model, sol)
        f = diffusion_small.rhs
        rep = diffusion_small.discretization.x_solve(f)
        np.testing.assert_allclose(got, float(f @ rep), rtol=1e-10)

    def test_zero_load_is_rejected(self, fold_problem):
        # X^-1 f vanishes, so the residual factor's fold drops it
        problem = dataclasses.replace(fold_problem, rhs=np.zeros(fold_problem.n_dof))
        with pytest.raises(NumericalFailureError, match="zero dual norm"):
            ReducedModel(problem)


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
                thermal_model, thermal_small, mu, sol=reduced_solve(thermal_model, mu, n=0)
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


def _tile_boundary_sweeps(workers):
    """Full sweeps of thermalblock 7 over 2 x 4096 + 700 points with a grown
    Cholesky factor, bordered at basis sizes 3 and 5.  The last block ends in
    a partial residual tile (700 = 512 + 188).  Returns, per worker count, the
    (estimates, reduced solutions) of each sweep, and the systems."""
    problem = rbx.build_thermal_block(nodes_per_side=7)
    train = rbx.sample_training_set(problem.box, kind="random", count=150, seed=3)
    model, _ = build_model(problem, train, n_target=3)
    rng = np.random.default_rng(18)
    mus = 0.1 + rng.random((2 * 4096 + 700, problem.dim)) * 9.9
    runs = {w: TrainingSystems.evaluate(problem, mus, keep_factor=True) for w in workers}
    sweeps = {w: [] for w in workers}
    for border in range(2):
        if border:
            for j in (0, 1):
                extend_basis(model, truth_solve(problem, mus[j]), j)
        for w, systems in runs.items():
            deltas = estimate_batch(model, problem, mus, workers=w, systems=systems)
            sweeps[w].append((deltas, systems.coeffs))
    return sweeps, runs


def _tile_boundary_digests():
    """SHA-256 of each serial sweep's estimates and reduced solutions."""
    sweeps, _ = _tile_boundary_sweeps(workers=(1,))
    return [hashlib.sha256(d.tobytes() + c.tobytes()).hexdigest() for d, c in sweeps[1]]


class TestBatchedSweeps:
    def test_batch_matches_pointwise(self, diffusion_small, diffusion_model, monkeypatch):
        monkeypatch.setattr(reduced, "DEFAULT_CHUNK", 7)
        rng = np.random.default_rng(14)
        mus = -0.99 + 1.98 * rng.random((40, 2))
        batch = estimate_batch(diffusion_model, diffusion_small, mus)
        single = np.array(
            [error_estimate(diffusion_model, diffusion_small, mu) for mu in mus]
        )
        np.testing.assert_allclose(batch, single, rtol=1e-9)

    @pytest.mark.parametrize("block", [64, 4096])
    def test_batch_threaded_matches_serial(
        self, diffusion_small, diffusion_model, block, monkeypatch
    ):
        # bitwise invariance in the worker count, at two block sizes
        monkeypatch.setattr(reduced, "DEFAULT_CHUNK", block)
        rng = np.random.default_rng(15)
        mus = -0.99 + 1.98 * rng.random((2 * 4096 + 100, 2))
        serial = estimate_batch(diffusion_model, diffusion_small, mus)
        threaded = estimate_batch(diffusion_model, diffusion_small, mus, workers=2)
        np.testing.assert_array_equal(threaded, serial)

    def test_grown_factor_threaded_matches_serial(self):
        # the default blocks: three of them, the last ending in a partial
        # residual tile, over two successive borders
        sweeps, runs = _tile_boundary_sweeps(workers=(1, 2))
        for (deltas_1, coeffs_1), (deltas_2, coeffs_2) in zip(sweeps[1], sweeps[2]):
            np.testing.assert_array_equal(deltas_2, deltas_1)
            np.testing.assert_array_equal(coeffs_2, coeffs_1)
        one, two = runs[1].factor, runs[2].factor
        assert one.rows == two.rows == 5
        for k in range(one.rows):
            np.testing.assert_array_equal(two._rows[k], one._rows[k])

    def test_grown_factor_sweeps_do_not_move_with_blas_threads(self):
        one_thread = call_in_subprocess("test_reduced", "_tile_boundary_digests", blas_threads=1)
        two_threads = call_in_subprocess("test_reduced", "_tile_boundary_digests", blas_threads=2)
        assert two_threads == one_thread == _tile_boundary_digests()

    def test_factor_does_not_depend_on_the_border_schedule(self, thermal_small, monkeypatch):
        # cdm borders all rows a round added in one call, classical one row
        # per call; the factor and the estimates must not tell them apart,
        # nor the worker count
        train = rbx.sample_training_set(thermal_small.box, kind="random", count=5000, seed=5)
        model, _ = build_model(thermal_small, train, n_target=12)

        def grown(model, schedule, workers=1, chunk=4096, b=5000):
            monkeypatch.setattr(reduced, "DEFAULT_CHUNK", chunk)
            points = train.points[:b]
            systems = TrainingSystems.evaluate(thermal_small, points, keep_factor=True)
            for n in schedule:
                deltas = estimate_batch(
                    model, thermal_small, points, n=n, workers=workers, systems=systems
                )
            written = np.concatenate([row.ravel() for row in systems.factor._rows])
            return written, systems.coeffs, deltas

        cdm = grown(model, [12])
        classical = range(1, 13)
        for run in (grown(model, classical), grown(model, [12], 2), grown(model, classical, 2)):
            for got, expected in zip(run, cdm):
                np.testing.assert_array_equal(got, expected)
        # a block of one point sums like a wider block, also at basis size one
        one, _ = build_model(thermal_small, train, n_target=1)
        for m in (model, one):
            wide = grown(m, [m.n], b=40)
            for schedule in ([m.n], range(1, m.n + 1)):
                single = grown(m, schedule, chunk=1, b=40)
                np.testing.assert_array_equal(single[0], wide[0])
                np.testing.assert_array_equal(single[1], wide[1])

    def test_factor_holds_only_the_bordered_rows(self, thermal_small, thermal_train_small):
        # n_max (100 by default) caps the basis, not the factor: after a full
        # sweep at N rows the factor holds b N (N + 1) / 2 floats
        from rbx.greedy import GreedyConfig, _Run

        run = _Run(thermal_small, thermal_train_small, GreedyConfig(eps_tol=1e-300))
        assert run.config.n_max == 100
        for _ in range(3):
            run.extend(*run.sweep(0))
        run.sweep(0)
        factor, b, n = run.systems.factor, thermal_train_small.n_train, run.model.n
        assert factor.rows == n == 4
        assert sum(row.nbytes for row in factor._rows) == 8 * b * n * (n + 1) // 2
        assert sum(z.nbytes for z in factor._z) == 8 * b * n

    def test_augmented_weights_are_the_broadcast_products(self):
        rng = np.random.default_rng(20)
        for b, n, q in [(1, 1, 1), (5, 0, 9), (7, 67, 9), (300, 12, 4)]:
            thetas = rng.random((b, q))
            scales = rng.random(b)
            coeffs = rng.standard_normal((b, n))
            w = augmented_weights(thetas, scales, coeffs)
            expected = np.column_stack(
                [scales, (coeffs[:, :, None] * thetas[:, None, :]).reshape(b, -1)]
            )
            np.testing.assert_array_equal(w, expected)

    def test_batch_rejects_systems_of_other_points(self, thermal_small, thermal_model):
        rng = np.random.default_rng(19)
        points = 0.1 + rng.random((12, 9)) * 9.9
        systems = TrainingSystems.evaluate(thermal_small, points)
        with pytest.raises(InvalidParameterError):
            estimate_batch(thermal_model, thermal_small, points[:5], systems=systems)
        with pytest.raises(InvalidParameterError):
            estimate_batch(thermal_model, thermal_small, points[::-1], systems=systems)
        # an equal copy is the same parameters
        copied = estimate_batch(thermal_model, thermal_small, points.copy(), systems=systems)
        np.testing.assert_array_equal(
            copied, estimate_batch(thermal_model, thermal_small, points)
        )
        assert systems.coeffs.shape == (12, thermal_model.n)

    def test_batch_residuals_match_quadratic_form(self, thermal_small, thermal_model):
        from rbx.affine import evaluate_theta_batch, rhs_scale_batch

        rng = np.random.default_rng(16)
        mus = 0.1 + rng.random((10, 9)) * 9.9
        thetas = evaluate_theta_batch(thermal_small, mus)
        scales = rhs_scale_batch(thermal_small, mus)
        sols = [reduced_solve(thermal_model, mu) for mu in mus]
        coeffs = np.stack([sol.coeffs for sol in sols])
        batch = residual_norm_sq_batch(thermal_model, thetas, scales, coeffs)
        for i, sol in enumerate(sols):
            ref = residual_dual_norm_sq(thermal_model, sol)
            assert batch[i] == pytest.approx(ref, rel=1e-9, abs=1e-14)

    def test_batch_counts_estimates(self, diffusion_small, diffusion_model):
        counters = diffusion_small.counters
        base = counters.snapshot()
        mus = np.zeros((25, 2))
        estimate_batch(diffusion_model, diffusion_small, mus, kind="global")
        after = counters.snapshot()
        assert after["estimator_evals"] == base["estimator_evals"] + 25
        assert after["sweep_evals_global"] == base["sweep_evals_global"] + 25


class TestTiledReducedSolve:
    """``reduced_solve_batch`` assembles and solves ``SOLVE_TILE`` points at a time."""

    @staticmethod
    def stored_model(n, q, seed):
        # two stored rows more than the solve uses, so that the truncated
        # components are a strided view, as in a sweep below the basis size
        rng = np.random.default_rng(seed)
        size = n + 2
        comps = rng.standard_normal((q, size, size)) + size * np.eye(size)
        return SimpleNamespace(reduced_components=comps, reduced_rhs=rng.standard_normal(size)), rng

    @pytest.mark.parametrize("n", [0, 1, 51])
    @pytest.mark.parametrize("b", [1, 63, 64, 65, 4097])
    def test_tiles_match_the_one_shot_solve(self, b, n):
        model, rng = self.stored_model(n, 3, seed=b + n)
        thetas, scales = rng.random((b, 3)), rng.random(b)
        got = reduced_solve_batch(model, thetas, scales, n)
        mats = np.einsum("iq,qmn->imn", thetas, model.reduced_components[:, :n, :n])
        rhs = scales[:, None] * model.reduced_rhs[None, :n]
        want = np.linalg.solve(mats, rhs[..., None])[..., 0]
        assert got.shape == (b, n)
        np.testing.assert_array_equal(got, want)

    def test_singular_system_in_a_later_tile_raises(self):
        model, rng = self.stored_model(5, 3, seed=7)
        model.reduced_components[0, 4, :] = 0.0  # A_0 alone is singular
        b = reduced.SOLVE_TILE + 10
        thetas = rng.random((b, 3))
        thetas[b - 3] = [1.0, 0.0, 0.0]
        with pytest.raises(NumericalFailureError, match="singular") as failure:
            reduced_solve_batch(model, thetas, rng.random(b), 5)
        assert failure.value.condition_estimate > 1e12

    def test_block_of_solves_stores_no_block_of_matrices(self):
        # the 4096 reduced matrices of size 67 would take 147 MB at once
        b, n = 4096, 67
        model, rng = self.stored_model(n, 9, seed=3)
        thetas, scales = rng.random((b, 9)), rng.random(b)
        tracemalloc.start()
        try:
            reduced_solve_batch(model, thetas, scales, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * b * n * n * 8, f"peak {peak / 1e6:.1f} MB"


class TestTiledResidual:
    """``residual_norm_sq_batch`` forms weights, coordinates and norms
    ``SWEEP_TILE`` points at a time."""

    @staticmethod
    def stored_residual(n, q, r, seed):
        # coordinates of two basis vectors more than the sweep uses, so that
        # the truncated coordinates are a strided view, as below the basis size
        rng = np.random.default_rng(seed)
        coords = rng.standard_normal((1, r, 1 + (n + 2) * q))
        return SimpleNamespace(residual=SimpleNamespace(coords=coords)), rng

    def test_block_of_norms_stores_no_block_of_coordinates(self):
        # tb-classical's sizes: a 4096-point block's weights (d = 1 + N Q =
        # 604 columns) and residual coordinates (r = 342) take 31 MB at once
        b, n, q, r = 4096, 67, 9, 342
        model, rng = self.stored_residual(n, q, r, seed=4)
        thetas, scales, coeffs = rng.random((b, q)), rng.random(b), rng.standard_normal((b, n))
        tracemalloc.start()
        try:
            residual_norm_sq_batch(model, thetas, scales, coeffs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        limit = 0.25 * 8 * b * (1 + n * q + r)
        assert peak < limit, f"peak {peak / 1e6:.2f} MB, limit {limit / 1e6:.2f} MB"

    @pytest.mark.parametrize("b", [1, 511, 512, 513, 4097])
    def test_tiles_match_the_one_shot_product(self, b):
        # OpenBLAS may round a row by the product's row count, so a tolerance
        n, q, r = 12, 9, 40
        model, rng = self.stored_residual(n, q, r, seed=b)
        thetas, scales, coeffs = rng.random((b, q)), rng.random(b), rng.standard_normal((b, n))
        got = residual_norm_sq_batch(model, thetas, scales, coeffs)
        w = augmented_weights(thetas, scales, coeffs)
        assert w.shape[1] < model.residual.coords.shape[2]
        z = w @ model.residual.coords[0, :, : w.shape[1]].T
        assert got.shape == (b,)
        np.testing.assert_allclose(got, np.einsum("ij,ij->i", z, z), rtol=1e-12)

    @pytest.mark.parametrize("problem_name", ["thermal", "diffusion"])
    def test_sweeps_stay_within_the_readme_memory_model(self, problem_name):
        # README's values per training point at basis size N, plus the block
        # temporaries of the solves and one residual tile.  The thermal block
        # borders its factor one row per sweep, as classical does; the
        # factor's rows are memory maps, which tracemalloc does not see, so
        # their bytes are added to the traced peak
        if problem_name == "thermal":
            problem = rbx.build_thermal_block(nodes_per_side=7)
            train = rbx.sample_training_set(problem.box, kind="random", count=150, seed=3)
        else:
            problem = rbx.build_diffusion2d(n_x=10)
            train = rbx.sample_training_set(problem.box, kind="grid", n_per_dim=6)
        model, _ = build_model(problem, train, n_target=12)
        b = 2 * reduced.DEFAULT_CHUNK + 700
        rng = np.random.default_rng(21)
        lo, hi = problem.box.lower, problem.box.upper
        mus = lo + rng.random((b, problem.dim)) * (hi - lo)
        n, p, q, r = model.n, problem.dim, problem.n_terms, model.residual.basis.shape[1]
        tracemalloc.start()
        try:
            systems = TrainingSystems.evaluate(problem, mus, keep_factor=True)
            for size in range(1, n + 1) if problem.symmetric else [n]:
                estimate_batch(model, problem, mus, n=size, systems=systems)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_point = n + p + q + 4
        if problem.symmetric:
            factor = systems.factor
            peak += sum(row.nbytes for row in factor._rows)
            per_point += n * (n + 3) // 2
            block = reduced.DEFAULT_CHUNK * (3 * n + q + 3)
        else:
            block = reduced.DEFAULT_CHUNK * n + reduced.SOLVE_TILE * n * n
        tile = reduced.SWEEP_TILE * (1 + n * q + r)
        limit = 8 * (b * per_point + block + tile)
        assert peak < limit, f"peak {peak / 1e6:.2f} MB, limit {limit / 1e6:.2f} MB"


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
        from rbx.affine import evaluate_theta_batch, rhs_scale_batch
        from rbx.reduced import augmented_weights

        systems = TrainingSystems.evaluate(problem, mus)
        estimate_batch(model, problem, mus, systems=systems)
        single = np.stack([reduced_solve(model, mu).coeffs for mu in mus])
        thetas = evaluate_theta_batch(problem, mus)
        scales = rhs_scale_batch(problem, mus)
        weights = augmented_weights(thetas, scales, systems.coeffs)
        single_weights = augmented_weights(thetas, scales, single)
        np.testing.assert_allclose(single_weights, weights, rtol=1e-12, atol=1e-14)

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

    def test_certified_query_checks_the_box_once(self, thermal_small, thermal_model, monkeypatch):
        # reduced_solve checks mu and evaluates theta, the residual reuses its
        # row, and the coercivity row evaluates theta once more
        from rbx.affine import ParameterBox

        mu = np.full(thermal_small.dim, 2.5)
        error_estimate(thermal_model, thermal_small, mu)  # the bound's anchor, once
        calls = {"box": 0, "theta": 0}

        def counted(key, f):
            def wrapper(*args):
                calls[key] += 1
                return f(*args)

            return wrapper

        for name in [name for name in vars(ParameterBox) if name.startswith("validate")]:
            monkeypatch.setattr(ParameterBox, name, counted("box", getattr(ParameterBox, name)))
        monkeypatch.setattr(thermal_small, "theta", counted("theta", thermal_small.theta))
        sol = reduced_solve(thermal_model, mu)
        error_estimate(thermal_model, thermal_small, mu, sol=sol)
        assert calls["box"] == 1 and calls["theta"] == 2, calls

    def test_solution_of_another_parameter_is_rejected(self, thermal_small, thermal_model):
        sol = reduced_solve(thermal_model, np.full(thermal_small.dim, 2.5))
        before = thermal_small.counters.snapshot()
        with pytest.raises(InvalidParameterError, match="sol was solved at"):
            error_estimate(thermal_model, thermal_small, np.full(thermal_small.dim, 2.0), sol=sol)
        assert thermal_small.counters.snapshot() == before
        # an equal copy of the parameter, as a list, is the same parameter
        delta = error_estimate(thermal_model, thermal_small, sol.mu.tolist(), sol=sol)
        assert delta == error_estimate(thermal_model, thermal_small, sol.mu)

    def test_singular_system_reports_condition(self, diffusion_small, diffusion_model):
        from rbx.errors import NumericalFailureError

        diffusion_model.reduced_components = np.zeros_like(diffusion_model.reduced_components)
        with pytest.raises(NumericalFailureError, match="singular") as info:
            reduced_solve(diffusion_model, [0.1, 0.2])
        assert info.value.condition_estimate == np.inf
