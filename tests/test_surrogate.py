"""Surrogate-domain constructors checked against hand cases and brute force."""

import warnings

import numpy as np
import pytest
import scipy.linalg

import rbx
from rbx.affine import assemble_operator, evaluate_theta_batch, rhs_scale_batch
from rbx.errors import ConfigurationError, NumericalFailureError
from rbx.reduced import (
    TrainingSystems,
    augmented_weights,
    estimate_batch,
    extend_basis,
    reduced_solve,
    reduced_solve_batch,
)
from rbx.surrogate import (
    approx_error_coords,
    cdm_build_offline,
    cdm_construct,
    pivoted_cholesky,
    smm_construct,
)
from rbx.truth import truth_solve

from conftest import build_model


# ---------------------------------------------------------------------------
# slow-margin selection


def smm_oracle(deltas, eps_tol, budget):
    """Reference reimplementation: one pass per level, closest-above wins."""
    deltas = np.asarray(deltas, dtype=float)
    top = deltas.max()
    if top <= eps_tol or budget == 0 or deltas.size == 0:
        return []
    picked = []
    for k in range(budget):
        level = eps_tol + (top - eps_tol) * k / budget
        best, best_margin = None, None
        for i, d in enumerate(deltas):
            if d < level:
                continue
            margin = d - level
            if best_margin is None or margin < best_margin:
                best, best_margin = i, margin
        if best is not None and best not in picked:
            picked.append(best)
    return picked


class TestSlowMarginConstruct:
    def test_hand_case(self):
        # levels 0.1 and 0.5; margins put index 4 closest above the first
        # level and index 1 exactly on the second
        out = smm_construct([0.9, 0.5, 0.3, 0.2, 0.11], eps_tol=0.1, budget=2)
        np.testing.assert_array_equal(out, [4, 1])

    def test_all_converged_returns_empty(self):
        out = smm_construct([0.5, 0.01], eps_tol=0.6, budget=4)
        assert out.size == 0

    def test_all_equal_collapse_to_single_lowest_index(self):
        out = smm_construct([0.7, 0.7, 0.7], eps_tol=0.1, budget=5)
        np.testing.assert_array_equal(out, [0])

    def test_single_level_budget(self):
        # only the base level at eps_tol; nearest above it is index 2
        out = smm_construct([0.9, 0.4, 0.2], eps_tol=0.1, budget=1)
        np.testing.assert_array_equal(out, [2])

    def test_budget_zero_and_negative(self):
        assert smm_construct([1.0], 0.1, 0).size == 0
        with pytest.raises(ConfigurationError):
            smm_construct([1.0], 0.1, -1)

    def test_empty_input(self):
        assert smm_construct([], 0.1, 3).size == 0

    def test_matches_oracle_on_random_arrays(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            size = int(rng.integers(1, 40))
            deltas = rng.random(size) * 10.0 ** rng.integers(-6, 2)
            eps = float(deltas.max()) * rng.choice([0.0, 0.2, 0.9, 1.5])
            eps = max(eps, 1e-12)
            budget = int(rng.integers(0, 12))
            got = smm_construct(deltas, eps, budget)
            np.testing.assert_array_equal(got, smm_oracle(deltas, eps, budget))

    def test_size_and_uniqueness_properties(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            deltas = rng.random(30)
            got = smm_construct(deltas, 0.05, 7)
            assert got.size <= 7
            assert len(set(got.tolist())) == got.size
            assert np.all(deltas[got] >= 0.05)


# ---------------------------------------------------------------------------
# pivoted Cholesky


def schur_pivot_oracle(g, max_steps, drop_tol=1e-12):
    """Explicit Schur-complement pivoting on a dense working copy."""
    work = np.array(g, dtype=float)
    n = work.shape[0]
    thresh = drop_tol * max(float(np.diag(work).max()), 0.0)
    order = []
    for _ in range(min(max_steps, n)):
        d = np.maximum(np.diag(work).copy(), 0.0)
        j = int(np.argmax(d))
        if d[j] <= thresh:
            break
        order.append(j)
        col = work[:, j].copy()
        work = work - np.outer(col, col) / d[j]
        work[:, j] = 0.0
        work[j, :] = 0.0
    return order


def column_oracle(g):
    return lambda j: g[:, j]


class TestPivotedCholesky:
    def test_hand_case_prefers_novel_direction(self):
        # after row 0 is taken, row 1 is nearly parallel to it while row 2
        # is orthogonal, so the second pivot must be index 2
        g = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
        pivots, factor = pivoted_cholesky(column_oracle(g), np.diag(g), max_steps=3)
        np.testing.assert_array_equal(pivots, [0, 2, 1])
        np.testing.assert_allclose(factor @ factor.T, g, atol=1e-12)

    def test_identity_ties_resolve_to_lowest_index(self):
        g = np.eye(5)
        pivots, _ = pivoted_cholesky(column_oracle(g), np.diag(g), max_steps=5)
        np.testing.assert_array_equal(pivots, [0, 1, 2, 3, 4])

    def test_exact_low_rank_stops_early(self):
        rng = np.random.default_rng(23)
        f = rng.standard_normal((12, 4))
        g = f @ f.T
        pivots, factor = pivoted_cholesky(column_oracle(g), np.diag(g), max_steps=12)
        assert pivots.size == 4
        np.testing.assert_allclose(factor @ factor.T, g, atol=1e-10 * np.abs(g).max())

    def test_duplicated_row_never_picked(self):
        rng = np.random.default_rng(24)
        f = rng.standard_normal((6, 6))
        f[3] = f[1]  # rows 1 and 3 are identical error directions
        g = f @ f.T
        pivots, _ = pivoted_cholesky(column_oracle(g), np.diag(g), max_steps=6)
        assert not (1 in pivots and 3 in pivots)

    def test_max_steps_cap(self):
        rng = np.random.default_rng(25)
        f = rng.standard_normal((10, 10))
        g = f @ f.T
        pivots, factor = pivoted_cholesky(column_oracle(g), np.diag(g), max_steps=3)
        assert pivots.size == 3 and factor.shape == (10, 3)

    def test_matches_schur_oracle_on_random_psd(self):
        rng = np.random.default_rng(26)
        for _ in range(12):
            n = int(rng.integers(2, 25))
            r = int(rng.integers(1, n + 1))
            f = rng.standard_normal((n, r))
            g = f @ f.T
            pivots, factor = pivoted_cholesky(column_oracle(g), np.diag(g), max_steps=n)
            np.testing.assert_array_equal(pivots, schur_pivot_oracle(g, n))
            np.testing.assert_allclose(
                factor @ factor.T, g, atol=1e-10 * max(1.0, np.abs(g).max())
            )

    def test_selected_diagonals_non_increasing(self):
        rng = np.random.default_rng(27)
        f = rng.standard_normal((15, 15))
        g = f @ f.T
        pivots, factor = pivoted_cholesky(column_oracle(g), np.diag(g), max_steps=15)
        # the updated diagonal at the chosen pivot is the squared last factor
        # entry of that step; the greedy choice makes the sequence monotone
        selected = np.array([factor[p, k] ** 2 for k, p in enumerate(pivots)])
        assert np.all(np.diff(selected) <= 1e-10 * selected[0])

    def test_zero_matrix_returns_nothing(self):
        g = np.zeros((4, 4))
        pivots, factor = pivoted_cholesky(column_oracle(g), np.diag(g), max_steps=4)
        assert pivots.size == 0 and factor.shape == (4, 0)

    def test_step_counter(self, diffusion_small):
        counters = diffusion_small.counters
        g = np.eye(3)
        pivoted_cholesky(column_oracle(g), np.diag(g), max_steps=3, counters=counters)
        assert counters.pivoted_cholesky_steps == 3


# ---------------------------------------------------------------------------
# cached-inverse error approximation


@pytest.fixture
def thermal_setup(thermal_small, thermal_train_small):
    model, _ = build_model(thermal_small, thermal_train_small, n_target=4)
    offline = cdm_build_offline(model, thermal_small, q_cap=3)
    return thermal_small, thermal_train_small, model, offline


def dense(a):
    return a.toarray() if hasattr(a, "toarray") else np.asarray(a)


def batch_inputs(model, problem, points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    thetas = evaluate_theta_batch(problem, points)
    scales = rhs_scale_batch(problem, points)
    return thetas, scales, reduced_solve_batch(model, thetas, scales)


def swept(model, problem, points):
    """The evaluated ``points`` with the reduced solutions of a full sweep."""
    systems = TrainingSystems.evaluate(problem, points)
    estimate_batch(model, problem, systems.points, systems=systems)
    return systems


def kernel_errors(model, offline, problem, points, n=None):
    """Truth-space approximate errors (columns) through the cdm kernel."""
    thetas, scales, coeffs = batch_inputs(model, problem, points)
    coeffs = coeffs if n is None else reduced_solve_batch(model, thetas, scales, n=n)
    y = approx_error_coords(model, offline, thetas, scales, augmented_weights(thetas, scales, coeffs))
    return offline.basis @ y.T


def explicit_error_block(model, offline, problem, points):
    """(n_dof, b) blend errors from dense anchor inverses and truth residuals.

    e(mu) = sum_m beta_m(mu) A(mu_m)^-1 (s(mu) f - A(mu) u_N(mu)), with
    beta the snapshot weights of the anchor-space reduced solve.
    """
    thetas, scales, coeffs = batch_inputs(model, problem, points)
    q_solve = offline.anchor_positions[-1] + 1
    cq = reduced_solve_batch(model, thetas, scales, n=q_solve)
    r = model.snapshot_in_basis[:q_solve, :q_solve]
    beta = scipy.linalg.solve_triangular(r, cq.T, lower=False).T[:, offline.anchor_positions]
    inverses = [
        np.linalg.inv(dense(assemble_operator(problem, model.snapshot_params[pos])))
        for pos in offline.anchor_positions
    ]
    cols = []
    for i, mu in enumerate(np.atleast_2d(points)):
        a = dense(assemble_operator(problem, mu))
        res = scales[i] * problem.rhs - a @ (model.basis @ coeffs[i])
        cols.append(sum(beta[i, m] * (inv @ res) for m, inv in enumerate(inverses)))
    return np.column_stack(cols)


class TestCachedInverseOffline:
    def test_inverse_columns_satisfy_their_systems(self, thermal_setup):
        problem, _, model, offline = thermal_setup
        v = offline.basis
        x = dense(problem.x_inner)
        np.testing.assert_allclose(v.T @ x @ v, np.eye(v.shape[1]), atol=1e-12)
        qa = problem.n_terms
        assert offline.coords.shape == (offline.q_used, v.shape[1], 1 + model.n * qa)
        for m, pos in enumerate(offline.anchor_positions):
            a = dense(assemble_operator(problem, model.snapshot_params[pos]))
            gen = v @ offline.coords[m]
            np.testing.assert_allclose(
                a @ gen[:, 0], problem.rhs, atol=1e-9 * np.abs(problem.rhs).max()
            )
            for j in range(model.n):
                for k in range(problem.n_terms):
                    target = -(problem.components[k] @ model.basis[:, j])
                    got = a @ gen[:, 1 + j * qa + k]
                    np.testing.assert_allclose(
                        got, target, atol=1e-9 * max(1.0, np.abs(target).max())
                    )

    def test_incremental_growth_matches_fresh_build(self, thermal_small, thermal_train_small):
        model, _ = build_model(thermal_small, thermal_train_small, n_target=2)
        grown = cdm_build_offline(model, thermal_small, q_cap=3)
        config = rbx.GreedyConfig(eps_tol=1e-300, n_max=4, seed=0)
        model2, _ = rbx.run_greedy(thermal_small, thermal_train_small, config)
        # same greedy path, so snapshots 1..2 coincide; grow the factor
        grown = cdm_build_offline(model2, thermal_small, q_cap=3, offline=grown)
        fresh = cdm_build_offline(model2, thermal_small, q_cap=3)
        assert grown.anchor_positions == fresh.anchor_positions
        assert grown.n_basis == fresh.n_basis == 4
        for m in range(fresh.q_used):
            np.testing.assert_allclose(
                grown.basis @ grown.coords[m], fresh.basis @ fresh.coords[m], atol=1e-11
            )

    def test_truth_solve_counting(self, diffusion_small, diffusion_train_small):
        from rbx.reduced import extend_basis

        model, _ = build_model(diffusion_small, diffusion_train_small, n_target=2)
        counters = diffusion_small.counters
        base = counters.snapshot()
        offline = cdm_build_offline(model, diffusion_small, q_cap=1)
        after = counters.snapshot()
        # one anchor: the load column plus one image column per term and snapshot
        qa = diffusion_small.n_terms
        assert after["truth_solves"] - base["truth_solves"] == 1 + qa * model.n
        assert after["truth_factorizations"] - base["truth_factorizations"] == 1
        # extending the basis costs one backsolve per new image column and
        # reuses the anchor's own factorization
        snap = truth_solve(diffusion_small, [0.9, 0.9])
        extend_basis(model, snap)
        mid = counters.snapshot()
        offline = cdm_build_offline(model, diffusion_small, q_cap=1, offline=offline)
        growth = counters.snapshot()
        assert growth["truth_solves"] - mid["truth_solves"] == qa
        assert growth["truth_factorizations"] - mid["truth_factorizations"] == 0
        assert offline.n_basis == model.n

    def test_anchor_factorization_failure_skips_that_anchor(
        self, thermal_small, thermal_train_small, monkeypatch
    ):
        model, _ = build_model(thermal_small, thermal_train_small, n_target=3)
        import rbx.surrogate as surrogate_module

        real = surrogate_module.operator_factorization

        def flaky(problem, mu, operator=None):
            if np.array_equal(mu, model.snapshot_params[1]):
                raise NumericalFailureError("synthetic failure")
            return real(problem, mu, operator)

        monkeypatch.setattr(surrogate_module, "operator_factorization", flaky)
        with pytest.warns(RuntimeWarning, match="anchor"):
            offline = cdm_build_offline(model, thermal_small, q_cap=3)
        assert offline.anchor_positions == [0, 2]
        assert offline.q_used == len(offline.factorizations) == 2

    def test_cdm_run_does_not_depend_on_earlier_runs(self):
        # anchor factorizations belong to one run: a run on a problem that
        # already ran another seed must match the same run on a fresh problem
        def cdm_run(problem, seed):
            train = rbx.sample_training_set(problem.box, kind="random", count=300, seed=0)
            config = rbx.GreedyConfig(eps_tol=1e-4, n_max=30, method="cdm", seed=seed)
            model, trace = rbx.run_greedy(problem, train, config)
            return model.snapshot_indices, trace.counters

        reused = rbx.build_thermal_block(nodes_per_side=7)
        cdm_run(reused, seed=0)
        indices, counters = cdm_run(reused, seed=1)
        fresh_indices, fresh_counters = cdm_run(rbx.build_thermal_block(nodes_per_side=7), seed=1)
        assert indices == fresh_indices
        assert counters == fresh_counters


class TestCachedInverseError:
    def test_matches_naive_formula(self, thermal_setup):
        problem, _, model, offline = thermal_setup
        rng = np.random.default_rng(31)
        points = 0.1 + rng.random((5, 9)) * 9.9
        fast = kernel_errors(model, offline, problem, points)
        slow = explicit_error_block(model, offline, problem, points)
        np.testing.assert_allclose(fast, slow, atol=1e-10 * np.abs(slow).max())

    def test_exact_at_anchor_for_truncated_solution(self, thermal_setup):
        # with the reduced solution truncated below an anchor position the
        # blend weights collapse onto that anchor and the approximation
        # equals the exact error of the truncated solution
        problem, _, model, offline = thermal_setup
        mu = model.snapshot_params[2]
        approx = kernel_errors(model, offline, problem, mu, n=2)[:, 0]
        sol = reduced_solve(model, mu, n=2)
        truth = truth_solve(problem, mu).coefficients
        exact = truth - model.basis[:, :2] @ sol.coeffs
        np.testing.assert_allclose(approx, exact, atol=1e-8 * np.abs(exact).max())

    def test_vanishes_at_snapshot_parameters(self, thermal_setup):
        problem, _, model, offline = thermal_setup
        rng = np.random.default_rng(32)
        scale = np.linalg.norm(kernel_errors(model, offline, problem, 0.1 + rng.random(9) * 9.9))
        errs = kernel_errors(model, offline, problem, np.array(model.snapshot_params))
        assert np.linalg.norm(errs, axis=0).max() <= 1e-8 * max(scale, 1e-30)

    def test_needs_anchors(self, thermal_small, thermal_train_small):
        model, _ = build_model(thermal_small, thermal_train_small, n_target=2)
        offline = cdm_build_offline(model, thermal_small, q_cap=2)
        offline.anchor_positions.clear()
        picked = cdm_construct(
            model, offline, swept(model, thermal_small, thermal_train_small.points), 4
        )
        assert picked.size == 0

    def test_counter(self, thermal_setup):
        problem, _, model, offline = thermal_setup
        base = problem.counters.approx_error_evals
        kernel_errors(model, offline, problem, np.full((3, 9), 2.0))
        assert problem.counters.approx_error_evals == base + 3


class TestCachedInverseConstruct:
    def test_returns_admissible_unique_indices(self, thermal_setup):
        problem, train, model, offline = thermal_setup
        picked = cdm_construct(model, offline, swept(model, problem, train.points), budget=8)
        assert picked.size <= 8
        assert len(set(picked.tolist())) == picked.size
        assert np.all((picked >= 0) & (picked < train.n_train))

    def test_factor_path_matches_explicit_error_block(self, thermal_setup):
        problem, train, model, offline = thermal_setup
        thetas, scales, coeffs = batch_inputs(model, problem, train.points)
        y = approx_error_coords(
            model, offline, thetas, scales, augmented_weights(thetas, scales, coeffs)
        )
        block = explicit_error_block(model, offline, problem, train.points)
        gram = block.T @ dense(problem.x_inner) @ block
        norms = np.sqrt(np.diag(gram))
        # the snapshot parameters carry round-off errors only and drop out
        adm = np.flatnonzero(norms > 1e-10 * norms.max())
        assert train.n_train - adm.size == len(model.snapshot_indices)
        got = np.linalg.norm(y, axis=1)
        np.testing.assert_allclose(got[adm], norms[adm], rtol=1e-10)
        np.testing.assert_allclose(got, norms, rtol=0, atol=1e-10 * norms.max())
        for j in (adm[0], adm[17], int(np.argmax(norms))):
            np.testing.assert_allclose(
                y @ y[j], gram[:, j], rtol=0, atol=1e-10 * norms.max() ** 2
            )
        picked = cdm_construct(model, offline, swept(model, problem, train.points), budget=6)
        sub = gram[np.ix_(adm, adm)]
        explicit, _ = pivoted_cholesky(lambda j: sub[:, j], np.diag(sub), max_steps=6)
        np.testing.assert_array_equal(picked, adm[explicit])

    def test_ordering_opens_with_the_worst_error(self, thermal_setup):
        problem, train, model, offline = thermal_setup
        weighted = cdm_construct(model, offline, swept(model, problem, train.points), budget=6)
        assert weighted.size > 0
        # magnitude ordering must open with the worst approximate error,
        # measured in the discretization's inner-product norm
        from rbx.truth import x_norm

        errs = kernel_errors(model, offline, problem, train.points)
        deltas = np.array([x_norm(problem.discretization, e) for e in errs.T])
        assert weighted[0] == int(np.argmax(deltas))

    def test_zero_budget(self, thermal_setup):
        problem, train, model, offline = thermal_setup
        systems = swept(model, problem, train.points)
        assert cdm_construct(model, offline, systems, budget=0).size == 0

    def test_needs_a_sweep_at_the_current_basis_size(self, thermal_setup):
        problem, train, model, offline = thermal_setup
        unswept = TrainingSystems.evaluate(problem, train.points)
        with pytest.raises(ConfigurationError, match="full sweep"):
            cdm_construct(model, offline, unswept, budget=4)
        systems = swept(model, problem, train.points)
        extend_basis(model, truth_solve(problem, train.points[1]), 1)
        with pytest.raises(ConfigurationError, match="full sweep"):
            cdm_construct(model, offline, systems, budget=4)

    def test_counts_one_eval_per_training_point(self, thermal_setup):
        problem, train, model, offline = thermal_setup
        base = problem.counters.approx_error_evals
        cdm_construct(model, offline, swept(model, problem, train.points), budget=4)
        assert problem.counters.approx_error_evals == base + train.n_train

    def test_non_finite_error_norm_stops_the_cdm_run(
        self, thermal_small, thermal_train_small, monkeypatch
    ):
        # NaN > floor is False, so a NaN row used to leave its point out of
        # every surrogate domain while the run still ended certified
        from rbx import surrogate

        bad = 7
        real = surrogate.approx_error_coords

        def poisoned(*args, **kwargs):
            y = real(*args, **kwargs)
            y[bad] = np.nan
            return y

        monkeypatch.setattr(surrogate, "approx_error_coords", poisoned)
        mu = np.array2string(thermal_train_small.points[bad])
        with pytest.raises(NumericalFailureError) as info:
            rbx.run_greedy(
                thermal_small, thermal_train_small, rbx.GreedyConfig(eps_tol=1e-4, method="cdm")
            )
        assert str(info.value) == (
            f"non-finite approximate error norm nan at training index {bad}, mu = {mu}"
        )
