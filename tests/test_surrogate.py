"""Surrogate-domain constructors checked against hand cases and brute force."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import rbx
from rbx.affine import evaluate_theta_batch, rhs_scale_batch
from rbx.errors import ConfigurationError, NumericalFailureError
from rbx.greedy import CDM_ANCHORS
from rbx.reduced import (
    DEFAULT_CHUNK,
    SWEEP_TILE,
    GeneratorFactor,
    TrainingSystems,
    augmented_weights,
    estimate_batch,
    extend_basis,
    reduced_solve,
    reduced_solve_batch,
)
from rbx.surrogate import (
    GENERATOR_RTOL,
    NORM_FLOOR_ABS,
    NORM_FLOOR_RTOL,
    approx_error_coords,
    cdm_build_offline,
    cdm_construct,
    pivoted_cholesky,
    smm_construct,
)
from rbx.truth import truth_solve

from conftest import build_model, sequential_sum


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


# ---------------------------------------------------------------------------
# cached-inverse error approximation


def anchor_factorizations(problem, model, q):
    """The operator factorizations at the model's first ``q`` snapshots."""
    return [truth_solve(problem, mu).solve for mu in model.snapshot_params[:q]]


def build_offline(model, problem, facts, rtol=GENERATOR_RTOL):
    """A fresh generator factor of ``model`` over the anchors ``facts``."""
    offline = GeneratorFactor(problem.n_dof, rtol)
    cdm_build_offline(model, problem, offline, facts)
    return offline


@pytest.fixture
def thermal_setup(thermal_small, thermal_train_small):
    model, _ = build_model(thermal_small, thermal_train_small, n_target=4)
    facts = anchor_factorizations(thermal_small, model, 3)
    offline = build_offline(model, thermal_small, facts)
    return thermal_small, thermal_train_small, model, offline


def dense(a):
    return a.tocsr().toarray() if hasattr(a, "tocsr") else np.asarray(a)


def batch_inputs(model, problem, points):
    points = np.atleast_2d(np.asarray(points, dtype=float))
    thetas = evaluate_theta_batch(problem, points)
    scales = rhs_scale_batch(problem, points)
    return thetas, scales, reduced_solve_batch(model, thetas, scales, model.n)


def swept(model, problem, points):
    """The evaluated ``points`` with the reduced solutions of a full sweep."""
    systems = TrainingSystems.evaluate(problem, points)
    estimate_batch(model, problem, systems.points, systems=systems)
    return systems


def kernel_errors(model, offline, problem, points, n=None):
    """Truth-space approximate errors (columns) through the cdm kernel."""
    thetas, scales, coeffs = batch_inputs(model, problem, points)
    coeffs = coeffs if n is None else reduced_solve_batch(model, thetas, scales, n)
    y = approx_error_coords(model, offline, thetas, scales, coeffs, np.arange(coeffs.shape[0]))
    return offline.basis @ y.T


def explicit_error_block(model, offline, problem, points):
    """(n_dof, b) blend errors from dense anchor inverses and truth residuals.

    e(mu) = sum_m beta_m(mu) A(mu_m)^-1 (s(mu) f - A(mu) u_N(mu)), with
    beta the snapshot weights of the anchor-space reduced solve.
    """
    thetas, scales, coeffs = batch_inputs(model, problem, points)
    q = offline.coords.shape[0]
    cq = reduced_solve_batch(model, thetas, scales, q)
    r = model.snapshot_in_basis[:q, :q]
    beta = scipy.linalg.solve_triangular(r, cq.T, lower=False).T
    inverses = [
        np.linalg.inv(dense(sequential_sum(problem, mu))) for mu in model.snapshot_params[:q]
    ]
    cols = []
    for i, mu in enumerate(np.atleast_2d(points)):
        a = dense(sequential_sum(problem, mu))
        res = scales[i] * problem.rhs - a @ (model.basis @ coeffs[i])
        cols.append(sum(beta[i, m] * (inv @ res) for m, inv in enumerate(inverses)))
    return np.column_stack(cols)


def check_generator_columns(problem, model, factor, operators):
    """``operators[m]`` maps solver m's columns back to [f, -A_k xi_j]."""
    v = factor.basis
    x = dense(problem.discretization.x_inner)
    np.testing.assert_allclose(v.T @ x @ v, np.eye(v.shape[1]), atol=1e-12)
    qa = problem.n_terms
    assert factor.coords.shape == (len(operators), v.shape[1], 1 + model.n * qa)
    for m, a in enumerate(operators):
        gen = v @ factor.coords[m]
        np.testing.assert_allclose(a @ gen[:, 0], problem.rhs, atol=1e-9 * np.abs(problem.rhs).max())
        for j in range(model.n):
            for k in range(qa):
                target = -(problem.components[k] @ model.basis[:, j])
                got = a @ gen[:, 1 + j * qa + k]
                np.testing.assert_allclose(got, target, atol=1e-9 * max(1.0, np.abs(target).max()))


class TestCachedInverseOffline:
    def test_inverse_columns_satisfy_their_systems(self, thermal_setup):
        # both generator factors: cdm's solvers are the anchor inverses, the
        # residual factor's one solver is X^-1
        problem, _, model, offline = thermal_setup
        params = model.snapshot_params[: offline.coords.shape[0]]
        anchors = [dense(sequential_sum(problem, mu)) for mu in params]
        check_generator_columns(problem, model, offline, anchors)
        x = dense(problem.discretization.x_inner)
        check_generator_columns(problem, model, model.residual, [x])

    def test_incremental_growth_matches_fresh_build(self, thermal_small, thermal_train_small):
        model, _ = build_model(thermal_small, thermal_train_small, n_target=2)
        anchors = anchor_factorizations(thermal_small, model, 2)
        grown = build_offline(model, thermal_small, anchors[:1])
        # a second anchor at the same basis size
        cdm_build_offline(model, thermal_small, grown, anchors)
        config = rbx.GreedyConfig(eps_tol=1e-300, n_max=4, seed=0)
        model2, _ = rbx.run_greedy(thermal_small, thermal_train_small, config)
        # same greedy path, so snapshots 1..2 coincide; grow the factor by
        # the basis vectors 3..4 and the anchor at snapshot 3
        facts = anchor_factorizations(thermal_small, model2, 3)
        cdm_build_offline(model2, thermal_small, grown, anchors + facts[2:])
        fresh = build_offline(model2, thermal_small, facts)
        assert grown.coords.shape[0] == fresh.coords.shape[0] == 3
        assert grown.coords.shape[2] == fresh.coords.shape[2] == 1 + 4 * thermal_small.n_terms
        for m in range(3):
            np.testing.assert_allclose(
                grown.basis @ grown.coords[m], fresh.basis @ fresh.coords[m], atol=1e-11
            )

    def test_truth_solve_counting(self, diffusion_small, diffusion_train_small):
        from rbx.reduced import extend_basis

        model, _ = build_model(diffusion_small, diffusion_train_small, n_target=2)
        counters = diffusion_small.counters
        facts = anchor_factorizations(diffusion_small, model, 1)
        base = counters.snapshot()
        offline = build_offline(model, diffusion_small, facts)
        after = counters.snapshot()
        # one anchor: the load column plus one image column per term and
        # snapshot, solved through the truth solve's own factorization
        qa = diffusion_small.n_terms
        assert after["truth_solves"] - base["truth_solves"] == 1 + qa * model.n
        assert after["truth_factorizations"] == base["truth_factorizations"]
        # extending the basis costs one backsolve per new image column and
        # reuses the anchor's own factorization
        snap = truth_solve(diffusion_small, [0.9, 0.9])
        extend_basis(model, snap)
        mid = counters.snapshot()
        cdm_build_offline(model, diffusion_small, offline, facts)
        growth = counters.snapshot()
        assert growth["truth_solves"] - mid["truth_solves"] == qa
        assert growth["truth_factorizations"] - mid["truth_factorizations"] == 0
        assert offline.coords.shape[2] == 1 + qa * model.n

    def test_nothing_missing_does_no_work(self, diffusion_small, diffusion_train_small):
        # a second call with the same basis and anchors solves nothing and
        # leaves the factor bitwise as it was
        model, _ = build_model(diffusion_small, diffusion_train_small, n_target=3)
        facts = anchor_factorizations(diffusion_small, model, 2)
        offline = build_offline(model, diffusion_small, facts)
        basis, coords = offline.basis.copy(), offline.coords.copy()
        solves = diffusion_small.counters.truth_solves
        cdm_build_offline(model, diffusion_small, offline, facts)
        assert diffusion_small.counters.truth_solves == solves
        for got, before in ((offline.basis, basis), (offline.coords, coords)):
            assert got.shape == before.shape and got.tobytes() == before.tobytes()

    def test_generators_fold_at_their_numerical_rank(self, thermal_small):
        # the anchors of a cdm round at basis size 20: the generator rule
        # drops the round-off directions that 1e-12 keeps, and the blend's
        # error norms do not move beyond that round-off
        train = rbx.sample_training_set(thermal_small.box, kind="random", count=300, seed=0)
        model, _ = build_model(thermal_small, train, n_target=20)
        facts = anchor_factorizations(thermal_small, model, CDM_ANCHORS)
        systems = swept(model, thermal_small, train.points)

        def round_at(rtol):
            offline = build_offline(model, thermal_small, facts, rtol)
            rows = np.arange(systems.coeffs.shape[0])
            y = approx_error_coords(
                model, offline, systems.thetas, systems.scales, systems.coeffs, rows
            )
            return offline.basis.shape[1], np.linalg.norm(y, axis=1)

        rank, norms = round_at(GENERATOR_RTOL)
        full_rank, full_norms = round_at(1e-12)
        assert rank < full_rank
        np.testing.assert_allclose(norms, full_norms, rtol=1e-6, atol=1e-6 * full_norms.max())

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
        offline = build_offline(model, thermal_small, [])
        assert offline.coords.shape[0] == 0
        systems = swept(model, thermal_small, thermal_train_small.points)
        picked = cdm_construct(model, offline, systems, 4, np.arange(thermal_train_small.n_train))
        assert picked.size == 0

    def test_counter(self, thermal_setup):
        problem, _, model, offline = thermal_setup
        base = problem.counters.approx_error_evals
        kernel_errors(model, offline, problem, np.full((3, 9), 2.0))
        assert problem.counters.approx_error_evals == base + 3


class TestCachedInverseConstruct:
    def test_returns_admissible_unique_indices(self, thermal_setup):
        problem, train, model, offline = thermal_setup
        systems = swept(model, problem, train.points)
        picked = cdm_construct(model, offline, systems, 8, np.arange(train.n_train))
        assert picked.size <= 8
        assert len(set(picked.tolist())) == picked.size
        assert np.all((picked >= 0) & (picked < train.n_train))

    def test_factor_path_matches_explicit_error_block(self, thermal_setup):
        problem, train, model, offline = thermal_setup
        thetas, scales, coeffs = batch_inputs(model, problem, train.points)
        y = approx_error_coords(model, offline, thetas, scales, coeffs, np.arange(coeffs.shape[0]))
        block = explicit_error_block(model, offline, problem, train.points)
        gram = block.T @ dense(problem.discretization.x_inner) @ block
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
        systems = swept(model, problem, train.points)
        picked = cdm_construct(model, offline, systems, 6, np.arange(train.n_train))
        sub = gram[np.ix_(adm, adm)]
        explicit, _ = pivoted_cholesky(lambda j: sub[:, j], np.diag(sub), max_steps=6)
        np.testing.assert_array_equal(picked, adm[explicit])

    def test_ordering_opens_with_the_worst_error(self, thermal_setup):
        problem, train, model, offline = thermal_setup
        systems = swept(model, problem, train.points)
        weighted = cdm_construct(model, offline, systems, 6, np.arange(train.n_train))
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
        assert cdm_construct(model, offline, systems, 0, np.arange(train.n_train)).size == 0

    def test_needs_a_sweep_at_the_current_basis_size(self, thermal_setup):
        problem, train, model, offline = thermal_setup
        unswept = TrainingSystems.evaluate(problem, train.points)
        with pytest.raises(ConfigurationError, match="full sweep"):
            cdm_construct(model, offline, unswept, 4, np.arange(train.n_train))
        systems = swept(model, problem, train.points)
        extend_basis(model, truth_solve(problem, train.points[1]), 1)
        with pytest.raises(ConfigurationError, match="full sweep"):
            cdm_construct(model, offline, systems, 4, np.arange(train.n_train))

    def test_counts_one_eval_per_training_point(self, thermal_setup):
        problem, train, model, offline = thermal_setup
        base = problem.counters.approx_error_evals
        systems = swept(model, problem, train.points)
        cdm_construct(model, offline, systems, 4, np.arange(train.n_train))
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


@pytest.fixture(scope="module")
def three_blocks():
    """A cdm round on thermalblock 7 over 9000 random points (three blocks)."""
    problem = rbx.build_thermal_block(nodes_per_side=7)
    train = rbx.sample_training_set(problem.box, kind="random", count=9000, seed=5)
    model, _ = build_model(problem, train, n_target=10)
    offline = build_offline(model, problem, anchor_factorizations(problem, model, CDM_ANCHORS))
    return problem, model, offline, swept(model, problem, train.points)


def floor_of(norms):
    return max(NORM_FLOOR_ABS, NORM_FLOOR_RTOL * norms.max())


def whole_set_blend(model, offline, systems):
    """Every training point's approximate error coordinates, blended at once."""
    thetas, scales, coeffs = systems.thetas, systems.scales, systems.coeffs
    q = offline.coords.shape[0]
    w = augmented_weights(thetas, scales, coeffs)
    cq = reduced_solve_batch(model, thetas, scales, q)
    beta = scipy.linalg.solve_triangular(model.snapshot_in_basis[:q, :q], cq.T).T
    return sum(beta[:, m, None] * (w @ offline.coords[m, :, : w.shape[1]].T) for m in range(q))


def explicit_picks(y, budget):
    """The floored rows of ``y`` pivoted column by column on their Gramian."""
    norms = np.linalg.norm(y, axis=1)
    adm = np.flatnonzero(norms > floor_of(norms))
    ya = y[adm]
    explicit, _ = pivoted_cholesky(lambda j: ya @ ya[j], norms[adm] ** 2, max_steps=budget)
    return adm, adm[explicit]


class TestBlockwiseConstruct:
    def test_peak_memory_is_the_blend_and_the_pivot_factor(self, three_blocks):
        # Y (b x r_V) and the pivot factor (budget x b) per point, and the
        # weights and product buffer of at most two blend tiles besides
        problem, model, offline, systems = three_blocks
        b, budget = systems.coeffs.shape[0], 20
        r_v, q = offline.basis.shape[1], offline.coords.shape[0]
        assert b > 2 * DEFAULT_CHUNK
        candidates = np.arange(b)
        tracemalloc.start()
        try:
            picked = cdm_construct(model, offline, systems, budget, candidates)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert picked.size == budget
        tiles = 2 * SWEEP_TILE * (1 + model.n * problem.n_terms + r_v + q)
        limit = 8 * (b * (r_v + budget) + tiles)
        assert peak < limit, f"peak {peak / 1e6:.2f} MB, limit {limit / 1e6:.2f} MB"

    def test_picks_are_the_pivots_of_the_admissible_gramian(self, three_blocks):
        # the blend over the whole set at once, the floor applied by
        # dropping rows, and the survivors' Gramian pivoted column by column
        problem, model, offline, systems = three_blocks
        adm, explicit = explicit_picks(whole_set_blend(model, offline, systems), 30)
        assert adm.size < systems.coeffs.shape[0]
        picked = cdm_construct(model, offline, systems, 30, np.arange(systems.coeffs.shape[0]))
        np.testing.assert_array_equal(picked, explicit)

    def test_picks_are_the_pivots_of_the_candidates_gramian(self, three_blocks):
        # the candidates' rows of a whole-set blend, floored among
        # themselves and pivoted: the construction blends those rows alone,
        # tile by tile, and maps the pivots back to training indices.  The
        # candidates are the better-estimated points, so their picks are not
        # the whole set's
        problem, model, offline, systems = three_blocks
        deltas = estimate_batch(model, problem, systems.points, systems=systems)
        candidates = np.flatnonzero(deltas < np.quantile(deltas, 0.55))
        assert DEFAULT_CHUNK < candidates.size < systems.coeffs.shape[0]
        y = whole_set_blend(model, offline, systems)
        _, explicit = explicit_picks(y[candidates], 30)
        assert not set(candidates[explicit].tolist()) & set(explicit_picks(y, 30)[1].tolist())
        picked = cdm_construct(model, offline, systems, budget=30, candidates=candidates)
        np.testing.assert_array_equal(picked, candidates[explicit])

    def test_picks_are_candidates(self, three_blocks):
        # every other point is a candidate, so a pivot over the whole set
        # would all but surely pick some of the others
        problem, model, offline, systems = three_blocks
        candidates = np.arange(1, systems.coeffs.shape[0], 2)
        counters = problem.counters
        base = counters.approx_error_evals
        picked = cdm_construct(model, offline, systems, budget=30, candidates=candidates)
        assert 0 < picked.size <= 30 and np.unique(picked).size == picked.size
        assert set(picked.tolist()) <= set(candidates.tolist())
        assert counters.approx_error_evals == base + candidates.size

    def test_no_candidates_pick_nothing(self, thermal_setup):
        problem, train, model, offline = thermal_setup
        systems = swept(model, problem, train.points)
        base = problem.counters.snapshot()
        none = np.zeros(0, dtype=int)
        assert cdm_construct(model, offline, systems, budget=8, candidates=none).size == 0
        assert problem.counters.snapshot() == base

    def test_non_finite_error_norm_names_the_candidates_training_index(
        self, thermal_setup, monkeypatch
    ):
        from rbx import surrogate

        problem, train, model, offline = thermal_setup
        systems = swept(model, problem, train.points)
        candidates = np.arange(1, train.n_train, 2)
        real = surrogate.approx_error_coords

        def poisoned(*args, **kwargs):
            y = real(*args, **kwargs)
            y[3] = np.nan
            return y

        monkeypatch.setattr(surrogate, "approx_error_coords", poisoned)
        mu = np.array2string(train.points[candidates[3]])
        with pytest.raises(NumericalFailureError) as info:
            cdm_construct(model, offline, systems, budget=4, candidates=candidates)
        assert str(info.value) == (
            f"non-finite approximate error norm nan at training index {candidates[3]}, mu = {mu}"
        )

    def test_snapshot_parameters_are_never_picked(self, thermal_setup):
        # their errors sit under the floor; a budget above the blend's rank
        # runs the pivot until only they and round-off remain
        problem, train, model, offline = thermal_setup
        systems = swept(model, problem, train.points)
        norms = np.linalg.norm(
            approx_error_coords(
                model,
                offline,
                systems.thetas,
                systems.scales,
                systems.coeffs,
                np.arange(train.n_train),
            ),
            axis=1,
        )
        snapshots = np.asarray(model.snapshot_indices)
        assert np.all(norms[snapshots] <= floor_of(norms))
        picked = cdm_construct(model, offline, systems, train.n_train, np.arange(train.n_train))
        assert 0 < picked.size < train.n_train - snapshots.size
        assert not set(picked.tolist()) & set(snapshots.tolist())
