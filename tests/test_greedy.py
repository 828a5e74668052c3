"""Greedy driver: selection, counting identities, determinism, skip policy."""

import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import rbx
from rbx.affine import TrainingSet
from rbx.errors import (
    BasisRejectionError,
    ConfigurationError,
    InvalidParameterError,
    NumericalFailureError,
)
from rbx.greedy import (
    GreedyConfig,
    argmax_sweep,
    run_greedy,
    _argmax_excluding,
)
from rbx.reduced import ReducedModel, TrainingSystems
from rbx.truth import TruthDiscretization

from conftest import call_in_subprocess


def _systems(problem, train):
    return TrainingSystems.evaluate(problem, train.points)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GreedyConfig(eps_tol=0.0)
        with pytest.raises(ConfigurationError):
            GreedyConfig(eps_tol=1.0, n_max=0)
        with pytest.raises(ConfigurationError):
            GreedyConfig(eps_tol=1.0, method="pod")
        with pytest.raises(ConfigurationError):
            GreedyConfig(eps_tol=1.0, k_damp=0)
        with pytest.raises(ConfigurationError):
            GreedyConfig(eps_tol=1.0, workers=0)

    def test_default_budget_schedules(self):
        smm = GreedyConfig(eps_tol=1.0, method="smm")
        cdm = GreedyConfig(eps_tol=1.0, method="cdm")
        assert [smm.budget(ell) for ell in (1, 2, 3)] == [4, 6, 8]
        assert [cdm.budget(ell) for ell in (1, 2, 3)] == [40, 60, 80]

    def test_custom_schedule_wins_and_is_checked(self):
        config = GreedyConfig(eps_tol=1.0, method="smm", m_growth=7)
        assert config.budget(5) == 42
        for bad in (0, 2.0, True):
            with pytest.raises(ConfigurationError, match="m_growth"):
                GreedyConfig(eps_tol=1.0, method="smm", m_growth=bad)

    def test_empty_training_set_rejected(self, diffusion_small):
        from rbx.affine import TrainingSet

        empty = TrainingSet(np.zeros((0, 2)))
        with pytest.raises(ConfigurationError):
            run_greedy(diffusion_small, empty, GreedyConfig(eps_tol=1.0))


class TestArgmaxSelection:
    def test_tie_goes_to_lowest_index(self):
        vals = np.array([0.3, 0.7, 0.7, 0.1])
        assert _argmax_excluding(vals, set()) == 1

    def test_excluded_lose_eligibility(self):
        vals = np.array([0.3, 0.7, 0.7, 0.1])
        assert _argmax_excluding(vals, {1}) == 2
        assert _argmax_excluding(vals, {1, 2}) == 0

    def test_everything_excluded(self):
        vals = np.array([0.3, 0.2])
        assert _argmax_excluding(vals, {0, 1}) is None

    def test_sweep_evaluates_everything_but_selects_outside_exclusions(
        self, diffusion_small, diffusion_train_small
    ):
        model = ReducedModel(diffusion_small)
        from rbx.truth import truth_solve
        from rbx.reduced import extend_basis

        extend_basis(model, truth_solve(diffusion_small, diffusion_train_small.points[0]), 0)
        systems = _systems(diffusion_small, diffusion_train_small)
        full = argmax_sweep(model, diffusion_small, systems)
        assert full.size == diffusion_train_small.n_train
        assert np.isfinite(full).all()
        free = _argmax_excluding(full, set())
        blocked = _argmax_excluding(full, {free})
        assert blocked != free
        # a domain sweep scatters its estimates and leaves the rest unselectable
        domain = np.array([blocked, free])
        part = argmax_sweep(model, diffusion_small, systems, domain=domain)
        np.testing.assert_array_equal(part[domain], full[domain])
        assert np.all(np.delete(part, domain) == -np.inf)
        # the maximum over the swept set ignores eligibility
        assert part.max() == full.max()
        assert _argmax_excluding(part, {free}) == blocked

    def test_sweep_rejects_empty_domain(self, diffusion_small, diffusion_train_small):
        model = ReducedModel(diffusion_small)
        systems = _systems(diffusion_small, diffusion_train_small)
        with pytest.raises(ConfigurationError):
            argmax_sweep(model, diffusion_small, systems, domain=np.zeros(0, dtype=int))


class TestTrainingSetMustFitTheBox:
    # a bad training point fails the run before its first truth solve

    @pytest.mark.parametrize("value", [20.0, 0.01])
    @pytest.mark.parametrize("method", ["classical", "cdm"])
    def test_point_outside_the_box(self, thermal_small, thermal_train_small, value, method):
        points = thermal_train_small.points.copy()
        points[37, 4] = value
        train = TrainingSet(points)
        with pytest.raises(InvalidParameterError, match=r"at row 37 lies outside the box"):
            run_greedy(thermal_small, train, GreedyConfig(eps_tol=1e-6, method=method))
        assert thermal_small.counters.truth_solves == 0

    def test_wrong_dimension(self, diffusion_small):
        train = TrainingSet(np.zeros((20, 9)))
        with pytest.raises(InvalidParameterError, match=r"shape \(20, 9\), expected \(b, 2\)"):
            run_greedy(diffusion_small, train, GreedyConfig(eps_tol=1e-6))
        assert diffusion_small.counters.truth_solves == 0

    def test_batches_validate_like_single_points(self, thermal_small):
        model = ReducedModel(thermal_small)
        mus = np.full((5, 9), 1.0)
        mus[3, 0] = 0.01
        with pytest.raises(InvalidParameterError, match="at row 3"):
            rbx.estimate_batch(model, thermal_small, mus)
        with pytest.raises(InvalidParameterError):
            rbx.error_estimate(model, thermal_small, mus[3])


def _poison_theta(problem, point, monkeypatch, value=np.nan):
    """Make the middle coefficient function return ``value`` at one parameter."""
    real = problem.theta

    def poisoned(mus):
        out = real(mus)
        out[np.all(mus == point, axis=1), out.shape[1] // 2] = value
        return out

    monkeypatch.setattr(problem, "theta", poisoned)


class TestNonFiniteEstimates:
    # a NaN estimate must be neither selected nor carried into delta_max;
    # the sweep names the training point instead

    def test_nan_coefficient_fails_the_sweep_loudly(
        self, thermal_small, thermal_train_small, monkeypatch
    ):
        from rbx.reduced import extend_basis
        from rbx.truth import truth_solve

        model = ReducedModel(thermal_small)
        extend_basis(model, truth_solve(thermal_small, thermal_train_small.points[0]), 0)
        bad = 17
        _poison_theta(thermal_small, thermal_train_small.points[bad], monkeypatch)
        systems = _systems(thermal_small, thermal_train_small)
        with pytest.raises(NumericalFailureError, match=f"training index {bad}\\b"):
            argmax_sweep(model, thermal_small, systems)
        with pytest.raises(NumericalFailureError, match=f"training index {bad}\\b"):
            argmax_sweep(model, thermal_small, systems, domain=np.array([3, bad, 40]))

    def test_nan_coefficient_stops_the_greedy_run(
        self, thermal_small, thermal_train_small, monkeypatch
    ):
        bad = thermal_train_small.n_train - 1
        _poison_theta(thermal_small, thermal_train_small.points[bad], monkeypatch)
        with pytest.raises(NumericalFailureError, match=f"training index {bad}\\b"):
            run_greedy(thermal_small, thermal_train_small, GreedyConfig(eps_tol=1e-6))

    def test_negative_coefficient_fails_the_factor_pivot(
        self, thermal_small, thermal_train_small, monkeypatch
    ):
        # the min-theta bound refuses a negative coefficient outright; under
        # a constant bound the point's reduced matrix is indefinite, and the
        # grown Cholesky factor of the full sweep names it
        from rbx.bounds import ConstantBound
        from rbx.errors import BoundStrategyError

        bad = 50
        _poison_theta(thermal_small, thermal_train_small.points[bad], monkeypatch, value=-1e6)
        config = GreedyConfig(eps_tol=1e-6)
        with pytest.raises(BoundStrategyError):
            run_greedy(thermal_small, thermal_train_small, config)
        monkeypatch.setattr(thermal_small, "coercivity", ConstantBound(1.0))
        with pytest.raises(NumericalFailureError, match=f"pivot -.* training index {bad}\\b"):
            run_greedy(thermal_small, thermal_train_small, config)

    @pytest.mark.parametrize("fixture_name", ["diffusion", "thermal"])
    def test_nan_coefficient_fails_single_point_queries_loudly(
        self, request, fixture_name, monkeypatch
    ):
        # the coercivity strategies do not see a NaN (NaN <= 0 is False), so
        # the single-point solve and estimate check their own results; the
        # estimate of a given solution reuses its row, so a NaN there comes
        # from its coefficients
        from conftest import build_model
        from rbx.reduced import error_estimate, reduced_solve

        problem = request.getfixturevalue(f"{fixture_name}_small")
        train = request.getfixturevalue(f"{fixture_name}_train_small")
        model, _ = build_model(problem, train, n_target=3)
        mu = train.points[train.n_train // 2]
        sol = reduced_solve(model, mu)
        _poison_theta(problem, mu, monkeypatch)
        with pytest.raises(NumericalFailureError, match="non-finite reduced coefficients at mu = "):
            reduced_solve(model, mu)
        with pytest.raises(NumericalFailureError, match="non-finite reduced coefficients at mu = "):
            error_estimate(model, problem, mu)
        sol.coeffs[0] = np.nan
        with pytest.raises(NumericalFailureError, match="non-finite error estimate nan at mu = "):
            error_estimate(model, problem, mu, sol=sol)


class TestProblemCallableReturns:
    # a callable's return is checked where it enters, so no run certifies on
    # a bound that certifies nothing, and no sweep dies in numpy broadcasting

    @staticmethod
    def _train(problem):
        return rbx.sample_training_set(problem.box, kind="random", count=200, seed=0)

    @pytest.mark.parametrize(
        "bad, error, message, point_message",
        [
            (
                -1.0,
                NumericalFailureError,
                "coercivity bound -1.0 at training index {}, mu = ",
                r"^coercivity bound -1.0 at mu = \[",
            ),
            (
                np.inf,
                NumericalFailureError,
                "coercivity bound inf at training index {}, mu = ",
                r"^coercivity bound inf at mu = \[",
            ),
            (
                0.0,
                NumericalFailureError,
                "coercivity bound 0.0 at training index {}, mu = ",
                r"^coercivity bound 0.0 at mu = \[",
            ),
            (
                "column",
                InvalidParameterError,
                r"lower_bound_batch returned shape \(\d+, 1\)",
                r"lower_bound_batch returned shape \(1, 1\)",
            ),
        ],
        ids=["negative", "infinite", "zero", "column"],
    )
    def test_false_coercivity_bound_certifies_nothing(
        self, thermal_small, bad, error, message, point_message, monkeypatch
    ):
        from rbx.reduced import error_estimate, extend_basis
        from rbx.truth import truth_solve

        def lower_bound_batch(problem, mus):
            if bad == "column":
                return np.ones((len(mus), 1))
            values = np.ones(len(mus))
            values[-1] = bad
            return values

        train = self._train(thermal_small)
        model = ReducedModel(thermal_small)
        extend_basis(model, truth_solve(thermal_small, train.points[0]), 0)
        strategy = SimpleNamespace(lower_bound_batch=lower_bound_batch)
        monkeypatch.setattr(thermal_small, "coercivity", strategy)
        with pytest.raises(error, match=message.format(train.n_train - 1)):
            run_greedy(thermal_small, train, GreedyConfig(eps_tol=1e-6))
        # an online query is named by its parameter alone
        with pytest.raises(error, match=point_message):
            error_estimate(model, thermal_small, train.points[1])

    @pytest.mark.parametrize(
        "scales",
        [lambda b: np.ones((b, 1)), lambda b: 1.0, lambda b: np.ones(b + 1)],
        ids=["column", "scalar", "one-too-many"],
    )
    def test_rhs_theta_must_return_one_scale_per_row(self, thermal_small, scales, monkeypatch):
        from rbx.truth import truth_solve

        monkeypatch.setattr(thermal_small, "rhs_theta", lambda mus: scales(len(mus)))
        message = r"rhs_theta returned shape .*, expected \(1,\)"
        with pytest.raises(InvalidParameterError, match=message):
            truth_solve(thermal_small, np.full(thermal_small.dim, 2.0))
        with pytest.raises(InvalidParameterError, match=r"expected \(200,\)"):
            run_greedy(thermal_small, self._train(thermal_small), GreedyConfig(eps_tol=1e-6))
        assert thermal_small.counters.truth_solves == 0


class TestClassicalCounting:
    def test_immediate_certification(self, diffusion_small, diffusion_train_small):
        config = GreedyConfig(eps_tol=1e12, n_max=10, seed=0)
        model, trace = run_greedy(diffusion_small, diffusion_train_small, config)
        assert model.n == 1 and trace.certified
        assert len(trace.iterations) == 1
        rec = trace.iterations[0]
        assert rec.sweep_kind == "global" and rec.chosen_index is None
        assert trace.counters["estimator_evals"] == diffusion_train_small.n_train

    def test_cap_terminated_run_counts(self, diffusion_small, diffusion_train_small):
        n_cap = 6
        config = GreedyConfig(eps_tol=1e-300, n_max=n_cap, seed=0)
        model, trace = run_greedy(diffusion_small, diffusion_train_small, config)
        assert model.n == n_cap and not trace.certified
        n_train = diffusion_train_small.n_train
        # one full sweep per basis size, the last of the final model, and one
        # reproduction check per extension
        assert trace.counters["estimator_evals"] == n_cap * n_train + n_cap - 1
        assert trace.counters["sweep_evals_global"] == n_cap * n_train
        assert trace.counters["reproduction_checks"] == n_cap - 1
        assert trace.counters["sweep_evals_surrogate"] == 0

    def test_certified_run_counts(self, diffusion_small, diffusion_train_small):
        probe = GreedyConfig(eps_tol=1e-300, n_max=5, seed=0)
        _, probe_trace = run_greedy(diffusion_small, diffusion_train_small, probe)
        # rerun with the tolerance set just above the size-5 field maximum;
        # determinism makes the paths identical until certification
        target = probe_trace.final_delta_max * 1.000001
        config = GreedyConfig(eps_tol=target, n_max=50, seed=0)
        model, trace = run_greedy(diffusion_small, diffusion_train_small, config)
        n_train = diffusion_train_small.n_train
        n_final = model.n
        assert trace.certified and trace.final_delta_max <= target
        assert trace.counters["sweep_evals_global"] == n_final * n_train
        assert trace.counters["reproduction_checks"] == n_final - 1
        assert trace.counters["estimator_evals"] == n_final * n_train + n_final - 1

    def test_iteration_records_structure(self, diffusion_small, diffusion_train_small):
        config = GreedyConfig(eps_tol=1e-300, n_max=5, seed=0)
        model, trace = run_greedy(diffusion_small, diffusion_train_small, config)
        sizes = [rec.n for rec in trace.iterations]
        assert sizes == [1, 2, 3, 4, 5]
        assert all(rec.sweep_kind == "global" for rec in trace.iterations)
        assert all(rec.outer_loop == 0 for rec in trace.iterations)
        assert all(rec.sweep_size == diffusion_train_small.n_train for rec in trace.iterations)
        evals = [rec.cum_estimator_evals for rec in trace.iterations]
        assert evals == sorted(evals)
        walls = [rec.wall_ms for rec in trace.iterations]
        assert all(b >= a for a, b in zip(walls, walls[1:]))

    @pytest.mark.parametrize("method", ["classical", "smm", "cdm"])
    def test_capped_run_reports_its_final_model(self, thermal_small, thermal_train_small, method):
        config = GreedyConfig(eps_tol=1e-12, n_max=6, seed=0, method=method)
        model, trace = run_greedy(thermal_small, thermal_train_small, config)
        assert model.n == trace.n_final == 6 and not trace.certified
        last = trace.iterations[-1]
        assert last.sweep_kind == "global" and last.n == model.n
        assert last.chosen_index is None
        assert trace.final_delta_max == last.delta_max
        mus = thermal_train_small.points
        fresh = rbx.estimate_batch(model, thermal_small, mus)
        empty = rbx.estimate_batch(model, thermal_small, mus, n=0)
        assert abs(fresh.max() - trace.final_delta_max) <= 1e-12 * empty.max()

    def test_seed_draw_recorded(self, diffusion_small, diffusion_train_small):
        config = GreedyConfig(eps_tol=1e-300, n_max=3, seed=42)
        model, trace = run_greedy(diffusion_small, diffusion_train_small, config)
        expected = int(np.random.default_rng(42).integers(diffusion_train_small.n_train))
        assert trace.seed_index == expected
        assert model.snapshot_indices[0] == expected

    def test_reproduction_after_extension(self, diffusion_small, diffusion_train_small):
        config = GreedyConfig(eps_tol=1e-300, n_max=6, seed=0)
        _, trace = run_greedy(diffusion_small, diffusion_train_small, config)
        for rec in trace.iterations:
            if rec.chosen_index is not None:
                assert rec.post_extension_delta <= 1e-6 * rec.delta_max


class TestGrownFactorSweeps:
    """Full sweeps of symmetric problems solve through grown Cholesky factors."""

    @pytest.mark.parametrize("method", ["classical", "cdm"])
    def test_full_sweeps_match_the_chunked_path(
        self, thermal_small, thermal_train_small, method, monkeypatch
    ):
        from rbx import greedy

        real = greedy.estimate_batch
        sizes = []

        def compared(model, problem, mus, *args, systems=None, **kwargs):
            out = real(model, problem, mus, *args, systems=systems, **kwargs)
            if systems is not None and systems.factor is not None:
                chunked = real(model, problem, mus)
                empty = real(model, problem, mus, n=0)
                assert np.all(np.abs(out - chunked) <= 1e-12 * empty)
                sizes.append(model.n)
            return out

        monkeypatch.setattr(greedy, "estimate_batch", compared)
        config = GreedyConfig(eps_tol=1e-6, method=method)
        model, trace = run_greedy(thermal_small, thermal_train_small, config)
        global_sizes = [r.n for r in trace.iterations if r.sweep_kind == "global"]
        assert sizes == global_sizes and len(sizes) > 2

    @pytest.mark.parametrize("fixture_name, expected", [("thermal", False), ("diffusion", True)])
    def test_full_sweeps_solve_chunks_only_on_nonsymmetric_problems(
        self, request, fixture_name, expected, monkeypatch
    ):
        from rbx import greedy, reduced

        problem = request.getfixturevalue(f"{fixture_name}_small")
        train = request.getfixturevalue(f"{fixture_name}_train_small")
        kinds, chunked = [], []
        real_estimate, real_solve = greedy.estimate_batch, reduced.reduced_solve_batch

        def estimate(*args, kind="other", **kwargs):
            kinds.append(kind)
            try:
                return real_estimate(*args, kind=kind, **kwargs)
            finally:
                kinds.pop()

        def solve(*args):
            if kinds == ["global"]:
                chunked.append(args[-1])
            return real_solve(*args)

        monkeypatch.setattr(greedy, "estimate_batch", estimate)
        monkeypatch.setattr(reduced, "reduced_solve_batch", solve)
        run_greedy(problem, train, GreedyConfig(eps_tol=1e-4, n_max=8))
        assert bool(chunked) == expected

    @pytest.mark.parametrize("method", ["classical", "cdm"])
    def test_run_independent_of_workers(self, thermal_train_small, method, monkeypatch):
        from rbx import reduced

        # small blocks, so that two workers share every sweep
        monkeypatch.setattr(reduced, "DEFAULT_CHUNK", 64)
        runs = []
        for workers in (1, 2):
            problem = rbx.build_thermal_block(nodes_per_side=7)
            config = GreedyConfig(eps_tol=1e-6, method=method, workers=workers)
            model, trace = run_greedy(problem, thermal_train_small, config)
            runs.append((model.snapshot_indices, [r.delta_max for r in trace.iterations]))
        assert runs[1] == runs[0]


def _rod(n: int = 99):
    """The README's custom problem: -(mu_1 u')' + u = (1 + mu_2) on (0, 1), P1 elements."""
    import scipy.sparse as sp

    h = 1.0 / (n + 1)
    stiff = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr") / h
    mass = sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(n, n), format="csr") * (h / 6)
    return rbx.AffineProblem(
        box=rbx.ParameterBox([0.1, 0.0], [10.0, 1.0]),
        theta=lambda mus: np.column_stack([mus[:, 0], np.ones(len(mus))]),
        rhs_theta=lambda mus: 1.0 + mus[:, 1],
        components=[stiff, mass],
        rhs=np.full(n, h),
        output=np.full(n, h),
        discretization=rbx.TruthDiscretization((stiff + mass).tocsr()),
        coercivity=rbx.MinThetaBound(anchor_mu=[1.0, 0.0]),
    )


class TestParameterDependentLoad:
    """A load scale other than one, through every method and the grown factor."""

    @pytest.mark.parametrize("method", ["classical", "smm", "cdm"])
    def test_rod_certifies_and_bounds_held_out_errors(self, method):
        problem = _rod()
        train = rbx.sample_training_set(problem.box, kind="random", count=500, seed=0)
        model, trace = run_greedy(problem, train, GreedyConfig(eps_tol=1e-6, method=method))
        assert trace.certified

        lo, hi = problem.box.lower, problem.box.upper
        mus = lo + np.random.default_rng(1).random((20, 2)) * (hi - lo)
        single = []
        for mu in mus:
            sol = rbx.reduced_solve(model, mu)
            single.append(rbx.error_estimate(model, problem, mu, sol=sol))
            exact = rbx.truth_solve(problem, mu).coefficients
            error = rbx.x_norm(problem.discretization, exact - rbx.reconstruct(model, sol))
            assert error <= single[-1]
        # a symmetric problem: the sweep borders a fresh Cholesky factor
        systems = TrainingSystems.evaluate(problem, mus, keep_factor=True)
        assert systems.factor is not None
        batch = rbx.estimate_batch(model, problem, mus, systems=systems)
        empty = rbx.estimate_batch(model, problem, mus, n=0)
        assert np.all(np.abs(np.array(single) - batch) <= 1e-12 * empty)


class TestDeterminism:
    def test_classical_bit_for_bit(self, diffusion_train_small):
        runs = []
        for _ in range(2):
            problem = rbx.build_diffusion2d(n_x=10)
            config = GreedyConfig(eps_tol=1e-300, n_max=6, seed=1)
            model, trace = run_greedy(problem, diffusion_train_small, config)
            runs.append((model, trace))
        a, b = runs
        assert a[0].snapshot_indices == b[0].snapshot_indices
        da = np.array([rec.delta_max for rec in a[1].iterations])
        db = np.array([rec.delta_max for rec in b[1].iterations])
        np.testing.assert_array_equal(da, db)
        ca = {k: v for k, v in a[1].counters.items()}
        cb = {k: v for k, v in b[1].counters.items()}
        assert ca == cb

    @pytest.mark.parametrize("method", ["smm", "cdm"])
    def test_enhanced_bit_for_bit(self, thermal_train_small, method):
        runs = []
        for _ in range(2):
            problem = rbx.build_thermal_block(nodes_per_side=7)
            config = GreedyConfig(eps_tol=1e-4, n_max=12, seed=3, method=method)
            model, trace = run_greedy(problem, thermal_train_small, config)
            runs.append((model, trace))
        a, b = runs
        assert a[0].snapshot_indices == b[0].snapshot_indices
        np.testing.assert_array_equal(
            [rec.delta_max for rec in a[1].iterations],
            [rec.delta_max for rec in b[1].iterations],
        )

    @pytest.mark.parametrize("method", ["classical", "cdm"])
    def test_dense_arrays_run_like_their_sparse_twin(self, thermal_train_small, method):
        # components and X given as dense arrays are factorized as CSR
        # copies, so the run picks the CSR problem's snapshots
        runs = []
        for dense in (False, True):
            problem = rbx.build_thermal_block(nodes_per_side=7)
            if dense:
                x = problem.discretization.x_inner.toarray()
                problem = dataclasses.replace(
                    problem,
                    components=[a.toarray() for a in problem.components],
                    discretization=TruthDiscretization(x),
                )
                assert problem.pattern is None
            config = GreedyConfig(eps_tol=1e-4, n_max=12, seed=3, method=method)
            runs.append(run_greedy(problem, thermal_train_small, config))
        (sparse_model, sparse_trace), (dense_model, dense_trace) = runs
        assert len(dense_model.snapshot_indices) > 5
        assert dense_model.snapshot_indices == sparse_model.snapshot_indices
        assert dense_trace.certified == sparse_trace.certified


# cdm on a symmetric 30x30 grid of the small diffusion problem.  Through a
# cross-Gramian of the cached vectors its error Gramian lost positive
# semidefiniteness here (11 warnings per run) and the snapshot sequence moved
# with the BLAS thread count (N = 25 with one thread, 24 with two).
def _cdm_grid_indices(**settings):
    problem = rbx.build_diffusion2d(n_x=15)
    train = rbx.sample_training_set(problem.box, kind="grid", n_per_dim=30)
    config = GreedyConfig(eps_tol=1.0, method="cdm", k_damp=10, **settings)
    model, _ = run_greedy(problem, train, config)
    return model.snapshot_indices


class TestCdmGridRun:
    def test_error_gramian_stays_positive_semidefinite(self):
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "error", message=".*positive semidefinite", category=RuntimeWarning
            )
            assert len(_cdm_grid_indices()) > 0

    def test_sequence_independent_of_blas_threads_and_workers(self, monkeypatch):
        from rbx import reduced

        reference = _cdm_grid_indices()
        one_thread = call_in_subprocess("test_greedy", "_cdm_grid_indices", blas_threads=1)
        two_threads = call_in_subprocess("test_greedy", "_cdm_grid_indices", blas_threads=2)
        assert two_threads == one_thread == reference
        # small blocks, so that two workers share every sweep
        monkeypatch.setattr(reduced, "DEFAULT_CHUNK", 64)
        assert _cdm_grid_indices(workers=2) == _cdm_grid_indices(workers=1)


class TestEnhancedLoop:
    @pytest.fixture(params=["smm", "cdm"])
    def enhanced_run(self, request, thermal_train_small):
        problem = rbx.build_thermal_block(nodes_per_side=7)
        config = GreedyConfig(
            eps_tol=1e-4, n_max=15, seed=0, method=request.param, k_damp=2
        )
        model, trace = run_greedy(problem, thermal_train_small, config)
        return problem, config, model, trace

    def test_outer_records_and_global_eval_counts(self, enhanced_run, thermal_train_small):
        problem, config, model, trace = enhanced_run
        n_global_sweeps = sum(1 for r in trace.iterations if r.sweep_kind == "global")
        # the terminating sweep (certifying, or of the capped final model) has
        # no outer record; every other one does
        assert len(trace.outer_loops) == n_global_sweeps - 1
        assert (
            trace.counters["sweep_evals_global"]
            == n_global_sweeps * thermal_train_small.n_train
        )

    def test_surrogate_domain_is_small_and_bounded(self, enhanced_run, thermal_train_small):
        problem, config, model, trace = enhanced_run
        for rec in trace.outer_loops:
            assert rec.m_budget == config.budget(rec.ell)
            assert rec.surrogate_size <= rec.m_budget
            assert rec.n_added_inner <= rec.surrogate_size
            assert 0.0 <= rec.sar <= 1.0
        for rec in trace.iterations:
            if rec.sweep_kind == "surrogate":
                assert rec.sweep_size < thermal_train_small.n_train
                budget = config.budget(rec.outer_loop)
                assert rec.sweep_size <= budget

    def test_surrogate_sweep_eval_count(self, enhanced_run):
        problem, config, model, trace = enhanced_run
        expected = sum(
            rec.sweep_size for rec in trace.iterations if rec.sweep_kind == "surrogate"
        )
        assert trace.counters["sweep_evals_surrogate"] == expected

    def test_inner_extensions_respect_tolerance(self, enhanced_run):
        problem, config, model, trace = enhanced_run
        for rec in trace.iterations:
            if rec.sweep_kind == "surrogate" and rec.chosen_index is not None:
                assert rec.delta_max > config.eps_tol

    def test_damping_threshold_gates_inner_loop(self, enhanced_run):
        problem, config, model, trace = enhanced_run
        # group surrogate sweeps by outer loop; all but the last extending
        # sweep must have seen an estimate above the damped threshold
        for outer in trace.outer_loops:
            thr = outer.e_ell / (config.k_damp * (outer.ell + 1))
            sweeps = [
                rec
                for rec in trace.iterations
                if rec.sweep_kind == "surrogate" and rec.outer_loop == outer.ell
            ]
            for prev, nxt in zip(sweeps, sweeps[1:]):
                # a follow-up sweep ran, so the previous value passed the gate
                assert prev.delta_max > thr

    def test_certified_terminal_state(self, enhanced_run):
        problem, config, model, trace = enhanced_run
        if trace.certified:
            assert trace.final_delta_max <= config.eps_tol
            last = [r for r in trace.iterations if r.sweep_kind == "global"][-1]
            assert last.chosen_index is None
        assert model.n <= config.n_max
        assert trace.n_final == model.n

    def test_cdm_domains_hold_only_uncertified_points(self, thermal_small, monkeypatch):
        # cdm pivots only over the points the round's full sweep left above
        # eps_tol; at this tolerance a pivot over the whole set would put
        # certified points into the surrogate domains
        import rbx.greedy as greedy_module

        real = greedy_module.argmax_sweep
        sweeps = []

        def recording(model, problem, systems, domain=None, **kwargs):
            field = real(model, problem, systems, domain=domain, **kwargs)
            sweeps.append((domain, field))
            return field

        monkeypatch.setattr(greedy_module, "argmax_sweep", recording)
        train = rbx.sample_training_set(thermal_small.box, kind="random", count=300, seed=0)
        config = GreedyConfig(eps_tol=1e-1, seed=0, method="cdm")
        _, trace = run_greedy(thermal_small, train, config)
        fulls = [field for domain, field in sweeps if domain is None]
        assert [rec.candidates for rec in trace.outer_loops] == [
            int(np.count_nonzero(field > config.eps_tol)) for field in fulls[:-1]
        ]
        assert trace.outer_loops[-1].candidates < train.n_train // 2
        domains = 0
        for domain, field in sweeps:
            if domain is None:
                full = field
                continue
            domains += 1
            assert np.all(full[domain] > config.eps_tol), domain
        assert domains > 0

    def test_custom_constructor_hook(self, thermal_small, thermal_train_small, monkeypatch):
        # the driver looks the constructor up in its module, so a patched one
        # sees every round's budget and its picks become the surrogate domain
        import rbx.greedy as greedy_module

        budgets = []

        def pick_first_few(deltas, eps_tol, budget):
            budgets.append(budget)
            return np.arange(min(budget, deltas.size))

        monkeypatch.setattr(greedy_module, "smm_construct", pick_first_few)
        config = GreedyConfig(eps_tol=1e-3, n_max=8, seed=0, method="smm")
        model, trace = run_greedy(thermal_small, thermal_train_small, config)
        assert budgets == [2 * (rec.ell + 1) for rec in trace.outer_loops]
        for rec in trace.iterations:
            if rec.sweep_kind == "surrogate" and rec.chosen_index is not None:
                assert rec.chosen_index < config.budget(rec.outer_loop)


class TestOneFactorizationPerSnapshot:
    @pytest.fixture(params=["thermal", "diffusion"])
    def small_setup(self, request, thermal_small, thermal_train_small):
        if request.param == "thermal":
            return thermal_small, thermal_train_small, 1e-3
        problem = rbx.build_diffusion2d(n_x=10)
        train = rbx.sample_training_set(problem.box, kind="random", count=60, seed=2)
        return problem, train, 1e-2

    def test_every_method_factorizes_once_per_truth_solve(self, small_setup):
        # cdm anchors solve through their snapshots' truth-solve factorizations
        problem, train, eps_tol = small_setup
        for method in ("classical", "smm", "cdm"):
            config = GreedyConfig(eps_tol=eps_tol, n_max=30, seed=0, method=method)
            _, trace = run_greedy(problem, train, config)
            assert trace.counters["truth_factorizations"] == trace.n_final + len(
                trace.skipped_indices
            ), method

    def test_cdm_anchors_are_the_first_accepted_snapshots(
        self, thermal_small, thermal_train_small, monkeypatch
    ):
        import rbx.greedy as greedy_module
        from conftest import sequential_sum

        real_extend = greedy_module.extend_basis
        real_build = greedy_module.cdm_build_offline
        victims, anchor_counts = [], []

        def rejecting(model, snapshot, train_index=None):
            if model.n == 2 and not victims:
                victims.append(train_index)
                raise BasisRejectionError("synthetic dependence")
            return real_extend(model, snapshot, train_index)

        def checked(model, problem, factor, anchors):
            v = np.linspace(1.0, 2.0, problem.n_dof)
            for m, solve in enumerate(anchors):
                a = sequential_sum(problem, model.snapshot_params[m])
                np.testing.assert_allclose(solve(a @ v), v, rtol=1e-8)
            anchor_counts.append(len(anchors))
            return real_build(model, problem, factor, anchors)

        monkeypatch.setattr(greedy_module, "extend_basis", rejecting)
        monkeypatch.setattr(greedy_module, "cdm_build_offline", checked)
        config = GreedyConfig(eps_tol=1e-3, n_max=30, seed=0, method="cdm")
        model, trace = run_greedy(thermal_small, thermal_train_small, config)
        assert trace.skipped_indices == victims
        assert victims[0] not in model.snapshot_indices
        assert anchor_counts[0] == 1 and anchor_counts[-1] == greedy_module.CDM_ANCHORS
        assert trace.counters["truth_factorizations"] == model.n + 1


class TestBenchmarkCallPath:
    def test_riesz_and_anchor_solves_are_looked_up_by_name(
        self, thermal_small, thermal_train_small, monkeypatch
    ):
        # perfbench times rbx.reduced.riesz_solve and
        # rbx.surrogate.apply_operator_inverse by patching the module names;
        # a function bound elsewhere would charge its solves to the caller
        from rbx import reduced, surrogate

        columns = {}

        def count_columns(module, name):
            real = getattr(module, name)

            def counted(*args):
                columns[name] = columns.get(name, 0) + args[-1].shape[1]
                return real(*args)

            monkeypatch.setattr(module, name, counted)

        count_columns(reduced, "riesz_solve")
        count_columns(surrogate, "apply_operator_inverse")
        config = GreedyConfig(eps_tol=1e-3, n_max=30, seed=0, method="cdm")
        _, trace = run_greedy(thermal_small, thermal_train_small, config)
        c = trace.counters
        assert columns["riesz_solve"] == c["riesz_solves"]
        assert columns["apply_operator_inverse"] == c["truth_solves"] - c["truth_factorizations"]


class TestSkipPolicy:
    def test_dependent_snapshot_skipped_and_next_best_taken(
        self, diffusion_small, diffusion_train_small, monkeypatch
    ):
        # first find what an unpatched run would choose at step one
        probe_problem = rbx.build_diffusion2d(n_x=10)
        config = GreedyConfig(eps_tol=1e-300, n_max=3, seed=0)
        _, probe = run_greedy(probe_problem, diffusion_train_small, config)
        victim = probe.iterations[0].chosen_index

        import rbx.greedy as greedy_module

        real = greedy_module.extend_basis

        def rejecting(model, snapshot, train_index=None):
            if train_index == victim:
                raise BasisRejectionError("synthetic dependence")
            return real(model, snapshot, train_index)

        monkeypatch.setattr(greedy_module, "extend_basis", rejecting)
        model, trace = run_greedy(diffusion_small, diffusion_train_small, config)
        assert victim in trace.skipped_indices
        assert victim not in model.snapshot_indices
        assert model.n == 3  # run still reaches the cap with the next-best picks
        assert trace.counters["truth_solves"] >= 3 + 1  # the rejected solve counts

    def test_surrogate_sweeps_leave_out_skipped_indices(
        self, thermal_small, thermal_train_small, monkeypatch
    ):
        # the round's first extension rejects its argmax, which the
        # constructor also picked; no surrogate sweep may evaluate it again
        import rbx.greedy as greedy_module

        real_extend, real_sweep = greedy_module.extend_basis, greedy_module.argmax_sweep
        victims, domains = [], []

        def rejecting(model, snapshot, train_index=None):
            if model.n == 1 and not victims:
                victims.append(train_index)
                raise BasisRejectionError("synthetic dependence")
            return real_extend(model, snapshot, train_index)

        def top_estimates(deltas, eps_tol, budget):
            return np.argsort(-deltas, kind="stable")[:budget]

        def recording(model, problem, systems, domain=None, **kwargs):
            if domain is not None:
                domains.append(set(domain))
            return real_sweep(model, problem, systems, domain=domain, **kwargs)

        monkeypatch.setattr(greedy_module, "extend_basis", rejecting)
        monkeypatch.setattr(greedy_module, "smm_construct", top_estimates)
        monkeypatch.setattr(greedy_module, "argmax_sweep", recording)
        config = GreedyConfig(eps_tol=1e-3, n_max=10, seed=0, method="smm")
        _, trace = run_greedy(thermal_small, thermal_train_small, config)
        assert trace.skipped_indices == victims
        assert domains
        for domain in domains:
            assert not domain & set(victims)

    def test_run_greedy_dispatch(self, thermal_small, thermal_train_small):
        config = GreedyConfig(eps_tol=1e-2, n_max=6, seed=0, method="smm")
        model, trace = run_greedy(thermal_small, thermal_train_small, config)
        assert trace.method == "smm"
        assert trace.outer_loops or trace.certified
