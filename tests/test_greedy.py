"""Greedy driver: selection, counting identities, determinism, skip policy."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import rbx
from rbx.errors import BasisRejectionError, ConfigurationError, NumericalFailureError
from rbx.greedy import (
    GreedyConfig,
    argmax_sweep,
    run_greedy,
    _argmax_excluding,
)


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
        config = GreedyConfig(eps_tol=1.0, method="smm", m_schedule=lambda ell: 7)
        assert config.budget(5) == 7
        bad = GreedyConfig(eps_tol=1.0, method="smm", m_schedule=lambda ell: 0)
        with pytest.raises(ConfigurationError):
            bad.budget(1)

    def test_empty_training_set_rejected(self, diffusion_small):
        from rbx.affine import TrainingSet

        empty = TrainingSet(np.zeros((0, 2)), "manual")
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
        model = rbx.ReducedModel(diffusion_small)
        from rbx.truth import truth_solve
        from rbx.reduced import extend_basis

        extend_basis(model, truth_solve(diffusion_small, diffusion_train_small.points[0]), 0)
        full = argmax_sweep(model, diffusion_small, diffusion_train_small)
        assert full.deltas.size == diffusion_train_small.n_train
        np.testing.assert_array_equal(full.field, full.deltas)
        free = _argmax_excluding(full.field, set())
        blocked = _argmax_excluding(full.field, {free})
        assert blocked != free
        # a domain sweep scatters its estimates and leaves the rest unselectable
        domain = np.array([blocked, free])
        part = argmax_sweep(model, diffusion_small, diffusion_train_small, domain=domain)
        assert part.deltas.size == 2
        np.testing.assert_array_equal(part.field[domain], full.deltas[domain])
        assert np.all(np.delete(part.field, domain) == -np.inf)
        # the maximum over the swept set ignores eligibility
        assert part.delta_max == full.delta_max
        assert _argmax_excluding(part.field, {free}) == blocked

    def test_sweep_rejects_empty_domain(self, diffusion_small, diffusion_train_small):
        model = rbx.ReducedModel(diffusion_small)
        with pytest.raises(ConfigurationError):
            argmax_sweep(
                model, diffusion_small, diffusion_train_small, domain=np.zeros(0, dtype=int)
            )


def _poison_theta(problem, point, monkeypatch):
    """Make the middle coefficient function return NaN at one parameter."""
    real = problem.theta_batch

    def poisoned(mus):
        out = real(mus)
        out[np.all(mus == point, axis=1), out.shape[1] // 2] = np.nan
        return out

    monkeypatch.setattr(problem, "theta_batch", poisoned)


class TestNonFiniteEstimates:
    # a NaN estimate must be neither selected nor carried into delta_max;
    # the sweep names the training point instead

    def test_nan_coefficient_fails_the_sweep_loudly(
        self, thermal_small, thermal_train_small, monkeypatch
    ):
        from rbx.reduced import extend_basis
        from rbx.truth import truth_solve

        model = rbx.ReducedModel(thermal_small)
        extend_basis(model, truth_solve(thermal_small, thermal_train_small.points[0]), 0)
        bad = 17
        _poison_theta(thermal_small, thermal_train_small.points[bad], monkeypatch)
        with pytest.raises(NumericalFailureError, match=f"training index {bad}\\b"):
            argmax_sweep(model, thermal_small, thermal_train_small)
        with pytest.raises(NumericalFailureError, match=f"training index {bad}\\b"):
            argmax_sweep(
                model, thermal_small, thermal_train_small, domain=np.array([3, bad, 40])
            )

    def test_nan_coefficient_stops_the_greedy_run(
        self, thermal_small, thermal_train_small, monkeypatch
    ):
        bad = thermal_train_small.n_train - 1
        _poison_theta(thermal_small, thermal_train_small.points[bad], monkeypatch)
        with pytest.raises(NumericalFailureError, match=f"training index {bad}\\b"):
            run_greedy(thermal_small, thermal_train_small, GreedyConfig(eps_tol=1e-6))

    @pytest.mark.parametrize("fixture_name", ["diffusion", "thermal"])
    def test_nan_coefficient_fails_single_point_queries_loudly(
        self, request, fixture_name, monkeypatch
    ):
        # the coercivity strategies do not see a NaN (NaN <= 0 is False), so
        # the single-point solve and estimate check their own results
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
        with pytest.raises(NumericalFailureError, match="non-finite error estimate nan at mu = "):
            error_estimate(model, problem, mu, sol=sol)


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
        # one full sweep plus one reproduction check per extension
        assert trace.counters["estimator_evals"] == (n_cap - 1) * (n_train + 1)
        assert trace.counters["sweep_evals_global"] == (n_cap - 1) * n_train
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
        assert sizes == [1, 2, 3, 4]
        assert all(rec.sweep_kind == "global" for rec in trace.iterations)
        assert all(rec.outer_loop == 0 for rec in trace.iterations)
        assert all(rec.sweep_size == diffusion_train_small.n_train for rec in trace.iterations)
        evals = [rec.cum_estimator_evals for rec in trace.iterations]
        assert evals == sorted(evals)
        walls = [rec.wall_ms for rec in trace.iterations]
        assert all(b >= a for a, b in zip(walls, walls[1:]))

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


def _cdm_grid_indices_in_subprocess(blas_threads: int):
    paths = [str(Path(rbx.__file__).resolve().parents[1]), str(Path(__file__).resolve().parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    script = "import json, test_greedy; print(json.dumps(test_greedy._cdm_grid_indices()))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(proc.stdout)


class TestCdmGridRun:
    def test_error_gramian_stays_positive_semidefinite(self):
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "error", message=".*positive semidefinite", category=RuntimeWarning
            )
            assert len(_cdm_grid_indices()) > 0

    def test_sequence_independent_of_blas_threads_workers_and_chunk(self):
        reference = _cdm_grid_indices(workers=1, sweep_chunk=4096)
        assert _cdm_grid_indices(workers=1, sweep_chunk=64) == reference
        assert _cdm_grid_indices(workers=2, sweep_chunk=64) == reference
        one_thread = _cdm_grid_indices_in_subprocess(blas_threads=1)
        assert _cdm_grid_indices_in_subprocess(blas_threads=2) == one_thread == reference


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
        # the terminating sweep has no outer record; every other one does
        expected_outer = n_global_sweeps - 1 if trace.certified else n_global_sweeps
        assert len(trace.outer_loops) == expected_outer
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

    def test_run_greedy_dispatch(self, thermal_small, thermal_train_small):
        config = GreedyConfig(eps_tol=1e-2, n_max=6, seed=0, method="smm")
        model, trace = run_greedy(thermal_small, thermal_train_small, config)
        assert trace.method == "smm"
        assert trace.outer_loops or trace.certified
