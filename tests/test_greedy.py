"""Greedy drivers: selection, counting identities, determinism, skip policy."""

import numpy as np
import pytest

import rbx
from rbx.errors import BasisRejectionError, ConfigurationError, NumericalFailureError
from rbx.greedy import (
    GreedyConfig,
    argmax_sweep,
    classical_greedy,
    surrogate_enhanced_greedy,
    run_greedy,
    surrogate_acceptance_ratio,
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

    def test_driver_method_mismatch(self, diffusion_small, diffusion_train_small):
        with pytest.raises(ConfigurationError):
            classical_greedy(
                diffusion_small,
                diffusion_train_small,
                GreedyConfig(eps_tol=1.0, method="smm"),
            )
        with pytest.raises(ConfigurationError):
            surrogate_enhanced_greedy(
                diffusion_small,
                diffusion_train_small,
                GreedyConfig(eps_tol=1.0, method="classical"),
            )

    def test_empty_training_set_rejected(self, diffusion_small):
        from rbx.affine import TrainingSet

        empty = TrainingSet(np.zeros((0, 2)), "manual")
        with pytest.raises(ConfigurationError):
            classical_greedy(diffusion_small, empty, GreedyConfig(eps_tol=1.0))


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
        free = argmax_sweep(model, diffusion_small, diffusion_train_small)
        blocked = argmax_sweep(
            model,
            diffusion_small,
            diffusion_train_small,
            excluded={int(free.index)},
        )
        assert blocked.index != free.index
        # the maximum over the swept set ignores eligibility
        assert blocked.delta_max == free.delta_max
        assert blocked.deltas.size == diffusion_train_small.n_train

    def test_sweep_rejects_empty_domain(self, diffusion_small, diffusion_train_small):
        model = rbx.ReducedModel(diffusion_small)
        with pytest.raises(ConfigurationError):
            argmax_sweep(
                model, diffusion_small, diffusion_train_small, domain=np.zeros(0, dtype=int)
            )


def _poison_theta(problem, point, monkeypatch):
    """Make the coefficient functions return NaN at one parameter."""
    real = problem.theta_batch

    def poisoned(mus):
        out = real(mus)
        out[np.all(mus == point, axis=1), 4] = np.nan
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
            classical_greedy(thermal_small, thermal_train_small, GreedyConfig(eps_tol=1e-6))


class TestClassicalCounting:
    def test_immediate_certification(self, diffusion_small, diffusion_train_small):
        config = GreedyConfig(eps_tol=1e12, n_max=10, seed=0)
        model, trace = classical_greedy(diffusion_small, diffusion_train_small, config)
        assert model.n == 1 and trace.certified
        assert len(trace.iterations) == 1
        rec = trace.iterations[0]
        assert rec.sweep_kind == "global" and rec.chosen_index is None
        assert trace.counters["estimator_evals"] == diffusion_train_small.n_train

    def test_cap_terminated_run_counts(self, diffusion_small, diffusion_train_small):
        n_cap = 6
        config = GreedyConfig(eps_tol=1e-300, n_max=n_cap, seed=0)
        model, trace = classical_greedy(diffusion_small, diffusion_train_small, config)
        assert model.n == n_cap and not trace.certified
        n_train = diffusion_train_small.n_train
        # one full sweep plus one reproduction check per extension
        assert trace.counters["estimator_evals"] == (n_cap - 1) * (n_train + 1)
        assert trace.counters["sweep_evals_global"] == (n_cap - 1) * n_train
        assert trace.counters["reproduction_checks"] == n_cap - 1
        assert trace.counters["sweep_evals_surrogate"] == 0

    def test_certified_run_counts(self, diffusion_small, diffusion_train_small):
        probe = GreedyConfig(eps_tol=1e-300, n_max=5, seed=0)
        _, probe_trace = classical_greedy(diffusion_small, diffusion_train_small, probe)
        # rerun with the tolerance set just above the size-5 field maximum;
        # determinism makes the paths identical until certification
        target = probe_trace.final_delta_max * 1.000001
        config = GreedyConfig(eps_tol=target, n_max=50, seed=0)
        model, trace = classical_greedy(diffusion_small, diffusion_train_small, config)
        n_train = diffusion_train_small.n_train
        n_final = model.n
        assert trace.certified and trace.final_delta_max <= target
        assert trace.counters["sweep_evals_global"] == n_final * n_train
        assert trace.counters["reproduction_checks"] == n_final - 1
        assert trace.counters["estimator_evals"] == n_final * n_train + n_final - 1

    def test_iteration_records_structure(self, diffusion_small, diffusion_train_small):
        config = GreedyConfig(eps_tol=1e-300, n_max=5, seed=0)
        model, trace = classical_greedy(diffusion_small, diffusion_train_small, config)
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
        model, trace = classical_greedy(diffusion_small, diffusion_train_small, config)
        expected = int(np.random.default_rng(42).integers(diffusion_train_small.n_train))
        assert trace.seed_index == expected
        assert model.snapshot_indices[0] == expected

    def test_reproduction_after_extension(self, diffusion_small, diffusion_train_small):
        config = GreedyConfig(eps_tol=1e-300, n_max=6, seed=0)
        _, trace = classical_greedy(diffusion_small, diffusion_train_small, config)
        for rec in trace.iterations:
            if rec.chosen_index is not None:
                assert rec.post_extension_delta <= 1e-6 * rec.delta_max


class TestDeterminism:
    def test_classical_bit_for_bit(self, diffusion_train_small):
        runs = []
        for _ in range(2):
            problem = rbx.build_diffusion2d(n_x=10)
            config = GreedyConfig(eps_tol=1e-300, n_max=6, seed=1)
            model, trace = classical_greedy(problem, diffusion_train_small, config)
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
            model, trace = surrogate_enhanced_greedy(problem, thermal_train_small, config)
            runs.append((model, trace))
        a, b = runs
        assert a[0].snapshot_indices == b[0].snapshot_indices
        np.testing.assert_array_equal(
            [rec.delta_max for rec in a[1].iterations],
            [rec.delta_max for rec in b[1].iterations],
        )


class TestEnhancedLoop:
    @pytest.fixture(params=["smm", "cdm"])
    def enhanced_run(self, request, thermal_train_small):
        problem = rbx.build_thermal_block(nodes_per_side=7)
        config = GreedyConfig(
            eps_tol=1e-4, n_max=15, seed=0, method=request.param, k_damp=2
        )
        model, trace = surrogate_enhanced_greedy(problem, thermal_train_small, config)
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

    def test_acceptance_ratio_helper(self, enhanced_run):
        problem, config, model, trace = enhanced_run
        rows = surrogate_acceptance_ratio(trace)
        assert [ell for ell, _ in rows] == [rec.ell for rec in trace.outer_loops]
        for (_, sar), rec in zip(rows, trace.outer_loops):
            assert sar == rec.sar

    def test_certified_terminal_state(self, enhanced_run):
        problem, config, model, trace = enhanced_run
        if trace.certified:
            assert trace.final_delta_max <= config.eps_tol
            last = [r for r in trace.iterations if r.sweep_kind == "global"][-1]
            assert last.chosen_index is None
        assert model.n <= config.n_max
        assert trace.n_final == model.n

    def test_custom_constructor_hook(self, thermal_small, thermal_train_small):
        calls = []

        def pick_first_few(model, problem, train, config, ell, budget, sweep):
            calls.append((ell, budget))
            return np.arange(min(budget, train.n_train))

        config = GreedyConfig(eps_tol=1e-3, n_max=8, seed=0, method="smm")
        model, trace = surrogate_enhanced_greedy(
            thermal_small, thermal_train_small, config, spd_constructor=pick_first_few
        )
        assert calls and all(b == 2 * (ell + 1) for ell, b in calls)


class TestSkipPolicy:
    def test_dependent_snapshot_skipped_and_next_best_taken(
        self, diffusion_small, diffusion_train_small, monkeypatch
    ):
        # first find what an unpatched run would choose at step one
        probe_problem = rbx.build_diffusion2d(n_x=10)
        config = GreedyConfig(eps_tol=1e-300, n_max=3, seed=0)
        _, probe = classical_greedy(probe_problem, diffusion_train_small, config)
        victim = probe.iterations[0].chosen_index

        import rbx.greedy as greedy_module

        real = greedy_module.extend_basis

        def rejecting(model, snapshot, train_index=None):
            if train_index == victim:
                raise BasisRejectionError("synthetic dependence")
            return real(model, snapshot, train_index)

        monkeypatch.setattr(greedy_module, "extend_basis", rejecting)
        model, trace = classical_greedy(diffusion_small, diffusion_train_small, config)
        assert victim in trace.skipped_indices
        assert victim not in model.snapshot_indices
        assert model.n == 3  # run still reaches the cap with the next-best picks
        assert trace.counters["truth_solves"] >= 3 + 1  # the rejected solve counts

    def test_run_greedy_dispatch(self, thermal_small, thermal_train_small):
        config = GreedyConfig(eps_tol=1e-2, n_max=6, seed=0, method="smm")
        model, trace = run_greedy(thermal_small, thermal_train_small, config)
        assert trace.method == "smm"
        assert trace.outer_loops or trace.certified
