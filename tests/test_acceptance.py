"""End-to-end acceptance checks at full experiment scale.

Each test exercises one numbered criterion against the two session-scoped
experiment fixtures (all three methods on both built-in problems) or against
dedicated randomized probes, and registers a printable pass/fail line.
"""

import time

import numpy as np
import pytest

import rbx
from rbx.reduced import (
    error_estimate,
    reduced_solve,
    residual_dual_norm_sq,
)
from rbx.surrogate import pivoted_cholesky, smm_construct
from rbx.truth import truth_solve, x_norm

from conftest import direct_residual_dual_norm_sq, record_criterion
from test_surrogate import column_oracle, schur_pivot_oracle, smm_oracle

MAX_CLASSICAL_WALL_MS = 10 * 60 * 1000.0


def _fit_log_decay(trace):
    ns = np.array([rec.n for rec in trace.iterations], dtype=float)
    ds = np.array([rec.delta_max for rec in trace.iterations], dtype=float)
    mask = ns >= 3
    x, y = ns[mask], np.log10(ds[mask])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_sq = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(r_sq)


def test_criterion_1_training_scale_convergence(diffusion_experiment):
    trace = diffusion_experiment["results"]["classical"].trace
    slope, r_sq = _fit_log_decay(trace)
    wall = trace.wall_ms_total
    ok = slope < 0.0 and r_sq >= 0.95 and wall <= MAX_CLASSICAL_WALL_MS
    record_criterion(
        1,
        ok,
        "full-scale classical run decays log-linearly "
        f"(slope {slope:.4f} per basis vector, R^2 {r_sq:.4f}, "
        f"wall {wall / 1000.0:.1f}s on {diffusion_experiment['train'].n_train} "
        "training points)",
    )


def test_criterion_2_enhanced_reach_certified_tolerance(both_experiments):
    details = []
    ok = True
    for name, exp in both_experiments.items():
        results = exp["results"]
        eps = exp["eps_tol"]
        n_classical = results["classical"].trace.n_final
        for method in ("classical", "smm", "cdm"):
            tr = results[method].trace
            certified = tr.certified and tr.final_delta_max <= eps
            ok = ok and certified
            if method != "classical":
                parity = abs(tr.n_final - n_classical) <= 0.2 * n_classical
                ok = ok and parity
        details.append(
            f"{name}: N=({results['classical'].trace.n_final}, "
            f"{results['smm'].trace.n_final}, {results['cdm'].trace.n_final}) "
            f"all certified at {eps:g}"
        )
    record_criterion(2, ok, "; ".join(details))


def test_criterion_3_desk_scale_speedup(thermal_experiment):
    results = thermal_experiment["results"]
    wall_classical = results["classical"].trace.wall_ms_total
    factors = {}
    for method in ("smm", "cdm"):
        factors[method] = wall_classical / results[method].trace.wall_ms_total
    ok = all(f >= 1.5 for f in factors.values())
    record_criterion(
        3,
        ok,
        "offline wall speedup over the classical sweep at desk scale: "
        f"slow-margin {factors['smm']:.2f}x, cached-inverse {factors['cdm']:.2f}x "
        "(threshold 1.5x)",
    )


def test_criterion_4_estimator_budget_bound(both_experiments):
    details = []
    ok = True
    for name, exp in both_experiments.items():
        results = exp["results"]
        n_train = exp["train"].n_train
        evals_classical = results["classical"].trace.counters["estimator_evals"]
        n_classical = results["classical"].trace.n_final
        for method in ("smm", "cdm"):
            tr = results[method].trace
            ratio = tr.counters["estimator_evals"] / evals_classical
            n_global = sum(1 for r in tr.iterations if r.sweep_kind == "global")
            m_max = max(r.m_budget for r in tr.outer_loops)
            bound = n_global / n_classical + m_max / n_train + 0.05
            ok = ok and ratio <= bound
            details.append(f"{name}/{method} {ratio:.3f}<={bound:.3f}")
    record_criterion(4, ok, "estimator-evaluation ratios within budget: " + ", ".join(details))


def test_criterion_5_surrogate_acceptance_bands(diffusion_experiment, thermal_experiment):
    smm_sars = [rec.sar for rec in diffusion_experiment["results"]["smm"].trace.outer_loops]
    cdm_sars = [rec.sar for rec in thermal_experiment["results"]["cdm"].trace.outer_loops]
    smm_mean = float(np.mean(smm_sars))
    cdm_mean = float(np.mean(cdm_sars))
    ok = 0.2 <= smm_mean <= 0.65 and 0.15 <= cdm_mean <= 0.55
    record_criterion(
        5,
        ok,
        f"mean surrogate acceptance: slow-margin {smm_mean:.3f} in [0.20, 0.65] "
        f"on the diffusion problem, cached-inverse {cdm_mean:.3f} in [0.15, 0.55] "
        "on the thermal block",
    )


def test_criterion_6_residual_norm_equivalence(both_experiments):
    rng = np.random.default_rng(1234)
    t0 = time.monotonic()
    worst = 0.0
    for name, exp in both_experiments.items():
        res = exp["results"]["classical"]
        model = res.model
        problem = model.problem
        lo, hi = problem.box.lower, problem.box.upper
        for _ in range(50):
            mu = lo + rng.random(problem.dim) * (hi - lo)
            n = int(rng.integers(1, 11))
            sol = reduced_solve(model, mu, n=n)
            fast = residual_dual_norm_sq(model, sol)
            ref = direct_residual_dual_norm_sq(model, problem, mu, sol)
            worst = max(worst, abs(fast - ref) / max(abs(ref), 1e-300))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed <= 60.0
    record_criterion(
        6,
        ok,
        "stored-factor residual norms match explicit truth-space Riesz solves: "
        f"worst relative gap {worst:.2e} over 100 random (parameter, size) draws "
        f"in {elapsed:.1f}s",
    )


def test_criterion_7_certified_bound_no_violations(thermal_experiment):
    model = thermal_experiment["results"]["classical"].model
    problem = model.problem
    disc = problem.discretization
    rng = np.random.default_rng(777)
    lo, hi = problem.box.lower, problem.box.upper
    violations = 0
    worst_margin = np.inf
    for _ in range(100):
        mu = lo + rng.random(9) * (hi - lo)
        truth = truth_solve(problem, mu).coefficients
        for n in (2, 5, 10):
            sol = reduced_solve(model, mu, n=n)
            delta = error_estimate(model, problem, mu, sol=sol)
            err = x_norm(disc, truth - model.basis[:, :n] @ sol.coeffs)
            worst_margin = min(worst_margin, delta / max(err, 1e-300))
            if delta < err * (1.0 - 1e-12):
                violations += 1
    ok = violations == 0
    record_criterion(
        7,
        ok,
        f"{violations} bound violations over 100 random parameters at three "
        f"truncation sizes (smallest estimate-to-error ratio {worst_margin:.3f})",
    )


def test_criterion_8_pivot_order_matches_brute_force():
    rng = np.random.default_rng(4242)
    order_mismatches = 0
    worst_recon = 0.0
    for _ in range(20):
        n = int(rng.integers(5, 31))
        rank = int(rng.integers(2, n + 1))
        f = rng.standard_normal((n, rank))
        g = f @ f.T
        g /= np.abs(np.diag(g)).max()
        pivots, factor = pivoted_cholesky(column_oracle(g), np.diag(g), max_steps=n)
        if list(pivots) != schur_pivot_oracle(g, n):
            order_mismatches += 1
        worst_recon = max(worst_recon, float(np.linalg.norm(g - factor @ factor.T)))
    ok = order_mismatches == 0 and worst_recon <= 1e-10
    record_criterion(
        8,
        ok,
        f"pivot ordering identical to explicit Schur-complement pivoting on "
        f"20 random kernels ({order_mismatches} mismatches, worst Frobenius "
        f"reconstruction gap {worst_recon:.2e})",
    )


def test_criterion_9_level_selection_properties():
    rng = np.random.default_rng(2026)
    failures = 0
    for _ in range(200):
        size = int(rng.integers(1, 60))
        deltas = rng.random(size) * 10.0 ** rng.integers(-4, 3)
        eps = float(rng.choice([1e-6, 0.1 * deltas.max(), 0.8 * deltas.max()]))
        budget = int(rng.integers(0, 15))
        got = smm_construct(deltas, eps, budget)
        if got.size > budget or len(set(got.tolist())) != got.size:
            failures += 1
            continue
        if got.size and np.any(deltas[got] < eps):
            failures += 1
            continue
        if list(got) != smm_oracle(deltas, eps, budget):
            failures += 1
    ok = failures == 0
    record_criterion(
        9,
        ok,
        f"level-ladder selection respects size, admissibility and closest-above "
        f"rules on 200 random estimate arrays ({failures} failures)",
    )


def test_criterion_10_snapshot_reproduction(both_experiments):
    worst = 0.0
    count = 0
    for name, exp in both_experiments.items():
        for method in ("classical", "smm", "cdm"):
            model = exp["results"][method].model
            problem = model.problem
            for mu in model.snapshot_params:
                top = error_estimate(model, problem, mu)
                base = error_estimate(model, problem, mu, sol=reduced_solve(model, mu, n=0))
                worst = max(worst, top / max(base, 1e-300))
                count += 1
    ok = worst <= 1e-8
    record_criterion(
        10,
        ok,
        f"estimates at all {count} selected snapshots collapse to round-off: "
        f"worst ratio to the empty-basis estimate {worst:.2e} (threshold 1e-8)",
    )
