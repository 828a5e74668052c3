"""Experiment orchestration: configs, runs, artifacts, self-checks.

A run takes one JSON config, builds the named problem and training set,
executes every requested greedy method on a fresh problem instance
(sequentially, so wall-clock comparisons are fair), and writes four
artifacts into the output directory:

``convergence.csv``  method, n, delta_max, cum_estimator_evals, cum_wall_ms
                     (one row per sweep, global and surrogate alike)
``sar.csv``          method, ell, E_ell, M_ell, N_ell, sar
                     (one row per surrogate-building outer loop)
``snapshots.csv``    method, order, mu_1 .. mu_p
``summary.json``     final sizes, timings, speedups, eval-ratio bound check

Every CSV starts with two comment lines carrying the resolved config and
the seeds, and floats are written with 17 significant digits so the files
round-trip exactly.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .affine import AffineProblem, TrainingSet, sample_training_set
from .errors import ConfigurationError, RbxError, ResourceError
from .greedy import _METHODS, GreedyConfig, GreedyTrace, run_greedy
from .reduced import ReducedModel
from .truth import build_diffusion2d, build_thermal_block


PROBLEMS: dict[str, dict] = {
    "diffusion2d": {
        "build": lambda params: build_diffusion2d(n_x=int(params.get("n_x", 35))),
        "params": ("n_x",),
        "default_training": {"kind": "grid", "n_per_dim": 160, "seed": 0},
        "default_eps_tol": 1e-6,
        "description": "anisotropic diffusion on a square, spectral collocation "
        "(n_x nodes per direction), two parameters",
    },
    "thermalblock": {
        "build": lambda params: build_thermal_block(
            nodes_per_side=int(params.get("nodes_per_side", 19))
        ),
        "params": ("nodes_per_side",),
        "default_training": {"kind": "random", "count": 20000, "seed": 0},
        "default_eps_tol": 1e-5,
        "description": "3x3 thermal block on the unit square, P1 finite elements, "
        "nine conductivity parameters",
    },
}

# keys of a greedy config block: the GreedyConfig knobs, with the budget
# schedule given as m_growth or m_fixed and the method taken from the block
_GREEDY_KEYS = ({f.name for f in fields(GreedyConfig)} - {"method", "m_schedule"}) | {
    "m_growth",
    "m_fixed",
}


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


@dataclass
class ExperimentConfig:
    """Resolved experiment description (defaults already applied)."""

    problem_name: str
    problem_params: dict
    training: dict
    methods: list[str]
    greedy_common: dict
    greedy_overrides: dict[str, dict]
    output_dir: Optional[str] = None
    repetitions: int = 1
    workers: int = 1

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError("config root must be a JSON object")
        known = {
            "problem",
            "training",
            "methods",
            "greedy",
            "output_dir",
            "repetitions",
            "workers",
        }
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")

        prob = raw.get("problem")
        if isinstance(prob, str):
            prob = {"name": prob}
        if not isinstance(prob, dict) or "name" not in prob:
            raise ConfigurationError("config needs a problem name")
        name = prob["name"]
        if name not in PROBLEMS:
            raise ConfigurationError(
                f"unknown problem {name!r}; available: {sorted(PROBLEMS)}"
            )
        entry = PROBLEMS[name]
        params = {k: v for k, v in prob.items() if k != "name"}
        bad = set(params) - set(entry["params"])
        if bad:
            raise ConfigurationError(f"unknown problem parameters: {sorted(bad)}")

        training = dict(entry["default_training"])
        training.update(raw.get("training", {}) or {})
        if training.get("kind") not in ("grid", "random"):
            raise ConfigurationError("training.kind must be 'grid' or 'random'")

        methods = raw.get("methods", ["classical", "smm", "cdm"])
        if not isinstance(methods, list) or not methods:
            raise ConfigurationError("methods must be a nonempty list")
        for m in methods:
            if m not in _METHODS:
                raise ConfigurationError(f"unknown method {m!r}; available: {_METHODS}")
        if len(set(methods)) != len(methods):
            raise ConfigurationError("methods must be distinct")

        greedy_raw = dict(raw.get("greedy", {}) or {})
        overrides = {}
        for m in _METHODS:
            overrides[m] = dict(greedy_raw.pop(m, {}) or {})
        for block_name, block in [("greedy", greedy_raw)] + [
            (f"greedy.{m}", overrides[m]) for m in _METHODS
        ]:
            bad = set(block) - _GREEDY_KEYS
            if bad:
                raise ConfigurationError(f"unknown {block_name} keys: {sorted(bad)}")
        greedy_common = dict(greedy_raw)
        greedy_common.setdefault("eps_tol", entry["default_eps_tol"])

        repetitions = int(raw.get("repetitions", 1))
        if repetitions < 1:
            raise ConfigurationError("repetitions must be at least 1")
        workers = int(raw.get("workers", 1))
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")

        return cls(
            problem_name=name,
            problem_params=params,
            training=training,
            methods=list(methods),
            greedy_common=greedy_common,
            greedy_overrides=overrides,
            output_dir=raw.get("output_dir"),
            repetitions=repetitions,
            workers=workers,
        )

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config {path} is not valid JSON: {exc}")
        return cls.from_dict(raw)

    def resolved(self) -> dict:
        """Plain-JSON echo of the full configuration, defaults included."""
        return {
            "problem": {"name": self.problem_name, **self.problem_params},
            "training": self.training,
            "methods": self.methods,
            "greedy": {**self.greedy_common, **{m: self.greedy_overrides[m] for m in self.methods}},
            "output_dir": self.output_dir,
            "repetitions": self.repetitions,
            "workers": self.workers,
        }

    def build_problem(self) -> AffineProblem:
        return PROBLEMS[self.problem_name]["build"](self.problem_params)

    def build_training(self, box) -> TrainingSet:
        t = self.training
        seed = int(t.get("seed", 0))
        if t["kind"] == "grid":
            return sample_training_set(
                box, kind="grid", n_per_dim=int(t.get("n_per_dim", 10)), seed=seed
            )
        return sample_training_set(
            box, kind="random", count=int(t.get("count", 1000)), seed=seed
        )

    def greedy_config(self, method: str) -> GreedyConfig:
        # later layers win; a layer that picks a budget schedule displaces
        # whichever schedule kind the earlier layers chose
        merged: dict = {}
        for layer in (self.greedy_common, self.greedy_overrides.get(method, {})):
            if "m_growth" in layer and "m_fixed" in layer:
                raise ConfigurationError("give m_growth or m_fixed, not both")
            if "m_growth" in layer or "m_fixed" in layer:
                merged.pop("m_growth", None)
                merged.pop("m_fixed", None)
            merged.update(layer)
        m_growth = merged.pop("m_growth", None)
        m_fixed = merged.pop("m_fixed", None)
        schedule = None
        if m_growth is not None:
            g = int(m_growth)
            schedule = lambda ell: g * (ell + 1)  # noqa: E731
        elif m_fixed is not None:
            m = int(m_fixed)
            schedule = lambda ell: m  # noqa: E731
        merged.setdefault("workers", self.workers)
        try:
            return GreedyConfig(method=method, m_schedule=schedule, **merged)
        except TypeError as exc:
            raise ConfigurationError(f"bad greedy settings for {method}: {exc}")


@dataclass
class MethodResult:
    method: str
    model: ReducedModel
    trace: GreedyTrace
    wall_ms_all: list[float] = field(default_factory=list)


def run_methods(config: ExperimentConfig) -> dict[str, MethodResult]:
    """Execute every configured method on fresh problem instances.

    The training set is sampled once and shared read-only.  With
    ``repetitions > 1`` each method runs that many times (identical results,
    fresh problem each time); all wall times are kept, and the recorded
    trace/model come from the first repetition.
    """
    probe = config.build_problem()
    train = config.build_training(probe.box)
    results: dict[str, MethodResult] = {}
    for method in config.methods:
        gconf = config.greedy_config(method)
        best: Optional[MethodResult] = None
        walls = []
        for _rep in range(config.repetitions):
            problem = config.build_problem()
            model, trace = run_greedy(problem, train, gconf)
            walls.append(trace.wall_ms_total)
            if best is None:
                best = MethodResult(method=method, model=model, trace=trace)
        assert best is not None
        best.wall_ms_all = walls
        results[method] = best
    return results


def _csv_header_lines(config: ExperimentConfig) -> list[str]:
    cfg_line = json.dumps(config.resolved(), separators=(",", ":"), default=str)
    seeds = "training={} greedy={}".format(
        config.training.get("seed", 0), config.greedy_common.get("seed", 0)
    )
    return [f"# config: {cfg_line}", f"# seeds: {seeds}"]


def _write_csv(path: Path, header_lines: list[str], columns: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in header_lines:
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _summarize(
    config: ExperimentConfig, results: dict[str, MethodResult], train: TrainingSet
) -> dict:
    classical = results.get("classical")
    out: dict = {
        "package_version": __version__,
        "config": config.resolved(),
        "n_train": train.n_train,
        "methods": {},
    }
    for method, res in results.items():
        tr = res.trace
        entry = {
            "n_final": tr.n_final,
            "certified": tr.certified,
            "final_delta_max": tr.final_delta_max,
            "wall_ms": tr.wall_ms_total,
            "wall_ms_all": res.wall_ms_all,
            "wall_ms_truth": tr.wall_ms_truth,
            "wall_ms_surrogate_build": tr.wall_ms_surrogate_build,
            "estimator_evals": tr.counters.get("estimator_evals", 0),
            "counters": tr.counters,
            "skipped": len(tr.skipped_indices),
        }
        if method != "classical":
            entry["outer_loops"] = len(tr.outer_loops)
            sars = [rec.sar for rec in tr.outer_loops]
            entry["mean_sar"] = float(np.mean(sars)) if sars else 0.0
            if classical is not None:
                cl_wall = min(classical.wall_ms_all or [classical.trace.wall_ms_total])
                my_wall = min(res.wall_ms_all or [tr.wall_ms_total])
                entry["speedup_vs_classical"] = cl_wall / my_wall if my_wall > 0 else float("inf")
                cl_evals = classical.trace.counters.get("estimator_evals", 0)
                ratio = entry["estimator_evals"] / cl_evals if cl_evals else float("inf")
                n_global = sum(1 for r in tr.iterations if r.sweep_kind == "global")
                m_max = max((r.m_budget for r in tr.outer_loops), default=0)
                n_classical = classical.trace.n_final
                bound = (
                    n_global / n_classical + m_max / train.n_train + 0.05
                    if n_classical
                    else float("inf")
                )
                entry["eval_ratio_vs_classical"] = ratio
                entry["eval_ratio_bound"] = bound
                entry["eval_ratio_within_bound"] = bool(ratio <= bound)
        out["methods"][method] = entry
    return out


def run_experiment(
    config: ExperimentConfig, out_dir: Optional[str] = None, workers: Optional[int] = None
) -> Path:
    """Run all configured methods and write the artifact directory."""
    if workers is not None:
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")
        config.workers = int(workers)
    target = Path(out_dir or config.output_dir or "rbx_results")
    target.mkdir(parents=True, exist_ok=True)

    probe = config.build_problem()
    train = config.build_training(probe.box)
    results = run_methods(config)
    headers = _csv_header_lines(config)

    try:
        conv_rows = []
        for method in config.methods:
            for rec in results[method].trace.iterations:
                conv_rows.append(
                    [
                        method,
                        str(rec.n),
                        _fmt(rec.delta_max),
                        str(rec.cum_estimator_evals),
                        _fmt(rec.wall_ms),
                    ]
                )
        _write_csv(
            target / "convergence.csv",
            headers,
            ["method", "n", "delta_max", "cum_estimator_evals", "cum_wall_ms"],
            conv_rows,
        )

        sar_rows = []
        for method in config.methods:
            for rec in results[method].trace.outer_loops:
                sar_rows.append(
                    [
                        method,
                        str(rec.ell),
                        _fmt(rec.e_ell),
                        str(rec.m_budget),
                        str(rec.n_added_inner),
                        _fmt(rec.sar),
                    ]
                )
        _write_csv(
            target / "sar.csv",
            headers,
            ["method", "ell", "E_ell", "M_ell", "N_ell", "sar"],
            sar_rows,
        )

        dim = probe.dim
        snap_rows = []
        for method in config.methods:
            for order, mu in enumerate(results[method].model.snapshot_params, start=1):
                snap_rows.append([method, str(order)] + [_fmt(c) for c in mu])
        _write_csv(
            target / "snapshots.csv",
            headers,
            ["method", "order"] + [f"mu_{i + 1}" for i in range(dim)],
            snap_rows,
        )

        summary = _summarize(config, results, train)
        with open(target / "summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, default=str)
            fh.write("\n")
    except OSError as exc:
        try:
            (target / "INCOMPLETE").write_text(
                f"artifact writing failed: {exc}\n", encoding="utf-8"
            )
        except OSError:
            pass
        raise ResourceError(f"failed to write artifacts into {target}: {exc}")
    return target


# ---------------------------------------------------------------------------
# self-checks


def _check_residual_equivalence(quick: bool) -> tuple[bool, str]:
    from .affine import evaluate_theta, rhs_scale
    from .reduced import reconstruct, reduced_solve, residual_dual_norm_sq
    from .truth import riesz_solve, x_norm

    problem = build_diffusion2d(n_x=10)
    train = sample_training_set(problem.box, kind="grid", n_per_dim=6, seed=0)
    model, _ = run_greedy(
        problem, train, GreedyConfig(eps_tol=1e-12, n_max=4, seed=1)
    )
    rng = np.random.default_rng(7)
    n_checks = 5 if quick else 20
    worst = 0.0
    for _ in range(n_checks):
        mu = problem.box.lower + rng.random(problem.dim) * (
            problem.box.upper - problem.box.lower
        )
        sol = reduced_solve(model, mu)
        fast = residual_dual_norm_sq(model, mu, sol)
        theta = evaluate_theta(problem, mu)
        lifted = reconstruct(model, sol)
        residual = rhs_scale(problem, mu) * problem.rhs - sum(
            t * (aq @ lifted) for t, aq in zip(theta, problem.components)
        )
        direct = x_norm(problem.discretization, riesz_solve(problem.discretization, residual)) ** 2
        rel = abs(fast - direct) / max(direct, 1e-300)
        worst = max(worst, rel)
    return worst <= 1e-6, f"worst relative gap {worst:.3e} over {n_checks} parameters"


def _check_pivoted_cholesky(quick: bool) -> tuple[bool, str]:
    from .surrogate import pivoted_cholesky

    rng = np.random.default_rng(3)
    n = 12 if quick else 25
    a = rng.standard_normal((n, n))
    g = a @ a.T
    pivots, l_mat = pivoted_cholesky(lambda j: g[:, j], np.diag(g).copy(), max_steps=n)
    recon = float(np.linalg.norm(l_mat @ l_mat.T - g))
    # brute-force greedy pivot order on explicit Schur complements
    s = g.copy()
    expected = []
    for _ in range(n):
        j = int(np.argmax(np.diag(s)))
        if s[j, j] <= 1e-12 * g.max():
            break
        expected.append(j)
        s = s - np.outer(s[:, j], s[j, :]) / s[j, j]
    ok = list(pivots) == expected and recon <= 1e-10 * max(1.0, float(np.linalg.norm(g)))
    return ok, f"pivot match {list(pivots) == expected}, reconstruction {recon:.3e}"


def _check_certified_bound(quick: bool) -> tuple[bool, str]:
    from .reduced import error_estimate, reconstruct, reduced_solve
    from .truth import truth_solve, x_norm

    problem = build_thermal_block(nodes_per_side=7)
    train = sample_training_set(problem.box, kind="random", count=150, seed=5)
    model, _ = run_greedy(
        problem, train, GreedyConfig(eps_tol=1e-12, n_max=5, seed=2)
    )
    rng = np.random.default_rng(11)
    n_checks = 10 if quick else 40
    violations = 0
    for _ in range(n_checks):
        mu = problem.box.lower + rng.random(problem.dim) * (
            problem.box.upper - problem.box.lower
        )
        sol = reduced_solve(model, mu)
        delta = error_estimate(problem=problem, model=model, mu=mu, sol=sol)
        err = x_norm(
            problem.discretization,
            truth_solve(problem, mu).coefficients - reconstruct(model, sol),
        )
        if delta < err:
            violations += 1
    return violations == 0, f"{violations} bound violations over {n_checks} parameters"


def _check_reproduction(quick: bool) -> tuple[bool, str]:
    from .reduced import (
        ReducedSolution,
        coercivity_lower_bound,
        error_estimate,
        residual_dual_norm_sq,
    )

    worst = 0.0
    builders = [
        lambda: (build_diffusion2d(n_x=10), "grid", 6),
        lambda: (build_thermal_block(nodes_per_side=7), "random", 150),
    ]
    for make in builders:
        problem, kind, size = make()
        train = sample_training_set(
            problem.box,
            kind=kind,
            n_per_dim=size if kind == "grid" else None,
            count=size if kind == "random" else None,
            seed=4,
        )
        model, _ = run_greedy(
            problem, train, GreedyConfig(eps_tol=1e-12, n_max=3 if quick else 5, seed=3)
        )
        for mu in model.snapshot_params:
            top = error_estimate(model, problem, mu)
            empty = ReducedSolution(mu=np.asarray(mu, dtype=float), coeffs=np.zeros(0))
            delta0 = float(
                np.sqrt(residual_dual_norm_sq(model, mu, empty))
                / coercivity_lower_bound(problem, mu)
            )
            worst = max(worst, top / delta0 if delta0 > 0 else np.inf)
    return worst <= 1e-8, f"worst snapshot estimate ratio {worst:.3e}"


def verify(quick: bool = False) -> list[tuple[str, bool, str]]:
    """Small-scale oracle checks; returns (name, passed, detail) rows."""
    checks = [
        ("residual-equivalence", _check_residual_equivalence),
        ("pivoted-cholesky", _check_pivoted_cholesky),
        ("certified-bound", _check_certified_bound),
        ("reproduction", _check_reproduction),
    ]
    report = []
    for name, fn in checks:
        start = time.perf_counter()
        try:
            ok, detail = fn(quick)
        except RbxError as exc:
            ok, detail = False, f"failed with {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        report.append((name, ok, f"{detail} ({elapsed:.1f}s)"))
    return report
