"""Experiment orchestration: configs, runs, artifacts.

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
round-trip exactly.  Each artifact is written to ``<name>.tmp`` and renamed
into place, so it is either complete or absent.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .affine import AffineProblem, TrainingSet, sample_training_set
from .errors import ConfigurationError, RbxError, ResourceError
from .greedy import _METHODS, GreedyConfig, GreedyTrace, _integer, run_greedy
from .reduced import ReducedModel
from .truth import build_diffusion2d, build_thermal_block


PROBLEMS: dict[str, dict] = {
    "diffusion2d": {
        "build": lambda params: build_diffusion2d(**params),
        "params": ("n_x",),
        "default_training": {"kind": "grid", "n_per_dim": 160, "seed": 0},
        "default_eps_tol": 1e-6,
        "description": "anisotropic diffusion on a square, spectral collocation "
        "(n_x nodes per direction), two parameters",
    },
    "thermalblock": {
        "build": lambda params: build_thermal_block(**params),
        "params": ("nodes_per_side",),
        "default_training": {"kind": "random", "count": 20000, "seed": 0},
        "default_eps_tol": 1e-5,
        "description": "3x3 thermal block on the unit square, P1 finite elements, "
        "nine conductivity parameters",
    },
}

# keys of a greedy config block: the GreedyConfig knobs, with the method taken
# from the block and the workers from the experiment
_GREEDY_KEYS = {f.name for f in fields(GreedyConfig)} - {"method", "workers"}
_TRAINING_KEYS = {"kind", "n_per_dim", "count", "seed"}


def _object(value, key: str) -> dict:
    """A copy of an optional JSON-object block (empty when absent or null)."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigurationError(f"{key} must be a JSON object, got {value!r}")
    return dict(value)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
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
        if not isinstance(name, str) or name not in PROBLEMS:
            raise ConfigurationError(
                f"unknown problem {name!r}; available: {sorted(PROBLEMS)}"
            )
        entry = PROBLEMS[name]
        params = {k: v for k, v in prob.items() if k != "name"}
        bad = set(params) - set(entry["params"])
        if bad:
            raise ConfigurationError(f"unknown problem parameters: {sorted(bad)}")
        params = {k: _integer(v, f"problem.{k}") for k, v in params.items()}

        training_raw = _object(raw.get("training"), "training")
        bad = set(training_raw) - _TRAINING_KEYS
        if bad:
            raise ConfigurationError(f"unknown training keys: {sorted(bad)}")
        training = {**entry["default_training"], **training_raw}
        if training.get("kind") not in ("grid", "random"):
            raise ConfigurationError("training.kind must be 'grid' or 'random'")
        for key in ("n_per_dim", "count", "seed"):
            if key in training:
                training[key] = _integer(training[key], f"training.{key}")

        methods = raw.get("methods", ["classical", "smm", "cdm"])
        if not isinstance(methods, list) or not methods:
            raise ConfigurationError("methods must be a nonempty list")
        for m in methods:
            if m not in _METHODS:
                raise ConfigurationError(f"unknown method {m!r}; available: {_METHODS}")
        if len(set(methods)) != len(methods):
            raise ConfigurationError("methods must be distinct")

        greedy_common = _object(raw.get("greedy"), "greedy")
        overrides = {m: _object(greedy_common.pop(m, None), f"greedy.{m}") for m in _METHODS}
        for block_name, block in [("greedy", greedy_common)] + [
            (f"greedy.{m}", overrides[m]) for m in _METHODS
        ]:
            bad = set(block) - _GREEDY_KEYS
            if bad:
                raise ConfigurationError(f"unknown {block_name} keys: {sorted(bad)}")
        greedy_common.setdefault("eps_tol", entry["default_eps_tol"])

        repetitions = _integer(raw.get("repetitions", 1), "repetitions", at_least_one=True)
        workers = _integer(raw.get("workers", 1), "workers", at_least_one=True)
        output_dir = raw.get("output_dir")
        if output_dir is not None and not isinstance(output_dir, str):
            raise ConfigurationError(f"output_dir must be a string, got {output_dir!r}")

        config = cls(
            problem_name=name,
            problem_params=params,
            training=training,
            methods=list(methods),
            greedy_common=greedy_common,
            greedy_overrides=overrides,
            output_dir=output_dir,
            repetitions=repetitions,
            workers=workers,
        )
        for m in config.methods:
            config.greedy_config(m)
        return config

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
        seed = t.get("seed", 0)
        if t["kind"] == "grid":
            return sample_training_set(
                box, kind="grid", n_per_dim=t.get("n_per_dim", 10), seed=seed
            )
        return sample_training_set(
            box, kind="random", count=t.get("count", 1000), seed=seed
        )

    def greedy_config(self, method: str) -> GreedyConfig:
        """The common greedy block overridden by the method's own block."""
        merged = {**self.greedy_common, **self.greedy_overrides.get(method, {})}
        try:
            return GreedyConfig(method=method, workers=self.workers, **merged)
        except ConfigurationError as exc:
            raise ConfigurationError(f"bad greedy settings for {method}: {exc}") from None


@dataclass
class MethodResult:
    method: str
    model: ReducedModel
    trace: GreedyTrace
    wall_ms_all: list[float]


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
        model, trace = run_greedy(config.build_problem(), train, gconf)
        walls = [trace.wall_ms_total] + [
            run_greedy(config.build_problem(), train, gconf)[1].wall_ms_total
            for _rep in range(config.repetitions - 1)
        ]
        results[method] = MethodResult(method, model, trace, walls)
    return results


def _csv_header_lines(config: ExperimentConfig) -> list[str]:
    cfg_line = json.dumps(config.resolved(), separators=(",", ":"), default=str)
    # the greedy seed once when every method runs with it, else each method's
    seeds = {m: config.greedy_config(m).seed for m in config.methods}
    if len(set(seeds.values())) == 1:
        greedy = str(seeds[config.methods[0]])
    else:
        greedy = ",".join(f"{m}:{seed}" for m, seed in seeds.items())
    training = config.training.get("seed", 0)
    return [f"# config: {cfg_line}", f"# seeds: training={training} greedy={greedy}"]


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``<name>.tmp`` and rename it over ``path``, so that
    ``path`` is either complete or untouched; the temporary never stays."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv(path: Path, header_lines: list[str], columns: list[str], rows) -> None:
    lines = header_lines + [",".join(columns)] + [",".join(map(_fmt, row)) for row in rows]
    _write_atomic(path, "".join(line + "\n" for line in lines))


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
            "estimator_evals": tr.counters["estimator_evals"],
            "counters": tr.counters,
            "skipped": len(tr.skipped_indices),
        }
        if method != "classical":
            entry["outer_loops"] = len(tr.outer_loops)
            sars = [rec.sar for rec in tr.outer_loops]
            entry["mean_sar"] = float(np.mean(sars)) if sars else 0.0
            if method == "cdm":
                entry["candidates"] = sum(rec.candidates for rec in tr.outer_loops)
            if classical is not None:
                cl_wall, my_wall = min(classical.wall_ms_all), min(res.wall_ms_all)
                entry["speedup_vs_classical"] = cl_wall / my_wall if my_wall > 0 else float("inf")
                ratio = entry["estimator_evals"] / classical.trace.counters["estimator_evals"]
                n_global = sum(1 for r in tr.iterations if r.sweep_kind == "global")
                m_max = max((r.m_budget for r in tr.outer_loops), default=0)
                bound = n_global / classical.trace.n_final + m_max / train.n_train + 0.05
                entry["eval_ratio_vs_classical"] = ratio
                entry["eval_ratio_bound"] = bound
                entry["eval_ratio_within_bound"] = bool(ratio <= bound)
        out["methods"][method] = entry
    return out


def _mark_incomplete(marker: Path, reason: str) -> None:
    try:
        marker.write_text(reason + "\n", encoding="utf-8")
    except OSError:
        pass


def run_experiment(
    config: ExperimentConfig, out_dir: Optional[str] = None, workers: Optional[int] = None
) -> Path:
    """Run all configured methods and write the artifact directory.

    A run that raises an ``RbxError`` (a failed truth solve, an inapplicable
    coercivity bound; running out of memory becomes ``ResourceError``) or
    fails to write its artifacts leaves an ``INCOMPLETE`` marker naming the
    error and re-raises; an earlier run's marker is removed first.
    """
    if workers is not None:
        config.workers = _integer(workers, "workers", at_least_one=True)
    # a bad problem or training setting fails here, before any output exists
    probe = config.build_problem()
    train = config.build_training(probe.box)
    target = Path(out_dir or config.output_dir or "rbx_results")
    target.mkdir(parents=True, exist_ok=True)
    marker = target / "INCOMPLETE"
    marker.unlink(missing_ok=True)
    try:
        results = run_methods(config)
    except MemoryError as exc:
        _mark_incomplete(marker, f"run failed: ResourceError: out of memory: {exc}")
        raise ResourceError(f"out of memory: {exc}") from exc
    except RbxError as exc:
        _mark_incomplete(marker, f"run failed: {type(exc).__name__}: {exc}")
        raise
    headers = _csv_header_lines(config)
    tables = {  # name: (columns, rows)
        "convergence.csv": (["method", "n", "delta_max", "cum_estimator_evals", "cum_wall_ms"], []),
        "sar.csv": (["method", "ell", "E_ell", "M_ell", "N_ell", "sar"], []),
        "snapshots.csv": (["method", "order"] + [f"mu_{i + 1}" for i in range(probe.dim)], []),
    }
    for m in config.methods:
        trace, model = results[m].trace, results[m].model
        tables["convergence.csv"][1].extend(
            (m, r.n, r.delta_max, r.cum_estimator_evals, r.wall_ms) for r in trace.iterations
        )
        tables["sar.csv"][1].extend(
            (m, r.ell, r.e_ell, r.m_budget, r.n_added_inner, r.sar) for r in trace.outer_loops
        )
        tables["snapshots.csv"][1].extend(
            (m, order, *mu) for order, mu in enumerate(model.snapshot_params, start=1)
        )

    try:
        for name, (columns, rows) in tables.items():
            _write_csv(target / name, headers, columns, rows)
        summary = _summarize(config, results, train)
        _write_atomic(target / "summary.json", json.dumps(summary, indent=2, default=str) + "\n")
    except OSError as exc:
        _mark_incomplete(marker, f"artifact writing failed: {exc}")
        raise ResourceError(f"failed to write artifacts into {target}: {exc}")
    return target
