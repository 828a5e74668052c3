#!/usr/bin/env python3
"""Benchmark of the rbx certified greedy, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tb-classical --seed 0 --seconds 2 --trace 0

``--seed`` drives the online query draw and the held-out checks; the
training set and the greedy seed snapshot are those of the acceptance
configurations (seed 0), see ``workloads.py``.

A run makes one ``rbx.harness.run_experiment`` call (the work of ``rbx run
--config``), then runs an online phase on the model that call built:
single-point certified queries (``reduced_solve``, ``error_estimate``,
``reduced_output``) alternating with ``estimate_batch`` blocks of a fixed
query set.  Untraced runs also set the problem up ``setup_passes - 1`` more
times, half before and half after, and report the median set-up.
``--seconds`` is the least time the online phase measures; the offline stage
always runs once to completion.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` wraps the layers
(see ``layers.py``), sets up once, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (environment,
checks, behaviour fingerprint, layer self times) is written to
``perfbench/results/<workload>/seed<s>-trace<t>.json``.

BLAS runs single-threaded (the thread variables are set before NumPy loads):
on a 2-core machine two threads were both slower and less steady.  The
package is imported from the checkout's ``src/`` only; without it the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import SMOKE, WORKLOADS, Workload  # noqa: E402

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
WARMUP_QUERIES = 20
BATCH_BLOCK = 4096
AGREEMENT_POINTS = 64
AGREEMENT_RTOL = 1e-10

# name, unit, better
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("offline_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("n_basis", "count", "lower"),
    ("online_point_mean_us", "us", "lower"),
    ("online_point_p90_us", "us", "lower"),
    ("online_batch_qps", "queries/s", "higher"),
    ("ok_ratio", "ratio", "higher"),
]


class _SetupDone(Exception):
    """Raised in place of the greedy run to end a set-up-only pass."""


class Tally:
    """Attempted and failed operations of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, attempted: int, failed: int, error: str | None = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if error and len(self.errors) < 10:
            self.errors.append(error)


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _plain(value):
    """JSON fallback for NumPy scalars."""
    return value.item()


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment() -> dict:
    """Machine, library and source identity recorded with every result."""
    import numpy as np
    import scipy

    def blas(show) -> dict:
        try:
            deps = show(mode="dicts")["Build Dependencies"]
        except (TypeError, KeyError):
            return {}
        return {k: {"name": v.get("name"), "version": v.get("version")} for k, v in deps.items()}

    digest = hashlib.sha256()
    for path in sorted((SRC / "rbx").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(ROOT),
        "src_sha256": digest.hexdigest(),
    }


def setup_pass(config: dict, out_dir: Path) -> float:
    """Seconds of one set-up: run_experiment up to the greedy run, plus the anchor."""
    from rbx import harness

    def stop(problem, train, config):
        problem.coercivity.lower_bound_batch(problem, train.points[:1])
        raise _SetupDone(time.perf_counter())

    patches = layers.Patches()
    patches.set(harness, "run_greedy", stop)
    start = time.perf_counter()
    try:
        harness.run_experiment(harness.ExperimentConfig.from_dict(config), out_dir)
    except _SetupDone as done:
        return done.args[0] - start
    finally:
        patches.restore()
    raise RuntimeError("run_experiment returned without starting a greedy run")


def offline_run(config: dict, out_dir: Path, span) -> dict:
    """One run_experiment call, split into set-up and the greedy run.

    The coercivity anchor is computed lazily on first use; forcing it before
    ``run_greedy`` starts counts it as set-up, not offline time.
    """
    from rbx import harness

    seen: dict = {}
    real = harness.run_greedy

    def run_greedy(problem, train, config):
        with span("bounds.anchor"):
            problem.coercivity.lower_bound_batch(problem, train.points[:1])
        seen["setup_end"] = start = time.perf_counter()
        with span("greedy.run"):
            model, trace = real(problem, train, config)
        seen.update(
            offline_s=time.perf_counter() - start, problem=problem, model=model, trace=trace
        )
        return model, trace

    patches = layers.Patches()
    patches.set(harness, "run_greedy", run_greedy)
    start = time.perf_counter()
    try:
        with span("harness.run_experiment"):
            harness.run_experiment(harness.ExperimentConfig.from_dict(config), out_dir)
    finally:
        patches.restore()
    seen["setup_s"] = seen["setup_end"] - start
    return seen


def online_phase(workload, seed, seconds, problem, model, span, tally) -> dict:
    """Timed single-point queries alternating with timed estimate_batch blocks."""
    import numpy as np
    from rbx import reduced

    lo, hi = problem.box.lower, problem.box.upper
    rng = np.random.default_rng([seed, 1])

    def query(mu) -> float:
        start = time.perf_counter()
        try:
            with span("online.point"):
                with span("reduced.point_solve"):
                    sol = reduced.reduced_solve(model, mu)
                delta = reduced.error_estimate(model, problem, mu, sol=sol)
                out = reduced.reduced_output(model, sol)
        except Exception as exc:  # a failed query is counted, not fatal
            tally.add(1, 1, _error(exc))
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        bad = not (np.isfinite(delta) and np.isfinite(out))
        tally.add(1, int(bad), f"non-finite query result at {mu.tolist()}" if bad else None)
        return elapsed

    def draw():
        return lo + rng.random(problem.dim) * (hi - lo)

    def sweep(block) -> None:
        start = time.perf_counter()
        try:
            with span("online.batch"):
                deltas = reduced.estimate_batch(model, problem, block)
        except Exception as exc:  # a failed block is counted, not fatal
            tally.add(len(block), len(block), _error(exc))
            return
        batches.append((len(block), time.perf_counter() - start))
        bad = int(np.count_nonzero(~np.isfinite(deltas)))
        tally.add(len(block), bad, f"{bad} non-finite batch estimates" if bad else None)

    points = lo + np.random.default_rng([seed, 2]).random((workload.batch_points, problem.dim)) * (
        hi - lo
    )
    blocks = [points[i : i + BATCH_BLOCK] for i in range(0, len(points), BATCH_BLOCK)]
    for _ in range(WARMUP_QUERIES):
        query(draw())
    reduced.estimate_batch(model, problem, blocks[0])

    # Single-point queries and batch blocks alternate, so both kinds are
    # sampled over the whole phase and a slow or fast spell of a shared
    # machine weighs on them alike.  Every query is on a fresh parameter and
    # is timed once.  The least work sweeps the query set twice; the batch
    # rate is the points swept over the time spent sweeping them.
    latencies: list[float] = []
    batches: list[tuple[int, float]] = []  # (points, seconds) per block
    per_block = -(-workload.point_queries // (2 * len(blocks)))
    deadline = time.perf_counter() + seconds
    swept = 0
    while (
        len(latencies) < workload.point_queries
        or swept < len(blocks)
        or time.perf_counter() < deadline
    ):
        for _ in range(per_block):
            latencies.append(query(draw()))
        sweep(blocks[swept % len(blocks)])
        swept += 1
    return {"latencies": latencies, "batches": batches, "points": points}


def correctness_checks(workload, seed, out_dir, seen, points) -> dict:
    """The three correctness checks of a run plus the artifact cross-check."""
    import numpy as np
    from rbx import reduced, truth

    problem, model, trace = seen["problem"], seen["model"], seen["trace"]
    checks = {}

    def check(name, fn):
        try:
            ok, detail = fn()
        except Exception as exc:  # a check that cannot run has failed
            ok, detail = False, _error(exc)
        checks[name] = {"ok": bool(ok), "detail": detail}

    def certified():
        ok = trace.certified and trace.final_delta_max <= workload.eps_tol
        return ok, f"final_delta_max {trace.final_delta_max:.6e} vs eps_tol {workload.eps_tol:g}"

    def artifacts():
        summary = json.loads((out_dir / "summary.json").read_text())["methods"][workload.method]
        ok = summary["n_final"] == model.n and summary["certified"] == trace.certified
        return ok, f"summary.json n_final {summary['n_final']}, certified {summary['certified']}"

    def bound_holds():
        rng = np.random.default_rng([seed, 3])
        lo, hi = problem.box.lower, problem.box.upper
        worst = 0.0
        for _ in range(workload.held_out):
            mu = lo + rng.random(problem.dim) * (hi - lo)
            sol = reduced.reduced_solve(model, mu)
            delta = reduced.error_estimate(model, problem, mu, sol=sol)
            exact = truth.truth_solve(problem, mu).coefficients
            err = truth.x_norm(problem.discretization, exact - reduced.reconstruct(model, sol))
            worst = max(worst, err / delta if delta > 0 else np.inf)
        return worst <= 1.0, f"worst error/estimate {worst:.6e} over {workload.held_out} parameters"

    def single_matches_batch():
        pts = points[:AGREEMENT_POINTS]
        single = np.array([reduced.error_estimate(model, problem, mu) for mu in pts])
        batch = reduced.estimate_batch(model, problem, pts)
        empty = reduced.estimate_batch(model, problem, pts, n=0)
        gap = float(np.max(np.abs(single - batch) / empty))
        return gap <= AGREEMENT_RTOL, f"worst gap {gap:.3e} of the empty-basis estimate"

    check("certified", certified)
    check("artifacts", artifacts)
    check("bound_holds", bound_holds)
    check("single_matches_batch", single_matches_batch)
    return checks


def run_workload(workload: Workload, seed: int, seconds: float, traced: bool, out_dir: Path) -> dict:
    import numpy as np

    tracer = layers.Tracer() if traced else None
    span = tracer.span if tracer else (lambda name, **info: nullcontext())
    tally = Tally()
    record: dict = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(traced),
        "seconds": seconds,
        "config": workload.config(),
        "environment": environment(),
    }
    metrics: dict = {}
    # The extra set-ups are split between the start and the end of the run,
    # so that their median spans the run on a machine whose speed drifts.
    passes = 0 if traced else workload.setup_passes - 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            setups = [setup_pass(record["config"], out_dir) for _ in range(passes // 2)]
            if tracer:
                layers.install(tracer)
            try:
                seen = offline_run(record["config"], out_dir, span)
            finally:
                if tracer:
                    tracer.restore()
        except Exception as exc:  # the run failed; report it instead of metrics
            tally.add(1, 1, _error(exc))
            record["traceback"] = traceback.format_exc()
            seen = None
        if seen is not None:
            if tracer:
                layers.install_online(tracer)
            try:
                online = online_phase(
                    workload, seed, seconds, seen["problem"], seen["model"], span, tally
                )
            finally:
                if tracer:
                    tracer.restore()
            setups += [setup_pass(record["config"], out_dir) for _ in range(passes - passes // 2)]
            checks = correctness_checks(workload, seed, out_dir, seen, online["points"])
            run_ok = all(c["ok"] for c in checks.values())
            tally.add(1, int(not run_ok), None if run_ok else "run failed a correctness check")
            model, trace = seen["model"], seen["trace"]
            setups.append(seen["setup_s"])
            lat = np.asarray(online["latencies"])
            rates = [n / sec for n, sec in online["batches"]] or [0.0]
            swept_s = sum(sec for _, sec in online["batches"])
            e2e = {
                "setup_s": statistics.median(setups),
                "offline_s": seen["offline_s"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "n_basis": model.n,
                # A mean, not a median: on a host whose speed toggles between
                # two levels, the median falls in the gap between them and
                # jumps when the share of slow time crosses one half.  p90, not
                # p99: with ~1000 queries p99 counts the host's stalls.  Both
                # stay in the record's percentiles.
                "online_point_mean_us": float(np.mean(lat)) * 1e6,
                "online_point_p90_us": float(np.percentile(lat, 90)) * 1e6,
                "online_batch_qps": sum(n for n, _ in online["batches"]) / swept_s if swept_s else 0.0,
                # a run that fails a check scores 0: counted as one operation
                # among ~1e5 queries it would not move the ratio past its bound
                "ok_ratio": (tally.attempted - tally.failed) / tally.attempted if run_ok else 0.0,
            }
            record.update(
                checks=checks,
                fingerprint={
                    "snapshot_indices": [int(i) for i in model.snapshot_indices],
                    "n_basis": model.n,
                    "certified": bool(trace.certified),
                    "final_delta_max": trace.final_delta_max,
                    "skipped_indices": [int(i) for i in trace.skipped_indices],
                    "counters": dict(trace.counters),
                },
                setup_samples_s=setups,
                online={
                    "point_queries": len(lat),
                    "batch_blocks": len(online["batches"]),
                    "point_us_percentiles": {
                        str(q): float(np.percentile(lat, q)) * 1e6 for q in (1, 10, 25, 50, 75, 90, 99)
                    },
                    "batch_qps_percentiles": {
                        str(q): float(np.percentile(rates, q)) for q in (10, 25, 50, 75, 90)
                    },
                },
                end_to_end=e2e,
            )
            units = {name: unit for name, unit, _ in END_TO_END}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in e2e.items()}
    messages = [str(w.message) for w in caught]
    record["warnings"] = [
        f"{Path(w.filename).name}:{w.lineno}: {w.category.__name__}: {w.message}" for w in caught
    ]
    if tracer and seen is not None:
        per_layer = layers.per_layer_metrics(tracer, seen["trace"], messages)
        (offline,) = tracer.named("greedy.run")
        record["per_layer"] = per_layer
        record["offline_self_s"] = tracer.self_seconds(offline)
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in units.items()}
    correct = seen is not None and tally.failed == 0
    record["errors"] = tally.errors
    record["result"] = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return record


def parse_args(argv):
    names = sorted(WORKLOADS) + [SMOKE.name]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, results_dir: Path = RESULTS) -> int:
    args = parse_args(argv)
    if not (SRC / "rbx" / "__init__.py").is_file():
        print(f"perfbench: no rbx package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import rbx

    if Path(rbx.__file__).resolve().parent != (SRC / "rbx").resolve():
        print(f"perfbench: rbx was imported from {rbx.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = SMOKE if args.workload == SMOKE.name else WORKLOADS[args.workload]
    key = f"seed{args.seed}-trace{args.trace}"
    out_dir = results_dir / workload.name / key
    out_dir.mkdir(parents=True, exist_ok=True)
    record = run_workload(workload, args.seed, args.seconds, bool(args.trace), out_dir)
    (out_dir.parent / f"{key}.json").write_text(
        json.dumps(record, indent=1, default=_plain) + "\n"
    )
    result = record["result"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
