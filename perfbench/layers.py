"""Per-layer tracing of rbx from outside the package.

Each wrapper replaces a function where its caller looks it up: rbx modules
import functions by name, so the benchmark patches ``rbx.greedy.truth_solve``
(the driver's reference), not ``rbx.truth.truth_solve``.  Every call records
one span (layer name, start, end, enclosing span).  A layer's self time is
its spans' durations minus the time their direct child spans cover, so the
self times inside ``run_greedy`` add up to the offline wall.  Spans assume a
single thread; every workload runs with ``workers: 1``.
"""

from __future__ import annotations

import inspect
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Optional

_MISSING = object()


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at top level
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.patches = Patches()

    @contextmanager
    def span(self, name: str, **info):
        sp = Span(name, self._open[-1] if self._open else -1, time.perf_counter(), info=info)
        self._open.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, layer: str, info: Optional[Callable] = None) -> None:
        """Record a ``layer`` span around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        sig = inspect.signature(original) if info else None

        def traced(*args, **kwargs):
            extra = info(sig.bind(*args, **kwargs).arguments) if info else {}
            with self.span(layer, **extra):
                return original(*args, **kwargs)

        traced.__wrapped__ = original
        self.patches.set(owner, attr, traced)

    def restore(self) -> None:
        self.patches.restore()

    # -- aggregation -----------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def within(self, outer: Span) -> list[Span]:
        """Spans strictly inside ``outer``."""
        return [s for s in self.spans if s is not outer and _inside(s, outer)]

    def self_seconds(self, outer: Span) -> dict[str, float]:
        """Self time per layer over ``outer`` and every span inside it."""
        inside = {i: s for i, s in enumerate(self.spans) if _inside(s, outer)}
        child = dict.fromkeys(inside, 0.0)
        for s in inside.values():
            if s.parent in child:
                child[s.parent] += s.seconds
        out: dict[str, float] = {}
        for i, s in inside.items():
            out[s.name] = out.get(s.name, 0.0) + s.seconds - child[i]
        return out


def _inside(span: Span, outer: Span) -> bool:
    return outer.start <= span.start and span.end <= outer.end


def _points(args: dict) -> dict:
    return {"points": len(args["mus"])}


def _sweep(args: dict) -> dict:
    n = args.get("n")
    return {
        "points": len(args["mus"]),
        "n": args["model"].n if n is None else int(n),
        "q": args["problem"].n_terms,
        "kind": args.get("kind", "other"),
    }


def install(tracer: Tracer) -> None:
    """Wrap the offline layers of the imported ``rbx`` package."""
    from rbx import bounds, greedy, harness, reduced, surrogate

    for method in ("build_problem", "build_training"):
        tracer.wrap(harness.ExperimentConfig, method, "harness.build")
    tracer.wrap(harness, "run_methods", "harness.run_methods")
    for cls in (bounds.ConstantBound, bounds.MinThetaBound):
        tracer.wrap(cls, "lower_bound_batch", "bounds.sweep")
    tracer.wrap(reduced, "evaluate_theta_batch", "affine.theta", _points)
    tracer.wrap(reduced, "rhs_scale_batch", "affine.theta", _points)
    tracer.wrap(greedy, "estimate_batch", "reduced.sweep_solve", _sweep)
    tracer.wrap(reduced, "residual_norm_sq_batch", "reduced.residual")
    tracer.wrap(greedy, "extend_basis", "reduced.extend")
    tracer.wrap(greedy, "error_estimate", "reduced.check")
    tracer.wrap(greedy, "truth_solve", "truth.solve")
    tracer.wrap(reduced, "riesz_solve", "truth.riesz")
    tracer.wrap(surrogate, "apply_operator_inverse", "truth.inverse")
    tracer.wrap(greedy, "cdm_build_offline", "surrogate.cdm_offline")
    tracer.wrap(greedy, "cdm_construct", "surrogate.cdm_construct")
    tracer.wrap(surrogate, "pivoted_cholesky", "surrogate.pivot")
    tracer.wrap(greedy, "argmax_sweep", "greedy.select")


def install_online(tracer: Tracer) -> None:
    """Wrap the residual evaluation inside single-point error estimates."""
    from rbx import reduced

    tracer.wrap(reduced, "residual_dual_norm_sq", "reduced.point_residual")


# offline self-time metrics and the spans they add up
OFFLINE_LAYERS = {
    "bounds.sweep_s": "bounds.sweep",
    "affine.theta_s": "affine.theta",
    "reduced.sweep_solve_s": "reduced.sweep_solve",
    "reduced.residual_s": "reduced.residual",
    "reduced.extend_s": "reduced.extend",
    "reduced.check_s": "reduced.check",
    "truth.solve_s": "truth.solve",
    "truth.riesz_s": "truth.riesz",
    "truth.inverse_s": "truth.inverse",
    "surrogate.cdm_construct_s": "surrogate.cdm_construct",
    "surrogate.cdm_offline_s": "surrogate.cdm_offline",
    "surrogate.pivot_s": "surrogate.pivot",
    "greedy.select_s": "greedy.select",
    "greedy.driver_s": "greedy.run",
}

# printed per-layer metrics: name, unit, better
PER_LAYER = [
    ("harness.build_s", "s", "lower"),
    ("harness.build_calls", "count", "lower"),
    ("harness.artifacts_s", "s", "lower"),
    ("bounds.anchor_s", "s", "lower"),
    ("bounds.sweep_s", "s", "lower"),
    ("affine.theta_s", "s", "lower"),
    ("affine.theta_points", "count", "lower"),
    ("reduced.sweep_solve_s", "s", "lower"),
    ("reduced.residual_s", "s", "lower"),
    ("reduced.sweep_gflop", "gflop", "lower"),
    ("reduced.sweep_gflop_per_s", "gflop/s", "higher"),
    ("reduced.extend_s", "s", "lower"),
    ("reduced.check_s", "s", "lower"),
    ("reduced.point_solve_us", "us", "lower"),
    ("reduced.point_residual_us", "us", "lower"),
    ("reduced.point_queries", "count", "higher"),
    ("truth.solve_s", "s", "lower"),
    ("truth.riesz_s", "s", "lower"),
    ("truth.inverse_s", "s", "lower"),
    ("truth.solves", "count", "lower"),
    ("truth.factorizations", "count", "lower"),
    ("truth.riesz_solves", "count", "lower"),
    ("surrogate.cdm_construct_s", "s", "lower"),
    ("surrogate.cdm_offline_s", "s", "lower"),
    ("surrogate.pivot_s", "s", "lower"),
    ("surrogate.pivot_steps", "count", "lower"),
    ("surrogate.approx_error_evals", "count", "lower"),
    ("surrogate.psd_warnings", "count", "lower"),
    ("surrogate.acceptance_ratio", "ratio", "higher"),
    ("greedy.select_s", "s", "lower"),
    ("greedy.driver_s", "s", "lower"),
    ("greedy.driver_share", "ratio", "lower"),
    ("greedy.offline_traced_s", "s", "lower"),
    ("greedy.sweeps_global", "count", "lower"),
    ("greedy.sweeps_surrogate", "count", "lower"),
    ("greedy.evals_global", "count", "lower"),
    ("greedy.evals_surrogate", "count", "lower"),
    ("greedy.evals_check", "count", "lower"),
    ("greedy.skipped", "count", "lower"),
]


def sweep_gflop(points: int, n: int, q: int) -> float:
    """Computed flop count of one estimator sweep, in Gflop.

    Reduced assembly (2 B Q n^2), batched LU solves (B (2/3 n^3 + 2 n^2))
    and the residual norm through a factor of width r = 1 + n Q
    (2 B r^2 + 2 B r), taking the residual factor at its full rank.
    """
    r = 1 + n * q
    flops = points * (2 * q * n * n + (2.0 / 3.0) * n**3 + 2 * n * n + 2 * r * r + 2 * r)
    return flops / 1e9


def per_layer_metrics(tracer: Tracer, trace, warnings_seen: list[str]) -> dict[str, float]:
    """Per-layer values of one traced workload run.

    Holds every name in ``PER_LAYER`` and every offline layer time.
    """
    (experiment,) = tracer.named("harness.run_experiment")
    (offline,) = tracer.named("greedy.run")
    (anchor,) = tracer.named("bounds.anchor")
    (methods,) = tracer.named("harness.run_methods")
    own = tracer.self_seconds(offline)
    inside = tracer.within(offline)
    setup = [s for s in tracer.within(experiment) if s.start < offline.start]
    sweeps = [s for s in inside if s.name == "reduced.sweep_solve"]
    gflop = sum(sweep_gflop(s.info["points"], s.info["n"], s.info["q"]) for s in sweeps)
    builds = [s for s in setup if s.name == "harness.build"]

    queries = {i for i, s in enumerate(tracer.spans) if s.name == "online.point"}

    def median_us(name: str) -> float:
        vals = [s.seconds for s in tracer.spans if s.name == name and s.parent in queries]
        return statistics.median(vals) * 1e6

    counters = trace.counters
    sars = [rec.sar for rec in trace.outer_loops]
    times = {m: own.get(span, 0.0) for m, span in OFFLINE_LAYERS.items()}
    sweep_s = times["reduced.sweep_solve_s"] + times["reduced.residual_s"]
    return {
        **times,
        "harness.build_s": sum(s.seconds for s in builds),
        "harness.build_calls": len(builds),
        "harness.artifacts_s": experiment.end - methods.end,
        "bounds.anchor_s": anchor.seconds,
        "affine.theta_points": sum(s.info["points"] for s in inside if s.name == "affine.theta"),
        "reduced.sweep_gflop": gflop,
        "reduced.sweep_gflop_per_s": gflop / sweep_s if sweep_s > 0 else 0.0,
        "reduced.point_solve_us": median_us("reduced.point_solve"),
        "reduced.point_residual_us": median_us("reduced.point_residual"),
        "reduced.point_queries": len(queries),
        "truth.solves": counters["truth_solves"],
        "truth.factorizations": counters["truth_factorizations"],
        "truth.riesz_solves": counters["riesz_solves"],
        "surrogate.pivot_steps": counters["pivoted_cholesky_steps"],
        "surrogate.approx_error_evals": counters["approx_error_evals"],
        "surrogate.psd_warnings": sum("positive semidefinite" in w for w in warnings_seen),
        "surrogate.acceptance_ratio": statistics.fmean(sars) if sars else 0.0,
        "greedy.driver_share": times["greedy.driver_s"] / offline.seconds,
        "greedy.offline_traced_s": offline.seconds,
        "greedy.sweeps_global": sum(s.info["kind"] == "global" for s in sweeps),
        "greedy.sweeps_surrogate": sum(s.info["kind"] == "surrogate" for s in sweeps),
        "greedy.evals_global": counters["sweep_evals_global"],
        "greedy.evals_surrogate": counters["sweep_evals_surrogate"],
        "greedy.evals_check": counters["reproduction_checks"],
        "greedy.skipped": len(trace.skipped_indices),
    }
