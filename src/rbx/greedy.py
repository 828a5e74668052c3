"""Offline greedy driver.

``run_greedy`` repeats one round for every method: a certifying full
training-set sweep, a surrogate domain built from that sweep (before the
extension, on the pre-extension model), one basis extension at the
worst-estimated parameter, and an inner loop that keeps extending inside
the surrogate domain while its worst estimate stays above both the
tolerance and a shrinking fraction of the round's full-sweep maximum.  The
methods differ only in the surrogate domain: smm and cdm build one, and
classical is the case whose domain is empty, so its inner loop never runs.
The run stops when the full-sweep maximum drops below the tolerance or,
after that sweep, when the basis has reached its cap.  Termination is
decided only by full sweeps, so the certificate always covers the whole
training set, and the last full sweep is always of the returned model.

Counting conventions: every full sweep evaluates the estimator at every
training point (selection skips previously chosen or rejected indices, the
evaluation does not); surrogate sweeps evaluate exactly their current
domain, which never holds a chosen or rejected index; each post-seed
extension is followed by one reproduction-check evaluation at the chosen
parameter, recorded in its own counter bucket.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .affine import AffineProblem, TrainingSet
from .errors import BasisRejectionError, ConfigurationError
from .reduced import (
    GeneratorFactor,
    ReducedModel,
    TrainingSystems,
    check_points,
    error_estimate,
    estimate_batch,
    extend_basis,
)
from .surrogate import GENERATOR_RTOL, cdm_build_offline, cdm_construct, smm_construct
from .truth import TruthSolution, truth_solve

DEFAULT_SMM_BUDGET_GROWTH = 2
DEFAULT_CDM_BUDGET_GROWTH = 20
DEFAULT_CDM_K_DAMP = 10
CDM_ANCHORS = 5
_METHODS = ("classical", "smm", "cdm")


def _integer(value, name: str, at_least_one: bool = False) -> int:
    """``value`` as an int: a setting's one integer rule (a bool is not an integer)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if at_least_one and value < 1:
        raise ConfigurationError(f"{name} must be at least 1, got {value}")
    return int(value)


@dataclass
class GreedyConfig:
    """Knobs for one greedy run.

    The surrogate budget of outer loop ``ell`` is ``m_growth * (ell + 1)``;
    when omitted, ``m_growth`` is 2 for smm and 20 otherwise.  ``k_damp``
    scales how far below the full-sweep maximum the inner loop must push the
    surrogate estimates before handing control back to the next full sweep;
    when omitted it is 10 for cdm and 1 otherwise.
    """

    eps_tol: float
    n_max: int = 100
    method: str = "classical"
    k_damp: Optional[int] = None
    m_growth: Optional[int] = None
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ConfigurationError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.k_damp is None:
            self.k_damp = DEFAULT_CDM_K_DAMP if self.method == "cdm" else 1
        if self.m_growth is None:
            self.m_growth = (
                DEFAULT_SMM_BUDGET_GROWTH if self.method == "smm" else DEFAULT_CDM_BUDGET_GROWTH
            )
        if isinstance(self.eps_tol, bool) or not isinstance(self.eps_tol, numbers.Real):
            raise ConfigurationError(f"eps_tol must be a number, got {self.eps_tol!r}")
        if not self.eps_tol > 0:
            raise ConfigurationError(f"eps_tol must be positive, got {self.eps_tol}")
        for name in ("n_max", "k_damp", "m_growth", "seed", "workers"):
            _integer(getattr(self, name), name, at_least_one=name != "seed")

    def budget(self, ell: int) -> int:
        return self.m_growth * (ell + 1)


@dataclass
class IterationRecord:
    """One sweep: where it looked, what it found, what it extended with."""

    n: int  # basis size when the sweep ran
    sweep_kind: str  # "global" or "surrogate"
    outer_loop: int  # 0 for classical runs
    delta_max: float
    sweep_size: int
    chosen_index: Optional[int]
    cum_estimator_evals: int
    wall_ms: float
    post_extension_delta: Optional[float] = None


@dataclass
class OuterLoopRecord:
    """One outer round of the enhanced loop."""

    ell: int
    e_ell: float  # full-sweep maximum opening the round
    m_budget: int
    candidates: int  # points that full sweep left above eps_tol
    surrogate_size: int
    n_added_inner: int

    @property
    def sar(self) -> float:
        if self.m_budget <= 0:
            return 0.0
        return self.n_added_inner / self.m_budget


@dataclass
class GreedyTrace:
    method: str
    seed: int
    eps_tol: float
    seed_index: int = -1
    iterations: list[IterationRecord] = field(default_factory=list)
    outer_loops: list[OuterLoopRecord] = field(default_factory=list)
    certified: bool = False
    final_delta_max: float = float("inf")
    n_final: int = 0
    wall_ms_total: float = 0.0
    wall_ms_truth: float = 0.0
    wall_ms_surrogate_build: float = 0.0
    counters: dict = field(default_factory=dict)
    skipped_indices: list[int] = field(default_factory=list)


def _argmax_excluding(values: np.ndarray, excluded: set[int]) -> Optional[int]:
    """First position of the maximum among non-excluded finite entries."""
    if excluded:
        vals = values.copy()
        vals[np.fromiter(excluded, dtype=int, count=len(excluded))] = -np.inf
    else:
        vals = values
    j = int(np.argmax(vals))
    if vals[j] == -np.inf:
        return None
    return j


def argmax_sweep(
    model: ReducedModel,
    problem: AffineProblem,
    systems: TrainingSystems,
    domain: Optional[np.ndarray] = None,
    kind: str = "other",
    workers: int = 1,
) -> np.ndarray:
    """Estimate field of one sweep over the training set ``systems``.

    ``domain`` is a list of training indices (the whole set when omitted).
    Returns the estimates scattered over the training set, -inf off the
    domain, so that the field's maximum is the maximum over the swept domain
    (what a termination certificate needs) and its argmax a selection.  A
    full sweep leaves its reduced solutions on ``systems.coeffs`` for
    ``cdm_construct``.  A non-finite estimate raises
    ``NumericalFailureError`` naming the first such parameter.
    """
    swept = systems
    if domain is not None:
        domain = np.asarray(domain, dtype=int)
        swept = systems.restrict(domain)
    points = swept.points
    if points.shape[0] == 0:
        raise ConfigurationError("cannot sweep an empty domain")
    deltas = estimate_batch(model, problem, points, kind=kind, workers=workers, systems=swept)
    check_points("non-finite estimate", deltas, ~np.isfinite(deltas), systems.points, domain)
    if domain is None:
        return deltas
    field = np.full(systems.points.shape[0], -np.inf)
    field[domain] = deltas
    return field


class _Run:
    """One greedy run: its model, trace, training systems, excluded indices,
    timers, and cdm's anchor solves and generator factor.  The
    constructor draws and accepts the seed snapshot."""

    def __init__(self, problem: AffineProblem, train: TrainingSet, config: GreedyConfig):
        problem.counters.reset()
        self.t0 = time.perf_counter()
        self.problem = problem
        self.train = train
        self.config = config
        self.systems = TrainingSystems.evaluate(problem, train.points, keep_factor=True)
        self.anchors: list[Callable] = []
        self.generators = GeneratorFactor(problem.n_dof, GENERATOR_RTOL)
        self.truth_seconds = 0.0
        self.surrogate_seconds = 0.0
        self.model = ReducedModel(problem)
        first = int(np.random.default_rng(config.seed).integers(train.n_train))
        self.trace = GreedyTrace(
            method=config.method, seed=config.seed, eps_tol=config.eps_tol, seed_index=first
        )
        self.excluded = {first}
        self.accept(self.solve_snapshot(train.points[first]), first)

    def wall_ms(self) -> float:
        return (time.perf_counter() - self.t0) * 1000.0

    def solve_snapshot(self, mu: np.ndarray) -> TruthSolution:
        start = time.perf_counter()
        snap = truth_solve(self.problem, mu)
        self.truth_seconds += time.perf_counter() - start
        return snap

    def accept(self, snap: TruthSolution, idx: int) -> None:
        """Extend the basis with ``snap``; a cdm run keeps the solve functions
        of its first ``CDM_ANCHORS`` accepted snapshots as anchors."""
        extend_basis(self.model, snap, idx)
        if self.config.method == "cdm" and len(self.anchors) < CDM_ANCHORS:
            self.anchors.append(snap.solve)

    def sweep(
        self, outer_loop: int, domain: Optional[list[int]] = None
    ) -> tuple[np.ndarray, IterationRecord]:
        """Run one full (``domain`` omitted) or surrogate sweep and record it."""
        kind = "global" if domain is None else "surrogate"
        field = argmax_sweep(
            self.model,
            self.problem,
            self.systems,
            domain=domain,
            kind=kind,
            workers=self.config.workers,
        )
        record = IterationRecord(
            n=self.model.n,
            sweep_kind=kind,
            outer_loop=outer_loop,
            delta_max=float(field.max()),
            sweep_size=self.train.n_train if domain is None else len(domain),
            chosen_index=None,
            cum_estimator_evals=self.problem.counters.estimator_evals,
            wall_ms=self.wall_ms(),
        )
        self.trace.iterations.append(record)
        return field, record

    def surrogate(self, ell: int, e_ell: float, field: np.ndarray) -> list[int]:
        """Surrogate domain of round ``ell`` from its full sweep (``field``,
        maximum ``e_ell``), without already excluded indices, recorded as an
        ``OuterLoopRecord`` with the number of points the sweep left above
        ``eps_tol``.  cdm blends and pivots only those points; smm's level
        ladder starts at the tolerance.  Classical runs have none: they
        build, time and record nothing."""
        config = self.config
        if config.method == "classical":
            return []
        start = time.perf_counter()
        budget = config.budget(ell)
        above = field > config.eps_tol
        if config.method == "smm":
            picked = smm_construct(field, config.eps_tol, budget)
        else:
            cdm_build_offline(self.model, self.problem, self.generators, self.anchors)
            candidates = np.flatnonzero(above)
            picked = cdm_construct(self.model, self.generators, self.systems, budget, candidates)
        self.surrogate_seconds += time.perf_counter() - start
        pending = [int(i) for i in picked if int(i) not in self.excluded]
        record = OuterLoopRecord(ell, e_ell, budget, int(above.sum()), len(pending), 0)
        self.trace.outer_loops.append(record)
        return pending

    def extend(self, field: np.ndarray, record: IterationRecord) -> Optional[int]:
        """Extend at the best admissible index of an estimate field.

        Rejected snapshots are excluded and the next-best index is tried
        against the same (still valid) estimates.  On success the sweep's
        record gets the chosen index and its reproduction-check
        estimate; returns the extended index, or None when every candidate
        is exhausted.
        """
        while (idx := _argmax_excluding(field, self.excluded)) is not None:
            mu = self.train.points[idx]
            snap = self.solve_snapshot(mu)
            self.excluded.add(idx)
            try:
                self.accept(snap, idx)
            except BasisRejectionError:
                self.trace.skipped_indices.append(idx)
                continue
            record.post_extension_delta = error_estimate(self.model, self.problem, mu, kind="check")
            record.chosen_index = idx
            record.wall_ms = self.wall_ms()
            record.cum_estimator_evals = self.problem.counters.estimator_evals
            return idx
        return None

    def finish(self) -> GreedyTrace:
        trace = self.trace
        trace.n_final = self.model.n
        trace.wall_ms_total = self.wall_ms()
        trace.wall_ms_truth = self.truth_seconds * 1000.0
        trace.wall_ms_surrogate_build = self.surrogate_seconds * 1000.0
        trace.counters = self.problem.counters.snapshot()
        return trace


def run_greedy(
    problem: AffineProblem, train: TrainingSet, config: GreedyConfig
) -> tuple[ReducedModel, GreedyTrace]:
    """Certified greedy of the configured method (see the module docstring).

    Classical rounds record ``outer_loop=0`` and no ``OuterLoopRecord``.
    """
    if train.n_train == 0:
        raise ConfigurationError("training set is empty")
    run = _Run(problem, train, config)
    model, trace = run.model, run.trace
    ell = 0

    while True:
        ell += 1
        field, record = run.sweep(0 if config.method == "classical" else ell)
        e_ell = record.delta_max
        trace.final_delta_max = e_ell
        if e_ell <= config.eps_tol:
            trace.certified = True
            break
        if model.n >= config.n_max:
            break
        pending = run.surrogate(ell, e_ell, field)
        if run.extend(field, record) is None:
            break
        n_first = model.n

        eps = e_ell
        threshold = e_ell / (config.k_damp * (ell + 1))
        while eps > max(config.eps_tol, threshold) and model.n < config.n_max:
            pending = [i for i in pending if i not in run.excluded]
            if not pending:
                break
            sfield, srecord = run.sweep(ell, pending)
            eps = srecord.delta_max
            if eps <= config.eps_tol or run.extend(sfield, srecord) is None:
                break
        if trace.outer_loops:
            trace.outer_loops[-1].n_added_inner = model.n - n_first
    return model, run.finish()
