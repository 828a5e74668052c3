"""Offline greedy driver.

``run_greedy`` repeats rounds of one certifying full training-set sweep
followed by one basis extension at the worst-estimated parameter, until the
estimate field drops below the tolerance everywhere or the basis cap is
reached.  The classical method does nothing else.  The smm and cdm methods
also build a small surrogate subset of the training set from each round's
sweep (before the extension) and then keep extending inside that subset
while the worst surrogate estimate stays above both the tolerance and a
shrinking fraction of the round's full-sweep maximum.  Termination is
decided only by full sweeps, so the certificate always covers the whole
training set.

Counting conventions: every full sweep evaluates the estimator at every
training point (selection skips previously chosen or rejected indices, the
evaluation does not); surrogate sweeps evaluate exactly their current
domain; each post-seed extension is followed by one reproduction-check
evaluation at the chosen parameter, recorded in its own counter bucket.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .affine import AffineProblem, TrainingSet
from .errors import BasisRejectionError, ConfigurationError, NumericalFailureError
from .reduced import (
    ReducedModel,
    TrainingSystems,
    error_estimate,
    estimate_batch,
    extend_basis,
)
from .surrogate import CdmOfflineData, cdm_build_offline, cdm_construct, smm_construct
from .truth import Factorization, TruthSolution, truth_solve

DEFAULT_SMM_BUDGET_GROWTH = 2
DEFAULT_CDM_BUDGET_GROWTH = 20
DEFAULT_CDM_K_DAMP = 10
CDM_ANCHORS = 5
_METHODS = ("classical", "smm", "cdm")


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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
            if name != "seed" and value < 1:
                raise ConfigurationError(f"{name} must be at least 1, got {value}")

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
    surrogate_size: int
    n_added_inner: int
    basis_size_after: int

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


@dataclass
class SweepResult:
    delta_max: float  # maximum over everything swept
    field: np.ndarray  # estimates over the training set, -inf off the domain


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
    train: TrainingSet,
    domain: Optional[np.ndarray] = None,
    kind: str = "other",
    workers: int = 1,
    systems: Optional[TrainingSystems] = None,
) -> SweepResult:
    """Estimate over a sweep domain.

    ``domain`` is a list of training indices (the whole set when omitted).
    ``systems`` is the run's evaluated training set; without it, this sweep
    evaluates one.  A full sweep leaves its reduced solutions on
    ``systems.coeffs`` for ``cdm_construct``.  ``delta_max`` is the maximum
    over the whole swept domain, which is what a termination certificate
    needs; ``field`` scatters the estimates over the training set for
    selection.  A non-finite estimate raises ``NumericalFailureError``
    naming the first such parameter.
    """
    if systems is None:
        systems = TrainingSystems.evaluate(problem, train.points, capacity=model.n)
    if domain is not None:
        domain = np.asarray(domain, dtype=int)
        systems = systems.restrict(domain)
    points = systems.points
    if points.shape[0] == 0:
        raise ConfigurationError("cannot sweep an empty domain")
    deltas = estimate_batch(model, problem, points, kind=kind, workers=workers, systems=systems)
    bad = np.flatnonzero(~np.isfinite(deltas))
    if bad.size:
        j = int(bad[0])
        index = j if domain is None else int(domain[j])
        raise NumericalFailureError(
            f"non-finite estimate {deltas[j]} at training index {index}, mu = {points[j]}"
        )
    if domain is None:
        field = deltas
    else:
        field = np.full(train.n_train, -np.inf)
        field[domain] = deltas
    return SweepResult(delta_max=float(deltas.max()), field=field)


class _RunState:
    """Timers, bookkeeping and the per-sweep records of one greedy run."""

    def __init__(self, problem: AffineProblem, train: TrainingSet, config: GreedyConfig):
        problem.counters.reset()
        self.t0 = time.perf_counter()
        self.problem = problem
        self.train = train
        self.config = config
        self.excluded: set[int] = set()
        self.skipped: list[int] = []
        self.offline: Optional[CdmOfflineData] = None
        self.anchors: list[Factorization] = []
        self.systems = TrainingSystems.evaluate(problem, train.points, capacity=config.n_max)
        self.truth_seconds = 0.0
        self.surrogate_seconds = 0.0

    def wall_ms(self) -> float:
        return (time.perf_counter() - self.t0) * 1000.0

    def solve_snapshot(self, mu: np.ndarray) -> TruthSolution:
        start = time.perf_counter()
        snap = truth_solve(self.problem, mu)
        self.truth_seconds += time.perf_counter() - start
        return snap

    def accept(self, model: ReducedModel, snap: TruthSolution, idx: int) -> None:
        """Extend the basis with ``snap``; a cdm run keeps the factorizations
        of its first ``CDM_ANCHORS`` accepted snapshots as anchors."""
        extend_basis(model, snap, idx)
        if self.config.method == "cdm" and len(self.anchors) < CDM_ANCHORS:
            self.anchors.append(snap.factorization)

    def sweep(
        self,
        model: ReducedModel,
        trace: GreedyTrace,
        outer_loop: int,
        domain: Optional[list[int]] = None,
    ) -> tuple[SweepResult, IterationRecord]:
        """Run one full (``domain`` omitted) or surrogate sweep and record it."""
        kind = "global" if domain is None else "surrogate"
        result = argmax_sweep(
            model,
            self.problem,
            self.train,
            domain=domain,
            kind=kind,
            workers=self.config.workers,
            systems=self.systems,
        )
        record = IterationRecord(
            n=model.n,
            sweep_kind=kind,
            outer_loop=outer_loop,
            delta_max=result.delta_max,
            sweep_size=self.train.n_train if domain is None else len(domain),
            chosen_index=None,
            cum_estimator_evals=self.problem.counters.estimator_evals,
            wall_ms=self.wall_ms(),
        )
        trace.iterations.append(record)
        return result, record

    def build_surrogate(self, model: ReducedModel, budget: int, sweep: SweepResult) -> list[int]:
        """Surrogate domain of one round, without already excluded indices."""
        start = time.perf_counter()
        config = self.config
        if config.method == "smm":
            picked = smm_construct(sweep.field, config.eps_tol, budget)
        else:
            self.offline = cdm_build_offline(model, self.problem, self.anchors, self.offline)
            picked = cdm_construct(model, self.offline, self.systems, budget)
        self.surrogate_seconds += time.perf_counter() - start
        return [int(i) for i in picked if int(i) not in self.excluded]

    def extend_from_sweep(
        self, model: ReducedModel, field: np.ndarray, record: IterationRecord
    ) -> Optional[int]:
        """Extend at the best admissible index of an estimate field.

        Rejected snapshots are excluded and the next-best index is tried
        against the same (still valid) estimates.  On success the sweep's
        record gets the chosen index and its reproduction-check
        estimate; returns the extended index, or None when every candidate
        is exhausted.
        """
        while True:
            idx = _argmax_excluding(field, self.excluded)
            if idx is None:
                return None
            mu = self.train.points[idx]
            snap = self.solve_snapshot(mu)
            self.excluded.add(idx)
            try:
                self.accept(model, snap, idx)
            except BasisRejectionError:
                self.skipped.append(idx)
                continue
            record.post_extension_delta = error_estimate(model, self.problem, mu, kind="check")
            record.chosen_index = idx
            record.wall_ms = self.wall_ms()
            record.cum_estimator_evals = self.problem.counters.estimator_evals
            return idx

    def finish(self, model: ReducedModel, trace: GreedyTrace) -> GreedyTrace:
        trace.n_final = model.n
        trace.wall_ms_total = self.wall_ms()
        trace.wall_ms_truth = self.truth_seconds * 1000.0
        trace.wall_ms_surrogate_build = self.surrogate_seconds * 1000.0
        trace.counters = self.problem.counters.snapshot()
        trace.skipped_indices = list(self.skipped)
        return trace


def _seed_model(state: _RunState) -> tuple[ReducedModel, GreedyTrace]:
    config = state.config
    model = ReducedModel(state.problem)
    rng = np.random.default_rng(config.seed)
    first = int(rng.integers(state.train.n_train))
    snap = state.solve_snapshot(state.train.points[first])
    state.accept(model, snap, first)
    state.excluded.add(first)
    trace = GreedyTrace(
        method=config.method, seed=config.seed, eps_tol=config.eps_tol, seed_index=first
    )
    return model, trace


def run_greedy(
    problem: AffineProblem, train: TrainingSet, config: GreedyConfig
) -> tuple[ReducedModel, GreedyTrace]:
    """Certified greedy of the configured method (see the module docstring).

    Classical rounds record ``outer_loop=0`` and no ``OuterLoopRecord``.
    """
    if train.n_train == 0:
        raise ConfigurationError("training set is empty")
    state = _RunState(problem, train, config)
    model, trace = _seed_model(state)
    enhanced = config.method != "classical"
    ell = 0

    while model.n < config.n_max:
        ell += 1
        sweep, record = state.sweep(model, trace, ell if enhanced else 0)
        e_ell = sweep.delta_max
        trace.final_delta_max = e_ell
        if e_ell <= config.eps_tol:
            trace.certified = True
            break
        if not enhanced:
            if state.extend_from_sweep(model, sweep.field, record) is None:
                break
            continue

        m_ell = config.budget(ell)
        pending = state.build_surrogate(model, m_ell, sweep)
        outer = OuterLoopRecord(ell, e_ell, m_ell, len(pending), 0, model.n)
        trace.outer_loops.append(outer)
        chosen = state.extend_from_sweep(model, sweep.field, record)
        if chosen is None:
            break
        pending = [i for i in pending if i != chosen]

        eps = e_ell
        threshold = e_ell / (config.k_damp * (ell + 1))
        while eps > config.eps_tol and eps > threshold and model.n < config.n_max and pending:
            ssweep, srecord = state.sweep(model, trace, ell, pending)
            eps = ssweep.delta_max
            if eps <= config.eps_tol:
                break
            inner = state.extend_from_sweep(model, ssweep.field, srecord)
            pending = [i for i in pending if i not in state.excluded]
            if inner is None:
                break
            outer.n_added_inner += 1
        outer.basis_size_after = model.n
    return model, state.finish(model, trace)
