"""Offline greedy drivers.

``classical_greedy`` repeats full training-set sweeps, extending the basis
at the worst-estimated parameter until the estimate field drops below the
tolerance everywhere or the basis cap is reached.

``surrogate_enhanced_greedy`` wraps the same machinery in a two-level loop:
each outer round performs one certifying full sweep, extends at its argmax,
builds a small surrogate subset of the training set from the sweep's data,
and then keeps extending inside that subset while the worst surrogate
estimate stays above both the tolerance and a shrinking fraction of the
round's full-sweep maximum.  Termination is decided only by full sweeps, so
the certificate always covers the whole training set.

Counting conventions: every full sweep evaluates the estimator at every
training point (selection skips previously chosen or rejected indices, the
evaluation does not); surrogate sweeps evaluate exactly their current
domain; each post-seed extension is followed by one reproduction-check
evaluation at the chosen parameter, recorded in its own counter bucket.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .affine import AffineProblem, TrainingSet
from .errors import BasisRejectionError, ConfigurationError, NumericalFailureError
from .reduced import (
    ReducedModel,
    error_estimate,
    estimate_batch,
    extend_basis,
)
from .surrogate import CdmOfflineData, cdm_build_offline, cdm_construct, smm_construct
from .truth import truth_solve

DEFAULT_SMM_BUDGET_GROWTH = 2
DEFAULT_CDM_BUDGET_GROWTH = 20
_METHODS = ("classical", "smm", "cdm")


@dataclass
class GreedyConfig:
    """Knobs for one greedy run.

    ``m_schedule`` maps the outer-loop count to the surrogate budget; when
    omitted, the budget grows linearly with the loop count at a per-method
    default rate.  ``k_damp`` scales how far below the full-sweep maximum
    the inner loop must push the surrogate estimates before handing control
    back to the next full sweep.
    """

    eps_tol: float
    n_max: int = 100
    method: str = "classical"
    k_damp: int = 1
    m_schedule: Optional[Callable[[int], int]] = None
    seed: int = 0
    cdm_q_cap: int = 5
    sweep_chunk: int = 4096
    workers: int = 1
    cdm_memory_cap_bytes: int = 1 << 30

    def __post_init__(self) -> None:
        if not self.eps_tol > 0:
            raise ConfigurationError(f"eps_tol must be positive, got {self.eps_tol}")
        if self.n_max < 1:
            raise ConfigurationError(f"n_max must be at least 1, got {self.n_max}")
        if self.method not in _METHODS:
            raise ConfigurationError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.k_damp < 1:
            raise ConfigurationError(f"k_damp must be at least 1, got {self.k_damp}")
        if self.cdm_q_cap < 1:
            raise ConfigurationError(f"cdm_q_cap must be at least 1, got {self.cdm_q_cap}")
        if self.sweep_chunk < 1:
            raise ConfigurationError(f"sweep_chunk must be at least 1, got {self.sweep_chunk}")
        if self.workers < 1:
            raise ConfigurationError(f"workers must be at least 1, got {self.workers}")

    def budget(self, ell: int) -> int:
        if self.m_schedule is not None:
            m = int(self.m_schedule(ell))
        else:
            growth = (
                DEFAULT_SMM_BUDGET_GROWTH
                if self.method == "smm"
                else DEFAULT_CDM_BUDGET_GROWTH
            )
            m = growth * (ell + 1)
        if m < 1:
            raise ConfigurationError(f"surrogate budget schedule returned {m} at loop {ell}")
        return m


@dataclass
class IterationRecord:
    """One sweep: where it looked, what it found, what it extended with."""

    n: int  # basis size when the sweep ran
    sweep_kind: str  # "global" or "surrogate"
    outer_loop: int  # 0 for classical runs
    delta_max: float
    sweep_size: int
    chosen_index: Optional[int]
    chosen_mu: Optional[np.ndarray]
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
    index: Optional[int]  # training index of the selectable argmax
    delta_max: float  # maximum over everything swept
    deltas: np.ndarray  # estimates in domain order
    coeffs: np.ndarray
    thetas: np.ndarray
    scales: np.ndarray
    domain: Optional[np.ndarray]


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
    excluded: Optional[set[int]] = None,
    kind: str = "other",
    chunk: int = 4096,
    workers: int = 1,
) -> SweepResult:
    """Estimate over a sweep domain, returning the selectable argmax.

    ``domain`` is a list of training indices (the whole set when omitted).
    Every domain point is evaluated; ``excluded`` indices only lose their
    eligibility for selection.  ``delta_max`` is the maximum over the whole
    swept domain, which is what a termination certificate needs.  Ties in
    selection go to the earliest domain position.  A non-finite estimate
    raises ``NumericalFailureError`` naming the first such parameter.
    """
    excluded = excluded or set()
    if domain is None:
        points = train.points
    else:
        domain = np.asarray(domain, dtype=int)
        points = train.points[domain]
    if points.shape[0] == 0:
        raise ConfigurationError("cannot sweep an empty domain")
    deltas, coeffs, thetas, scales = estimate_batch(
        model, problem, points, chunk=chunk, kind=kind, return_coeffs=True, workers=workers
    )
    bad = np.flatnonzero(~np.isfinite(deltas))
    if bad.size:
        j = int(bad[0])
        index = j if domain is None else int(domain[j])
        raise NumericalFailureError(
            f"non-finite estimate {deltas[j]} at training index {index}, mu = {points[j]}"
        )
    if domain is None:
        scattered = deltas
    else:
        scattered = np.full(train.n_train, -np.inf)
        scattered[domain] = deltas
    idx = _argmax_excluding(scattered, excluded)
    return SweepResult(
        index=idx,
        delta_max=float(deltas.max()),
        deltas=deltas,
        coeffs=coeffs,
        thetas=thetas,
        scales=scales,
        domain=domain,
    )


class _RunState:
    """Timers and bookkeeping shared by both drivers."""

    def __init__(self, problem: AffineProblem, train: TrainingSet, config: GreedyConfig):
        problem.counters.reset()
        self.problem = problem
        self.train = train
        self.config = config
        self.excluded: set[int] = set()
        self.skipped: list[int] = []
        self.truth_seconds = 0.0
        self.surrogate_seconds = 0.0
        self.t0 = time.perf_counter()

    def wall_ms(self) -> float:
        return (time.perf_counter() - self.t0) * 1000.0

    def solve_snapshot(self, mu: np.ndarray):
        start = time.perf_counter()
        snap = truth_solve(self.problem, mu)
        self.truth_seconds += time.perf_counter() - start
        return snap

    def extend_from_sweep(
        self, model: ReducedModel, scattered: np.ndarray
    ) -> tuple[Optional[int], Optional[float]]:
        """Extend at the best admissible index of an estimate field.

        Rejected snapshots are excluded and the next-best index is tried
        against the same (still valid) estimates.  Returns the extended
        index and its reproduction-check estimate, or (None, None) when
        every candidate is exhausted.
        """
        while True:
            idx = _argmax_excluding(scattered, self.excluded)
            if idx is None:
                return None, None
            mu = self.train.points[idx]
            snap = self.solve_snapshot(mu)
            try:
                extend_basis(model, snap, idx)
            except BasisRejectionError:
                self.excluded.add(idx)
                self.skipped.append(idx)
                continue
            self.excluded.add(idx)
            check = error_estimate(model, self.problem, mu, kind="check")
            return idx, check

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
    extend_basis(model, snap, first)
    state.excluded.add(first)
    trace = GreedyTrace(
        method=config.method, seed=config.seed, eps_tol=config.eps_tol, seed_index=first
    )
    return model, trace


def classical_greedy(
    problem: AffineProblem, train: TrainingSet, config: GreedyConfig
) -> tuple[ReducedModel, GreedyTrace]:
    """Full-sweep greedy: one training-set sweep per basis extension."""
    if config.method != "classical":
        raise ConfigurationError(f"classical driver got method {config.method!r}")
    if train.n_train == 0:
        raise ConfigurationError("training set is empty")
    state = _RunState(problem, train, config)
    model, trace = _seed_model(state)

    while model.n < config.n_max:
        sweep = argmax_sweep(
            model,
            problem,
            train,
            kind="global",
            chunk=config.sweep_chunk,
            workers=config.workers,
        )
        record = IterationRecord(
            n=model.n,
            sweep_kind="global",
            outer_loop=0,
            delta_max=sweep.delta_max,
            sweep_size=train.n_train,
            chosen_index=None,
            chosen_mu=None,
            cum_estimator_evals=problem.counters.estimator_evals,
            wall_ms=state.wall_ms(),
        )
        trace.iterations.append(record)
        trace.final_delta_max = sweep.delta_max
        if sweep.delta_max <= config.eps_tol:
            trace.certified = True
            break
        idx, check = state.extend_from_sweep(model, sweep.deltas)
        if idx is None:
            break
        record.chosen_index = idx
        record.chosen_mu = np.array(train.points[idx])
        record.post_extension_delta = check
        record.wall_ms = state.wall_ms()
        record.cum_estimator_evals = problem.counters.estimator_evals
    return model, state.finish(model, trace)


def surrogate_enhanced_greedy(
    problem: AffineProblem,
    train: TrainingSet,
    config: GreedyConfig,
    spd_constructor: Optional[Callable] = None,
) -> tuple[ReducedModel, GreedyTrace]:
    """Two-level greedy alternating full sweeps with surrogate-set sweeps.

    ``spd_constructor(model, problem, train, config, ell, budget, sweep)``
    may override the built-in surrogate construction; it must return an
    array of training indices.  The built-in dispatch follows
    ``config.method``.
    """
    if config.method not in ("smm", "cdm"):
        raise ConfigurationError(f"enhanced driver got method {config.method!r}")
    if train.n_train == 0:
        raise ConfigurationError("training set is empty")
    state = _RunState(problem, train, config)
    model, trace = _seed_model(state)
    offline: Optional[CdmOfflineData] = None
    ell = 0

    def build_surrogate(budget: int, sweep: SweepResult) -> np.ndarray:
        nonlocal offline
        if spd_constructor is not None:
            return np.asarray(
                spd_constructor(model, problem, train, config, ell, budget, sweep), dtype=int
            )
        if config.method == "smm":
            return smm_construct(sweep.deltas, config.eps_tol, budget)
        offline = cdm_build_offline(model, problem, q_cap=config.cdm_q_cap, offline=offline)
        return cdm_construct(
            model,
            problem,
            offline,
            train.points,
            budget,
            coeffs=sweep.coeffs,
            thetas=sweep.thetas,
            scales=sweep.scales,
            memory_cap_bytes=config.cdm_memory_cap_bytes,
        )

    while model.n < config.n_max:
        ell += 1
        sweep = argmax_sweep(
            model,
            problem,
            train,
            kind="global",
            chunk=config.sweep_chunk,
            workers=config.workers,
        )
        e_ell = sweep.delta_max
        eps = e_ell
        record = IterationRecord(
            n=model.n,
            sweep_kind="global",
            outer_loop=ell,
            delta_max=e_ell,
            sweep_size=train.n_train,
            chosen_index=None,
            chosen_mu=None,
            cum_estimator_evals=problem.counters.estimator_evals,
            wall_ms=state.wall_ms(),
        )
        trace.iterations.append(record)
        trace.final_delta_max = e_ell
        if e_ell <= config.eps_tol:
            trace.certified = True
            break

        m_ell = config.budget(ell)
        t_build = time.perf_counter()
        surrogate = build_surrogate(m_ell, sweep)
        state.surrogate_seconds += time.perf_counter() - t_build
        pending = [int(i) for i in surrogate if int(i) not in state.excluded]
        surrogate_size = len(pending)

        idx, check = state.extend_from_sweep(model, sweep.deltas)
        if idx is None:
            trace.outer_loops.append(
                OuterLoopRecord(ell, e_ell, m_ell, surrogate_size, 0, model.n)
            )
            break
        record.chosen_index = idx
        record.chosen_mu = np.array(train.points[idx])
        record.post_extension_delta = check
        record.wall_ms = state.wall_ms()
        record.cum_estimator_evals = problem.counters.estimator_evals
        pending = [i for i in pending if i != idx]

        added_inner = 0
        threshold = e_ell / (config.k_damp * (ell + 1))
        while (
            eps > config.eps_tol
            and eps > threshold
            and model.n < config.n_max
            and pending
        ):
            ssweep = argmax_sweep(
                model,
                problem,
                train,
                domain=np.asarray(pending, dtype=int),
                excluded=state.excluded,
                kind="surrogate",
                chunk=config.sweep_chunk,
                workers=config.workers,
            )
            eps = ssweep.delta_max
            srecord = IterationRecord(
                n=model.n,
                sweep_kind="surrogate",
                outer_loop=ell,
                delta_max=eps,
                sweep_size=len(pending),
                chosen_index=None,
                chosen_mu=None,
                cum_estimator_evals=problem.counters.estimator_evals,
                wall_ms=state.wall_ms(),
            )
            trace.iterations.append(srecord)
            if eps <= config.eps_tol:
                break
            scattered = np.full(train.n_train, -np.inf)
            scattered[np.asarray(pending, dtype=int)] = ssweep.deltas
            inner_idx, inner_check = state.extend_from_sweep(model, scattered)
            pending = [i for i in pending if i not in state.excluded]
            if inner_idx is None:
                break
            added_inner += 1
            srecord.chosen_index = inner_idx
            srecord.chosen_mu = np.array(train.points[inner_idx])
            srecord.post_extension_delta = inner_check
            srecord.wall_ms = state.wall_ms()
            srecord.cum_estimator_evals = problem.counters.estimator_evals

        trace.outer_loops.append(
            OuterLoopRecord(ell, e_ell, m_ell, surrogate_size, added_inner, model.n)
        )
    return model, state.finish(model, trace)


def run_greedy(
    problem: AffineProblem, train: TrainingSet, config: GreedyConfig
) -> tuple[ReducedModel, GreedyTrace]:
    """Dispatch on the configured method."""
    if config.method == "classical":
        return classical_greedy(problem, train, config)
    return surrogate_enhanced_greedy(problem, train, config)


def surrogate_acceptance_ratio(trace: GreedyTrace) -> list[tuple[int, float]]:
    """Per-outer-loop ratio of inner extensions to the surrogate budget."""
    return [(rec.ell, rec.sar) for rec in trace.outer_loops]
