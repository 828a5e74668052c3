"""Surrogate parameter-domain construction for the enhanced greedy loops.

Two constructors are provided.  The slow-margin constructor picks, for each
of a ladder of error levels between the tolerance and the current worst
estimate, the training point whose estimate sits closest above that level.
The pivoting constructor builds a cheap approximation of the truth error
vector at every training point out of a few cached operator inverses and
runs a pivoted Cholesky factorization of the error Gramian so that the
pivots enumerate training points whose errors are large and mutually
independent.

Both return plain arrays of training-set indices; the greedy driver calls
one of them once per outer round, on the data of that round's full sweep,
and drops indices that already entered the basis.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .affine import (
    AffineProblem,
    evaluate_theta,
    evaluate_theta_batch,
    rhs_scale,
    rhs_scale_batch,
)
from .counters import Counters
from .errors import ConfigurationError, NumericalFailureError
from .reduced import ReducedModel, ReducedSolution, reduced_solve, reduced_solve_batch
from .truth import apply_operator_inverse

PIVOT_DROP_RTOL = 1e-12
NORM_FLOOR_ABS = 1e-14
NORM_FLOOR_RTOL = 1e-10


# ---------------------------------------------------------------------------
# slow-margin selection


def smm_construct(delta_values, eps_tol: float, budget: int) -> np.ndarray:
    """Pick up to ``budget`` training indices straddling error levels.

    Levels are spaced between ``eps_tol`` and the maximum estimate; for each
    level the admissible points are those at or above it, and the one with
    the smallest margin wins.  Ties go to the lowest index.  Duplicates
    across levels collapse, so fewer than ``budget`` indices can return.
    """
    deltas = np.asarray(delta_values, dtype=float)
    if budget < 0:
        raise ConfigurationError(f"surrogate budget must be nonnegative, got {budget}")
    if budget == 0 or deltas.size == 0:
        return np.zeros(0, dtype=int)
    delta_max = float(deltas.max())
    if delta_max <= eps_tol:
        return np.zeros(0, dtype=int)
    levels = eps_tol + (delta_max - eps_tol) * np.arange(budget) / budget
    chosen: list[int] = []
    seen: set[int] = set()
    for nu in levels:
        admissible = np.flatnonzero(deltas >= nu)
        if admissible.size == 0:
            continue
        j = int(admissible[np.argmin(deltas[admissible] - nu)])
        if j not in seen:
            seen.add(j)
            chosen.append(j)
    return np.asarray(chosen, dtype=int)


# ---------------------------------------------------------------------------
# pivoted Cholesky


def pivoted_cholesky(
    column: Callable[[int], np.ndarray],
    diag: np.ndarray,
    max_steps: int,
    drop_tol: float = PIVOT_DROP_RTOL,
    counters: Optional[Counters] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy low-rank Cholesky of a PSD matrix given by a column oracle.

    ``diag`` is the matrix diagonal; ``column(j)`` returns full column j.
    Pivots maximize the updated diagonal, first index winning ties, and the
    sweep stops at ``max_steps`` or when the largest updated diagonal falls
    to ``drop_tol`` times the largest initial one.  Returns the pivot order
    and the computed factor columns (n, k).
    """
    d = np.array(diag, dtype=float)
    n = d.size
    init_max = float(d.max()) if n else 0.0
    threshold = drop_tol * init_max
    pivots: list[int] = []
    cols: list[np.ndarray] = []
    for _ in range(min(max_steps, n)):
        j = int(np.argmax(d))
        if init_max <= 0.0 or d[j] <= threshold:
            break
        c = np.array(column(j), dtype=float)
        for l in cols:
            c -= l[j] * l
        l_new = c / np.sqrt(d[j])
        d -= l_new * l_new
        if np.any(d < -threshold):
            warnings.warn(
                "pivoted Cholesky hit negative updated diagonal entries; "
                "the input matrix is not numerically positive semidefinite",
                RuntimeWarning,
            )
        np.maximum(d, 0.0, out=d)
        d[j] = 0.0
        pivots.append(j)
        cols.append(l_new)
        if counters is not None:
            counters.pivoted_cholesky_steps += 1
    l_mat = np.column_stack(cols) if cols else np.zeros((n, 0))
    return np.asarray(pivots, dtype=int), l_mat


# ---------------------------------------------------------------------------
# cached-inverse error approximation


@dataclass
class CdmOfflineData:
    """Cached anchor-operator inverses applied to load and snapshot images.

    ``inv_f[m]`` holds the anchor-m operator inverse applied to the load;
    ``inv_components[m, k, j]`` holds it applied to component k acting on
    the raw (un-orthonormalized) snapshot j.  Anchor rows grow with the
    basis up to the cap, snapshot columns grow with every extension; both
    updates reuse the cached anchor factorizations.  ``anchor_positions``
    records which snapshots the surviving anchors correspond to (anchors
    whose operator fails to factorize are dropped with a warning).
    """

    q_cap: int
    anchor_positions: list[int] = field(default_factory=list)
    anchor_mus: list[np.ndarray] = field(default_factory=list)
    inv_f: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    inv_components: np.ndarray = field(default_factory=lambda: np.zeros((0, 0, 0, 0)))
    next_position: int = 0

    @property
    def q_used(self) -> int:
        return len(self.anchor_positions)

    @property
    def n_basis(self) -> int:
        return self.inv_components.shape[2]


def _component_image_block(problem: AffineProblem, vectors: np.ndarray) -> np.ndarray:
    """Columns A_k v_j for all components and block columns, k-major."""
    return np.concatenate([np.asarray(aq @ vectors) for aq in problem.components], axis=1)


def _raw_snapshots(model: ReducedModel, start: int, stop: int) -> np.ndarray:
    """Reconstruct stored snapshots (pre-orthonormalization) as columns."""
    return model.basis @ model.snapshot_in_basis[:, start:stop]


def cdm_build_offline(
    model: ReducedModel,
    problem: AffineProblem,
    q_cap: int = 5,
    offline: Optional[CdmOfflineData] = None,
) -> CdmOfflineData:
    """Create or incrementally grow the cached-inverse tensors.

    Anchor candidates are the first ``min(q_cap, n)`` snapshots in selection
    order.  A basis extension costs one multi-column backsolve per surviving
    anchor; a new anchor costs one factorization plus its full column block.
    """
    if offline is None:
        offline = CdmOfflineData(q_cap=q_cap)
    n = model.n
    nd = problem.n_dof
    qa = problem.n_terms

    n_old = offline.n_basis
    q_old = offline.q_used
    if q_old and n > n_old:
        block = _component_image_block(problem, _raw_snapshots(model, n_old, n))
        grown = np.empty((q_old, qa, n, nd))
        grown[:, :, :n_old, :] = offline.inv_components
        for m, (pos, mu) in enumerate(zip(offline.anchor_positions, offline.anchor_mus)):
            sol = apply_operator_inverse(problem, mu, block, cache_key=("cdm", pos), keep=True)
            grown[m, :, n_old:, :] = sol.T.reshape(qa, n - n_old, nd)
        offline.inv_components = grown

    q_target = min(offline.q_cap, n)
    if q_target > offline.next_position:
        block = np.concatenate(
            [problem.rhs[:, None], _component_image_block(problem, _raw_snapshots(model, 0, n))],
            axis=1,
        )
        for pos in range(offline.next_position, q_target):
            mu = model.snapshot_params[pos]
            try:
                sol = apply_operator_inverse(problem, mu, block, cache_key=("cdm", pos), keep=True)
            except NumericalFailureError as exc:
                warnings.warn(
                    f"anchor operator at snapshot {pos} failed to factorize "
                    f"({exc}); continuing with fewer anchors",
                    RuntimeWarning,
                )
                continue
            comp = sol[:, 1:].T.reshape(1, qa, n, nd)
            if offline.q_used:
                offline.inv_f = np.concatenate([offline.inv_f, sol[None, :, 0]], axis=0)
                offline.inv_components = np.concatenate([offline.inv_components, comp], axis=0)
            else:
                offline.inv_f = sol[None, :, 0].copy()
                offline.inv_components = comp.copy()
            offline.anchor_positions.append(pos)
            offline.anchor_mus.append(np.array(mu))
        offline.next_position = q_target
    return offline


def _lagrange_weights(model: ReducedModel, coeffs: np.ndarray, n: int) -> np.ndarray:
    """Convert orthonormal-basis coefficients to snapshot-basis weights.

    The stored upper-triangular change of basis maps snapshot combinations
    to orthonormal coordinates; inverting its leading block expresses a
    reduced solution over the first ``n`` raw snapshots.
    """
    r = model.snapshot_in_basis[:n, :n]
    if coeffs.ndim == 1:
        return scipy.linalg.solve_triangular(r, coeffs[:n], lower=False)
    return scipy.linalg.solve_triangular(r, coeffs[:, :n].T, lower=False).T


def _anchor_weights(
    model: ReducedModel, offline: CdmOfflineData, thetas: np.ndarray, scales: np.ndarray
) -> np.ndarray:
    """Snapshot-basis weights of the anchor-space reduced solves (batch)."""
    q_solve = offline.anchor_positions[-1] + 1
    cq = reduced_solve_batch(model, thetas, scales, n=q_solve)
    beta = _lagrange_weights(model, cq, q_solve)
    return beta[:, offline.anchor_positions]


def cdm_approx_error(
    model: ReducedModel,
    offline: CdmOfflineData,
    mu,
    sol: Optional[ReducedSolution] = None,
) -> np.ndarray:
    """Approximate truth error vector at one parameter from cached inverses.

    The anchor inverses are blended with the weights of a small reduced
    solve in the anchor snapshots' span (so the blend is exact at anchor
    parameters), then applied to the Galerkin residual of the full reduced
    solution, all without touching a truth-sized solver.
    """
    problem = model.problem
    if offline.q_used == 0:
        raise ConfigurationError("no anchors cached yet")
    if sol is None:
        sol = reduced_solve(model, mu)
    theta = evaluate_theta(problem, mu)
    scale = rhs_scale(problem, mu)
    beta_q = _anchor_weights(model, offline, theta[None, :], np.array([scale]))[0]
    beta_n = _lagrange_weights(model, sol.coeffs, sol.n)
    err = scale * (beta_q @ offline.inv_f)
    err -= np.einsum(
        "m,k,j,mkjd->d",
        beta_q,
        theta,
        beta_n,
        offline.inv_components[:, :, : sol.n, :],
    )
    model.counters.approx_error_evals += 1
    return err


def cdm_construct(
    model: ReducedModel,
    problem: AffineProblem,
    offline: CdmOfflineData,
    train_points: np.ndarray,
    budget: int,
    coeffs: Optional[np.ndarray] = None,
    thetas: Optional[np.ndarray] = None,
    scales: Optional[np.ndarray] = None,
    memory_cap_bytes: int = 1 << 30,
) -> np.ndarray:
    """Pick up to ``budget`` training indices by error-direction pivoting.

    Approximate error vectors for every training point are formed as one
    weighted combination of the cached inverse columns; points whose error
    norm falls below the floor are discarded and the survivors' Gramian is
    pivoted without ever being materialized.  The Gramian keeps the squared
    error norms on its diagonal, so pivots balance error magnitude against
    directional novelty, which makes the surrogate domains rich in
    badly-approximated points.

    Passing the sweep byproducts ``coeffs``, ``thetas`` and ``scales`` skips
    the reduced re-solves.  When the error block would exceed
    ``memory_cap_bytes`` it is never formed; Gramian columns then come from
    the small cross-Gramian of the cached vectors.
    """
    if offline.q_used == 0 or budget == 0:
        return np.zeros(0, dtype=int)
    mus = np.asarray(train_points, dtype=float)
    b = mus.shape[0]
    if b == 0:
        return np.zeros(0, dtype=int)
    if thetas is None:
        thetas = evaluate_theta_batch(problem, mus)
    if scales is None:
        scales = rhs_scale_batch(problem, mus)
    if coeffs is None:
        coeffs = reduced_solve_batch(model, thetas, scales)
    n = coeffs.shape[1]
    q = offline.q_used
    qa = problem.n_terms
    nd = problem.n_dof

    beta_q = _anchor_weights(model, offline, thetas, scales)
    beta_n = _lagrange_weights(model, coeffs, n)
    w_f = beta_q * scales[:, None]
    w_c = -(
        beta_q[:, :, None, None]
        * thetas[:, None, :, None]
        * beta_n[:, None, None, :]
    ).reshape(b, q * qa * n)
    weights = np.concatenate([w_f, w_c], axis=1)  # (b, d), d = q(1 + qa n)
    gen = np.concatenate(
        [offline.inv_f, offline.inv_components[:, :, :n, :].reshape(q * qa * n, nd)],
        axis=0,
    )
    model.counters.approx_error_evals += b

    disc = problem.discretization
    # Two ways to reach the Gramian columns: materialize the (nd, b) error
    # block, or contract through the small cross-Gramian of the generator
    # rows.  Per training point the block path costs about nd*d plus one
    # inner-product apply, the contracted path d*d; pick the cheaper one
    # that fits the memory cap (the contracted path never stores an
    # (nd, b) array, so it is also the fallback under memory pressure).
    x_cost = (
        problem.x_inner.nnz if sp.issparse(problem.x_inner) else nd * nd
    )
    d = weights.shape[1]
    in_memory = (
        2 * nd * b * 8 <= memory_cap_bytes and nd * d + x_cost < d * d
    )
    if in_memory:
        err_block = gen.T @ weights.T  # (nd, b)
        x_err = np.asarray(disc.x_apply(err_block))
        norm_sq = np.maximum(np.einsum("db,db->b", err_block, x_err), 0.0)
    else:
        x_gen = np.asarray(disc.x_apply(gen.T)).T
        gen_gram = gen @ x_gen.T
        gen_gram = 0.5 * (gen_gram + gen_gram.T)
        half = weights @ gen_gram  # (b, d)
        norm_sq = np.maximum(np.einsum("bd,bd->b", half, weights), 0.0)
    norms = np.sqrt(norm_sq)
    floor = max(NORM_FLOOR_ABS, NORM_FLOOR_RTOL * float(norms.max(initial=0.0)))
    admissible = np.flatnonzero(norms > floor)
    if admissible.size == 0:
        return np.zeros(0, dtype=int)

    if in_memory:
        nb = err_block[:, admissible]
        xnb = x_err[:, admissible]

        def column(j: int) -> np.ndarray:
            return nb.T @ xnb[:, j]

    else:
        wn = weights[admissible]
        half_n = wn @ gen_gram

        def column(j: int) -> np.ndarray:
            return half_n @ wn[j]

    pivots, _ = pivoted_cholesky(
        column, norm_sq[admissible], max_steps=budget, counters=model.counters
    )
    return admissible[pivots]
