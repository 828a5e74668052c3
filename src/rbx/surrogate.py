"""Surrogate parameter-domain construction for the enhanced greedy loops.

Two constructors are provided.  The slow-margin constructor picks, for each
of a ladder of error levels between the tolerance and the current worst
estimate, the training point whose estimate sits closest above that level.
The pivoting constructor builds a cheap approximation of the truth error
vector at every training point out of a few cached operator inverses, as a
short coordinate vector in an X-orthonormal basis of the cached vectors,
and runs a pivoted Cholesky factorization of the error Gramian so that the
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

from .affine import AffineProblem, evaluate_theta_batch, rhs_scale_batch
from .counters import Counters
from .errors import ConfigurationError, NumericalFailureError
from .reduced import ReducedModel, augmented_weights, orthonormal_fold, reduced_solve_batch
from .truth import apply_operator_inverse

PIVOT_DROP_RTOL = 1e-12
GENERATOR_RTOL = 1e-12
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
    """X-orthonormal factor of the cached anchor-operator inverses.

    For anchor m the generator columns are A_m^-1 f followed, for every
    basis vector xi_j and component k (j-major), by -A_m^-1 A_k xi_j: the
    anchor inverse applied to the load and to the basis-image terms of the
    Galerkin residual.  They are stored as ``basis @ coords[m]``, where
    ``basis`` is X-orthonormal and ``coords[m]`` holds their coordinates
    (rows: basis vectors).  Columns grow with every extension and anchors up
    to the cap; both updates reuse the cached anchor factorizations and fold
    the new columns into ``basis`` by two-pass Gram-Schmidt.
    ``anchor_positions`` records which snapshots the surviving anchors
    correspond to (anchors whose operator fails to factorize are dropped
    with a warning).
    """

    q_cap: int
    basis: np.ndarray
    coords: np.ndarray
    anchor_positions: list[int] = field(default_factory=list)
    anchor_mus: list[np.ndarray] = field(default_factory=list)
    n_basis: int = 0
    next_position: int = 0

    @property
    def q_used(self) -> int:
        return len(self.anchor_positions)


def _component_images(problem: AffineProblem, vectors: np.ndarray) -> np.ndarray:
    """Columns -A_k v_j for all block columns j and components k, j-major."""
    images = np.stack([np.asarray(aq @ vectors) for aq in problem.components], axis=2)
    return -images.reshape(problem.n_dof, -1)


def cdm_build_offline(
    model: ReducedModel,
    problem: AffineProblem,
    q_cap: int = 5,
    offline: Optional[CdmOfflineData] = None,
) -> CdmOfflineData:
    """Create or incrementally grow the generator factor.

    Anchor candidates are the first ``min(q_cap, n)`` snapshots in selection
    order.  A basis extension costs one multi-column backsolve per surviving
    anchor; a new anchor costs one factorization plus its full column block.
    """
    disc = problem.discretization
    qa = problem.n_terms
    n = model.n
    if offline is None:
        offline = CdmOfflineData(
            q_cap=q_cap, basis=np.zeros((problem.n_dof, 0)), coords=np.zeros((0, 0, 1))
        )

    def fold(columns: np.ndarray) -> np.ndarray:
        offline.basis, coords = orthonormal_fold(disc, offline.basis, columns, GENERATOR_RTOL)
        return coords

    parts = [[c] for c in offline.coords]
    if offline.q_used and n > offline.n_basis:
        images = _component_images(problem, model.basis[:, offline.n_basis : n])
        for m, (pos, mu) in enumerate(zip(offline.anchor_positions, offline.anchor_mus)):
            sol = apply_operator_inverse(problem, mu, images, cache_key=("cdm", pos), keep=True)
            parts[m].append(fold(sol))

    q_target = min(offline.q_cap, n)
    if q_target > offline.next_position:
        block = np.concatenate(
            [problem.rhs[:, None], _component_images(problem, model.basis[:, :n])], axis=1
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
            parts.append([fold(sol)])
            offline.anchor_positions.append(pos)
            offline.anchor_mus.append(np.array(mu))
        offline.next_position = q_target

    # earlier coordinates are zero on the basis vectors added after them
    coords = np.zeros((len(parts), offline.basis.shape[1], 1 + n * qa))
    for m, blocks in enumerate(parts):
        col = 0
        for c in blocks:
            coords[m, : c.shape[0], col : col + c.shape[1]] = c
            col += c.shape[1]
    offline.coords = coords
    offline.n_basis = n
    return offline


def _anchor_weights(
    model: ReducedModel, offline: CdmOfflineData, thetas: np.ndarray, scales: np.ndarray
) -> np.ndarray:
    """Snapshot weights of the anchors in the anchor-space reduced solves.

    Solves in the span of the leading snapshots up to the last anchor and
    inverts the stored upper-triangular change of basis, so that the weights
    are the solution's coefficients over the raw snapshots (a unit vector at
    an anchor's own parameter).
    """
    q_solve = offline.anchor_positions[-1] + 1
    cq = reduced_solve_batch(model, thetas, scales, n=q_solve)
    r = model.snapshot_in_basis[:q_solve, :q_solve]
    beta = scipy.linalg.solve_triangular(r, cq.T, lower=False).T
    return beta[:, offline.anchor_positions]


def approx_error_coords(
    model: ReducedModel,
    offline: CdmOfflineData,
    thetas: np.ndarray,
    scales: np.ndarray,
    coeffs: np.ndarray,
) -> np.ndarray:
    """Coordinates in ``offline.basis`` of the approximate truth errors.

    Row i approximates the error of the reduced solution ``coeffs[i]`` at
    the parameter of ``thetas[i]``/``scales[i]`` as a blend of the anchor
    inverses applied to its Galerkin residual, weighted by an anchor-space
    reduced solve (so the blend is exact at anchor parameters).  The truth
    vector is ``offline.basis @ row`` and its X-norm the row's 2-norm.
    """
    w = augmented_weights(thetas, scales, coeffs)
    beta = _anchor_weights(model, offline, thetas, scales)
    y = np.zeros((w.shape[0], offline.basis.shape[1]))
    for m in range(offline.q_used):
        y += beta[:, m, None] * (w @ offline.coords[m, :, : w.shape[1]].T)
    model.counters.approx_error_evals += w.shape[0]
    return y


def cdm_construct(
    model: ReducedModel,
    problem: AffineProblem,
    offline: CdmOfflineData,
    train_points: np.ndarray,
    budget: int,
    coeffs: Optional[np.ndarray] = None,
    thetas: Optional[np.ndarray] = None,
    scales: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pick up to ``budget`` training indices by error-direction pivoting.

    Every training point's approximate error is a short coordinate vector y
    in the X-orthonormal generator basis, so error norms are ||y|| and the
    error Gramian is Y Y^T, positive semidefinite by construction.  Points
    whose error norm falls below the floor are discarded and the survivors'
    Gramian is pivoted column by column.  It keeps the squared error norms
    on its diagonal, so pivots balance error magnitude against directional
    novelty, which makes the surrogate domains rich in badly-approximated
    points.

    Passing the sweep byproducts ``coeffs``, ``thetas`` and ``scales`` skips
    the reduced re-solves.
    """
    if offline.q_used == 0 or budget == 0:
        return np.zeros(0, dtype=int)
    mus = np.asarray(train_points, dtype=float)
    if mus.shape[0] == 0:
        return np.zeros(0, dtype=int)
    if thetas is None:
        thetas = evaluate_theta_batch(problem, mus)
    if scales is None:
        scales = rhs_scale_batch(problem, mus)
    if coeffs is None:
        coeffs = reduced_solve_batch(model, thetas, scales)

    y = approx_error_coords(model, offline, thetas, scales, coeffs)
    norm_sq = np.einsum("br,br->b", y, y)
    norms = np.sqrt(norm_sq)
    floor = max(NORM_FLOOR_ABS, NORM_FLOOR_RTOL * float(norms.max(initial=0.0)))
    admissible = np.flatnonzero(norms > floor)
    if admissible.size == 0:
        return np.zeros(0, dtype=int)
    ya = y[admissible]
    pivots, _ = pivoted_cholesky(
        lambda j: ya @ ya[j], norm_sq[admissible], max_steps=budget, counters=model.counters
    )
    return admissible[pivots]
