"""Surrogate parameter-domain construction for the enhanced greedy loops.

Two constructors are provided.  The slow-margin constructor picks, for each
of a ladder of error levels between the tolerance and the current worst
estimate, the training point whose estimate sits closest above that level.
The pivoting constructor builds a cheap approximation of the truth error
vector at every training point out of a few anchor operator inverses, as a
short coordinate vector in an X-orthonormal basis of those inverses' columns,
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

from .affine import AffineProblem
from .counters import Counters
from .errors import ConfigurationError, NumericalFailureError
from .reduced import (
    ReducedModel,
    TrainingSystems,
    augmented_weights,
    orthonormal_fold,
    reduced_solve_batch,
)
from .truth import Factorization, apply_operator_inverse, operator_factorization

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
    to ``drop_tol`` times the largest initial one.  Each step updates the
    new column with one product against the earlier factor rows of a
    preallocated (max_steps, n) buffer.  Returns the pivot order and the
    factor columns (n, k), a view of that buffer.
    """
    d = np.array(diag, dtype=float)
    n = d.size
    init_max = float(d.max()) if n else 0.0
    threshold = drop_tol * init_max
    pivots: list[int] = []
    lbuf = np.empty((min(max_steps, n), n))  # row k: factor column k
    for k in range(lbuf.shape[0]):
        j = int(np.argmax(d))
        if init_max <= 0.0 or d[j] <= threshold:
            break
        l_new = lbuf[k]
        l_new[:] = column(j)
        l_new -= lbuf[:k, j] @ lbuf[:k]
        l_new /= np.sqrt(d[j])
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
        if counters is not None:
            counters.pivoted_cholesky_steps += 1
    return np.asarray(pivots, dtype=int), lbuf[: len(pivots)].T


# ---------------------------------------------------------------------------
# anchor-inverse error approximation


@dataclass
class CdmOfflineData:
    """X-orthonormal factor of the anchor-operator inverses.

    For anchor m the generator columns are A_m^-1 f followed, for every
    basis vector xi_j and component k (j-major), by -A_m^-1 A_k xi_j: the
    anchor inverse applied to the load and to the basis-image terms of the
    Galerkin residual.  They are stored as ``basis @ coords[m]``, where
    ``basis`` is X-orthonormal and ``coords[m]`` holds their coordinates
    (rows: basis vectors).  Anchor m sits at snapshot
    ``anchor_positions[m]`` and keeps the factorization of its operator in
    ``factorizations[m]``; anchors whose operator fails to factorize are
    dropped with a warning.  The data belongs to one run and is grown by
    ``cdm_build_offline`` only.
    """

    q_cap: int
    basis: np.ndarray
    coords: np.ndarray
    anchor_positions: list[int] = field(default_factory=list)
    factorizations: list[Factorization] = field(default_factory=list)
    n_basis: int = 0
    next_position: int = 0

    @property
    def q_used(self) -> int:
        return len(self.anchor_positions)


def cdm_build_offline(
    model: ReducedModel,
    problem: AffineProblem,
    q_cap: int = 5,
    offline: Optional[CdmOfflineData] = None,
) -> CdmOfflineData:
    """Create or incrementally grow the generator factor.

    Anchor candidates are the first ``min(q_cap, n)`` snapshots in selection
    order.  One loop visits the existing anchors and then the new ones; each
    solves, through its own factorization, only the generator columns it
    lacks (a new anchor all of them, an existing one those of the basis
    vectors added since the last call) and folds them into ``basis`` with
    ``orthonormal_fold``.
    """
    qa = problem.n_terms
    n = model.n
    if offline is None:
        offline = CdmOfflineData(
            q_cap=q_cap, basis=np.zeros((problem.n_dof, 0)), coords=np.zeros((0, 0, 1))
        )
    # (snapshot position, factorization, basis vectors already seen)
    anchors = [
        (pos, fact, offline.n_basis)
        for pos, fact in zip(offline.anchor_positions, offline.factorizations)
    ]
    new = range(offline.next_position, min(offline.q_cap, n))
    anchors += [(pos, None, 0) for pos in new]
    offline.next_position = max(offline.next_position, new.stop)

    blocks: dict[int, np.ndarray] = {}

    def generator_columns(seen: int) -> np.ndarray:
        """f (when ``seen`` is 0), then -A_k xi_j for j >= ``seen`` and every k, j-major."""
        if seen not in blocks:
            images = np.stack(
                [np.asarray(aq @ model.basis[:, seen:n]) for aq in problem.components], axis=2
            )
            images = -images.reshape(problem.n_dof, -1)
            if seen == 0:
                images = np.concatenate([problem.rhs[:, None], images], axis=1)
            blocks[seen] = images
        return blocks[seen]

    folded = []  # (anchor, first generator column, coordinates)
    for pos, fact, seen in anchors:
        if fact is None:
            try:
                fact = operator_factorization(problem, model.snapshot_params[pos])
            except NumericalFailureError as exc:
                warnings.warn(
                    f"anchor operator at snapshot {pos} failed to factorize "
                    f"({exc}); continuing with fewer anchors",
                    RuntimeWarning,
                )
                continue
            offline.anchor_positions.append(pos)
            offline.factorizations.append(fact)
        if seen < n:
            sol = apply_operator_inverse(problem, fact, generator_columns(seen))
            offline.basis, c = orthonormal_fold(
                problem.discretization, offline.basis, sol, GENERATOR_RTOL
            )
            folded.append((offline.anchor_positions.index(pos), 1 + seen * qa if seen else 0, c))

    # earlier coordinates are zero on the basis vectors added after them
    coords = np.zeros((offline.q_used, offline.basis.shape[1], 1 + n * qa))
    old = offline.coords
    coords[: old.shape[0], : old.shape[1], : old.shape[2]] = old
    for m, col, c in folded:
        coords[m, : c.shape[0], col : col + c.shape[1]] = c
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
    weights: np.ndarray,
) -> np.ndarray:
    """Coordinates in ``offline.basis`` of the approximate truth errors.

    Row i approximates the error of the reduced solution whose Galerkin
    residual has the weights ``weights[i]`` (``augmented_weights``) at the
    parameter of ``thetas[i]``/``scales[i]`` as a blend of the anchor
    inverses applied to that residual, weighted by an anchor-space reduced
    solve (so the blend is exact at anchor parameters).  The truth vector is
    ``offline.basis @ row`` and its X-norm the row's 2-norm.
    """
    w = weights
    beta = _anchor_weights(model, offline, thetas, scales)
    y = np.zeros((w.shape[0], offline.basis.shape[1]))
    term = np.empty_like(y)
    for m in range(offline.q_used):
        np.matmul(w, offline.coords[m, :, : w.shape[1]].T, out=term)
        term *= beta[:, m, None]
        y += term
    model.counters.approx_error_evals += w.shape[0]
    return y


def cdm_construct(
    model: ReducedModel, offline: CdmOfflineData, systems: TrainingSystems, budget: int
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

    The errors are those of the reduced solutions that the latest full
    sweep (``estimate_batch``) left on ``systems.coeffs`` at the model's
    current basis size.  A non-finite error norm raises
    ``NumericalFailureError`` naming the first such training point.
    """
    if offline.q_used == 0 or budget == 0:
        return np.zeros(0, dtype=int)
    if systems.coeffs is None or systems.coeffs.shape[1] != model.n:
        raise ConfigurationError("cdm_construct needs a full sweep at the current basis size")
    weights = augmented_weights(systems.thetas, systems.scales, systems.coeffs)
    y = approx_error_coords(model, offline, systems.thetas, systems.scales, weights)
    norm_sq = np.einsum("br,br->b", y, y)
    norms = np.sqrt(norm_sq)
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        j = int(bad[0])
        raise NumericalFailureError(
            f"non-finite approximate error norm {norms[j]} at training index {j}, "
            f"mu = {systems.points[j]}"
        )
    floor = max(NORM_FLOOR_ABS, NORM_FLOOR_RTOL * float(norms.max(initial=0.0)))
    admissible = np.flatnonzero(norms > floor)
    if admissible.size == 0:
        return np.zeros(0, dtype=int)
    ya = y[admissible]
    pivots, _ = pivoted_cholesky(
        lambda j: ya @ ya[j], norm_sq[admissible], max_steps=budget, counters=model.counters
    )
    return admissible[pivots]
