"""Surrogate parameter-domain construction for the enhanced greedy loops.

Two constructors are provided.  The slow-margin constructor picks, for each
of a ladder of error levels between the tolerance and the current worst
estimate, the training point whose estimate sits closest above that level.
The pivoting constructor builds a cheap approximation of the truth error
vector at every candidate point out of a few anchor operator inverses, as a
short coordinate vector in a ``reduced.GeneratorFactor`` whose solvers are
those inverses, and runs a pivoted Cholesky factorization of the error
Gramian so that the pivots enumerate candidates whose errors are large and
mutually independent.

Both return plain arrays of training-set indices; the greedy driver calls
one of them once per outer round, on the data of that round's full sweep,
and drops indices that already entered the basis or were rejected.  cdm's
candidates are the points that sweep left above the tolerance; smm's level
ladder starts at the tolerance.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from .affine import AffineProblem
from .errors import ConfigurationError
from .reduced import (
    SWEEP_TILE,
    GeneratorFactor,
    ReducedModel,
    TrainingSystems,
    augmented_weights,
    check_points,
    reduced_solve_batch,
)
from .truth import apply_operator_inverse

PIVOT_DROP_RTOL = 1e-12
GENERATOR_RTOL = 1e-9
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
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy low-rank Cholesky of a PSD matrix given by a column oracle.

    ``diag`` is the matrix diagonal; ``column(j)`` returns full column j.
    Pivots maximize the updated diagonal, first index winning ties, and the
    sweep stops at ``max_steps`` or when the largest updated diagonal falls
    to ``PIVOT_DROP_RTOL`` times the largest initial one.  Each step updates
    the new column with one product against the earlier factor rows of a
    preallocated (max_steps, n) buffer.  Returns the pivot order and the
    factor columns (n, k), a view of that buffer; callers count the steps.
    """
    d = np.array(diag, dtype=float)
    n = d.size
    init_max = float(d.max()) if n else 0.0
    threshold = PIVOT_DROP_RTOL * init_max
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
    return np.asarray(pivots, dtype=int), lbuf[: len(pivots)].T


# ---------------------------------------------------------------------------
# anchor-inverse error approximation


def cdm_build_offline(
    model: ReducedModel,
    problem: AffineProblem,
    factor: GeneratorFactor,
    anchors: list[Callable],
) -> None:
    """Grow ``factor`` to the model's basis, with the anchor solves ``anchors`` as its solvers."""
    solvers = [lambda b, s=solve: apply_operator_inverse(problem, s, b) for solve in anchors]
    factor.grow(problem, model.basis, solvers)


def approx_error_coords(
    model: ReducedModel,
    factor: GeneratorFactor,
    thetas: np.ndarray,
    scales: np.ndarray,
    coeffs: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Coordinates in ``factor.basis`` of the approximate truth errors.

    Row k approximates the error of the reduced solution ``coeffs[i]`` at the
    parameter of ``thetas[i]``/``scales[i]``, with i = ``rows[k]``, as a
    blend of the anchor inverses applied to its Galerkin residual.  The blend weights are the
    snapshot coefficients of a reduced solve in the span of the anchors'
    snapshots (the stored upper-triangular change of basis inverted), so the
    blend is exact at anchor parameters.  The truth vector is
    ``factor.basis @ row`` and its X-norm the row's 2-norm.

    The rows are blended in tiles of ``SWEEP_TILE`` points straight into the
    one returned array; a tile's residual weights, anchor solves and product
    buffer are all it allocates, whatever the number of points.
    """
    q = factor.coords.shape[0]
    b = len(rows)
    upper = model.snapshot_in_basis[:q, :q]
    y = np.zeros((b, factor.basis.shape[1]))
    for start in range(0, b, SWEEP_TILE):
        sl = slice(start, start + SWEEP_TILE)
        pick = rows[sl]
        th, sc = thetas[pick], scales[pick]
        w = augmented_weights(th, sc, coeffs[pick])
        cq = reduced_solve_batch(model, th, sc, q)
        beta = np.linalg.solve(upper, cq.T).T
        block = y[sl]
        term = np.empty_like(block)
        for m in range(q):
            out = block if m == 0 else term
            np.matmul(w, factor.coords[m, :, : w.shape[1]].T, out=out)
            out *= beta[:, m, None]
            if m:
                block += term
        model.counters.reduced_solves += len(block)
        model.counters.approx_error_evals += len(block)
    return y


def cdm_construct(
    model: ReducedModel,
    factor: GeneratorFactor,
    systems: TrainingSystems,
    budget: int,
    candidates: np.ndarray,
) -> np.ndarray:
    """Pick up to ``budget`` of the training indices ``candidates`` by
    error-direction pivoting.

    The greedy passes the points its latest full sweep left above the
    tolerance, the ones still to resolve.  Every candidate's approximate
    error is a short coordinate vector y in the X-orthonormal generator
    basis, so error norms are ||y|| and the error Gramian is Y Y^T, positive
    semidefinite by construction.  Candidates whose error norm falls below
    the floor (relative to the largest candidate norm) get a zero row and a
    zero diagonal, so they can never be a pivot, and the Gramian is pivoted
    column by column on Y where it lies.  It keeps the squared error norms
    on its diagonal, so pivots balance error magnitude against directional
    novelty, which makes the surrogate domains rich in badly-approximated
    points.  Besides Y (c x r_V for c candidates) the build holds only the
    pivot factor (budget x c) and ``approx_error_coords``' tile temporaries.

    The errors are those of the reduced solutions that the latest full
    sweep (``estimate_batch``) left on ``systems.coeffs`` at the model's
    current basis size.  A non-finite error norm raises
    ``NumericalFailureError`` naming the training index of the first such
    candidate.
    """
    if factor.coords.shape[0] == 0 or budget == 0:
        return np.zeros(0, dtype=int)
    if systems.coeffs is None or systems.coeffs.shape[1] != model.n:
        raise ConfigurationError("cdm_construct needs a full sweep at the current basis size")
    candidates = np.asarray(candidates, dtype=int)
    if candidates.size == 0:
        return candidates
    y = approx_error_coords(
        model, factor, systems.thetas, systems.scales, systems.coeffs, candidates
    )
    norm_sq = np.einsum("br,br->b", y, y)
    norms = np.sqrt(norm_sq)
    failed = ~np.isfinite(norms)
    check_points("non-finite approximate error norm", norms, failed, systems.points, candidates)
    floor = max(NORM_FLOOR_ABS, NORM_FLOOR_RTOL * float(norms.max()))
    below = norms <= floor
    if below.all():
        return np.zeros(0, dtype=int)
    y[below] = 0.0
    norm_sq[below] = 0.0
    pivots, _ = pivoted_cholesky(lambda j: y @ y[j], norm_sq, max_steps=budget)
    model.counters.pivoted_cholesky_steps += len(pivots)
    return candidates[pivots]
