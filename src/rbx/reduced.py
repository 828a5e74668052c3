"""Reduced model: Galerkin projection, residual algebra, error estimator.

The residual dual norm has one route.  The model keeps a
``GeneratorFactor`` with X^-1 as its one solver (cdm's anchor-inverse
factor is another): an X-orthonormal basis of the Riesz representers of the
load and of the basis-image functionals -A_q xi_m, with their coordinates,
and evaluates the dual norm as the plain Euclidean norm of coordinates @
weights.  That costs O((N Q_a)^2) per parameter and stays accurate down to
machine-level residuals, where the expanded Gramian quadratic form would
lose half its digits to cancellation.

All arithmetic is float64.  The sweep kernels run on fixed blocks of
``DEFAULT_CHUNK`` points, and single-point calls are a batch of one through
them.  Within a block, ``reduced_solve_batch`` assembles and solves the
reduced systems in tiles of ``SOLVE_TILE`` points, so a block never stores
all its reduced matrices at once, and ``residual_norm_sq_batch`` forms the
residual weights, coordinates and norms in tiles of ``SWEEP_TILE`` points,
so a block holds no block-sized temporary.  The full sweeps of a greedy run
on a symmetric problem instead back-substitute through per-point Cholesky
factors that ``TrainingSystems`` grows with the basis; both agree to 1e-12
of the empty-basis estimate.  A single-point solve or estimate that comes
out non-finite raises ``NumericalFailureError`` naming the parameter.
"""

from __future__ import annotations

import math
import mmap
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .affine import AffineProblem, checked_shape, evaluate_theta_batch, rhs_scale_batch
from .errors import BasisRejectionError, InvalidParameterError, NumericalFailureError
from .truth import TruthDiscretization, TruthSolution, riesz_solve

REJECTION_RTOL = 1e-10
RESIDUAL_BASIS_RTOL = 1e-12
DEFAULT_CHUNK = 4096
# points per assembled-and-solved tile of reduced systems: at N = 67 one
# tile's matrices take 2.3 MB, a 4096-point block's 147 MB
SOLVE_TILE = 64
# points per tile of a row-wise sweep kernel (residual norms, cdm's blend): at
# N = 80, Q = 9 a tile's weights and residual coordinates take 5.8 MB, a
# 4096-point block's 46 MB; a few hundred rows keep the GEMM at full speed
SWEEP_TILE = 512


@dataclass
class ReducedSolution:
    """Reduced coefficients at the checked parameter ``mu``, with the row that
    ``reduced_solve`` evaluated there (coefficients ``theta`` (Q,), load
    ``scale``), which the residual reuses: a query evaluates it once."""

    mu: np.ndarray
    coeffs: np.ndarray
    theta: np.ndarray
    scale: float

    @property
    def n(self) -> int:
        return self.coeffs.size


class ReducedModel:
    """Growing Galerkin reduced model over an X-orthonormal snapshot basis.

    All arrays live on free truth DoFs.  Basis vectors are appended only;
    the model with N vectors contains every smaller model as leading
    principal blocks, which the truncation argument ``n`` of the solve and
    estimate routines exploits.
    """

    def __init__(self, problem: AffineProblem):
        self.problem = problem
        self.disc = problem.discretization
        self.counters = self.disc.counters
        n_dof = problem.n_dof
        q = problem.n_terms

        self.basis = np.zeros((n_dof, 0))
        self.snapshot_params: list[np.ndarray] = []
        self.snapshot_indices: list[Optional[int]] = []
        self.snapshot_in_basis = np.zeros((0, 0))  # upper triangular

        self.reduced_components = np.zeros((q, 0, 0))
        self.reduced_rhs = np.zeros(0)
        self.reduced_output = np.zeros(0)

        # the Riesz representers of the generator columns [f, -A_q xi_m]
        self.residual = GeneratorFactor(n_dof, RESIDUAL_BASIS_RTOL)
        self.residual.grow(problem, self.basis, [self._riesz])
        if self.residual.basis.shape[1] == 0:
            raise NumericalFailureError("load functional has zero dual norm")

    def _riesz(self, functionals: np.ndarray) -> np.ndarray:
        return riesz_solve(self.disc, functionals)

    # -- sizes ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.basis.shape[1]


def orthonormal_fold(disc: TruthDiscretization, basis, vectors, rtol: float):
    """Fold the columns of ``vectors`` as one block into an X-orthonormal basis.

    Block classical Gram-Schmidt with reorthogonalization (Barlow &
    Smoktunowicz, 2013): two block passes against ``basis``, one X product
    each, then a two-pass fold of each column against the block's accepted
    columns, whose X-images are kept from their norm computations.  A
    column's remainder joins when its X-norm exceeds ``rtol`` times the
    column's.  If an accepted column lost more than half its squared norm to
    the block, the accepted columns are projected once more against
    ``basis`` and re-normalized by a Cholesky QR of their X-Gram.  Returns
    the grown basis and the coordinates of every column in it (rows: grown
    basis, columns: ``vectors``), so that ``vectors`` equals ``basis @
    coords`` up to the dropped remainders.
    """
    k0, m = basis.shape[1], vectors.shape[1]
    v = np.array(vectors.T, dtype=float, order="C")  # rows: block columns
    coords = np.zeros((k0 + m, m))
    for _ in range(2 if k0 else 0):
        # (X V)^T B, not B^T (X V): about 3x faster for a tall basis, thin block
        h = (disc.x_inner @ v.T).T @ basis
        v -= h @ basis.T
        coords[:k0] += h.T
    q, xq, kept, loss = np.empty_like(v), np.empty_like(v), 0, False
    for j in range(m):
        c = coords[k0 : k0 + kept, j]
        for _ in range(2 if kept else 0):
            h = xq[:kept] @ v[j]
            v[j] -= h @ q[:kept]
            c += h
        xv = disc.x_inner @ v[j]
        nrm = math.sqrt(max(float(np.dot(v[j], xv)), 0.0))
        if nrm > rtol * math.hypot(float(np.linalg.norm(coords[: k0 + kept, j])), nrm):
            loss |= nrm < float(np.linalg.norm(c))
            q[kept], xq[kept] = v[j] / nrm, xv / nrm
            coords[k0 + kept, j] = nrm
            kept += 1
    q, xq = q[:kept], xq[:kept]
    if loss:
        h = xq @ basis
        q -= h @ basis.T
        # the kept images give the X-Gram: basis is X-orthogonal to the new q
        r = np.linalg.cholesky(0.5 * (q @ xq.T + xq @ q.T)).T
        q = scipy.linalg.solve_triangular(r, q, trans="T")
        # q @ coords rebuilds the block after the first passes, which is
        # X-orthogonal to basis: the projection moves no basis coordinate
        coords[k0 : k0 + kept] = r @ coords[k0 : k0 + kept]
    return np.concatenate([basis, q.T], axis=1), coords[: k0 + kept]


class GeneratorFactor:
    """X-orthonormal factor of the generator columns under a list of solvers.

    The generator columns of a reduced basis xi_1..xi_N are the load f
    followed, for every basis vector xi_j and component k (j-major), by
    -A_k xi_j: the terms of the Galerkin residual.  Solver m maps a block of
    such columns to truth vectors (X^-1 for the residual's Riesz
    representers, an anchor inverse A_m^-1 for cdm), and its images are
    stored as ``basis @ coords[m]`` with ``basis`` X-orthonormal.  ``coords``
    has the shape (solvers folded, basis width, 1 + N Q); earlier
    coordinates are zero on the basis vectors added after them.
    """

    def __init__(self, n_dof: int, rtol: float):
        self.rtol = rtol
        self.basis = np.zeros((n_dof, 0))
        self.coords = np.zeros((0, 0, 1))

    def grow(self, problem: AffineProblem, basis: np.ndarray, solvers) -> None:
        """Fold the generator columns of ``basis`` that each of ``solvers`` lacks.

        The solvers are visited in order: the first ``coords.shape[0]`` were
        folded before and lack the columns of the basis vectors added since,
        a new one lacks them all.  Each solves its missing columns and folds
        them with ``orthonormal_fold`` at ``rtol``; when nothing is missing
        nothing is solved.  The columns -A_k xi_j are formed here from
        ``basis``, once per call for solvers that lack the same columns.
        """
        qa, n = problem.n_terms, basis.shape[1]
        folded_solvers, _, width = self.coords.shape
        blocks: dict[int, np.ndarray] = {}

        def columns(first: int) -> np.ndarray:
            """Generator columns ``first`` onwards: f when ``first`` is 0, then -A_k xi_j."""
            if first not in blocks:
                seen = max(first - 1, 0) // qa
                block = -np.stack(
                    [np.asarray(aq @ basis[:, seen:]) for aq in problem.components], axis=2
                ).reshape(problem.n_dof, -1)
                if first == 0:
                    block = np.concatenate([problem.rhs[:, None], block], axis=1)
                blocks[first] = block
            return blocks[first]

        folded = []  # (solver, first generator column, coordinates)
        for m, solve in enumerate(solvers):
            first = width if m < folded_solvers else 0
            if first < 1 + n * qa:
                self.basis, c = orthonormal_fold(
                    problem.discretization, self.basis, solve(columns(first)), self.rtol
                )
                folded.append((m, first, c))

        coords = np.zeros((len(solvers), self.basis.shape[1], 1 + n * qa))
        old = self.coords
        coords[: old.shape[0], : old.shape[1], : old.shape[2]] = old
        for m, first, c in folded:
            coords[m, : c.shape[0], first : first + c.shape[1]] = c
        self.coords = coords


def extend_basis(model: ReducedModel, snapshot: TruthSolution, train_index=None) -> ReducedModel:
    """Append one snapshot to the basis, updating every reduced quantity.

    The snapshot is folded into the basis as a block of one by
    ``orthonormal_fold``.  Raises ``BasisRejectionError`` when the fold
    drops it as numerically dependent on the current basis (remainder norm
    at most ``REJECTION_RTOL`` times the snapshot norm).
    """
    problem = model.problem
    n_old = model.n
    q = problem.n_terms

    u = np.asarray(snapshot.coefficients, dtype=float)
    basis_new, coords = orthonormal_fold(model.disc, model.basis, u[:, None], REJECTION_RTOL)
    if basis_new.shape[1] == n_old:
        raise BasisRejectionError("snapshot is zero or numerically dependent on the basis")
    xi = np.ascontiguousarray(basis_new[:, n_old])

    # snapshot coordinates: u = basis_new @ coords
    r_new = np.zeros((n_old + 1, n_old + 1))
    r_new[:n_old, :n_old] = model.snapshot_in_basis
    r_new[:, n_old] = coords[:, 0]
    model.snapshot_in_basis = r_new
    model.snapshot_params.append(np.asarray(snapshot.mu, dtype=float))
    model.snapshot_indices.append(train_index)

    # Galerkin blocks; nonsymmetric components also need A^T xi for the new row
    comps = np.zeros((q, n_old + 1, n_old + 1))
    comps[:, :n_old, :n_old] = model.reduced_components
    for k, aq in enumerate(problem.components):
        av = aq @ xi
        comps[k, :, n_old] = basis_new.T @ av
        if problem.symmetric:
            comps[k, n_old, :] = comps[k, :, n_old]
        else:
            comps[k, n_old, :] = basis_new.T @ (aq.T @ xi)
        comps[k, n_old, n_old] = float(np.dot(xi, av))
    model.reduced_components = comps
    model.reduced_rhs = np.append(model.reduced_rhs, float(np.dot(problem.rhs, xi)))
    model.reduced_output = np.append(model.reduced_output, float(np.dot(problem.output, xi)))
    model.basis = basis_new
    model.residual.grow(problem, basis_new, [model._riesz])
    return model


# ---------------------------------------------------------------------------
# solves and outputs


def _rows(problem: AffineProblem, mus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parameter rows checked against the box, with their coefficients and load scales."""
    mus = problem.box.validate_rows(mus)
    return mus, evaluate_theta_batch(problem, mus), rhs_scale_batch(problem, mus)


def _truncation(model: ReducedModel, n: Optional[int]) -> int:
    """The truncation size ``n`` (the whole basis when None), checked against the basis."""
    n = model.n if n is None else int(n)
    if not 0 <= n <= model.n:
        raise ValueError(f"truncation size {n} out of range")
    return n


def check_points(what: str, values, failed, points, indices=None) -> None:
    """Raise ``NumericalFailureError`` at the first row j where ``failed`` holds, naming
    its value, its training index i (``indices[j]`` when given, else j) and its mu,
    ``points[i]`` of the training set ``points``."""
    bad = np.flatnonzero(failed)
    if bad.size:
        j = int(bad[0])
        i = j if indices is None else int(indices[j])
        raise NumericalFailureError(f"{what} {values[j]} at training index {i}, mu = {points[i]}")


def _coercivity(problem: AffineProblem, mus: np.ndarray) -> np.ndarray:
    """The coercivity bounds (b,) of the checked rows ``mus``."""
    bound = problem.coercivity.lower_bound_batch(problem, mus)
    return checked_shape("lower_bound_batch", bound, (mus.shape[0],))


def _false_coercivity(alphas: np.ndarray) -> np.ndarray:
    """A bound <= 0 or +inf certifies nothing; NaN is left to the estimate it makes."""
    return (alphas <= 0) | (alphas == np.inf)


def reduced_solve(model: ReducedModel, mu, n: Optional[int] = None) -> ReducedSolution:
    """Galerkin solve in the leading ``n``-dimensional reduced space, as a batch of one:
    a single-point query's one box check and evaluation of its row."""
    mus, thetas, scales = _rows(model.problem, np.asarray(mu, dtype=float)[None])
    mu = mus[0]
    n = _truncation(model, n)
    model.counters.reduced_solves += 1
    try:
        coeffs = reduced_solve_batch(model, thetas, scales, n)[0]
    except NumericalFailureError as exc:
        raise NumericalFailureError(f"{exc} at mu = {mu}", exc.condition_estimate) from exc
    if not np.isfinite(coeffs).all():
        raise NumericalFailureError(f"non-finite reduced coefficients at mu = {mu}")
    return ReducedSolution(mu, coeffs, thetas[0], scales[0])


def reconstruct(model: ReducedModel, sol: ReducedSolution) -> np.ndarray:
    """Lift reduced coefficients back to the truth space."""
    n = sol.n
    return model.basis[:, :n] @ sol.coeffs


def reduced_output(model: ReducedModel, sol: ReducedSolution) -> float:
    return float(np.dot(model.reduced_output[: sol.n], sol.coeffs))


# ---------------------------------------------------------------------------
# residual dual norm


def residual_dual_norm_sq(model: ReducedModel, sol: ReducedSolution) -> float:
    """Squared dual norm of the Galerkin residual of ``sol``: ``residual_norm_sq_batch``
    on the row ``sol`` was solved with, so it checks and evaluates nothing."""
    thetas, scales = sol.theta[None], np.atleast_1d(sol.scale)
    return float(residual_norm_sq_batch(model, thetas, scales, sol.coeffs[None])[0])


def error_estimate(
    model: ReducedModel,
    problem: AffineProblem,
    mu,
    sol: Optional[ReducedSolution] = None,
    kind: str = "other",
) -> float:
    """Certified bound sqrt(residual dual norm^2) / coercivity bound on ``sol``'s row
    (``reduced_solve``'s when omitted; a ``sol`` solved at another mu raises
    ``InvalidParameterError``); the bound is checked before the division."""
    if sol is None:
        sol = reduced_solve(model, mu)
    elif not np.array_equal(sol.mu, np.asarray(mu, dtype=float)):
        raise InvalidParameterError(f"sol was solved at {sol.mu}, not at mu = {mu}")
    model.counters.count_estimates(1, kind)
    alphas = _coercivity(problem, sol.mu[None])
    if _false_coercivity(alphas)[0]:
        raise NumericalFailureError(f"coercivity bound {alphas[0]} at mu = {sol.mu}")
    delta = float(np.sqrt(residual_dual_norm_sq(model, sol)) / alphas[0])
    if not math.isfinite(delta):
        raise NumericalFailureError(f"non-finite error estimate {delta} at mu = {sol.mu}")
    return delta


# ---------------------------------------------------------------------------
# vectorized sweeps


def reduced_solve_batch(
    model: ReducedModel, thetas: np.ndarray, scales: np.ndarray, n: int
) -> np.ndarray:
    """Batched Galerkin solves in the leading ``n``-dimensional space; rows
    index parameters.  Counts nothing: callers count their reduced solves.

    Tiles of ``SOLVE_TILE`` points are assembled and solved in turn; both
    kernels work point by point, so no solution depends on the tiling.  A
    singular system raises ``NumericalFailureError`` with its tile's largest
    condition number.
    """
    out = np.empty((thetas.shape[0], n))
    if n == 0:
        return out
    comps, rhs = model.reduced_components[:, :n, :n], model.reduced_rhs[None, :n]
    for start in range(0, thetas.shape[0], SOLVE_TILE):
        sl = slice(start, start + SOLVE_TILE)
        mats = np.einsum("iq,qmn->imn", thetas[sl], comps)
        try:
            out[sl] = np.linalg.solve(mats, (scales[sl, None] * rhs)[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            cond = float(np.max(np.linalg.cond(mats)))
            raise NumericalFailureError(f"singular reduced system: {exc}", cond)
    return out


def augmented_weights(thetas: np.ndarray, scales: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Rows [s, c_1 theta, ..., c_n theta]: the weights of the load and of the
    basis-image terms -A_q xi_j in the Galerkin residual."""
    (b, n), q = coeffs.shape, thetas.shape[1]
    w = np.empty((b, 1 + n * q))
    w[:, 0] = scales
    np.einsum("ij,iq->ijq", coeffs, thetas, out=w[:, 1:].reshape(b, n, q))
    return w


def residual_norm_sq_batch(
    model: ReducedModel, thetas: np.ndarray, scales: np.ndarray, coeffs: np.ndarray
) -> np.ndarray:
    """Squared residual dual norms (b,) of the reduced solutions ``coeffs``
    (rows: points, n columns) at the coefficients ``thetas`` and load scales
    ``scales`` of their points.

    Entry i is ||R w_i||^2, with w_i the augmented weights of point i and R the
    first 1 + n Q columns of the residual coordinates.  Tiles of
    ``SWEEP_TILE`` points form their weights, coordinates and norms in turn
    and write their slice of the output, so the (b,) output is the only
    array whose size follows b.
    """
    b, n = coeffs.shape
    coords = model.residual.coords[0, :, : 1 + n * thetas.shape[1]]
    out = np.empty(b)
    for start in range(0, b, SWEEP_TILE):
        sl = slice(start, start + SWEEP_TILE)
        z = augmented_weights(thetas[sl], scales[sl], coeffs[sl]) @ coords.T
        out[sl] = np.einsum("ij,ij->i", z, z)
        del z  # else it outlives the next tile's weights
    return out


class CholeskyRows:
    """Per-point Cholesky factors L_i L_i^T = M_i of the reduced matrices.

    Row k of every factor (the entries L_i[k, :k+1] for all b points) is one
    contiguous (k + 1, b) block, allocated with its (b,) row of ``z`` when a
    sweep first borders it (``allocate``), so the factor holds
    b N (N + 1) / 2 floats at basis size N.  ``z`` keeps the forward-
    substituted loads L_i^{-1} s_i f, so a solve only back-substitutes.
    Every kernel works point by point, with elementwise operations and
    per-point contractions, so a point's factor does not depend on how the
    points are chunked or threaded, nor on the BLAS.
    """

    def __init__(self, n_points: int):
        self.b = n_points
        self.rows = 0
        self._rows: list[np.ndarray] = []
        self._z: list[np.ndarray] = []

    def allocate(self, n: int) -> None:
        """Allocate the rows below ``n`` that no earlier call allocated."""
        for k in range(len(self._rows), n):
            # own memory map: rows on the malloc heap fragment it (tb-classical peak RSS +12-30%)
            try:
                buf = mmap.mmap(-1, 8 * max((k + 1) * self.b, 1))
            except OSError as exc:  # numpy reports a refused allocation as MemoryError
                raise MemoryError(f"cannot map factor row {k}: {exc}") from exc
            self._rows.append(np.frombuffer(buf)[: (k + 1) * self.b].reshape(k + 1, self.b))
            self._z.append(np.empty(self.b))

    def border(
        self, model: ReducedModel, thetas: np.ndarray, scales: np.ndarray, n: int, sl: slice
    ) -> np.ndarray:
        """Write rows ``rows .. n-1`` of the points ``sl``; return their smallest pivots.

        Left-looking by columns: column j of the new rows is their entry of
        M minus the dot products with row j, divided by L[j, j].  Below the
        old rows that is one forward substitution with every new column as a
        right-hand side; on the new rows it is the Cholesky factorization of
        the Schur complement, each column in two per-point contractions
        (``einsum``).  Pivots are the squared diagonal entries; the rows are
        only valid where every pivot is positive, and must be allocated.
        """
        k0, p, b = self.rows, n - self.rows, thetas.shape[0]
        comps = model.reduced_components
        # th[q] = theta_q and x[l, m] = L[k0 + m, l]; acc[m] collects the load
        # of new row k0 + m.  A spare point keeps the q and l strides off one
        # element, where einsum sums in another order (a block of one point).
        th = np.empty((thetas.shape[1], b + 1))[:, :b]
        th[:] = thetas.T
        x = np.empty((n, p, b + 1))[:, :, :b]
        acc = scales * model.reduced_rhs[k0:n, None]
        tmp = np.empty((p, b))
        pivots = np.full(b, np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(n):
                m0 = max(0, j - k0)
                col = x[j, m0:]
                np.einsum("qm,qb->mb", comps[:, j, k0 + m0 : n], th, out=col)
                row_j = self._rows[j][:, sl] if j < k0 else x[: j + 1, j - k0]
                col -= np.einsum("lmb,lb->mb", x[:j, m0:], row_j[:j])
                if j < k0:
                    col /= row_j[j]
                    z_j = self._z[j][sl]
                else:
                    np.minimum(pivots, col[0], out=pivots)
                    np.sqrt(col[0], out=col[0])
                    col[1:] /= col[0]
                    z_j = self._z[j][sl] = acc[m0] / col[0]
                if j + 1 < n:
                    m1 = m0 + (j >= k0)
                    np.multiply(x[j, m1:], z_j, out=tmp[: p - m1])
                    acc[m1:] -= tmp[: p - m1]
        for m in range(p):
            self._rows[k0 + m][:, sl] = x[: k0 + m + 1, m]
        return pivots

    def solve(self, n: int, sl: slice) -> np.ndarray:
        """Back-substitute L^T c = z for the points ``sl``; rows index points."""
        c = np.array([z[sl] for z in self._z[:n]]).reshape(n, len(range(self.b)[sl]))
        tmp = np.empty_like(c)
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(n - 1, -1, -1):
                row_k = self._rows[k][:, sl]
                c[k] /= row_k[k]
                np.multiply(row_k[:k], c[k], out=tmp[:k])
                c[:k] -= tmp[:k]
        return c.T


@dataclass
class TrainingSystems:
    """Per-point data of the reduced systems at a fixed set of parameters.

    A greedy run evaluates the coefficient functions, load scales and
    coercivity bounds of its training set once, in ``evaluate``, and shares
    them between its full sweeps, surrogate sweeps (``restrict``) and
    ``cdm_construct``; ``evaluate`` rejects points outside the problem's box
    and coercivity bounds <= 0 or +inf.  On symmetric problems ``evaluate`` with ``keep_factor``
    also keeps a ``CholeskyRows`` factor of every point's reduced matrix,
    which ``estimate_batch`` borders by the rows the basis gained since its
    previous call.  A factor serves the one model it is grown with and holds
    b N (N + 1) / 2 floats at basis size N.  ``coeffs`` holds the reduced
    solutions (rows: points) of the latest ``estimate_batch`` call.
    """

    points: np.ndarray
    thetas: np.ndarray
    scales: np.ndarray
    alphas: np.ndarray
    factor: Optional[CholeskyRows] = None
    coeffs: Optional[np.ndarray] = None

    @classmethod
    def evaluate(
        cls, problem: AffineProblem, points: np.ndarray, keep_factor: bool = False
    ) -> "TrainingSystems":
        points, thetas, scales = _rows(problem, points)
        factor = CholeskyRows(points.shape[0]) if keep_factor and problem.symmetric else None
        alphas = _coercivity(problem, points)
        check_points("coercivity bound", alphas, _false_coercivity(alphas), points)
        return cls(points, thetas, scales, alphas, factor)

    def restrict(self, domain: np.ndarray) -> "TrainingSystems":
        """The data of the points ``domain``, without a factor or solutions."""
        return TrainingSystems(
            self.points[domain], self.thetas[domain], self.scales[domain], self.alphas[domain]
        )


def estimate_batch(
    model: ReducedModel,
    problem: AffineProblem,
    mus: np.ndarray,
    n: Optional[int] = None,
    kind: str = "other",
    workers: int = 1,
    systems: Optional[TrainingSystems] = None,
) -> np.ndarray:
    """Error estimates for many parameters at once.

    ``systems`` holds the evaluated data of ``mus`` (its ``points`` must be
    ``mus`` or equal it, else ``InvalidParameterError``) and keeps the
    reduced solutions of every point as ``systems.coeffs``, which
    ``cdm_construct`` reads.  The points run in blocks of ``DEFAULT_CHUNK``:
    each block solves its systems, by bordering the Cholesky factor up to
    size ``n`` and back-substituting when ``systems`` keeps one and by a
    fresh assembly and solve otherwise, and then forms its residual norms.
    A non-positive or non-finite pivot raises ``NumericalFailureError``
    naming the first such point.  ``workers > 1`` fans the blocks out over
    threads; the model is only read, and every block writes a disjoint
    slice of the output and of the factor (its rows allocated first).  The
    blocks do not move with ``workers``, and so neither does any estimate
    (OpenBLAS rounds a row of a product differently with the number of rows).
    """
    mus = np.asarray(mus, dtype=float)
    n = _truncation(model, n)
    b = mus.shape[0]
    if systems is None:
        systems = TrainingSystems.evaluate(problem, mus)
    elif systems.points is not mus and not np.array_equal(systems.points, mus):
        raise InvalidParameterError("systems were evaluated at other parameters than mus")
    factor = systems.factor
    if grow := factor is not None and n > factor.rows:
        factor.allocate(n)
    pivots = np.full(b, np.inf)
    coeffs = systems.coeffs = np.empty((b, n))
    deltas = np.empty(b)

    def block(start: int) -> None:
        sl = slice(start, min(start + DEFAULT_CHUNK, b))
        thetas, scales = systems.thetas[sl], systems.scales[sl]
        if factor is None:
            coeffs[sl] = reduced_solve_batch(model, thetas, scales, n)
        else:
            if grow:
                pivots[sl] = factor.border(model, thetas, scales, n, sl)
            coeffs[sl] = factor.solve(n, sl)
        rsq = residual_norm_sq_batch(model, thetas, scales, coeffs[sl])
        deltas[sl] = np.sqrt(rsq) / systems.alphas[sl]

    starts = range(0, b, DEFAULT_CHUNK)
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(block, starts))
    else:
        list(map(block, starts))
    if grow:
        check_points("non-positive or non-finite pivot", pivots, ~(pivots > 0), systems.points)
        factor.rows = n
    model.counters.reduced_solves += b
    model.counters.count_estimates(b, kind)
    return deltas
