"""Reduced model: Galerkin projection, residual algebra, error estimator.

The residual dual norm has one route.  The model keeps an X-orthonormal
basis of the Riesz representers of the load and of the basis-image
functionals -A_q xi_m, together with a triangular coordinate factor, and
evaluates the dual norm as the plain Euclidean norm of factor @ weights.
That costs O((N Q_a)^2) per parameter and stays accurate down to
machine-level residuals, where the expanded Gramian quadratic form would
lose half its digits to cancellation.

All arithmetic is float64.  The sweep kernels run on fixed blocks of
``DEFAULT_CHUNK`` points, and single-point calls are a batch of one through
them.  The full sweeps of a greedy run on a symmetric problem instead
back-substitute through per-point Cholesky factors that ``TrainingSystems``
grows with the basis; both agree to 1e-12 of the empty-basis estimate.  A
single-point solve or estimate that comes out non-finite raises
``NumericalFailureError`` naming the parameter.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .affine import AffineProblem, evaluate_theta_batch, rhs_scale_batch
from .errors import (
    BasisRejectionError,
    BoundStrategyError,
    InvalidParameterError,
    NumericalFailureError,
)
from .truth import TruthDiscretization, TruthSolution, riesz_solve

REJECTION_RTOL = 1e-10
RESIDUAL_BASIS_RTOL = 1e-12
DEFAULT_CHUNK = 4096


@dataclass
class ReducedSolution:
    mu: np.ndarray
    coeffs: np.ndarray

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

        # X-orthonormal residual basis and coordinates of [C, L_10, ...],
        # where C is the Riesz representer of the load and L_mq that of
        # -A_q xi_m.
        riesz_f = riesz_solve(self.disc, problem.rhs)
        cnorm = np.sqrt(float(np.dot(riesz_f, problem.rhs)))
        if cnorm <= 0:
            raise NumericalFailureError("load functional has zero dual norm")
        self._res_basis = (riesz_f / cnorm)[:, None]
        self._res_factor = np.array([[cnorm]])

    # -- sizes ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    @property
    def n_terms(self) -> int:
        return self.problem.n_terms


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
        h = disc.x_apply(v.T).T @ basis
        v -= h @ basis.T
        coords[:k0] += h.T
    q, xq, kept, loss = np.empty_like(v), np.empty_like(v), 0, False
    for j in range(m):
        c = coords[k0 : k0 + kept, j]
        for _ in range(2 if kept else 0):
            h = xq[:kept] @ v[j]
            v[j] -= h @ q[:kept]
            c += h
        xv = disc.x_apply(v[j])
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


def extend_basis(model: ReducedModel, snapshot: TruthSolution, train_index=None) -> ReducedModel:
    """Append one snapshot to the basis, updating every reduced quantity.

    The snapshot is folded into the basis as a block of one by
    ``orthonormal_fold``.  Raises ``BasisRejectionError`` when the fold
    drops it as numerically dependent on the current basis (remainder norm
    at most ``REJECTION_RTOL`` times the snapshot norm).
    """
    problem = model.problem
    disc = model.disc
    n_old = model.n
    q = model.n_terms

    u = np.asarray(snapshot.coefficients, dtype=float)
    basis_new, coords = orthonormal_fold(disc, model.basis, u[:, None], REJECTION_RTOL)
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

    # Galerkin blocks; nonsymmetric components also need A^T xi for the new row.
    comps = np.zeros((q, n_old + 1, n_old + 1))
    comps[:, :n_old, :n_old] = model.reduced_components
    a_xi = np.empty((q, model.problem.n_dof))
    for k, aq in enumerate(problem.components):
        av = aq @ xi
        comps[k, :, n_old] = basis_new.T @ av
        if problem.symmetric:
            comps[k, n_old, :] = comps[k, :, n_old]
        else:
            comps[k, n_old, :] = basis_new.T @ (aq.T @ xi)
        comps[k, n_old, n_old] = float(np.dot(xi, av))
        a_xi[k] = av
    model.reduced_components = comps
    model.reduced_rhs = np.append(model.reduced_rhs, float(np.dot(problem.rhs, xi)))
    model.reduced_output = np.append(
        model.reduced_output, float(np.dot(problem.output, xi))
    )
    model.basis = basis_new

    # Riesz terms for the new basis vector (functionals -A_q xi), folded
    # into the orthonormal residual basis.
    l_new = riesz_solve(disc, -a_xi.T)  # (n_dof, q)
    k_old, d_old = model._res_factor.shape
    model._res_basis, coords = orthonormal_fold(
        disc, model._res_basis, l_new, RESIDUAL_BASIS_RTOL
    )
    factor = np.zeros((model._res_basis.shape[1], d_old + q))
    factor[:k_old, :d_old] = model._res_factor
    factor[:, d_old:] = coords
    model._res_factor = factor
    return model


# ---------------------------------------------------------------------------
# solves and outputs


def reduced_solve(model: ReducedModel, mu, n: Optional[int] = None) -> ReducedSolution:
    """Galerkin solve in the leading ``n``-dimensional reduced space, as a batch of one."""
    mu = model.problem.box.validate(mu)
    n = model.n if n is None else int(n)
    if not 0 <= n <= model.n:
        raise ValueError(f"truncation size {n} out of range")
    mus = mu[None, :]
    thetas = evaluate_theta_batch(model.problem, mus)
    scales = rhs_scale_batch(model.problem, mus)
    try:
        coeffs = reduced_solve_batch(model, thetas, scales, n)[0]
    except NumericalFailureError as exc:
        raise NumericalFailureError(f"{exc} at mu = {mu}", exc.condition_estimate) from exc
    if not np.isfinite(coeffs).all():
        raise NumericalFailureError(f"non-finite reduced coefficients at mu = {mu}")
    return ReducedSolution(mu=mu, coeffs=coeffs)


def reconstruct(model: ReducedModel, sol: ReducedSolution) -> np.ndarray:
    """Lift reduced coefficients back to the truth space."""
    n = sol.n
    return model.basis[:, :n] @ sol.coeffs


def reduced_output(model: ReducedModel, sol: ReducedSolution) -> float:
    return float(np.dot(model.reduced_output[: sol.n], sol.coeffs))


# ---------------------------------------------------------------------------
# residual dual norm


def residual_dual_norm_sq(model: ReducedModel, mu, sol: ReducedSolution) -> float:
    """Squared dual norm of the Galerkin residual at one parameter.

    ``residual_norm_sq_batch`` on one row.
    """
    mus = model.problem.box.validate(mu)[None, :]
    thetas = evaluate_theta_batch(model.problem, mus)
    scales = rhs_scale_batch(model.problem, mus)
    return float(residual_norm_sq_batch(model, thetas, scales, sol.coeffs[None, :])[0])


def _lower_bounds(problem: AffineProblem, mus: np.ndarray) -> np.ndarray:
    if problem.coercivity is None:
        raise BoundStrategyError("no coercivity bound strategy configured")
    return problem.coercivity.lower_bound_batch(problem, mus)


def coercivity_lower_bound(problem: AffineProblem, mu) -> float:
    return float(_lower_bounds(problem, problem.box.validate(mu)[None, :])[0])


def error_estimate(
    model: ReducedModel,
    problem: AffineProblem,
    mu,
    sol: Optional[ReducedSolution] = None,
    kind: str = "other",
) -> float:
    """Certified error bound sqrt(residual dual norm^2) / coercivity bound."""
    if sol is None:
        sol = reduced_solve(model, mu)
    rsq = residual_dual_norm_sq(model, mu, sol)
    model.counters.count_estimates(1, kind)
    delta = float(np.sqrt(rsq) / coercivity_lower_bound(problem, mu))
    if not math.isfinite(delta):
        raise NumericalFailureError(f"non-finite error estimate {delta} at mu = {mu}")
    return delta


# ---------------------------------------------------------------------------
# vectorized sweeps


def _solve_chunk(
    model: ReducedModel, thetas: np.ndarray, scales: np.ndarray, n: int
) -> np.ndarray:
    """Counter-free batched Galerkin solve core."""
    if n == 0:
        return np.zeros((thetas.shape[0], 0))
    mats = np.einsum("iq,qmn->imn", thetas, model.reduced_components[:, :n, :n])
    rhs = scales[:, None] * model.reduced_rhs[None, :n]
    try:
        return np.linalg.solve(mats, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        cond = float(np.max(np.linalg.cond(mats)))
        raise NumericalFailureError(f"singular reduced system: {exc}", cond)


def reduced_solve_batch(
    model: ReducedModel, thetas: np.ndarray, scales: np.ndarray, n: Optional[int] = None
) -> np.ndarray:
    """Batched Galerkin solves; rows index parameters."""
    n = model.n if n is None else int(n)
    model.counters.reduced_solves += thetas.shape[0]
    return _solve_chunk(model, thetas, scales, n)


def augmented_weights(thetas: np.ndarray, scales: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Rows [s, c_1 theta, ..., c_n theta]: the weights of the load and of the
    basis-image terms -A_q xi_j in the Galerkin residual."""
    b, n = coeffs.shape
    w = np.empty((b, 1 + n * thetas.shape[1]))
    w[:, 0] = scales
    w[:, 1:] = (coeffs[:, :, None] * thetas[:, None, :]).reshape(b, -1)
    return w


def residual_norm_sq_batch(
    model: ReducedModel, thetas: np.ndarray, scales: np.ndarray, coeffs: np.ndarray
) -> np.ndarray:
    w = augmented_weights(thetas, scales, coeffs)
    z = w @ model._res_factor[:, : w.shape[1]].T
    return np.einsum("ij,ij->i", z, z)


class CholeskyRows:
    """Per-point Cholesky factors L_i L_i^T = M_i of the reduced matrices.

    Row k of every factor (the entries L_i[k, :k+1] for all b points) is one
    contiguous (k + 1, b) block of a single buffer, at offset b k (k + 1) / 2,
    so the rows a basis extension adds are appended and the buffer's
    unwritten rows cost no resident memory.  ``z`` keeps the forward-
    substituted loads L_i^{-1} s_i f, so a solve only back-substitutes.
    Every kernel is a fixed sequence of elementwise operations over the
    points, so a point's factor does not depend on how the points are
    chunked or threaded, nor on the BLAS.
    """

    def __init__(self, n_points: int, capacity: int):
        self.b = n_points
        self.rows = 0
        self._buf = np.empty(n_points * (capacity * (capacity + 1) // 2))
        self._z = np.empty((capacity, n_points))

    def _row(self, k: int) -> np.ndarray:
        start = self.b * (k * (k + 1) // 2)
        return self._buf[start : start + self.b * (k + 1)].reshape(k + 1, self.b)

    def border(
        self, model: ReducedModel, thetas: np.ndarray, scales: np.ndarray, n: int, sl: slice
    ) -> np.ndarray:
        """Write rows ``rows .. n-1`` of the points ``sl``; return their smallest pivots.

        Left-looking by columns: column j of the new rows is their entry of
        M minus the dot products with row j, divided by L[j, j].  Below the
        old rows that is one forward substitution with every new column as a
        right-hand side; on the new rows it is the Cholesky factorization of
        the Schur complement.  Pivots are the squared diagonal entries; the
        rows are only valid where every pivot is positive.
        """
        k0, p = self.rows, n - self.rows
        comps = model.reduced_components
        th = np.ascontiguousarray(thetas.T)
        # x[l, m] = L[k0 + m, l]; acc[m] collects the load of new row k0 + m
        x = np.empty((n, p, th.shape[1]))
        acc = scales * model.reduced_rhs[k0:n, None]
        tmp = np.empty((p, th.shape[1]))
        pivots = np.full(th.shape[1], np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in range(n):
                m0 = max(0, j - k0)
                col, t = x[j, m0:], tmp[: p - m0]
                np.multiply(comps[0, j, k0 + m0 : n, None], th[0], out=col)
                for q in range(1, th.shape[0]):
                    np.multiply(comps[q, j, k0 + m0 : n, None], th[q], out=t)
                    col += t
                row_j = self._row(j)[:, sl] if j < k0 else x[: j + 1, j - k0]
                for l in range(j):
                    np.multiply(x[l, m0:], row_j[l], out=t)
                    col -= t
                if j < k0:
                    col /= row_j[j]
                    z_j = self._z[j, sl]
                else:
                    np.minimum(pivots, col[0], out=pivots)
                    np.sqrt(col[0], out=col[0])
                    col[1:] /= col[0]
                    z_j = self._z[j, sl] = acc[m0] / col[0]
                if j + 1 < n:
                    m1 = m0 + (j >= k0)
                    np.multiply(x[j, m1:], z_j, out=tmp[: p - m1])
                    acc[m1:] -= tmp[: p - m1]
        for m in range(p):
            self._row(k0 + m)[:, sl] = x[: k0 + m + 1, m]
        return pivots

    def solve(self, n: int, sl: slice) -> np.ndarray:
        """Back-substitute L^T c = z for the points ``sl``; rows index points."""
        c = self._z[:n, sl].copy()
        tmp = np.empty_like(c)
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(n - 1, -1, -1):
                row_k = self._row(k)[:, sl]
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
    ``cdm_construct``; ``evaluate`` first rejects points outside the
    problem's box.  On symmetric problems ``evaluate`` with a positive
    ``capacity`` (the largest basis a full sweep will see) also keeps a
    ``CholeskyRows`` factor of every point's reduced matrix, which
    ``estimate_batch`` borders by the rows the basis gained since its
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
        cls, problem: AffineProblem, points: np.ndarray, capacity: int = 0
    ) -> "TrainingSystems":
        points = problem.box.validate_rows(points)
        factor = None
        if capacity > 0 and problem.symmetric:
            factor = CholeskyRows(points.shape[0], min(capacity, problem.n_dof))
        return cls(
            points,
            evaluate_theta_batch(problem, points),
            rhs_scale_batch(problem, points),
            _lower_bounds(problem, points),
            factor,
        )

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
    slice of the output and of the factor.  The blocks do not move with
    ``workers``, and so neither does any estimate (OpenBLAS rounds a row of
    a product differently with the number of rows).
    """
    mus = np.asarray(mus, dtype=float)
    n = model.n if n is None else int(n)
    b = mus.shape[0]
    if systems is None:
        systems = TrainingSystems.evaluate(problem, mus)
    elif systems.points is not mus and not np.array_equal(systems.points, mus):
        raise InvalidParameterError("systems were evaluated at other parameters than mus")
    factor = systems.factor
    grow = factor is not None and n > factor.rows
    pivots = np.full(b, np.inf)
    coeffs = systems.coeffs = np.empty((b, n))
    deltas = np.empty(b)

    def block(start: int) -> None:
        sl = slice(start, min(start + DEFAULT_CHUNK, b))
        thetas, scales = systems.thetas[sl], systems.scales[sl]
        if factor is None:
            coeffs[sl] = _solve_chunk(model, thetas, scales, n)
        else:
            if grow:
                pivots[sl] = factor.border(model, thetas, scales, n, sl)
            coeffs[sl] = factor.solve(n, sl)
        rsq = residual_norm_sq_batch(model, thetas, scales, coeffs[sl])
        deltas[sl] = np.sqrt(np.maximum(rsq, 0.0)) / systems.alphas[sl]

    starts = range(0, b, DEFAULT_CHUNK)
    if workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(block, starts))
    else:
        list(map(block, starts))
    if grow:
        bad = np.flatnonzero(~(pivots > 0))
        if bad.size:
            j = int(bad[0])
            raise NumericalFailureError(
                f"non-positive or non-finite pivot {pivots[j]} at training index {j}, "
                f"mu = {systems.points[j]}"
            )
        factor.rows = n
    model.counters.reduced_solves += b
    model.counters.count_estimates(b, kind)
    return deltas
