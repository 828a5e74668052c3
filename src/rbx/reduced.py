"""Reduced model: Galerkin projection, residual algebra, error estimator.

The residual dual norm is available through two algebraically identical
routes.  The classical route stores the Gramian blocks of the Riesz
representers of the load and of the basis-image functionals and evaluates the quadratic form
directly; it is kept because its pieces are part of the model contract and
because it is easy to cross-check against truth-space computations.  The
default route keeps an X-orthonormal basis of the same Riesz vectors and a
triangular coordinate factor, and evaluates the dual norm as a plain
Euclidean norm of factor @ weights.  Both cost O((N Q_a)^2) per parameter;
the factored route stays accurate down to machine-level residuals where the
quadratic form loses half its digits to cancellation.

All arithmetic is float64.  Single-point calls are a batch of one through
the sweep kernels, so they agree with ``estimate_batch`` to round-off and the
reproduction check runs the arithmetic of the certifying sweep.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .affine import AffineProblem, evaluate_theta_batch, rhs_scale_batch
from .errors import BasisRejectionError, NumericalFailureError, BoundStrategyError
from .truth import TruthSolution, riesz_solve, x_norm

REJECTION_RTOL = 1e-10
RESIDUAL_BASIS_RTOL = 1e-12
NEGATIVE_CLAMP_WARN = 1e-6
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

        # Riesz representer of the load and of -A_q xi_m, flattened m-major.
        self.riesz_f = riesz_solve(self.disc, problem.rhs)
        self.riesz_flat = np.zeros((0, n_dof))

        self.residual_cc = float(np.dot(self.riesz_f, problem.rhs))
        self.residual_cl = np.zeros((0, q))
        self.residual_ll = np.zeros((0, 0))

        # X-orthonormal residual basis and coordinates of [C, L_10, ...].
        cnorm = np.sqrt(self.residual_cc)
        if cnorm <= 0:
            raise NumericalFailureError("load functional has zero dual norm")
        self._res_basis = (self.riesz_f / cnorm)[:, None]
        self._res_factor = np.array([[cnorm]])

    # -- sizes ---------------------------------------------------------

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    @property
    def n_terms(self) -> int:
        return self.problem.n_terms

    def n_aug(self, n: Optional[int] = None) -> int:
        n = self.n if n is None else n
        return 1 + n * self.n_terms

    @property
    def riesz_terms(self) -> np.ndarray:
        """Riesz representers per basis vector and operator term, (n, q, dof)."""
        return self.riesz_flat.reshape(self.n, self.n_terms, -1)

    # -- internal helpers ------------------------------------------------

    def _x_apply(self, v):
        return self.disc.x_apply(v)

    def _orthonormalize(self, vec, against, record):
        """Two-pass Gram-Schmidt of ``vec`` against the columns of ``against``.

        Coefficients are accumulated into ``record`` (length = #columns).
        Returns the orthogonal remainder and its X-norm.
        """
        v = vec.copy()
        for _ in range(2):
            if against.shape[1]:
                h = against.T @ self._x_apply(v)
                v -= against @ h
                record += h
        return v, x_norm(self.disc, v)

    def gram_matrix(self) -> np.ndarray:
        """X-Gram matrix of the stored basis (identity up to round-off)."""
        return self.basis.T @ self._x_apply(self.basis)


def extend_basis(model: ReducedModel, snapshot: TruthSolution, train_index=None) -> ReducedModel:
    """Append one snapshot to the basis, updating every reduced quantity.

    Raises ``BasisRejectionError`` when the snapshot is numerically
    dependent on the current basis (post-orthogonalization norm below
    ``REJECTION_RTOL`` times the snapshot norm).
    """
    problem = model.problem
    disc = model.disc
    n_old = model.n
    q = model.n_terms

    u = np.asarray(snapshot.coefficients, dtype=float)
    pre_norm = x_norm(disc, u)
    if pre_norm <= 0.0:
        raise BasisRejectionError("zero snapshot cannot extend the basis")
    coeffs_in_basis = np.zeros(n_old)
    v, new_norm = model._orthonormalize(u, model.basis, coeffs_in_basis)
    if new_norm < REJECTION_RTOL * pre_norm:
        raise BasisRejectionError(
            f"snapshot is dependent on the basis (norm ratio {new_norm / pre_norm:.2e})"
        )
    xi = v / new_norm

    # snapshot coordinates: u = basis[:, :n_old] @ c + new_norm * xi
    r_new = np.zeros((n_old + 1, n_old + 1))
    r_new[:n_old, :n_old] = model.snapshot_in_basis
    r_new[:n_old, n_old] = coeffs_in_basis
    r_new[n_old, n_old] = new_norm
    model.snapshot_in_basis = r_new
    model.snapshot_params.append(np.asarray(snapshot.mu, dtype=float))
    model.snapshot_indices.append(train_index)

    basis_new = np.concatenate([model.basis, xi[:, None]], axis=1)

    # Galerkin blocks; nonsymmetric components need both A xi and A^T xi.
    comps = np.zeros((q, n_old + 1, n_old + 1))
    comps[:, :n_old, :n_old] = model.reduced_components
    a_xi = np.empty((q, model.problem.n_dof))
    for k, aq in enumerate(problem.components):
        av = aq @ xi
        atv = aq.T @ xi
        comps[k, :, n_old] = basis_new.T @ av
        comps[k, n_old, :] = basis_new.T @ atv
        comps[k, n_old, n_old] = float(np.dot(xi, av))
        a_xi[k] = av
    model.reduced_components = comps
    model.reduced_rhs = np.append(model.reduced_rhs, float(np.dot(problem.rhs, xi)))
    model.reduced_output = np.append(
        model.reduced_output, float(np.dot(problem.output, xi))
    )
    model.basis = basis_new

    # Riesz terms for the new basis vector: functionals are -A_q xi.
    funcs = -a_xi
    l_new = riesz_solve(disc, funcs.T).T  # (q, n_dof)

    # Gramian blocks come from plain dots with the functionals since
    # X L = func exactly defines the representers.
    cl_row = funcs @ model.riesz_f
    cross = model.riesz_flat @ funcs.T  # (n_old*q, q)
    diag = l_new @ funcs.T
    diag = 0.5 * (diag + diag.T)

    nq_old = n_old * q
    ll_new = np.zeros((nq_old + q, nq_old + q))
    ll_new[:nq_old, :nq_old] = model.residual_ll
    ll_new[:nq_old, nq_old:] = cross
    ll_new[nq_old:, :nq_old] = cross.T
    ll_new[nq_old:, nq_old:] = diag
    model.residual_ll = ll_new
    model.residual_cl = np.concatenate([model.residual_cl, cl_row[None, :]], axis=0)
    model.riesz_flat = np.concatenate([model.riesz_flat, l_new], axis=0)

    # Fold the new Riesz vectors into the orthonormal residual basis.
    k_now = model._res_basis.shape[1]
    new_cols = []
    added = []
    for j in range(q):
        vec = l_new[j]
        pre = x_norm(disc, vec)
        col = np.zeros(k_now + len(added))
        against = (
            np.concatenate([model._res_basis] + [a[:, None] for a in added], axis=1)
            if added
            else model._res_basis
        )
        rem, nrm = model._orthonormalize(vec, against, col)
        if pre > 0 and nrm > RESIDUAL_BASIS_RTOL * pre:
            added.append(rem / nrm)
            col = np.append(col, nrm)
        new_cols.append(col)
    k_new = k_now + len(added)
    factor = np.zeros((k_new, model._res_factor.shape[1] + q))
    factor[: model._res_factor.shape[0], : model._res_factor.shape[1]] = model._res_factor
    for j, col in enumerate(new_cols):
        factor[: col.size, model._res_factor.shape[1] + j] = col
    if added:
        model._res_basis = np.concatenate(
            [model._res_basis] + [a[:, None] for a in added], axis=1
        )
    model._res_factor = factor
    return model


# ---------------------------------------------------------------------------
# solves and outputs


def reduced_solve(model: ReducedModel, mu, n: Optional[int] = None) -> ReducedSolution:
    """Galerkin solve in the leading ``n``-dimensional reduced space."""
    mu = model.problem.box.validate(mu)
    n = model.n if n is None else int(n)
    if not 0 <= n <= model.n:
        raise ValueError(f"truncation size {n} out of range")
    model.counters.reduced_solves += 1
    if n == 0:
        return ReducedSolution(mu=mu, coeffs=np.zeros(0))
    mus = mu[None, :]
    thetas = evaluate_theta_batch(model.problem, mus)
    scales = rhs_scale_batch(model.problem, mus)
    try:
        coeffs = _solve_chunk(model, thetas, scales, n)[0]
    except NumericalFailureError as exc:
        raise NumericalFailureError(f"{exc} at mu = {mu}", exc.condition_estimate) from exc
    return ReducedSolution(mu=mu, coeffs=coeffs)


def reconstruct(model: ReducedModel, sol: ReducedSolution) -> np.ndarray:
    """Lift reduced coefficients back to the truth space."""
    n = sol.n
    return model.basis[:, :n] @ sol.coeffs


def reduced_output(model: ReducedModel, sol: ReducedSolution) -> float:
    return float(np.dot(model.reduced_output[: sol.n], sol.coeffs))


# ---------------------------------------------------------------------------
# residual dual norm


def residual_dual_norm_sq(
    model: ReducedModel, mu, sol: ReducedSolution, method: str = "factor"
) -> float:
    """Squared dual norm of the Galerkin residual at one parameter.

    ``method="gram"`` evaluates the stored-blocks quadratic form
    (C,C) + 2 sum theta u (C,L) + sum sum theta u theta' u' (L,L') with the
    documented clamp at zero; ``method="factor"`` evaluates the same number
    through the orthonormal residual factor, as ``residual_norm_sq_batch``
    on one row.
    """
    if method not in ("factor", "gram"):
        raise ValueError(f"unknown residual method {method!r}")
    mus = model.problem.box.validate(mu)[None, :]
    thetas = evaluate_theta_batch(model.problem, mus)
    scales = rhs_scale_batch(model.problem, mus)
    if method == "factor":
        return float(residual_norm_sq_batch(model, thetas, scales, sol.coeffs[None, :])[0])
    n, scale = sol.n, float(scales[0])
    w = (sol.coeffs[:, None] * thetas[0][None, :]).reshape(-1)
    nq = n * model.n_terms
    cc = model.residual_cc * scale * scale
    cl = 2.0 * scale * float(np.dot(w, model.residual_cl[:n].reshape(-1)))
    ll = float(w @ model.residual_ll[:nq, :nq] @ w)
    val = cc + cl + ll
    if val < 0.0:
        if val < -NEGATIVE_CLAMP_WARN * max(cc, 1e-300):
            warnings.warn(
                f"residual norm square {val:.3e} clamped to zero; the Gramian "
                "quadratic form has lost its digits to conditioning",
                RuntimeWarning,
            )
        val = 0.0
    return val


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
    return float(np.sqrt(rsq) / coercivity_lower_bound(problem, mu))


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


def residual_norm_sq_batch(
    model: ReducedModel, thetas: np.ndarray, scales: np.ndarray, coeffs: np.ndarray
) -> np.ndarray:
    n = coeffs.shape[1]
    b = coeffs.shape[0]
    w = np.empty((b, model.n_aug(n)))
    w[:, 0] = scales
    w[:, 1:] = (coeffs[:, :, None] * thetas[:, None, :]).reshape(b, -1)
    z = w @ model._res_factor[:, : model.n_aug(n)].T
    return np.einsum("ij,ij->i", z, z)


def estimate_batch(
    model: ReducedModel,
    problem: AffineProblem,
    mus: np.ndarray,
    n: Optional[int] = None,
    chunk: int = DEFAULT_CHUNK,
    kind: str = "other",
    return_coeffs: bool = False,
    workers: int = 1,
):
    """Error estimates for many parameters at once.

    Returns the estimate array, and optionally the reduced coefficients
    plus the evaluated coefficient functions (reused by the surrogate
    constructors to avoid re-solving).  ``workers > 1`` fans the chunks out
    over threads; the model is only read, and every chunk writes a disjoint
    slice of the output.
    """
    mus = np.asarray(mus, dtype=float)
    n = model.n if n is None else int(n)
    b = mus.shape[0]
    thetas = evaluate_theta_batch(problem, mus)
    scales = rhs_scale_batch(problem, mus)
    alphas = _lower_bounds(problem, mus)
    deltas = np.empty(b)
    coeffs_all = np.empty((b, n)) if return_coeffs else None

    def run_chunk(start: int) -> None:
        sl = slice(start, min(start + chunk, b))
        coeffs = _solve_chunk(model, thetas[sl], scales[sl], n)
        rsq = residual_norm_sq_batch(model, thetas[sl], scales[sl], coeffs)
        deltas[sl] = np.sqrt(np.maximum(rsq, 0.0)) / alphas[sl]
        if return_coeffs:
            coeffs_all[sl] = coeffs

    starts = range(0, b, chunk)
    if workers > 1 and b > chunk:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_chunk, starts))
    else:
        for start in starts:
            run_chunk(start)
    model.counters.reduced_solves += b
    model.counters.count_estimates(b, kind)
    if return_coeffs:
        return deltas, coeffs_all, thetas, scales
    return deltas
