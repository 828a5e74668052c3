"""Truth discretizations: builders, direct solvers, and Riesz machinery.

Two concrete problems are provided.  ``build_diffusion2d`` collocates a
variable-coefficient diffusion equation on a tensor Chebyshev-Lobatto grid
of the square [-1, 1]^2 with homogeneous Dirichlet walls, and
``build_thermal_block`` assembles piecewise-linear finite elements for the
3x3 conductivity-block problem on the unit square (base flux load, zero
Dirichlet data on the top edge).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .affine import (
    AffineProblem,
    KroneckerSum,
    ParameterBox,
    SeparableInnerProduct,
    condition_estimate,
    evaluate_theta_batch,
    factorize,
    rhs_scale_batch,
)
from .bounds import ConstantBound, MinThetaBound
from .counters import Counters
from .errors import ConfigurationError, NumericalFailureError

SOLVE_RTOL = 1e-10


# ---------------------------------------------------------------------------
# spectral helpers


def chebyshev_lobatto_nodes(n: int) -> np.ndarray:
    """n Chebyshev-Lobatto nodes on [-1, 1], ordered from +1 down to -1."""
    if n < 2:
        raise ConfigurationError("need at least two nodes per direction")
    return np.cos(np.pi * np.arange(n) / (n - 1))


def chebyshev_diff_matrix(n: int):
    """Nodes and the first-derivative collocation matrix on those nodes."""
    x = chebyshev_lobatto_nodes(n)
    c = np.ones(n)
    c[0] = c[-1] = 2.0
    c = c * (-1.0) ** np.arange(n)
    dx = x[:, None] - x[None, :] + np.eye(n)
    d = np.outer(c, 1.0 / c) / dx
    d -= np.diag(d.sum(axis=1))
    return x, d


def clenshaw_curtis_weights(n: int) -> np.ndarray:
    """Quadrature weights paired with the n Lobatto nodes."""
    m = n - 1
    if m < 1:
        raise ConfigurationError("need at least two nodes for quadrature")
    if m == 1:
        return np.array([1.0, 1.0])
    theta = np.pi * np.arange(n) / m
    w = np.zeros(n)
    ii = np.arange(1, m)
    v = np.ones(m - 1)
    if m % 2 == 0:
        w[0] = w[m] = 1.0 / (m * m - 1.0)
        for k in range(1, m // 2):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k * k - 1.0)
        v -= np.cos(m * theta[ii]) / (m * m - 1.0)
    else:
        w[0] = w[m] = 1.0 / (m * m)
        for k in range(1, (m - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k * k - 1.0)
    w[ii] = 2.0 * v / m
    return w


# ---------------------------------------------------------------------------
# discretization containers


@dataclass
class TruthDiscretization:
    """The truth space: the SPD inner product ``x_inner`` on free DoFs.

    ``x_inner`` is an SPD operator, not necessarily a matrix: a dense array,
    a sparse matrix or a ``SeparableInnerProduct``, any of which supports
    ``@`` on a vector or an (n, k) block and ``factorize``.  It also holds the
    problem's work ``counters`` and ``x_solve``, the cached solve of ``x_inner``.
    """

    x_inner: object
    counters: Counters = field(default_factory=Counters)

    @cached_property
    def x_solve(self) -> Callable:
        """Solve function of ``x_inner``, uncounted (``riesz_solve`` counts)."""
        return factorize(self.x_inner, spd=True)


@dataclass
class TruthSolution:
    """A truth solution with the solve function of its operator A(mu)."""

    mu: np.ndarray
    coefficients: np.ndarray
    solve: Callable


def x_norm(disc: TruthDiscretization, v: np.ndarray) -> float:
    """Norm induced by the discretization's inner-product matrix."""
    val = float(np.dot(v, disc.x_inner @ v))
    return float(np.sqrt(max(val, 0.0)))


def riesz_solve(disc: TruthDiscretization, functional: np.ndarray) -> np.ndarray:
    """Riesz representer of a functional given by its coefficient vector."""
    n_rhs = 1 if functional.ndim == 1 else functional.shape[1]
    disc.counters.riesz_solves += n_rhs
    return disc.x_solve(functional)


def apply_operator_inverse(
    problem: AffineProblem, solve: Callable, rhs_block: np.ndarray
) -> np.ndarray:
    """Solve ``A(mu) X = rhs_block`` through ``solve``, the solve function of ``A(mu)``.

    Counts one truth solve per right-hand side.
    """
    n_rhs = 1 if rhs_block.ndim == 1 else rhs_block.shape[1]
    problem.discretization.counters.truth_solves += n_rhs
    return solve(rhs_block)


def truth_solve(problem: AffineProblem, mu) -> TruthSolution:
    """Direct solve of the truth system at one parameter.

    ``A(mu)`` is assembled once (``AffineProblem.assemble``) and factorized
    by the route ``factorize`` picks from its type and
    ``AffineProblem.symmetric`` (a symmetric problem is SPD, because every
    problem is coercive).  This is the package's only factorization of
    ``A(mu)``; it is counted, and its solve function is returned on the
    solution.  A failed factorization, or a relative residual
    ``||A(mu) u - b||`` that is not finite or above ``SOLVE_RTOL``, raises
    ``NumericalFailureError`` carrying a condition estimate of ``A(mu)``.
    """
    mus = problem.box.validate_rows(np.asarray(mu, dtype=float)[None])
    theta = evaluate_theta_batch(problem, mus)[0]
    a = problem.assemble(theta)
    try:
        solve = factorize(a, spd=problem.symmetric, pattern=problem.pattern)
    except Exception as exc:
        raise NumericalFailureError(
            f"factorization of A(mu) failed: {exc}", condition_estimate=condition_estimate(a)
        )
    problem.discretization.counters.truth_factorizations += 1
    b = rhs_scale_batch(problem, mus)[0] * problem.rhs
    u = apply_operator_inverse(problem, solve, b)
    resid = np.linalg.norm(a @ u - b)
    if not resid <= SOLVE_RTOL * max(np.linalg.norm(b), 1e-300):  # a NaN residual fails too
        raise NumericalFailureError(
            f"truth solve residual {resid:.3e} exceeds {SOLVE_RTOL:.1e} * ||b||",
            condition_estimate=condition_estimate(a),
        )
    return TruthSolution(mu=mus[0], coefficients=u, solve=solve)


# ---------------------------------------------------------------------------
# problem 1: collocated variable-coefficient diffusion


def build_diffusion2d(n_x: int = 35):
    """Collocation of (1 + mu1 x) u_xx + (1 + mu2 y) u_yy = exp(4xy).

    Returns the affine problem on the (n_x - 2)^2 interior nodes, x varying
    slowest and each coordinate running over the interior Chebyshev-Lobatto
    nodes from +1 down to -1.  The affine split keeps three terms: the plain
    Laplacian-like part, the x-weighted u_xx part, and the y-weighted u_yy
    part, with coefficients (1, mu1, mu2).  Each term is a ``KroneckerSum``
    of (n_x - 2)-square factors and the inner product X a
    ``SeparableInnerProduct`` of the same size, so products, truth solves
    and Riesz solves cost O(n_x^3) per column and no (n_x - 2)^2-square
    operator is formed.

    The coercivity bound ``ConstantBound(1.0)`` is a bound only where the
    inf-sup constant ``beta(mu) = sigma_min(X^-1/2 A(mu) X^-1/2)`` is at
    least 1: the operator is not coercive in X.  The smallest beta over 200
    random parameters and the 4 corners (seed 0) reads (at least 18 at 35)

        n_x   4      5      6      7      8      9      10     11     12
        beta  0.637  0.865  1.159  1.436  1.730  1.993  2.281  2.559  2.873

    so ``n_x < 6`` raises ``ConfigurationError``.  The minimum is sampled,
    not certified: a successive constraint method would certify it.
    """
    if n_x < 6:
        raise ConfigurationError(
            "diffusion2d needs n_x >= 6: below, its sampled inf-sup minimum (0.865 at 5) is under 1"
        )
    nodes, d1 = chebyshev_diff_matrix(n_x)
    inner = slice(1, -1)
    x = nodes[inner]  # interior nodes along either axis
    d2 = (d1 @ d1)[inner, inner]
    zero, xd2 = np.zeros_like(d2), x[:, None] * d2
    components = [KroneckerSum(d2, d2), KroneckerSum(xd2, zero), KroneckerSum(zero, xd2)]
    rhs = np.exp(4.0 * x[:, None] * x[None, :]).reshape(-1)

    # H1-type inner product from Clenshaw-Curtis weights: mass on the
    # interior nodes plus the first-derivative stiffness integrated over the
    # full grid (interior basis functions vanish on the boundary), which
    # separates into the 1-d weights w and stiffness k of the interior nodes:
    # X = (W + K) (x) W + W (x) K, kept as those factors.
    w1 = clenshaw_curtis_weights(n_x)
    k = d1[:, inner].T @ (w1[:, None] * d1[:, inner])
    xmat = SeparableInnerProduct(w1[inner], 0.5 * (k + k.T))

    output = np.kron(w1[inner], w1[inner])  # approximates the integral of u over the square

    return AffineProblem(
        box=ParameterBox(np.array([-0.99, -0.99]), np.array([0.99, 0.99])),
        theta=lambda mus: np.column_stack([np.ones(len(mus)), mus]),
        components=components,
        rhs=rhs,
        output=output,
        discretization=TruthDiscretization(xmat),
        coercivity=ConstantBound(1.0),
    )


# ---------------------------------------------------------------------------
# problem 2: 3x3 thermal block, P1 elements


def _thermal_mesh(s: int):
    h = 1.0 / (s - 1)
    ax = np.linspace(0.0, 1.0, s)
    xg, yg = np.meshgrid(ax, ax, indexing="xy")  # node = j*s + i at (i*h, j*h)
    coords = np.column_stack([xg.reshape(-1), yg.reshape(-1)])

    # cell (i, j), j-major, splits into (n00, n10, n11) and (n00, n11, n01)
    j, i = np.divmod(np.arange((s - 1) ** 2, dtype=np.int64), s - 1)
    n00 = j * s + i
    n01 = n00 + s
    tris = np.stack([n00, n00 + 1, n01 + 1, n00, n01 + 1, n01], axis=1).reshape(-1, 3)
    return h, coords, tris


def build_thermal_block(nodes_per_side: int = 19):
    """P1 finite elements for the 3x3 conductivity-block problem.

    The square is split into nine equal blocks, each carrying one parameter
    as its conductivity.  Unit influx is imposed on the base edge, the top
    edge is clamped to zero, and the output functional integrates the trace
    of the solution over the base.  Node ``j * s + i`` sits at ``(i h, j h)``
    with ``s = nodes_per_side`` and ``h = 1 / (s - 1)``; the free DoFs are
    the nodes below the top row, in that order.
    """
    s = nodes_per_side
    if s < 4 or (s - 1) % 3 != 0:
        raise ConfigurationError(
            "thermal block mesh needs nodes_per_side = 3k + 1 so cell edges align with blocks"
        )
    h, coords, tris = _thermal_mesh(s)
    n_nodes = s * s

    pts = coords[tris]  # (nt, 3, 2)
    bvec = pts[:, [1, 2, 0], 1] - pts[:, [2, 0, 1], 1]  # y_{k+1} - y_{k+2}
    cvec = pts[:, [2, 0, 1], 0] - pts[:, [1, 2, 0], 0]  # x_{k+2} - x_{k+1}
    area = 0.5 * (bvec[:, 0] * cvec[:, 1] - bvec[:, 1] * cvec[:, 0])
    # both triangle orientations in the mesh are positively oriented
    ke = (
        bvec[:, :, None] * bvec[:, None, :] + cvec[:, :, None] * cvec[:, None, :]
    ) / (4.0 * area)[:, None, None]

    centroid = pts.mean(axis=1)
    col = np.minimum((centroid[:, 0] * 3).astype(int), 2)
    row = np.minimum((centroid[:, 1] * 3).astype(int), 2)
    block = row * 3 + col

    rows = np.repeat(tris, 3, axis=1).reshape(-1)
    cols = np.tile(tris, (1, 3)).reshape(-1)
    stiff = []
    for q in range(9):
        mask = block == q
        vals = ke[mask].reshape(-1)
        # each triangle's element matrix takes nine consecutive (row, column) pairs
        r, c = rows.reshape(-1, 9)[mask].reshape(-1), cols.reshape(-1, 9)[mask].reshape(-1)
        kq = sp.coo_matrix((vals, (r, c)), shape=(n_nodes, n_nodes)).tocsr()
        stiff.append(kq)

    me = (np.full((3, 3), 1.0) + np.eye(3)) / 12.0
    mvals = (area[:, None, None] * me[None, :, :]).reshape(-1)
    mass = sp.coo_matrix((mvals, (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()

    node_i = np.arange(n_nodes) % s
    node_j = np.arange(n_nodes) // s
    nf = s * (s - 1)  # the top edge is clamped to zero: the free DoFs come first

    # base-edge trace integral: P1 edge mass applied to the constant one
    load_full = np.zeros(n_nodes)
    bottom = np.flatnonzero(node_j == 0)
    load_full[bottom] = h
    load_full[bottom[node_i[bottom] == 0]] = h / 2.0
    load_full[bottom[node_i[bottom] == s - 1]] = h / 2.0

    components = [kq[:nf, :nf].tocsr() for kq in stiff]
    ktot = sum(components[1:], components[0])
    xmat = (mass[:nf, :nf].tocsr() + ktot).tocsr()
    rhs = load_full[:nf]
    output = rhs.copy()

    return AffineProblem(
        box=ParameterBox(np.full(9, 0.1), np.full(9, 10.0)),
        theta=lambda mus: np.asarray(mus, dtype=float).copy(),
        components=components,
        rhs=rhs,
        output=output,
        discretization=TruthDiscretization(xmat),
        coercivity=MinThetaBound(np.ones(9)),
    )

