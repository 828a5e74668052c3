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
from functools import partial
from typing import Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .affine import AffineProblem, ParameterBox, assemble_operator, rhs_scale_batch
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
# factorizations


class Factorization:
    """``solve`` through sparse LU, or dense Cholesky (``spd``) or LU."""

    def __init__(self, matrix, spd: bool = False):
        if sp.issparse(matrix):
            self.solve = spla.splu(matrix.tocsc()).solve
        elif spd:
            try:
                self.solve = partial(sla.cho_solve, sla.cho_factor(matrix))
            except sla.LinAlgError as exc:
                raise NumericalFailureError(f"matrix is not SPD: {exc}")
        else:
            self.solve = partial(sla.lu_solve, sla.lu_factor(matrix))


def _condition_estimate(a) -> float:
    try:
        if sp.issparse(a):
            lu = spla.splu(a.tocsc())
            op = spla.LinearOperator(a.shape, matvec=lu.solve)
            return float(spla.onenormest(op) * spla.onenormest(a))
        return float(np.linalg.cond(a, 1))
    except Exception:
        return float("nan")


# ---------------------------------------------------------------------------
# discretization containers


@dataclass
class TruthDiscretization:
    """Truth-space geometry plus the SPD inner product on free DoFs.

    ``n_dof`` is the dimension of every system matrix (free DoFs after
    Dirichlet elimination); ``n_nodes`` counts all grid nodes, so the two
    differ exactly by the number of constrained nodes.
    """

    n_dof: int
    n_nodes: int
    x_inner: object
    free_nodes: np.ndarray
    constrained_nodes: np.ndarray
    node_coords: np.ndarray
    label: str
    counters: Counters = field(default_factory=Counters)
    _x_fact: Optional[Factorization] = field(default=None, repr=False)

    def x_factorization(self) -> Factorization:
        if self._x_fact is None:
            self._x_fact = Factorization(self.x_inner, spd=True)
        return self._x_fact

    def x_apply(self, v):
        return self.x_inner @ v


@dataclass
class TruthSolution:
    mu: np.ndarray
    coefficients: np.ndarray


def x_norm(disc: TruthDiscretization, v: np.ndarray) -> float:
    """Norm induced by the discretization's inner-product matrix."""
    val = float(np.dot(v, disc.x_apply(v)))
    return float(np.sqrt(max(val, 0.0)))


def riesz_solve(disc: TruthDiscretization, functional: np.ndarray) -> np.ndarray:
    """Riesz representer of a functional given by its coefficient vector."""
    n_rhs = 1 if functional.ndim == 1 else functional.shape[1]
    disc.counters.riesz_solves += n_rhs
    return disc.x_factorization().solve(functional)


def operator_factorization(problem: AffineProblem, mu, operator=None) -> Factorization:
    """Factorize ``A(mu)`` (``operator`` if given), counting the factorization."""
    a = assemble_operator(problem, mu) if operator is None else operator
    try:
        fact = Factorization(a)
    except Exception as exc:
        raise NumericalFailureError(
            f"factorization of A(mu) failed: {exc}",
            condition_estimate=_condition_estimate(a),
        )
    problem.discretization.counters.truth_factorizations += 1
    return fact


def apply_operator_inverse(
    problem: AffineProblem, fact: Factorization, rhs_block: np.ndarray
) -> np.ndarray:
    """Solve ``A(mu) X = rhs_block`` through ``fact``, a factorization of ``A(mu)``.

    Counts one truth solve per right-hand side.
    """
    n_rhs = 1 if rhs_block.ndim == 1 else rhs_block.shape[1]
    problem.discretization.counters.truth_solves += n_rhs
    return fact.solve(rhs_block)


def truth_solve(problem: AffineProblem, mu) -> TruthSolution:
    """Direct solve of the truth system at one parameter.

    The relative algebraic residual is checked against ``SOLVE_RTOL``; a
    violation raises ``NumericalFailureError`` carrying a condition estimate.
    """
    mu = problem.box.validate(mu)
    a = assemble_operator(problem, mu)
    b = rhs_scale_batch(problem, mu[None, :])[0] * problem.rhs
    u = apply_operator_inverse(problem, operator_factorization(problem, mu, operator=a), b)
    denom = np.linalg.norm(b)
    resid = np.linalg.norm(a @ u - b)
    if resid > SOLVE_RTOL * max(denom, 1e-300):
        raise NumericalFailureError(
            f"truth solve residual {resid:.3e} exceeds {SOLVE_RTOL:.1e} * ||b||",
            condition_estimate=_condition_estimate(a),
        )
    return TruthSolution(mu=mu, coefficients=u)


# ---------------------------------------------------------------------------
# problem 1: collocated variable-coefficient diffusion


def build_diffusion2d(n_x: int = 35):
    """Collocation of (1 + mu1 x) u_xx + (1 + mu2 y) u_yy = exp(4xy).

    Returns the affine problem with dense operator components restricted to
    the (n_x - 2)^2 interior nodes.  The affine split keeps three terms:
    the plain Laplacian-like part, the x-weighted u_xx part, and the
    y-weighted u_yy part, with coefficients (1, mu1, mu2).
    """
    if n_x < 4:
        raise ConfigurationError("diffusion2d needs n_x >= 4 for interior nodes")
    nodes, d1 = chebyshev_diff_matrix(n_x)
    d2 = d1 @ d1
    eye = np.eye(n_x)
    dxx = np.kron(d2, eye)
    dyy = np.kron(eye, d2)
    xf = np.repeat(nodes, n_x)
    yf = np.tile(nodes, n_x)

    idx = np.arange(n_x * n_x).reshape(n_x, n_x)
    interior = idx[1:-1, 1:-1].reshape(-1)
    boundary = np.setdiff1d(np.arange(n_x * n_x), interior)

    pick = np.ix_(interior, interior)
    components = [
        np.ascontiguousarray((dxx + dyy)[pick]),
        np.ascontiguousarray((xf[:, None] * dxx)[pick]),
        np.ascontiguousarray((yf[:, None] * dyy)[pick]),
    ]
    rhs = np.exp(4.0 * xf * yf)[interior]

    # H1-type inner product from Clenshaw-Curtis weights: mass part on the
    # interior nodes plus first-derivative stiffness evaluated on the full
    # grid (interior basis functions vanish on the boundary).
    w1 = clenshaw_curtis_weights(n_x)
    w2 = np.kron(w1, w1)
    dx_cols = np.kron(d1, eye)[:, interior]
    dy_cols = np.kron(eye, d1)[:, interior]
    xmat = (
        np.diag(w2[interior])
        + dx_cols.T @ (w2[:, None] * dx_cols)
        + dy_cols.T @ (w2[:, None] * dy_cols)
    )
    xmat = 0.5 * (xmat + xmat.T)

    output = w2[interior].copy()  # approximates the integral of u over the square

    box = ParameterBox(np.array([-0.99, -0.99]), np.array([0.99, 0.99]))
    disc = TruthDiscretization(
        n_dof=interior.size,
        n_nodes=n_x * n_x,
        x_inner=xmat,
        free_nodes=interior,
        constrained_nodes=boundary,
        node_coords=np.column_stack([xf, yf]),
        label="diffusion2d",
    )
    problem = AffineProblem(
        box=box,
        theta=lambda mus: np.column_stack([np.ones(len(mus)), mus]),
        components=components,
        rhs=rhs,
        x_inner=xmat,
        output=output,
        name="diffusion2d",
        coercivity=ConstantBound(1.0),
        discretization=disc,
    )
    return problem


# ---------------------------------------------------------------------------
# problem 2: 3x3 thermal block, P1 elements


def _thermal_mesh(s: int):
    h = 1.0 / (s - 1)
    ax = np.linspace(0.0, 1.0, s)
    xg, yg = np.meshgrid(ax, ax, indexing="xy")  # node = j*s + i at (i*h, j*h)
    coords = np.column_stack([xg.reshape(-1), yg.reshape(-1)])

    tris = []
    for j in range(s - 1):
        for i in range(s - 1):
            n00 = j * s + i
            n10 = n00 + 1
            n01 = n00 + s
            n11 = n01 + 1
            tris.append((n00, n10, n11))
            tris.append((n00, n11, n01))
    return h, coords, np.asarray(tris, dtype=np.int64)


def build_thermal_block(nodes_per_side: int = 19):
    """P1 finite elements for the 3x3 conductivity-block problem.

    The square is split into nine equal blocks, each carrying one parameter
    as its conductivity.  Unit influx is imposed on the base edge, the top
    edge is clamped to zero, and the output functional integrates the trace
    of the solution over the base.
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
        r = np.repeat(tris[mask], 3, axis=1).reshape(-1)
        c = np.tile(tris[mask], (1, 3)).reshape(-1)
        kq = sp.coo_matrix((vals, (r, c)), shape=(n_nodes, n_nodes)).tocsr()
        stiff.append(kq)

    me = (np.full((3, 3), 1.0) + np.eye(3)) / 12.0
    mvals = (area[:, None, None] * me[None, :, :]).reshape(-1)
    mass = sp.coo_matrix((mvals, (rows, cols)), shape=(n_nodes, n_nodes)).tocsr()

    node_i = np.arange(n_nodes) % s
    node_j = np.arange(n_nodes) // s
    constrained = np.flatnonzero(node_j == s - 1)  # top edge, zero Dirichlet
    free = np.flatnonzero(node_j < s - 1)

    # base-edge trace integral: P1 edge mass applied to the constant one
    load_full = np.zeros(n_nodes)
    bottom = np.flatnonzero(node_j == 0)
    load_full[bottom] = h
    load_full[bottom[node_i[bottom] == 0]] = h / 2.0
    load_full[bottom[node_i[bottom] == s - 1]] = h / 2.0

    pick = np.ix_(free, free)
    components = [kq[pick].tocsr() for kq in stiff]
    ktot = components[0].copy()
    for kq in components[1:]:
        ktot = ktot + kq
    xmat = (mass[pick].tocsr() + ktot).tocsr()
    rhs = load_full[free]
    output = rhs.copy()

    box = ParameterBox(np.full(9, 0.1), np.full(9, 10.0))
    disc = TruthDiscretization(
        n_dof=free.size,
        n_nodes=n_nodes,
        x_inner=xmat,
        free_nodes=free,
        constrained_nodes=constrained,
        node_coords=coords,
        label="thermalblock",
    )
    problem = AffineProblem(
        box=box,
        theta=lambda mus: np.asarray(mus, dtype=float).copy(),
        components=components,
        rhs=rhs,
        x_inner=xmat,
        output=output,
        name="thermalblock",
        coercivity=MinThetaBound(np.ones(9)),
        discretization=disc,
    )
    return problem

