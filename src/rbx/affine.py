"""Affine-parametric problem descriptions.

An :class:`AffineProblem` bundles the parameter box (``validate_rows`` is
its one check), the coefficient functions ``theta_q``, references to the
parameter-independent operator components ``A_q``, the load/output vectors,
and the truth space that owns the inner product.  A problem's ``components``
and ``discretization`` must not be reassigned after construction: its
``symmetric`` flag and its sparsity ``pattern`` are computed once, on first
use, from the components it was built with.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .errors import InvalidParameterError, NumericalFailureError, ResourceError

# Hard cap on training-set size: number of float64 entries (points * dims).
TRAINING_CAP_ENTRIES = 50_000_000


@dataclass(frozen=True)
class ParameterBox:
    """Axis-aligned box of admissible parameter vectors."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape or lo.ndim != 1:
            raise InvalidParameterError("box bounds must be 1-d arrays of equal length")
        if not np.all(lo < hi):
            raise InvalidParameterError("box bounds must satisfy lower < upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def validate_rows(self, mus) -> np.ndarray:
        """``mus`` as float rows (b, p), naming the first row outside the box: the
        box's one check, which takes one ``mu`` as ``np.asarray(mu, dtype=float)[None]``."""
        mus = np.asarray(mus, dtype=float)
        if mus.ndim != 2 or mus.shape[1] != self.dim:
            raise InvalidParameterError(
                f"parameter rows have shape {mus.shape}, expected (b, {self.dim})"
            )
        inside = np.all((mus >= self.lower) & (mus <= self.upper), axis=1)
        if not inside.all():
            j = int(np.argmin(inside))
            raise InvalidParameterError(f"parameter {mus[j]} at row {j} lies outside the box")
        return mus


@dataclass(frozen=True)
class TrainingSet:
    """Finite sample of the parameter box used by the greedy sweeps.

    ``points`` has one parameter per row.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise InvalidParameterError("training points must form a 2-d array")
        object.__setattr__(self, "points", pts)

    @property
    def n_train(self) -> int:
        return self.points.shape[0]


@dataclass
class AffineProblem:
    """Parametric operator written as ``A(mu) = sum_q theta_q(mu) * A_q``.

    Each component ``A_q`` is a dense ndarray, a sparse matrix or a
    ``KroneckerSum`` on the free DoFs.  ``theta`` maps parameter rows (b, p)
    to coefficient rows (b, Q); ``rhs_theta`` maps them to the (b,) load
    scales and may be omitted when the load does not depend on the
    parameter.  A single parameter is a batch of one.  ``discretization`` is
    the truth space (``rbx.truth.TruthDiscretization``): its ``x_inner`` is
    the inner product the error bound is measured in, and its ``counters``
    count the problem's work.  ``coercivity`` is the bound strategy consumed
    by the error estimator (see ``rbx.bounds``); every problem needs one,
    because the package certifies coercive problems only.  So a
    ``symmetric`` problem is symmetric positive definite: its truth solves
    and the training sweeps of its reduced models use Cholesky factors.  For
    a nonsymmetric problem the bound must bound the inf-sup constant of
    ``A(mu)`` in X from below.
    """

    box: ParameterBox
    theta: Callable[[np.ndarray], np.ndarray]
    components: list
    rhs: np.ndarray
    output: np.ndarray
    discretization: object
    coercivity: object
    rhs_theta: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not self.components:
            raise InvalidParameterError("at least one operator component is required")
        n = self.components[0].shape[0]
        if any(a.shape != (n, n) for a in self.components):
            raise InvalidParameterError("component matrices must share one square shape")
        if len({isinstance(a, KroneckerSum) for a in self.components}) > 1:
            raise InvalidParameterError("either every component is a KroneckerSum or none is")
        if self.discretization.x_inner.shape != (n, n):
            raise InvalidParameterError("x_inner must match the component dimension")
        self.rhs = np.asarray(self.rhs, dtype=float)
        self.output = np.asarray(self.output, dtype=float)
        if self.rhs.shape != (n,) or self.output.shape != (n,):
            raise InvalidParameterError("rhs/output vectors must have the component dimension")
        if not callable(getattr(self.coercivity, "lower_bound_batch", None)):
            raise InvalidParameterError("coercivity must be a bound strategy (see rbx.bounds)")

    @property
    def n_dof(self) -> int:
        return self.components[0].shape[0]

    @property
    def n_terms(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.box.dim

    @cached_property
    def symmetric(self) -> bool:
        """Whether every component equals its transpose exactly (computed once)."""
        return all(
            a.symmetric if hasattr(a, "symmetric") else (as_csr(a) != as_csr(a).T).nnz == 0
            for a in self.components
        )

    @cached_property
    def pattern(self) -> Optional[SparsePattern]:
        """The sparse components' ``SparsePattern`` (built once); None for dense ones."""
        if all(sp.issparse(a) for a in self.components):
            return SparsePattern(self.components)
        return None

    @property
    def counters(self):
        return self.discretization.counters

    def assemble(self, theta: np.ndarray):
        """``A = sum_q theta[q] A_q`` for one coefficient row ``theta`` (Q,).

        This is the package's only assembly of the operator from its
        components.  Sparse components are summed on the cached ``pattern``
        in one product (a CSR matrix that keeps the pattern's explicit
        zeros); dense ones and Kronecker sums are added one at a time, so the
        sum of ``KroneckerSum`` components is a ``KroneckerSum``.
        """
        if self.pattern is not None:
            return self.pattern.assemble(theta)
        acc = self.components[0] * theta[0]
        for q in range(1, self.n_terms):
            acc = acc + theta[q] * self.components[q]
        return acc


class KroneckerSum:
    """The operator ``left (x) I + I (x) right`` of n = m * m DoFs, kept as its m x m factors.

    DoF ``i * m + j`` couples to ``left`` through ``i`` and to ``right``
    through ``j``: ``@`` maps ``vec(V)`` (row-major) to
    ``vec(left V + V right^T)`` in O(m^3), for a vector or each column of
    an (n, k) block.  Scalar multiples and sums stay Kronecker sums, and
    ``tocsr`` is the one explicit matrix.
    """

    __array_ufunc__ = None  # NumPy scalars and arrays defer to the methods below

    def __init__(self, left, right):
        self.left = np.asarray(left, dtype=float)
        self.right = np.asarray(right, dtype=float)
        m = self.left.shape[0]
        if self.left.shape != (m, m) or self.right.shape != (m, m):
            raise InvalidParameterError("Kronecker-sum factors must be two m x m matrices")
        self.shape = (m * m, m * m)

    @property
    def T(self) -> KroneckerSum:
        return KroneckerSum(self.left.T, self.right.T)

    @property
    def symmetric(self) -> bool:
        """Whether the operator equals its transpose exactly."""
        return np.array_equal(self.left, self.left.T) and np.array_equal(self.right, self.right.T)

    def __matmul__(self, v):
        v = np.asarray(v, dtype=float)
        m = self.left.shape[0]
        x = v.reshape(m, m, -1)
        out = (self.left @ x.reshape(m, -1)).reshape(x.shape) + self.right @ x
        return out.reshape(v.shape)

    def __mul__(self, c):
        if np.ndim(c) != 0:
            return NotImplemented
        return KroneckerSum(c * self.left, c * self.right)

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, KroneckerSum):
            return NotImplemented
        return KroneckerSum(self.left + other.left, self.right + other.right)

    def tocsr(self) -> sp.csr_matrix:
        """The operator as an explicit sparse matrix."""
        eye = sp.identity(self.left.shape[0])
        return sp.csr_matrix(sp.kron(self.left, eye) + sp.kron(eye, self.right))

    def factorize(self):
        """Solve function of the operator by Bartels-Stewart.

        With ``P = left = Zp Tp Zp^T`` and ``R = right = Zr Tr Zr^T`` (real Schur
        forms), ``vec(B)`` has the solution ``vec(U)`` of ``P U + U R^T = B``,
        ``U = Zp Y Zr^T``, where ``dtrsyl`` solves ``Tp Y + Y Tr^T = Zp^T B Zr``
        in O(m^3), one column at a time.  Close eigenvalues of ``P`` and ``-R``
        raise ``NumericalFailureError`` with a condition estimate.
        """
        tp, zp = sla.schur(self.left, output="real")
        tr, zr = sla.schur(self.right, output="real")
        m = self.left.shape[0]

        def solve(b):
            b = np.asarray(b, dtype=float)
            c = zp.T @ b.reshape(m, m, -1).transpose(2, 0, 1) @ zr
            for j in range(c.shape[0]):
                y, scale, info = sla.lapack.dtrsyl(tp, tr, c[j], tranb="T")
                if info != 0:
                    raise NumericalFailureError(
                        f"Sylvester solve of the Kronecker sum failed (dtrsyl info {info})",
                        condition_estimate=condition_estimate(self),
                    )
                c[j] = y / scale
            return (zp @ c @ zr.T).transpose(1, 2, 0).reshape(b.shape)

        return solve


class SeparableInnerProduct:
    """The SPD operator ``(W + K) (x) W + W (x) K`` of n = m * m DoFs, kept as its 1-d factors.

    ``W = diag(weights)`` holds positive 1-d quadrature weights and ``K``
    (``stiffness``) a symmetric positive semidefinite 1-d stiffness, both
    m x m; the DoF layout is ``KroneckerSum``'s.  ``@`` maps ``vec(V)`` to
    ``vec((W + K) V W + W V K)`` in O(m^3) for a vector or each column of an
    (n, k) block, ``factorize`` solves by fast diagonalization, and
    ``tocsr`` is the one explicit matrix.
    """

    __array_ufunc__ = None  # NumPy scalars and arrays defer to the methods below

    def __init__(self, weights, stiffness):
        self.weights = np.asarray(weights, dtype=float)
        self.stiffness = np.asarray(stiffness, dtype=float)
        m = self.weights.size
        if self.weights.shape != (m,) or self.stiffness.shape != (m, m):
            raise InvalidParameterError(
                "inner-product factors must be m weights and an m x m stiffness"
            )
        if not np.all(self.weights > 0):
            raise InvalidParameterError("inner-product weights must be positive")
        self.shape = (m * m, m * m)

    def __matmul__(self, v):
        v = np.asarray(v, dtype=float)
        w, k = self.weights, self.stiffness
        m = w.size
        # one (m, m) grid per column, as a view when v is a transposed block
        x = v.reshape(m * m, -1).T.reshape(-1, m, m)
        out = np.matmul(np.diag(w) + k, x)
        out *= w
        out += w[:, None] * (x.reshape(-1, m) @ k).reshape(x.shape)
        return out.reshape(-1, m * m).T.reshape(v.shape)

    def tocsr(self) -> sp.csr_matrix:
        """The operator as an explicit sparse matrix."""
        w, k = sp.diags(self.weights), sp.csr_matrix(self.stiffness)
        return sp.csr_matrix(sp.kron(w + k, w) + sp.kron(w, k))

    def factorize(self):
        """Solve function of the operator by fast diagonalization (Lynch, Rice & Thomas, 1964).

        With ``s = sqrt(weights)`` and ``R = K / (s s^T) = U diag(sigma) U^T``
        (one ``eigh``), the operator is ``S ((I + R) (x) I + I (x) R) S`` with
        ``S = diag(s) (x) diag(s)``, so ``vec(B)`` has the solution ``vec(S^-1
        U Y U^T S^-1)`` with ``Y = (U^T (S^-1 B) U) / (1 + sigma_i + sigma_j)``:
        four m x m products per column and no Sylvester solve.
        """
        s = np.sqrt(self.weights)
        sigma, u = np.linalg.eigh(self.stiffness / np.outer(s, s))
        denominators = 1.0 + sigma[:, None] + sigma[None, :]
        if not denominators.min() > 0:
            raise NumericalFailureError(
                "inner product is not SPD: its stiffness has a negative eigenvalue",
                condition_estimate=condition_estimate(self),
            )
        scale = 1.0 / np.outer(s, s)
        m = s.size

        def solve(b):
            b = np.asarray(b, dtype=float)
            y = b.reshape(m * m, -1).T.reshape(-1, m, m) * scale
            y = (u.T @ y).reshape(-1, m) @ u
            y = y.reshape(-1, m, m) / denominators
            y = (u @ y).reshape(-1, m) @ u.T
            y = y.reshape(-1, m, m) * scale
            return y.reshape(-1, m * m).T.reshape(b.shape)

        return solve


class SparsePattern:
    """The union sparsity pattern of square sparse matrices ``M_q``, without the
    entries zero in every ``M_q`` (P1 stiffness leaves exact zeros on hypotenuses).

    ``values`` (Q, nnz) holds each matrix's entries on the union's canonical
    CSR ``indptr``/``indices``, so ``assemble(c)`` forms ``sum_q c_q M_q``
    as one product, with no sparse additions.  ``band`` lays the pattern
    out for LAPACK's banded Cholesky, and ``cholesky`` factorizes an SPD
    matrix on the pattern in that layout.
    """

    def __init__(self, matrices):
        mats = [sp.coo_matrix(m) for m in matrices]
        n = mats[0].shape[0]
        keys = [m.row.astype(np.int64) * n + m.col for m in mats]
        union = np.unique(np.concatenate(keys))
        values = np.zeros((len(mats), union.size))
        for q, (m, k) in enumerate(zip(mats, keys)):
            np.add.at(values[q], np.searchsorted(union, k), m.data)
        kept = values.any(axis=0)
        union, self.values = union[kept], values[:, kept]
        self.n = n
        self.indices = union % n
        self.indptr = np.searchsorted(union // n, np.arange(n + 1))

    def assemble(self, coefs: np.ndarray) -> sp.csr_matrix:
        """``sum_q coefs[q] M_q`` as a CSR matrix on the pattern's indices."""
        return sp.csr_matrix((coefs @ self.values, self.indices, self.indptr), (self.n, self.n))

    @cached_property
    def band(self):
        """``(order, bandwidth, lower, slots)`` of the pattern's band layout.

        ``order`` is the reverse Cuthill-McKee permutation of the symmetrized
        pattern and ``bandwidth`` the half-bandwidth of the permuted one.  The ``lower`` entries
        (positions into ``indices``) fall on or below the permuted diagonal,
        and ``slots`` are their places in the column-major (bandwidth + 1, n)
        lower band array that ``dpbtrf`` takes.
        """
        shape = (self.n, self.n)
        ones = sp.csr_matrix((np.ones(self.indices.size), self.indices, self.indptr), shape)
        order = reverse_cuthill_mckee((ones + ones.T).tocsr(), symmetric_mode=True)
        rank = np.empty(self.n, dtype=np.int64)
        rank[order] = np.arange(self.n)
        rows = rank[np.repeat(np.arange(self.n), np.diff(self.indptr))]
        cols = rank[self.indices]
        lower = np.flatnonzero(rows >= cols)
        bandwidth = int((rows - cols)[lower].max(initial=0))
        slots = cols[lower] * (bandwidth + 1) + (rows - cols)[lower]
        return order, bandwidth, lower, slots

    def cholesky(self, matrix) -> Callable:
        """Solve function of ``dpbtrf``'s factor of ``matrix``, an SPD CSR on the pattern.

        A matrix that is not positive definite raises ``NumericalFailureError``
        with a condition estimate.
        """
        order, bandwidth, lower, slots = self.band
        n = self.n
        ab = np.zeros(n * (bandwidth + 1))
        ab[slots] = matrix.data[lower]
        factor, info = sla.lapack.dpbtrf(ab.reshape(n, bandwidth + 1).T, lower=1, overwrite_ab=1)
        if info != 0:
            raise NumericalFailureError(
                f"matrix is not SPD: banded Cholesky failed at pivot {info}",
                condition_estimate=condition_estimate(matrix),
            )

        def solve(b):
            b = np.asarray(b, dtype=float)
            x, _ = sla.lapack.dpbtrs(factor, b.reshape(n, -1)[order], lower=1, overwrite_b=1)
            out = np.empty_like(x)
            out[order] = x
            return out.reshape(b.shape)

        return solve


def factorize(a, spd: bool = False, pattern: Optional[SparsePattern] = None) -> Callable:
    """Solve function of ``a`` (``solve(b)``, b (n,) or (n, k)); the one place that picks a route.

    A structured operator (``KroneckerSum``, ``SeparableInnerProduct``)
    factorizes itself, whatever ``spd``.  Any other ``a`` is taken as a
    sparse matrix (a dense array becomes a CSR copy).  An SPD one gets
    ``SparsePattern.cholesky``: pass ``pattern`` when ``a`` was assembled on
    it, so that its order and band layout are reused; otherwise it is built
    from ``a``.  Others get SuperLU.  A Cholesky factorization of a matrix
    that is not SPD raises ``NumericalFailureError`` with a condition
    estimate.
    """
    if hasattr(a, "factorize"):
        return a.factorize()
    if not sp.issparse(a):
        a = sp.csr_matrix(a)
    if not spd:
        return spla.splu(a.tocsc()).solve
    if pattern is None:
        pattern = SparsePattern([a])
        a = pattern.assemble(np.ones(1))
    return pattern.cholesky(a)


def as_csr(a) -> sp.csr_matrix:
    """An operator's explicit form: its ``tocsr()`` if it has one, else a CSR copy."""
    return a.tocsr() if hasattr(a, "tocsr") else sp.csr_matrix(a)


def condition_estimate(a) -> float:
    """1-norm condition estimate from a sparse LU of ``a``'s explicit form.

    inf when the LU finds ``a`` exactly singular, nan if it fails otherwise.
    """
    a = as_csr(a)
    try:
        lu = spla.splu(a.tocsc())
        op = spla.LinearOperator(a.shape, matvec=lu.solve, rmatvec=partial(lu.solve, trans="T"))
        return float(spla.onenormest(op) * spla.onenormest(a))
    except Exception as exc:
        return float("inf") if "exactly singular" in str(exc) else float("nan")


def checked_shape(name: str, out, shape: tuple) -> np.ndarray:
    """The return ``out`` of a problem's callable ``name`` as floats; a shape other
    than ``shape`` raises ``InvalidParameterError``."""
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        raise InvalidParameterError(f"{name} returned shape {out.shape}, expected {shape}")
    return out


def evaluate_theta_batch(problem: AffineProblem, mus: np.ndarray) -> np.ndarray:
    """Coefficient rows (b, Q) of the parameter rows ``mus`` (b, p)."""
    mus = np.asarray(mus, dtype=float)
    return checked_shape("theta", problem.theta(mus), (mus.shape[0], problem.n_terms))


def rhs_scale_batch(problem: AffineProblem, mus: np.ndarray) -> np.ndarray:
    """Load scales (b,) of the parameter rows ``mus``; ones without ``rhs_theta``."""
    mus = np.asarray(mus, dtype=float)
    if problem.rhs_theta is None:
        return np.ones(mus.shape[0])
    return checked_shape("rhs_theta", problem.rhs_theta(mus), (mus.shape[0],))


def sample_training_set(
    box: ParameterBox,
    kind: str,
    n_per_dim: Optional[int] = None,
    count: Optional[int] = None,
    seed: Optional[int] = None,
) -> TrainingSet:
    """Sample the box either on a tensor grid or uniformly at random.

    Grid points are ordered lexicographically in the dimension index (first
    coordinate varies slowest) with the box endpoints included.  Random
    sampling uses a seeded PCG64 generator so runs are reproducible.  A
    sample of more than ``TRAINING_CAP_ENTRIES`` floats raises
    ``ResourceError``.
    """
    p, cap = box.dim, TRAINING_CAP_ENTRIES
    if kind == "grid":
        if not n_per_dim or n_per_dim < 2:
            raise InvalidParameterError("grid sampling needs n_per_dim >= 2")
        total = n_per_dim**p
        if total * p > cap:
            raise ResourceError(
                f"grid of {total} points in {p} dims exceeds the cap of {cap} entries"
            )
        axes = [np.linspace(box.lower[i], box.upper[i], n_per_dim) for i in range(p)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
        return TrainingSet(pts)
    if kind == "random":
        if not count or count < 1:
            raise InvalidParameterError("random sampling needs a positive count")
        if count * p > cap:
            raise ResourceError(
                f"{count} random points in {p} dims exceed the cap of {cap} entries"
            )
        rng = np.random.default_rng(seed)
        pts = box.lower + rng.random((count, p)) * (box.upper - box.lower)
        return TrainingSet(pts)
    raise InvalidParameterError(f"unknown sampling kind {kind!r}")
