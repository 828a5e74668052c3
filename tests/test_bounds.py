"""The certified coercivity anchor of ``MinThetaBound``.

The anchor is a sparse shift-invert eigenvalue estimate lowered by a 1e-8
relative margin and certified by a Cholesky factorization of the shifted
operator.  The dense generalized eigensolver below is the test's own
reference; the library has none.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import rbx
from rbx import AffineProblem, MinThetaBound, ParameterBox, TruthDiscretization
from rbx.affine import KroneckerSum, SeparableInnerProduct
from rbx.bounds import _certified_anchor_alpha
from rbx.errors import BoundStrategyError

from conftest import sequential_sum


def _anchor_alpha(problem) -> float:
    bound = MinThetaBound(np.asarray(problem.coercivity.anchor_mu))
    bound.lower_bound_batch(problem, problem.box.lower[None, :])
    return bound.anchor_alpha


def _anchor_pair(problem):
    a = sequential_sum(problem, problem.coercivity.anchor_mu).toarray()
    x = problem.discretization.x_inner.toarray()
    return 0.5 * (a + a.T), 0.5 * (x + x.T)


def _dense_smallest_eigenvalue(a, x) -> float:
    return float(sla.eigh(a, x, subset_by_index=[0, 0], eigvals_only=True)[0])


@pytest.mark.parametrize("nodes_per_side", [7, 19])
def test_thermalblock_anchor_matches_dense_reference(nodes_per_side):
    problem = rbx.build_thermal_block(nodes_per_side=nodes_per_side)
    alpha = _anchor_alpha(problem)
    a, x = _anchor_pair(problem)
    reference = _dense_smallest_eigenvalue(a, x)
    estimate = alpha / (1.0 - 1e-8)
    assert abs(estimate - reference) <= 1e-12 * reference
    assert 0 < alpha <= reference
    # the certificate: a - alpha x is positive definite
    sla.cholesky(a - alpha * x)


def test_anchor_is_bit_for_bit_repeatable():
    # fresh bounds each time; a random Lanczos start vector changes the last bits
    problem = rbx.build_thermal_block(nodes_per_side=19)
    assert len({_anchor_alpha(problem) for _ in range(4)}) == 1


def test_given_anchor_alpha_is_kept():
    problem = rbx.build_thermal_block(nodes_per_side=7)
    bound = MinThetaBound(np.ones(9), anchor_alpha=0.5)
    values = bound.lower_bound_batch(problem, np.full((2, 9), 2.0))
    assert bound.anchor_alpha == 0.5
    np.testing.assert_array_equal(values, [1.0, 1.0])


def _shifted_rod(shift: float, n: int = 99) -> AffineProblem:
    """-(mu u')' - shift u on (0, 1), P1 elements, X = stiffness + mass."""
    h = 1.0 / (n + 1)
    stiff = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n), format="csr") / h
    mass = sp.diags([1.0, 4.0, 1.0], [-1, 0, 1], shape=(n, n), format="csr") * (h / 6)
    return AffineProblem(
        box=ParameterBox([0.5], [2.0]),
        theta=lambda mus: np.asarray(mus, dtype=float).copy(),
        components=[(stiff - shift * mass).tocsr()],
        rhs=np.full(n, h),
        output=np.full(n, h),
        discretization=TruthDiscretization((stiff + mass).tocsr()),
        coercivity=MinThetaBound(anchor_mu=[1.0]),
    )


def test_coercive_rod_anchor_matches_dense_reference():
    problem = _shifted_rod(shift=5.0)
    alpha = _anchor_alpha(problem)
    reference = _dense_smallest_eigenvalue(*_anchor_pair(problem))
    assert 0 < alpha <= reference
    assert abs(alpha / (1.0 - 1e-8) - reference) <= 1e-12 * reference


def test_indefinite_anchor_operator_is_refused():
    # stiffness eigenvalues against the mass are about pi^2 and 4 pi^2; a
    # shift of 35 makes the first generalized eigenvalue about -2.3 and the
    # second, the one closest to zero, about +0.11, so the shift-invert
    # estimate is positive but does not bound the spectrum below
    problem = _shifted_rod(shift=35.0)
    a, x = _anchor_pair(problem)
    eigenvalues = sla.eigh(a, x, subset_by_index=[0, 1], eigvals_only=True)
    assert eigenvalues[0] < 0 < eigenvalues[1] < -eigenvalues[0]
    with pytest.raises(BoundStrategyError, match="Cholesky check.*anchor_alpha"):
        problem.coercivity.lower_bound_batch(problem, np.ones((1, 1)))


def test_anchor_on_a_large_mesh_allocates_no_dense_matrix():
    # 5256 DoFs: a dense pair of n_dof**2 float64 matrices would be 442 MB
    problem = rbx.build_thermal_block(nodes_per_side=73)
    assert problem.n_dof == 5256
    tracemalloc.start()
    try:
        alpha = _anchor_alpha(problem)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert alpha > 0
    assert peak < 50e6, f"anchor peak {peak / 1e6:.1f} MB"


def test_kronecker_sum_anchor_matches_dense_components():
    # a symmetric problem whose components are Kronecker sums: the anchor is
    # certified on their explicit sparse matrix, and the bound equals the one
    # the same components gave as dense arrays
    m = 6
    lap = 49.0 * (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))
    zero, eye = np.zeros((m, m)), np.eye(m)
    problem = AffineProblem(
        box=ParameterBox([0.5, 0.5], [2.0, 2.0]),
        theta=lambda mus: np.asarray(mus, dtype=float).copy(),
        components=[KroneckerSum(lap, zero), KroneckerSum(zero, lap)],
        rhs=np.ones(m * m),
        output=np.ones(m * m),
        discretization=TruthDiscretization(np.kron(lap, eye) + np.kron(eye, lap) + np.eye(m * m)),
        coercivity=MinThetaBound(anchor_mu=[1.0, 1.0]),
    )
    assert problem.symmetric
    (value,) = problem.coercivity.lower_bound_batch(problem, np.array([[1.0, 1.5]]))
    assert value == pytest.approx(0.95100464468843, rel=1e-12)


def test_structured_inner_product_anchor_matches_its_explicit_form():
    # the anchor takes the explicit form of a structured X, so MinThetaBound
    # certifies a problem whose X is a SeparableInnerProduct
    m = 6
    lap = 49.0 * (2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1))
    zero = np.zeros((m, m))
    x = SeparableInnerProduct(np.linspace(0.5, 1.5, m), lap / 49.0)
    problem = AffineProblem(
        box=ParameterBox([0.5, 0.5], [2.0, 2.0]),
        theta=lambda mus: np.asarray(mus, dtype=float).copy(),
        components=[KroneckerSum(lap, zero), KroneckerSum(zero, lap)],
        rhs=np.ones(m * m),
        output=np.ones(m * m),
        discretization=TruthDiscretization(x),
        coercivity=MinThetaBound(anchor_mu=[1.0, 1.0]),
    )
    a = problem.assemble(np.ones(2))
    alpha = _certified_anchor_alpha(a, x.tocsr())
    assert alpha > 0
    assert _certified_anchor_alpha(a, x) == alpha
    (value,) = problem.coercivity.lower_bound_batch(problem, np.array([[1.0, 1.0]]))
    assert value == alpha
