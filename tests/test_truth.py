"""Truth discretizations checked against independently computable solutions."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import rbx
from rbx.affine import AffineProblem, KroneckerSum, ParameterBox, as_csr, evaluate_theta_batch
from rbx.bounds import ConstantBound
from rbx.errors import ConfigurationError, NumericalFailureError
from rbx.truth import (
    TruthDiscretization,
    _thermal_mesh,
    apply_operator_inverse,
    chebyshev_diff_matrix,
    chebyshev_lobatto_nodes,
    clenshaw_curtis_weights,
    factorize,
    riesz_solve,
    truth_solve,
    x_norm,
)

from conftest import explicit, sequential_sum


def diffusion_free_coords(n_x=10):
    """(x, y) of the interior collocation nodes, x varying slowest; each
    coordinate runs over the Lobatto nodes cos(pi k / (n_x - 1)), +1 first."""
    inner = np.cos(np.pi * np.arange(1, n_x - 1) / (n_x - 1))
    return np.repeat(inner, n_x - 2), np.tile(inner, n_x - 2)


def thermal_free_y(s=7):
    """y of the free nodes: node j s + i sits at (i h, j h), the top row j = s - 1 is clamped."""
    return np.repeat(np.arange(s - 1), s) / (s - 1)


class TestSpectralPieces:
    def test_lobatto_nodes_n5(self):
        nodes = chebyshev_lobatto_nodes(5)
        expected = np.array([1.0, np.sqrt(0.5), 0.0, -np.sqrt(0.5), -1.0])
        np.testing.assert_allclose(nodes, expected, atol=1e-15)

    def test_nodes_need_two(self):
        with pytest.raises(ConfigurationError):
            chebyshev_lobatto_nodes(1)

    def test_derivative_exact_on_cubic(self):
        x, d = chebyshev_diff_matrix(8)
        np.testing.assert_allclose(d @ x**3, 3.0 * x**2, atol=1e-11)
        np.testing.assert_allclose(d @ np.ones_like(x), 0.0, atol=1e-12)

    def test_second_derivative_exact_on_quartic(self):
        x, d = chebyshev_diff_matrix(9)
        np.testing.assert_allclose((d @ d) @ x**4, 12.0 * x**2, atol=1e-9)

    def test_quadrature_weights_integrate_polynomials(self):
        for n in (2, 5, 9, 12):
            x = chebyshev_lobatto_nodes(n)
            w = clenshaw_curtis_weights(n)
            assert w.shape == (n,)
            np.testing.assert_allclose(w.sum(), 2.0, atol=1e-13)
            if n >= 4:
                np.testing.assert_allclose(w @ x**2, 2.0 / 3.0, atol=1e-13)

    def test_two_point_weights(self):
        np.testing.assert_array_equal(clenshaw_curtis_weights(2), [1.0, 1.0])

    def test_weights_positive(self):
        for n in (3, 10, 35):
            assert np.all(clenshaw_curtis_weights(n) > 0)


class TestFactorizations:
    def test_dense_and_sparse_agree(self):
        # an ndarray is factorized as its CSR copy, by the same route
        rng = np.random.default_rng(0)
        f = rng.standard_normal((12, 12))
        b = rng.standard_normal(12)
        for a, spd in ((f + 12.0 * np.eye(12), False), (f @ f.T + 12.0 * np.eye(12), True)):
            dense = factorize(a, spd=spd)(b)
            np.testing.assert_array_equal(dense, factorize(sp.csr_matrix(a), spd=spd)(b))
            np.testing.assert_allclose(a @ dense, b, rtol=1e-10)

    def test_spd_handle_solves(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((10, 10))
        a = f @ f.T + 10.0 * np.eye(10)
        b = rng.standard_normal(10)
        np.testing.assert_allclose(a @ factorize(a, spd=True)(b), b, rtol=1e-10)

    def test_spd_rejects_indefinite_dense(self):
        bad = np.diag([2.0, -1.0])
        with pytest.raises(NumericalFailureError) as failure:
            factorize(bad, spd=True)
        estimate = failure.value.condition_estimate
        assert np.isfinite(estimate) and estimate > 1.0

    @pytest.mark.parametrize("s", [7, 19])
    def test_sparse_spd_matches_spsolve(self, s):
        problem = rbx.build_thermal_block(nodes_per_side=s)
        b = np.random.default_rng(s).standard_normal(problem.n_dof)
        mu = np.linspace(0.1, 10.0, 9)
        matrices = [
            sequential_sum(problem, mu),
            problem.pattern.assemble(mu),
            problem.discretization.x_inner,
        ]
        patterns = [None, problem.pattern, None]
        for a, pattern in zip(matrices, patterns):
            expected = spla.spsolve(a.tocsc(), b)
            got = factorize(a, spd=True, pattern=pattern)(b)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize(
        "route", ["kronecker-sum", "separable", "sparse-spd", "superlu", "dense-spd", "dense-lu"]
    )
    def test_every_route_keeps_right_hand_side_shapes(self, route, diffusion_small, thermal_small):
        # each route solves vectors, single columns and blocks in their own
        # shape, and agrees with spsolve on the explicit form; the dense
        # inputs run the sparse routes on their CSR copies
        kron = diffusion_small.assemble(np.array([1.0, 0.3, -0.6]))
        x = thermal_small.discretization.x_inner
        a, spd = {
            "kronecker-sum": (kron, False),
            "separable": (diffusion_small.discretization.x_inner, True),
            "sparse-spd": (x, True),
            "superlu": (kron.tocsr(), False),
            "dense-spd": (x.toarray(), True),
            "dense-lu": (kron.tocsr().toarray(), False),
        }[route]
        solve = factorize(a, spd=spd)
        explicit_a = as_csr(a).tocsc()
        rng = np.random.default_rng(2)
        for shape in [(a.shape[0],), (a.shape[0], 1), (a.shape[0], 5)]:
            b = rng.standard_normal(shape)
            got = solve(b)
            assert got.shape == shape
            expected = spla.spsolve(explicit_a, b).reshape(shape)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_spd_rejects_indefinite_sparse(self):
        diagonal = np.full(12, 2.0)
        diagonal[5] = -3.0
        bad = sp.diags([-np.ones(11), diagonal, -np.ones(11)], [-1, 0, 1], format="csr")
        with pytest.raises(NumericalFailureError) as failure:
            factorize(bad, spd=True)
        assert failure.value.condition_estimate > 1.0


class TestDiffusionProblem:
    def test_operator_exact_on_polynomial(self, diffusion_small):
        # u = (1 - x^2)(1 - y^2) vanishes on the boundary and has degree 2
        # per direction, so collocation differentiation is exact on it.
        x, y = diffusion_free_coords()
        u = (1.0 - x**2) * (1.0 - y**2)
        uxx = -2.0 * (1.0 - y**2)
        uyy = -2.0 * (1.0 - x**2)
        mu = np.array([0.37, -0.8])
        expected = (1.0 + mu[0] * x) * uxx + (1.0 + mu[1] * y) * uyy
        applied = sequential_sum(diffusion_small, mu) @ u
        np.testing.assert_allclose(applied, expected, atol=1e-8)

    def test_manufactured_solution_recovered(self, diffusion_small):
        x, y = diffusion_free_coords()
        u = (1.0 - x**2) * (1.0 - y**2)
        mu = np.array([0.5, 0.25])
        f = (1.0 + mu[0] * x) * (-2.0 * (1.0 - y**2)) + (1.0 + mu[1] * y) * (
            -2.0 * (1.0 - x**2)
        )
        solve = factorize(sequential_sum(diffusion_small, mu))
        recovered = apply_operator_inverse(diffusion_small, solve, f)
        np.testing.assert_allclose(recovered, u, atol=1e-8)

    def test_rhs_samples_the_load_field(self, diffusion_small):
        x, y = diffusion_free_coords()
        expected = np.exp(4.0 * x * y)
        np.testing.assert_allclose(diffusion_small.rhs, expected, rtol=1e-14)

    def test_inner_product_matches_quadrature(self, diffusion_small):
        # || v ||_X^2 = sum_k w_k v_k^2 + quadrature of |grad v|^2; check it
        # on the same boundary-vanishing polynomial via exact integrals.
        x, y = diffusion_free_coords()
        v = (1.0 - x**2) * (1.0 - y**2)
        # integral of v^2 = (16/15)^2; integral of |grad v|^2 = 2 * (8/3) * (16/15)
        exact = (16.0 / 15.0) ** 2 + 2.0 * (8.0 / 3.0) * (16.0 / 15.0)
        got = x_norm(diffusion_small.discretization, v) ** 2
        np.testing.assert_allclose(got, exact, rtol=1e-10)

    def test_x_inner_spd(self, diffusion_small):
        xm = diffusion_small.discretization.x_inner.tocsr().toarray()
        np.testing.assert_allclose(xm, xm.T, atol=1e-12)
        vals = np.linalg.eigvalsh(xm)
        assert vals.min() > 0

    def test_truth_solve_counts_and_residual(self, diffusion_small):
        counters = diffusion_small.counters
        before = counters.snapshot()
        sol = truth_solve(diffusion_small, [0.3, 0.3])
        after = counters.snapshot()
        assert after["truth_solves"] == before["truth_solves"] + 1
        assert after["truth_factorizations"] == before["truth_factorizations"] + 1
        a = sequential_sum(diffusion_small, sol.mu)
        resid = np.linalg.norm(a @ sol.coefficients - diffusion_small.rhs)
        assert resid <= 1e-10 * np.linalg.norm(diffusion_small.rhs)

    def test_truth_solve_assembly_per_route(self, diffusion_small, thermal_small, monkeypatch):
        # every truth solve assembles A(mu) once and factorizes what it got:
        # a Kronecker sum for diffusion2d, a CSR on its pattern for
        # thermalblock, and a full array for a dense copy of diffusion2d
        assembled = []
        assemble = AffineProblem.assemble

        def recorded(problem, theta):
            assembled.append(assemble(problem, theta))
            return assembled[-1]

        monkeypatch.setattr(AffineProblem, "assemble", recorded)
        dense = dataclasses.replace(
            diffusion_small, components=[explicit(c) for c in diffusion_small.components]
        )
        truth_solve(diffusion_small, [0.3, -0.2])
        truth_solve(thermal_small, np.full(9, 2.0))
        truth_solve(dense, [0.3, -0.2])
        kron, sparse, full = assembled
        assert isinstance(kron, KroneckerSum)
        assert sp.issparse(sparse)
        np.testing.assert_array_equal(sparse.indices, thermal_small.pattern.indices)
        np.testing.assert_array_equal(sparse.indptr, thermal_small.pattern.indptr)
        assert isinstance(full, np.ndarray) and full.shape == (64, 64)
        np.testing.assert_allclose(full, explicit(kron), rtol=0, atol=1e-12 * np.abs(full).max())

    def test_minimum_size_enforced(self):
        # below n_x = 6 the sampled inf-sup constant falls under the bound 1.0
        for n_x in (3, 4, 5):
            with pytest.raises(ConfigurationError, match="n_x >= 6"):
                rbx.build_diffusion2d(n_x=n_x)


class TestKroneckerSum:
    @pytest.mark.parametrize("n_x", [4, 10, 35])
    def test_factorization_matches_dense_lu(self, n_x):
        mu = np.array([0.3, -0.6])
        if n_x < 6:
            # below the builder's smallest mesh: diffusion2d's sum from its factors
            nodes, d1 = chebyshev_diff_matrix(n_x)
            x, d2 = nodes[1:-1, None], (d1 @ d1)[1:-1, 1:-1]
            a = KroneckerSum((1.0 + mu[0] * x) * d2, (1.0 + mu[1] * x) * d2)
        else:
            problem = rbx.build_diffusion2d(n_x=n_x)
            a = problem.assemble(evaluate_theta_batch(problem, mu[None, :])[0])
        solve = factorize(a)
        lu = sla.lu_factor(explicit(a))
        rng = np.random.default_rng(n_x)
        n = a.shape[0]
        for shape in [(n,), (n, 1), (n, 7)]:
            b = rng.standard_normal(shape)
            got = solve(b)
            expected = sla.lu_solve(lu, b)
            assert got.shape == shape
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_snapshot_factorization_inverts_a_block(self, diffusion_small):
        sol = truth_solve(diffusion_small, [-0.45, 0.8])
        block = np.random.default_rng(3).standard_normal((diffusion_small.n_dof, 9))
        before = diffusion_small.counters.truth_solves
        got = apply_operator_inverse(diffusion_small, sol.solve, block)
        assert diffusion_small.counters.truth_solves == before + 9
        lu = sla.lu_factor(sequential_sum(diffusion_small, sol.mu))
        expected = sla.lu_solve(lu, block)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_singular_factors_fail_with_condition_estimate(self):
        # the eigenvalue 1 of P and -1 - ulp of R leave a Kronecker sum that
        # is singular to working precision
        a = KroneckerSum(
            np.diag([1.0, 2.0, 3.0, 4.0]), -np.diag([np.nextafter(1.0, 2.0), 5.0, 6.0, 7.0])
        )
        problem = AffineProblem(
            box=ParameterBox([0.0], [1.0]),
            theta=lambda mus: np.ones((len(mus), 1)),
            components=[a],
            rhs=np.ones(16),
            output=np.ones(16),
            discretization=TruthDiscretization(np.eye(16)),
            coercivity=ConstantBound(1.0),
        )
        solve = factorize(a)
        for failing in (lambda: truth_solve(problem, [0.5]), lambda: solve(np.ones(16))):
            with pytest.raises(NumericalFailureError, match="dtrsyl") as failure:
                failing()
            estimate = failure.value.condition_estimate
            assert np.isfinite(estimate) and estimate > 1e15


class TestThermalProblem:
    def test_uniform_conductivity_exact(self, thermal_small):
        # with every block at conductivity c the solution is (1 - y) / c,
        # which lies in the P1 space, so the discrete solution is exact
        c = 2.5
        sol = truth_solve(thermal_small, np.full(9, c))
        yfree = thermal_free_y()
        np.testing.assert_allclose(sol.coefficients, (1.0 - yfree) / c, atol=1e-11)
        output = np.dot(thermal_small.output, sol.coefficients)
        np.testing.assert_allclose(output, 1.0 / c, rtol=1e-11)

    def test_layered_conductivity_exact(self, thermal_small):
        # conductivity constant within each horizontal band: the solution
        # depends on y alone and is piecewise linear with breakpoints on
        # band interfaces, all of which are mesh lines, so it is exact.
        c = np.array([2.0, 5.0, 0.5])
        mu = np.repeat(c, 3)  # bands are rows of the 3x3 block layout

        def exact(y):
            ys = np.minimum(1.0, np.maximum(0.0, y))
            val = np.where(
                ys >= 2.0 / 3.0,
                (1.0 - ys) / c[2],
                np.where(
                    ys >= 1.0 / 3.0,
                    1.0 / (3.0 * c[2]) + (2.0 / 3.0 - ys) / c[1],
                    1.0 / (3.0 * c[2]) + 1.0 / (3.0 * c[1]) + (1.0 / 3.0 - ys) / c[0],
                ),
            )
            return val

        sol = truth_solve(thermal_small, mu)
        yfree = thermal_free_y()
        np.testing.assert_allclose(sol.coefficients, exact(yfree), atol=1e-10)

    def test_scaling_homogeneity(self, thermal_small):
        # theta is linear in mu and the load is fixed, so doubling every
        # conductivity halves the solution exactly
        mu = np.array([0.5, 1.0, 2.0, 4.0, 0.3, 4.4, 1.1, 0.7, 3.0])
        u1 = truth_solve(thermal_small, mu).coefficients
        u2 = truth_solve(thermal_small, 2.0 * mu).coefficients
        np.testing.assert_allclose(u2, u1 / 2.0, rtol=1e-11)

    def test_components_symmetric_psd(self, thermal_small):
        for kq in thermal_small.components:
            dense = kq.toarray()
            np.testing.assert_allclose(dense, dense.T, atol=1e-12)
            vals = np.linalg.eigvalsh(dense)
            assert vals.min() > -1e-12

    def test_load_total_is_unit_influx(self, thermal_small):
        # the base edge has length one and carries unit flux
        np.testing.assert_allclose(thermal_small.rhs.sum(), 1.0, rtol=1e-13)

    def test_mesh_matches_cell_loop(self):
        # cell (i, j), j-major, splits into (n00, n10, n11) and (n00, n11, n01)
        for s in (4, 7, 19):
            ref = []
            for j in range(s - 1):
                for i in range(s - 1):
                    n00, n01 = j * s + i, (j + 1) * s + i
                    ref += [(n00, n00 + 1, n01 + 1), (n00, n01 + 1, n01)]
            tris = _thermal_mesh(s)[2]
            assert tris.dtype == np.int64
            np.testing.assert_array_equal(tris, ref)

    def test_mesh_alignment_enforced(self):
        with pytest.raises(ConfigurationError):
            rbx.build_thermal_block(nodes_per_side=9)  # 8 cells, not 3k


class TestRieszMachinery:
    def test_round_trip(self, diffusion_small):
        rng = np.random.default_rng(5)
        disc = diffusion_small.discretization
        f = rng.standard_normal(diffusion_small.n_dof)
        rep = riesz_solve(disc, f)
        np.testing.assert_allclose(disc.x_inner @ rep, f, atol=1e-9)

    def test_riesz_counts_columns(self, thermal_small):
        disc = thermal_small.discretization
        before = disc.counters.riesz_solves
        riesz_solve(disc, np.ones((thermal_small.n_dof, 3)))
        assert disc.counters.riesz_solves == before + 3

    def test_inner_product_symmetry(self, thermal_small):
        rng = np.random.default_rng(6)
        disc = thermal_small.discretization
        v = rng.standard_normal(thermal_small.n_dof)
        w = rng.standard_normal(thermal_small.n_dof)
        assert abs(v @ (disc.x_inner @ w) - w @ (disc.x_inner @ v)) < 1e-10
        assert x_norm(disc, v) > 0

