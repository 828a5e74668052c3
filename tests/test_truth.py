"""Truth discretizations checked against independently computable solutions."""

import numpy as np
import pytest
import scipy.sparse as sp

import rbx
from rbx.affine import assemble_operator
from rbx.errors import ConfigurationError, NumericalFailureError
from rbx.truth import (
    Factorization,
    apply_operator_inverse,
    operator_factorization,
    chebyshev_diff_matrix,
    chebyshev_lobatto_nodes,
    clenshaw_curtis_weights,
    riesz_solve,
    truth_solve,
    x_norm,
)


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
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 12)) + 12.0 * np.eye(12)
        b = rng.standard_normal(12)
        dense = Factorization(a).solve(b)
        sparse = Factorization(sp.csr_matrix(a)).solve(b)
        np.testing.assert_allclose(dense, sparse, rtol=1e-10)
        np.testing.assert_allclose(a @ dense, b, rtol=1e-10)

    def test_spd_handle_solves(self):
        rng = np.random.default_rng(1)
        f = rng.standard_normal((10, 10))
        a = f @ f.T + 10.0 * np.eye(10)
        b = rng.standard_normal(10)
        np.testing.assert_allclose(a @ Factorization(a, spd=True).solve(b), b, rtol=1e-10)

    def test_spd_rejects_indefinite_dense(self):
        bad = np.diag([1.0, -1.0])
        with pytest.raises(NumericalFailureError):
            Factorization(bad, spd=True)


class TestDiffusionProblem:
    def test_operator_exact_on_polynomial(self, diffusion_small):
        # u = (1 - x^2)(1 - y^2) vanishes on the boundary and has degree 2
        # per direction, so collocation differentiation is exact on it.
        disc = diffusion_small.discretization
        coords = disc.node_coords[disc.free_nodes]
        x, y = coords[:, 0], coords[:, 1]
        u = (1.0 - x**2) * (1.0 - y**2)
        uxx = -2.0 * (1.0 - y**2)
        uyy = -2.0 * (1.0 - x**2)
        mu = np.array([0.37, -0.8])
        expected = (1.0 + mu[0] * x) * uxx + (1.0 + mu[1] * y) * uyy
        applied = assemble_operator(diffusion_small, mu) @ u
        np.testing.assert_allclose(applied, expected, atol=1e-8)

    def test_manufactured_solution_recovered(self, diffusion_small):
        disc = diffusion_small.discretization
        coords = disc.node_coords[disc.free_nodes]
        x, y = coords[:, 0], coords[:, 1]
        u = (1.0 - x**2) * (1.0 - y**2)
        mu = np.array([0.5, 0.25])
        f = (1.0 + mu[0] * x) * (-2.0 * (1.0 - y**2)) + (1.0 + mu[1] * y) * (
            -2.0 * (1.0 - x**2)
        )
        recovered = apply_operator_inverse(
            diffusion_small, operator_factorization(diffusion_small, mu), f
        )
        np.testing.assert_allclose(recovered, u, atol=1e-8)

    def test_rhs_samples_the_load_field(self, diffusion_small):
        disc = diffusion_small.discretization
        coords = disc.node_coords[disc.free_nodes]
        expected = np.exp(4.0 * coords[:, 0] * coords[:, 1])
        np.testing.assert_allclose(diffusion_small.rhs, expected, rtol=1e-14)

    def test_inner_product_matches_quadrature(self, diffusion_small):
        # || v ||_X^2 = sum_k w_k v_k^2 + quadrature of |grad v|^2; check it
        # on the same boundary-vanishing polynomial via exact integrals.
        disc = diffusion_small.discretization
        coords = disc.node_coords[disc.free_nodes]
        x, y = coords[:, 0], coords[:, 1]
        v = (1.0 - x**2) * (1.0 - y**2)
        # integral of v^2 = (16/15)^2; integral of |grad v|^2 = 2 * (8/3) * (16/15)
        exact = (16.0 / 15.0) ** 2 + 2.0 * (8.0 / 3.0) * (16.0 / 15.0)
        got = x_norm(disc, v) ** 2
        np.testing.assert_allclose(got, exact, rtol=1e-10)

    def test_x_inner_spd(self, diffusion_small):
        xm = diffusion_small.x_inner
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
        a = assemble_operator(diffusion_small, sol.mu)
        resid = np.linalg.norm(a @ sol.coefficients - diffusion_small.rhs)
        assert resid <= 1e-10 * np.linalg.norm(diffusion_small.rhs)

    def test_truth_solve_assembles_once(self, diffusion_small, monkeypatch):
        import rbx.truth

        calls = []
        real = rbx.truth.assemble_operator

        def counting(problem, mu):
            calls.append(mu)
            return real(problem, mu)

        monkeypatch.setattr(rbx.truth, "assemble_operator", counting)
        truth_solve(diffusion_small, [0.3, -0.2])
        assert len(calls) == 1

    def test_minimum_size_enforced(self):
        with pytest.raises(ConfigurationError):
            rbx.build_diffusion2d(n_x=3)


class TestThermalProblem:
    def test_uniform_conductivity_exact(self, thermal_small):
        # with every block at conductivity c the solution is (1 - y) / c,
        # which lies in the P1 space, so the discrete solution is exact
        c = 2.5
        sol = truth_solve(thermal_small, np.full(9, c))
        disc = thermal_small.discretization
        yfree = disc.node_coords[disc.free_nodes][:, 1]
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
        disc = thermal_small.discretization
        yfree = disc.node_coords[disc.free_nodes][:, 1]
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

    def test_mesh_alignment_enforced(self):
        with pytest.raises(ConfigurationError):
            rbx.build_thermal_block(nodes_per_side=9)  # 8 cells, not 3k


class TestRieszMachinery:
    def test_round_trip(self, diffusion_small):
        rng = np.random.default_rng(5)
        disc = diffusion_small.discretization
        f = rng.standard_normal(diffusion_small.n_dof)
        rep = riesz_solve(disc, f)
        np.testing.assert_allclose(disc.x_apply(rep), f, atol=1e-9)

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
        assert abs(v @ disc.x_apply(w) - w @ disc.x_apply(v)) < 1e-10
        assert x_norm(disc, v) > 0

