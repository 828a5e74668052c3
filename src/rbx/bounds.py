"""Coercivity lower-bound strategies used by the error estimator.

Each strategy exposes ``lower_bound_batch(problem, mus)``, one bound per
parameter row; a single parameter is a batch of one.  Positivity of the
returned values is part of the contract; strategies raise
``BoundStrategyError`` where their assumptions fail instead of returning
garbage.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .affine import evaluate_theta, evaluate_theta_batch
from .errors import BoundStrategyError


def _dense(a):
    return a.toarray() if sp.issparse(a) else np.asarray(a)


def _smallest_generalized_eigenvalue(a, m) -> float:
    """Smallest eigenvalue of ``a v = lambda m v`` with symmetrized ``a``."""
    ad = _dense(a)
    ad = 0.5 * (ad + ad.T)
    md = _dense(m)
    md = 0.5 * (md + md.T)
    vals = sla.eigh(ad, md, subset_by_index=[0, 0], eigvals_only=True)
    return float(vals[0])


class ConstantBound:
    """Fixed positive constant; used where no sharp bound is configured."""

    name = "constant"

    def __init__(self, value: float):
        if not value > 0:
            raise BoundStrategyError("constant coercivity bound must be positive")
        self.value = float(value)

    def lower_bound_batch(self, problem, mus) -> np.ndarray:
        return np.full(np.asarray(mus).shape[0], self.value)


class MinThetaBound:
    """Ratio bound for parametrically coercive problems.

    Requires every coefficient to stay positive over the box.  The anchor
    coercivity constant is the smallest generalized eigenvalue of the
    operator at the anchor parameter against the inner-product matrix; it is
    computed once on first use.
    """

    name = "min-theta"

    def __init__(self, anchor_mu, anchor_alpha: float | None = None):
        self.anchor_mu = np.asarray(anchor_mu, dtype=float)
        self.anchor_alpha = anchor_alpha
        self._anchor_theta = None

    def _ensure_anchor(self, problem):
        if self._anchor_theta is None:
            theta = evaluate_theta(problem, self.anchor_mu)
            if np.any(theta <= 0):
                raise BoundStrategyError("anchor coefficients must be positive")
            self._anchor_theta = theta
        if self.anchor_alpha is None:
            from .affine import assemble_operator

            a = assemble_operator(problem, self.anchor_mu)
            alpha = _smallest_generalized_eigenvalue(a, problem.x_inner)
            if not alpha > 0:
                raise BoundStrategyError(
                    f"anchor operator is not coercive (alpha = {alpha:.3e})"
                )
            self.anchor_alpha = alpha

    def lower_bound_batch(self, problem, mus) -> np.ndarray:
        self._ensure_anchor(problem)
        thetas = evaluate_theta_batch(problem, np.asarray(mus, dtype=float))
        if np.any(thetas <= 0):
            raise BoundStrategyError(
                "min-theta bound needs positive coefficients at every query parameter"
            )
        return np.min(thetas / self._anchor_theta[None, :], axis=1) * self.anchor_alpha

