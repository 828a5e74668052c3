"""Coercivity lower-bound strategies used by the error estimator.

Each strategy exposes ``lower_bound_batch(problem, mus)``, one bound per
parameter row; a single parameter is a batch of one.  Positivity of the
returned values is part of the contract, which ``rbx.reduced`` checks where
the bounds enter (``TrainingSystems.evaluate``, ``error_estimate``): a return
not of shape (b,) raises ``InvalidParameterError``, a bound <= 0 or +inf
``NumericalFailureError``.  Strategies raise ``BoundStrategyError`` where
their assumptions fail instead of returning garbage.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse.linalg as spla

from .affine import as_csr, evaluate_theta_batch, factorize
from .errors import BoundStrategyError, NumericalFailureError

# relative distance of the certified anchor bound below the eigenvalue estimate
_ANCHOR_MARGIN = 1e-8


def _symmetric_csc(a):
    a = as_csr(a).tocsc()
    return (0.5 * (a + a.T)).tocsc()


def _certified_anchor_alpha(a, m) -> float:
    """Certified lower bound of the smallest eigenvalue of ``a v = lambda m v``.

    ``a`` is symmetrized; ``m`` must be symmetric positive definite.
    Shift-invert Lanczos about zero, from a fixed start vector so that
    repeated calls agree bit for bit, estimates the eigenvalue closest to
    zero.  The bound sits ``_ANCHOR_MARGIN`` below it and is accepted only
    when ``a - alpha m`` has a Cholesky factor (``factorize(..., spd=True)``):
    ``a - alpha m`` is then positive definite, so every eigenvalue exceeds
    ``alpha``.
    """
    a = _symmetric_csc(a)
    m = _symmetric_csc(m)
    hint = "pass anchor_alpha to MinThetaBound to give the constant directly"
    try:
        (estimate,) = spla.eigsh(
            a, k=1, M=m, sigma=0, which="LM", v0=np.ones(a.shape[0]), return_eigenvectors=False
        )
    except (RuntimeError, ValueError) as exc:
        raise BoundStrategyError(f"anchor eigenvalue estimate failed ({exc}); {hint}") from None
    if not estimate > 0:
        raise BoundStrategyError(
            f"anchor operator is not coercive (alpha estimate {estimate:.6e}); {hint}"
        )
    alpha = (1.0 - _ANCHOR_MARGIN) * float(estimate)
    try:
        factorize(a - alpha * m, spd=True)
    except NumericalFailureError:
        raise BoundStrategyError(
            f"anchor bound (1 - {_ANCHOR_MARGIN:g}) * {estimate:.6e} failed the Cholesky "
            f"check, so the estimate is not the smallest eigenvalue; {hint}"
        ) from None
    return alpha


class ConstantBound:
    """Fixed positive constant; used where no sharp bound is configured."""

    def __init__(self, value: float):
        if not value > 0:
            raise BoundStrategyError("constant coercivity bound must be positive")
        self.value = float(value)

    def lower_bound_batch(self, problem, mus) -> np.ndarray:
        return np.full(np.asarray(mus).shape[0], self.value)


class MinThetaBound:
    """Ratio bound for parametrically coercive problems.

    Requires every coefficient to stay positive over the box, and bounds
    alpha(mu) below by min_q theta_q(mu) / theta_q(anchor) * alpha_anchor.
    The anchor constant alpha_anchor is computed once on first use, unless
    ``anchor_alpha`` gives it: a sparse shift-invert estimate of the smallest
    generalized eigenvalue of the anchor operator against the inner-product
    matrix, lowered by a relative margin of 1e-8 and certified by a Cholesky
    factorization (see ``_certified_anchor_alpha``).  Time and memory scale with
    sparse factorizations of the truth operator, never with n_dof**2 dense
    storage.  A failed estimate or check raises ``BoundStrategyError``; there
    is no dense fallback.
    """

    def __init__(self, anchor_mu, anchor_alpha: float | None = None):
        self.anchor_mu = np.asarray(anchor_mu, dtype=float)
        self.anchor_alpha = anchor_alpha
        self._anchor_theta = None

    def _ensure_anchor(self, problem):
        if self._anchor_theta is None:
            mus = problem.box.validate_rows(self.anchor_mu[None])
            theta = evaluate_theta_batch(problem, mus)[0]
            if np.any(theta <= 0):
                raise BoundStrategyError("anchor coefficients must be positive")
            self._anchor_theta = theta
        if self.anchor_alpha is None:
            a = problem.assemble(self._anchor_theta)
            self.anchor_alpha = _certified_anchor_alpha(a, problem.discretization.x_inner)

    def lower_bound_batch(self, problem, mus) -> np.ndarray:
        self._ensure_anchor(problem)
        thetas = evaluate_theta_batch(problem, np.asarray(mus, dtype=float))
        if np.any(thetas <= 0):
            raise BoundStrategyError(
                "min-theta bound needs positive coefficients at every query parameter"
            )
        return np.min(thetas / self._anchor_theta[None, :], axis=1) * self.anchor_alpha

