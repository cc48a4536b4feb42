"""Analytic gradient and Hessian of the NB2 log-likelihood.

Two evaluation strategies are provided for the dispersion derivatives:

* the finite-sum ("gamma-free") forms, which agree with finite differences
  of the log-likelihood and are the only forms the estimator consumes;
* the literal gamma-function forms, which carry a bare digamma/trigamma
  difference where the chain rule of d(1/theta)/dtheta would insert
  -1/theta^2 factors.  They are exposed purely as comparison targets for
  the identity suite and are *not* derivatives of anything.

With lam_i = exp(x_i'beta), u = 1/theta and t_i = theta*lam_i, the
gamma-free derivatives are

    d/dbeta_k     : sum_i (y_i - lam_i) / (1 + t_i) * x_ik
    d/dtheta      : sum_i { u^2 [ -sum_{j<y_i} 1/(j+u) + ln(1+t_i) ]
                            + (y_i - lam_i) / (theta (1+t_i)) }
    d2/dbeta^2    : -sum_i lam_i (1 + theta y_i) / (1+t_i)^2 * x_i x_i'
    d2/dbeta dtheta: -sum_i lam_i (y_i - lam_i) / (1+t_i)^2 * x_i
    d2/dtheta^2   : sum_i { u^3 sum_{j<y_i} (2j+u)/(j+u)^2
                            - u^3 [ (theta(1+2t_i)(y_i-lam_i)
                                     - t_i(1+t_i)) / (1+t_i)^2
                                    + 2 ln(1+t_i) ] }

grad_hess also returns the log-likelihood at the point (GradHess.loglik),
by model.loglik's expression over the link and ln(1+t_i) it already holds.

All functions are pure; per-observation reductions use numpy's pairwise
summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import DomainError
from .model import Dataset, Params, _loglik_sum, link_mean
from .special import _finite_sums, _gamma_diff, digamma, trigamma


@dataclass(frozen=True)
class GradHess:
    """The log-likelihood and every derivative block at one parameter point."""

    loglik: float
    score_beta: np.ndarray
    score_theta: float
    h_bb: np.ndarray
    h_bt: np.ndarray
    h_tt: float

    def __post_init__(self):
        pieces = (self.score_beta, self.score_theta, self.h_bb, self.h_bt, self.h_tt)
        if not all(np.all(np.isfinite(np.asarray(x))) for x in pieces):
            raise DomainError("derivative blocks must be finite")


def _theta_bracket(y: np.ndarray, lam: np.ndarray, theta: float) -> np.ndarray:
    """Per-observation smooth part of the second theta-derivative."""
    t = theta * lam
    one = 1.0 + t
    return (theta * (1.0 + 2.0 * t) * (y - lam) - t * one) / one**2 + 2.0 * np.log1p(t)


def grad_hess(ds: Dataset, p: Params) -> GradHess:
    """Evaluate the log-likelihood and every derivative block in one pass.

    The link, 1 + theta*lam, its log1p, y - lam and the per-observation
    finite sums are computed once and shared by all six.
    """
    theta = p.theta
    u = 1.0 / theta
    y, X = ds.y, ds.X
    link = link_mean(X, p.beta)
    lam = link.lam
    u3 = u * u * u
    # First, so a theta whose trigamma(1/theta) overflows raises DomainError
    # before any block expression overflows.
    h_tt = float(np.sum(u3 * _finite_sums(y, u, "weights")
                        - u3 * _theta_bracket(y, lam, theta)))
    t = theta * lam
    one = 1.0 + t
    resid = y - lam
    log1p_t = np.log1p(t)
    loglik = _loglik_sum(y, link.eta, theta, log1p_t)
    score_theta = float(np.sum(
        u * u * (-_finite_sums(y, u, "recip") + log1p_t)
        + resid / (theta * one)
    ))
    # Freed before the Hessian's n-by-p temporaries, which set the peak memory.
    del link, log1p_t
    h_bb = -(X.T * (lam * (1.0 + theta * y) / one ** 2)) @ X
    return GradHess(
        loglik=loglik,
        score_beta=X.T @ (resid / one),
        score_theta=score_theta,
        h_bb=0.5 * (h_bb + h_bb.T),
        h_bt=-(X.T @ (lam * resid / one ** 2)),
        h_tt=h_tt,
    )


def score_beta(ds: Dataset, p: Params) -> np.ndarray:
    """Gradient of the log-likelihood with respect to beta."""
    return grad_hess(ds, p).score_beta


def score_theta(ds: Dataset, p: Params) -> float:
    """Derivative of the log-likelihood with respect to theta (finite-sum form)."""
    return grad_hess(ds, p).score_theta


def hessian_beta_beta(ds: Dataset, p: Params) -> np.ndarray:
    """Hessian block in beta; symmetric negative semidefinite for y >= 0."""
    return grad_hess(ds, p).h_bb


def hessian_beta_theta(ds: Dataset, p: Params) -> np.ndarray:
    """Cross partial d2/dbeta dtheta."""
    return grad_hess(ds, p).h_bt


def hessian_theta(ds: Dataset, p: Params) -> float:
    """Second derivative of the log-likelihood in theta (finite-sum form)."""
    return grad_hess(ds, p).h_tt


def score_theta_gamma_form(ds: Dataset, p: Params) -> float:
    """Literal gamma-function form of the theta-derivative.

    Carries the bare digamma difference Psi(y_i + 1/theta) - Psi(1/theta)
    in place of the -1/theta^2-weighted finite sum.  Returned for residual
    comparison only; it does not match the finite-difference derivative
    whenever some y_i > 0.
    """
    theta = p.theta
    u = 1.0 / theta
    lam = link_mean(ds.X, p.beta).lam
    t = theta * lam
    terms = (u * u * np.log1p(t) + (ds.y - lam) / (theta * (1.0 + t))
             + _gamma_diff(digamma, ds.y, u))
    return float(np.sum(terms))


def hessian_theta_gamma_form(ds: Dataset, p: Params) -> float:
    """Literal gamma-function form of the second theta-derivative.

    Uses the bare trigamma difference Psi'(y_i + 1/theta) - Psi'(1/theta);
    comparison target only.
    """
    theta = p.theta
    u = 1.0 / theta
    lam = link_mean(ds.X, p.beta).lam
    u3 = u * u * u
    terms = -u3 * _theta_bracket(ds.y, lam, theta) + _gamma_diff(trigamma, ds.y, u)
    return float(np.sum(terms))


def finite_diff(f: Callable[[float], float], x0: float, h: float) -> float:
    """Central difference (f(x0+h) - f(x0-h)) / (2h)."""
    if not h > 0.0:
        raise DomainError("h must be positive")
    hi, lo = f(x0 + h), f(x0 - h)
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise DomainError(f"f not finite near x0={x0!r}")
    return (hi - lo) / (2.0 * h)


def finite_diff_second(f: Callable[[float], float], x0: float, h: float) -> float:
    """Second derivative by the five-point central stencil (O(h^4) accurate)."""
    if not h > 0.0:
        raise DomainError("h must be positive")
    vals = [f(x0 + k * h) for k in (-2, -1, 0, 1, 2)]
    if not all(math.isfinite(v) for v in vals):
        raise DomainError(f"f not finite near x0={x0!r}")
    m2, m1, c, p1, p2 = vals
    return (-m2 + 16.0 * m1 - 30.0 * c + 16.0 * p1 - p2) / (12.0 * h * h)
