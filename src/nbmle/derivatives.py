"""Analytic gradient and Hessian of the NB2 log-likelihood.

The dispersion derivatives are evaluated in their finite-sum
("gamma-free") forms only, which agree with finite differences of the
log-likelihood.  The literal gamma-function forms, which carry a bare
digamma/trigamma difference where the chain rule of d(1/theta)/dtheta
would insert -1/theta^2 factors, are not derivatives of anything: the
identities module adjudicates those bare differences, and the tests keep
the whole forms (tests/oracles.py) as comparison targets.

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
It reduces every sum over i one block of model.BLOCK_ROWS rows at a time,
and evaluates each block's link once, at the top of its step.

All functions are pure; per-observation reductions use numpy's pairwise
summation within a block and add the blocks in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .exceptions import DomainError
from .model import Dataset, Params, _loglik_sum, _row_blocks, link_mean
from .special import _finite_sum_tables


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


def _theta_bracket(resid, t, log1p_t, theta: float):
    """Per-observation smooth part of the second theta-derivative, from
    y - lam, t = theta*lam and ln(1+t)."""
    one = 1.0 + t
    return (theta * (1.0 + 2.0 * t) * resid - t * one) / one**2 + 2.0 * log1p_t


def _require_finite_range(theta: float, lam_max: float = 0.0,
                          y_max: float = 0.0) -> None:
    """DomainError naming theta where a block cannot be finite doubles:
    1/theta^2 underflows to zero, (theta * lam_max)^2 or the bracket's
    theta (1 + 2 theta lam)(y - lam), with |y - lam| <= max(y, lam),
    overflows, or 1/theta^3 overflows; lam_max and y_max are the block's
    largest mean and count.  With the defaults only the conditions on
    theta alone are checked."""
    u, t_max = 1.0 / theta, theta * lam_max
    if u * u == 0.0:
        why = "1/theta^2 underflows to zero"
    elif t_max * t_max == math.inf:
        why = f"(theta*lam)^2 overflows at the largest mean, {lam_max!r}"
    elif theta * (1.0 + 2.0 * t_max) * max(lam_max, y_max) == math.inf:
        why = "theta*(1 + 2*theta*lam)*(y - lam) overflows"
    elif u * u * u == math.inf:
        why = "1/theta^3 overflows"
    else:
        return
    raise DomainError(f"theta={theta!r} is out of range: {why}")


def grad_hess(ds: Dataset, p: Params) -> GradHess:
    """Evaluate the log-likelihood and every derivative block in one pass.

    The finite-sum tables are built once for all rows, after the theta
    conditions of _require_finite_range.  Then, one block of
    model._row_blocks at a time, the block's link is evaluated, its
    largest mean and count are range-checked, and every quantity is formed
    and reduced, with r = 1/(1+t) and a = (y - lam) r shared by all six.
    The score and the Hessian's beta rows come from one product per block,
    X_b' [a, lam a r, w X_b], with w the h_bb weight lam (1 + theta y) r^2.
    The log-likelihood is model.loglik's, block for block.
    """
    theta = p.theta
    u = 1.0 / theta
    y, X = ds.y, ds.X
    # Past LARGE_COUNT_SWITCH the tables call trigamma(1/theta), whose own
    # DomainError comes before the range check.
    (log_u, log_1, weights, recip), keys = _finite_sum_tables(
        y, ((u, "log"), (1.0, "log"), (u, "weights"), (u, "recip")),
        check=lambda: _require_finite_range(theta))
    log_sums = log_u - log_1
    u2, u3 = u * u, u * u * u
    n, k = X.shape
    ll = score_theta = h_tt = 0.0
    cross = np.zeros((k, k + 2))
    # Arrays are deleted once spent: one block's scratch is all that is held.
    for s in _row_blocks(n):
        key, X_b, y_b = keys[s], X[s], y[s].astype(float)
        link = link_mean(X_b, p.beta, s.start)
        lam_b = link.lam
        _require_finite_range(theta, float(lam_b.max()), float(y_b.max()))
        t = theta * lam_b
        log1p_t = np.log1p(t)
        ll += _loglik_sum(y_b, link.eta, theta, log1p_t, log_sums[key])
        r = 1.0 / (1.0 + t)
        resid = y_b - lam_b
        del link
        h_tt += float(np.sum(u3 * weights[key]
                             - u3 * _theta_bracket(resid, t, log1p_t, theta)))
        a = resid * r
        score_theta += float(np.sum(u2 * (log1p_t - recip[key]) + u * a))
        w = lam_b * (1.0 + theta * y_b) * r * r
        del y_b, t, log1p_t, resid
        # Row-major: rows a, lam a r, then w times each column of X_b.
        m = np.empty((k + 2, len(a)))
        m[0] = a
        np.multiply(lam_b * a, r, out=m[1])
        for j in range(k):
            np.multiply(X_b[:, j], w, out=m[2 + j])
        cross += X_b.T @ m.T
        del lam_b, r, a, w, m
    h_bb = -cross[:, 2:]
    return GradHess(
        loglik=ll,
        score_beta=cross[:, 0].copy(),
        score_theta=score_theta,
        h_bb=0.5 * (h_bb + h_bb.T),
        h_bt=-cross[:, 1],
        h_tt=h_tt,
    )


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
    if not (h > 0.0 and 12.0 * h * h > 0.0):
        raise DomainError(f"h={h!r}: 12*h*h must be a positive double")
    vals = [f(x0 + k * h) for k in (-2, -1, 0, 1, 2)]
    if not all(math.isfinite(v) for v in vals):
        raise DomainError(f"f not finite near x0={x0!r}")
    m2, m1, c, p1, p2 = vals
    return (-m2 + 16.0 * m1 - 30.0 * c + 16.0 * p1 - p2) / (12.0 * h * h)
