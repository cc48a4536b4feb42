"""Reference implementations that the tests compare the package against.

No CLI command and no `nbmle verify` entry calls any of these.  Each is a
second route to a quantity the package computes another way: the literal
gamma-function forms of the dispersion derivatives, the shape-parameterised
log-likelihood, the binomial-coefficient p.m.f., the two densities of the
Poisson-Gamma mixture written out on their own, and pmf-weighted sums over
the certified pmf table.
"""

import math
from dataclasses import dataclass

import numpy as np

from nbmle import Dataset, DomainError, Params, link_mean
from nbmle.derivatives import _theta_bracket
from nbmle.model import DEFAULT_EPS_TAIL, _pmf_table
from nbmle.special import (
    _finite_sums,
    _gamma_diff,
    _require_count,
    _require_positive,
    digamma,
    ln_gamma,
    trigamma,
)


def score_theta_gamma_form(ds: Dataset, p: Params) -> float:
    """Literal gamma-function form of the theta-derivative.

    Carries the bare digamma difference Psi(y_i + 1/theta) - Psi(1/theta)
    in place of the -1/theta^2-weighted finite sum.  It does not match the
    finite-difference derivative whenever some y_i > 0.
    """
    theta = p.theta
    u = 1.0 / theta
    lam = link_mean(ds.X, p.beta).lam
    t = theta * lam
    terms = (u * u * np.log1p(t) + (ds.y - lam) / (theta * (1.0 + t))
             + _gamma_diff(digamma, ds.y, u))
    return float(np.sum(terms))


def hessian_theta_gamma_form(ds: Dataset, p: Params) -> float:
    """Literal gamma-function form of the second theta-derivative, with the
    bare trigamma difference Psi'(y_i + 1/theta) - Psi'(1/theta)."""
    theta = p.theta
    u = 1.0 / theta
    lam = link_mean(ds.X, p.beta).lam
    t = theta * lam
    u3 = u * u * u
    terms = (-u3 * _theta_bracket(ds.y - lam, t, np.log1p(t), theta)
             + _gamma_diff(trigamma, ds.y, u))
    return float(np.sum(terms))


def loglik_alpha(ds: Dataset, alpha: float, beta: np.ndarray) -> float:
    """Log-likelihood in the gamma-shape parameterisation (beta, alpha).

    sum_i { sum_{j<y_i} ln(j + alpha) - ln(y_i!) + y_i ln lambda_i
            - y_i ln alpha - (alpha + y_i) ln(1 + lambda_i / alpha) }
    """
    alpha = _require_positive(alpha, "alpha")
    lam = link_mean(ds.X, beta).lam
    y = ds.y
    terms = (
        _finite_sums(y, alpha, "log")
        - _finite_sums(y, 1.0, "log")
        + y * np.log(lam)
        - y * math.log(alpha)
        - (alpha + y) * np.log1p(lam / alpha)
    )
    return float(np.sum(terms))


def nb_pmf_binomial_form(y: int, lam: float, alpha: int) -> float:
    """Binomial-coefficient form of the p.m.f., defined for integer alpha.

    C(y + alpha - 1, y) * r^y * (1 - r)^alpha with r = lam / (lam + alpha).
    """
    y = _require_count(y)
    lam = _require_positive(lam, "lam")
    if isinstance(alpha, bool) or int(alpha) != alpha or alpha < 1:
        raise DomainError(f"alpha must be a positive integer, got {alpha!r}")
    a = int(alpha)
    log_comb = ln_gamma(y + a) - ln_gamma(y + 1.0) - ln_gamma(float(a))
    log_r = math.log(lam) - math.log(lam + a)
    log_1mr = math.log(a) - math.log(lam + a)
    return math.exp(log_comb + y * log_r + a * log_1mr)


def gamma_density(u: float, alpha: float) -> float:
    """Unit-mean Gamma density alpha^alpha / Gamma(alpha) * u^(alpha-1) e^(-alpha u)."""
    u = _require_positive(u, "u")
    alpha = _require_positive(alpha, "alpha")
    return math.exp(alpha * math.log(alpha) - ln_gamma(alpha)
                    + (alpha - 1.0) * math.log(u) - alpha * u)


def poisson_pmf(y: int, lam: float) -> float:
    """Poisson probability mass lam^y / y! * e^(-lam)."""
    y = _require_count(y)
    lam = _require_positive(lam, "lam")
    return math.exp(y * math.log(lam) - ln_gamma(y + 1.0) - lam)


def nb_variance_bruteforce(lam: float, alpha: float,
                           eps_tail: float = 1e-12) -> float:
    """Truncated sum_y y^2 pmf(y) minus the squared truncated mean, from one
    pmf table; must equal lam + lam^2 / alpha, the NB2 variance."""
    lam = _require_positive(lam, "lam")
    alpha = _require_positive(alpha, "alpha")
    pmf, cutoff, _ = _pmf_table(lam, 1.0 / alpha, eps_tail)
    y = np.arange(cutoff, dtype=float)
    mean = float(y @ pmf)
    return float((y * y) @ pmf) - mean * mean


@dataclass(frozen=True)
class TruncatedSum:
    """A pmf-weighted series value with its truncation diagnostics."""

    value: float
    cutoff: int
    tail_bound: float
    weight_sum: float


def truncated_pmf_sum(f, lam: float, theta: float,
                      eps_tail: float = DEFAULT_EPS_TAIL) -> TruncatedSum:
    """sum_y f(y) * pmf(y) over the counts y < J of the pmf table.

    J is the table's cutoff and tail_bound its certified bound on the
    neglected mass Pr(Y >= J).  f is called once per count with a Python
    int.  Raises TruncationCapExceeded when J would pass
    model.TRUNCATION_HARD_CAP.
    """
    lam = _require_positive(lam, "lam")
    theta = _require_positive(theta, "theta")
    pmf, cutoff, bound = _pmf_table(lam, theta, eps_tail)
    values = np.fromiter((f(y) for y in range(cutoff)), float, cutoff)
    return TruncatedSum(float(np.sum(values * pmf)), cutoff, bound, float(np.sum(pmf)))
