"""Observed and expected (Fisher) information matrices.

The expected information element for the dispersion requires the
pmf-weighted mean of the per-observation weighted sum
sum_{j<y} (2j+u)/(j+u)^2, u = 1/theta.  Interchanging the order of
summation turns it into a tail-probability series

    sum_y pmf(y) sum_{j<y} w_j  =  sum_j w_j Pr(Y >= j+1)

but the source material for this quantity is ambiguous between
Pr(Y >= j+1) and Pr(Y >= j), which differ by sum_j w_j pmf(j).  Both
conventions are therefore computed side by side, the direct double sum is
treated as definitional, and the element actually returned is the
convention that matches the brute-force pmf-weighted negative Hessian.

Every series reads one pmf table per observation, cut where a certified
bound on the neglected mass Pr(Y >= J) falls below eps_tail (see
model._pmf_table).  Both conventions are suffix sums of that table and the
brute-force negative Hessian weights the same table.

Standard errors default to the observed information (the negative analytic
Hessian), which needs no infinite sums at fit time; the expected matrix is
available behind a flag.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .derivatives import _theta_bracket, grad_hess
from .exceptions import DomainError
from .model import (
    DEFAULT_EPS_TAIL,
    Dataset,
    Params,
    TruncatedSum,
    _pmf_table,
    link_mean,
)
from .special import _SUMMANDS, _require_positive


class InfoKind(enum.Enum):
    OBSERVED = "observed"
    EXPECTED = "expected"


@dataclass(frozen=True)
class ThetaTruncationReport:
    """Truncation diagnostics for the expected dispersion-information element."""

    eps_tail: float
    cutoffs: tuple           # per-observation tail cutoff J*_i
    tail_bounds: tuple       # per-observation certified bound on Pr(Y >= J*_i)
    survivor_at_j_total: float        # element using Pr(Y >= j)
    survivor_at_j_plus_1_total: float  # element using Pr(Y >= j+1)
    brute_force_total: float
    chosen: str              # which convention the returned element used

    def to_dict(self) -> dict:
        return {
            "eps_tail": self.eps_tail,
            "cutoffs": list(self.cutoffs),
            "tail_bounds": list(self.tail_bounds),
            "survivor_at_j_total": self.survivor_at_j_total,
            "survivor_at_j_plus_1_total": self.survivor_at_j_plus_1_total,
            "brute_force_total": self.brute_force_total,
            "chosen": self.chosen,
        }


@dataclass(frozen=True)
class InfoMatrix:
    """(p+1) x (p+1) information matrix with beta block, cross vector, theta scalar."""

    kind: InfoKind
    m: np.ndarray
    truncation: ThetaTruncationReport | None = None

    def __post_init__(self):
        m = np.asarray(self.m, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError("information matrix must be square")
        if not np.all(np.isfinite(m)):
            raise DomainError("information matrix must be finite")
        if not np.allclose(m, m.T, atol=1e-12 * (1.0 + np.abs(m).max())):
            raise DomainError("information matrix must be symmetric")
        object.__setattr__(self, "m", 0.5 * (m + m.T))

    @property
    def beta_block(self) -> np.ndarray:
        return self.m[:-1, :-1]

    @property
    def cross_block(self) -> np.ndarray:
        return self.m[:-1, -1]

    @property
    def theta_element(self) -> float:
        return float(self.m[-1, -1])

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "matrix": self.m.tolist(),
            "truncation": self.truncation.to_dict() if self.truncation else None,
        }


def _theta_series(lam: float, theta: float, table):
    """The dispersion series of one observation, all read from its pmf table
    (the tuple _pmf_table returns).

    Returns (sum_j w_j Pr(Y >= j), sum_j w_j Pr(Y >= j+1), brute-force
    E[-d2 lnL/dtheta2] as a TruncatedSum), with w_j = (2j+u)/(j+u)^2 and
    u = 1/theta.  The survivor probabilities are suffix sums of the table.
    The brute-force value weights each count's own negative Hessian, whose
    finite sum sum_{j<y} w_j is the running sum of w; it never reads the
    survivor sums.
    """
    pmf, cutoff, bound = table
    u = 1.0 / theta
    u3 = u * u * u
    y = np.arange(cutoff, dtype=float)
    w = _SUMMANDS["weights"](y, u)
    surv = np.cumsum(pmf[::-1])[::-1]
    cum_w = np.concatenate(([0.0], np.cumsum(w[:-1])))
    neg_h = u3 * _theta_bracket(y, lam, theta) - u3 * cum_w
    brute = TruncatedSum(float(pmf @ neg_h), cutoff, bound, float(np.sum(pmf)))
    return float(w @ surv), float(w[:-1] @ surv[1:]), brute


def brute_force_expected_neg_hessian(lam: float, theta: float,
                                     eps_tail: float = DEFAULT_EPS_TAIL) -> TruncatedSum:
    """E[-d2 lnL/dtheta2] for one observation, by direct pmf-weighted summation.

    This is the verification oracle for the tail-probability formulas: it
    weights each count's own negative Hessian by its pmf and never touches
    the survivor sums.
    """
    lam = _require_positive(lam, "lam")
    theta = _require_positive(theta, "theta")
    return _theta_series(lam, theta, _pmf_table(lam, theta, eps_tail))[2]


@dataclass(frozen=True)
class TailExpectation:
    """Both tail-index conventions of the expected weighted sum, plus the
    definitional double sum."""

    survivor_at_j: float         # (1/theta^3) sum_j w_j Pr(Y >= j)
    survivor_at_j_plus_1: float  # (1/theta^3) sum_j w_j Pr(Y >= j+1)
    double_sum: float            # (1/theta^3) sum_y pmf(y) sum_{j<y} w_j
    cutoff: int
    tail_bound: float


def expected_trigamma_tail(lam: float, theta: float,
                           eps_tail: float = DEFAULT_EPS_TAIL) -> TailExpectation:
    """Expected weighted sum in all three formulations, for adjudication."""
    lam = _require_positive(lam, "lam")
    theta = _require_positive(theta, "theta")
    u = 1.0 / theta
    u3 = u ** 3
    table = _pmf_table(lam, theta, eps_tail)
    sum_a, sum_b, brute = _theta_series(lam, theta, table)
    # The double sum carries sum_{j<y} w_j as a running scalar across y, so
    # it reads neither the survivor sums nor numpy's cumsum.
    pmf, cutoff, _ = table
    inner = np.empty(cutoff)
    running = 0.0
    for j in range(cutoff):
        inner[j] = running
        d = j + u
        running += (2.0 * j + u) / (d * d)
    return TailExpectation(
        survivor_at_j=u3 * sum_a,
        survivor_at_j_plus_1=u3 * sum_b,
        double_sum=u3 * float(np.sum(inner * pmf)),
        cutoff=brute.cutoff,
        tail_bound=brute.tail_bound,
    )


def expected_info_theta(ds: Dataset, p: Params,
                        eps_tail: float = DEFAULT_EPS_TAIL):
    """Expected information element for theta, with truncation report.

    Per observation: (1/theta^3) [ 2 ln(1+theta*lam) - theta*lam/(1+theta*lam)
    - sum_j w_j T(j) ], computed under both tail-index conventions; the
    brute-force pmf-weighted negative Hessian arbitrates which convention
    the returned value uses.

    Returns (element, ThetaTruncationReport).
    """
    theta = p.theta
    u = 1.0 / theta
    u3 = u * u * u
    lam = link_mean(ds.X, p.beta).lam
    total_a = 0.0
    total_b = 0.0
    total_bf = 0.0
    cutoffs = []
    bounds = []
    for lam_i in lam:
        t = theta * lam_i
        smooth = 2.0 * math.log1p(t) - t / (1.0 + t)
        sum_a, sum_b, brute = _theta_series(
            lam_i, theta, _pmf_table(lam_i, theta, eps_tail))
        total_a += u3 * (smooth - sum_a)
        total_b += u3 * (smooth - sum_b)
        total_bf += brute.value
        cutoffs.append(brute.cutoff)
        bounds.append(brute.tail_bound)
    if abs(total_b - total_bf) <= abs(total_a - total_bf):
        chosen, element = "survivor_at_j_plus_1", total_b
    else:
        chosen, element = "survivor_at_j", total_a
    report = ThetaTruncationReport(
        eps_tail=eps_tail,
        cutoffs=tuple(cutoffs),
        tail_bounds=tuple(bounds),
        survivor_at_j_total=total_a,
        survivor_at_j_plus_1_total=total_b,
        brute_force_total=total_bf,
        chosen=chosen,
    )
    return element, report


def expected_info_beta(ds: Dataset, p: Params) -> np.ndarray:
    """E[-d2 lnL/dbeta dbeta'] = sum_i lam_i/(1+theta*lam_i) x_i x_i'."""
    lam = link_mean(ds.X, p.beta).lam
    w = lam / (1.0 + p.theta * lam)
    m = (ds.X.T * w) @ ds.X
    return 0.5 * (m + m.T)


def expected_info_cross(ds: Dataset, p: Params,
                        eps_tail: float = DEFAULT_EPS_TAIL):
    """The beta/theta cross block of the expected information.

    Analytically zero because E[y_i] = lam_i; the brute-force pmf-weighted
    version is returned alongside for verification.

    Returns (zero vector, numeric vector).
    """
    theta = p.theta
    lam = link_mean(ds.X, p.beta).lam
    numeric = np.zeros(ds.p)
    for i, lam_i in enumerate(lam):
        coef = lam_i / (1.0 + theta * lam_i) ** 2
        pmf, cutoff, _ = _pmf_table(lam_i, theta, eps_tail)
        mean_dev = float(np.sum((np.arange(cutoff) - lam_i) * pmf))
        numeric += coef * mean_dev * ds.X[i]
    return np.zeros(ds.p), numeric


def observed_info(ds: Dataset, p: Params) -> InfoMatrix:
    """Negative analytic Hessian assembled into a (p+1) x (p+1) matrix."""
    gh = grad_hess(ds, p)
    k = ds.p + 1
    m = np.empty((k, k))
    m[:-1, :-1] = -gh.h_bb
    m[:-1, -1] = -gh.h_bt
    m[-1, :-1] = -gh.h_bt
    m[-1, -1] = -gh.h_tt
    return InfoMatrix(kind=InfoKind.OBSERVED, m=m)


def expected_info(ds: Dataset, p: Params,
                  eps_tail: float = DEFAULT_EPS_TAIL) -> InfoMatrix:
    """Expected information matrix: PSD beta block, zero cross block,
    adjudicated theta element."""
    k = ds.p + 1
    m = np.zeros((k, k))
    m[:-1, :-1] = expected_info_beta(ds, p)
    element, report = expected_info_theta(ds, p, eps_tail)
    m[-1, -1] = element
    return InfoMatrix(kind=InfoKind.EXPECTED, m=m, truncation=report)
