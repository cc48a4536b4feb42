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

Every series reads each observation's pmf table, cut where a certified
bound on the neglected mass Pr(Y >= J) falls below eps_tail.  The tables
of all observations come from model._pmf_chunks as 2-D chunks, one row per
observation, and the series are evaluated a chunk at a time.  Both
conventions are suffix sums of a row and the brute-force negative Hessian
weights the same row; rows that share a cutoff are reduced together, so
each observation's values are those of its one-row call.

Standard errors default to the observed information (the negative analytic
Hessian), which needs no infinite sums at fit time; the expected matrix is
available behind a flag.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .derivatives import GradHess, _theta_bracket, grad_hess
from .exceptions import DomainError
from .model import (
    DEFAULT_EPS_TAIL,
    Dataset,
    Params,
    PmfChunk,
    _pmf_chunks,
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

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "matrix": self.m.tolist(),
            "truncation": self.truncation.to_dict() if self.truncation else None,
        }


def _by_cutoff(cutoffs: np.ndarray):
    """Yield (positions, J) for each distinct cutoff J in a chunk."""
    order = np.argsort(cutoffs, kind="stable")
    ends = (np.flatnonzero(np.diff(cutoffs[order])) + 1).tolist() + [order.size]
    start = 0
    for end in ends:
        yield order[start:end], int(cutoffs[order[start]])
        start = end


def _prefix(a: np.ndarray, rows: np.ndarray, j: int) -> np.ndarray:
    """a[rows, :j] of a chunk's table, C-contiguous: the table itself when
    the rows are all of its rows (they then share its width as cutoff)."""
    return a if rows.size == a.shape[0] else a[rows, :j]


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[k] @ b[k] (b 2-D) or a[k] @ b (b 1-D) for every row k of a.

    A stacked matmul of vectors evaluates each row with the dot kernel that
    the 1-D product of that row alone takes for the same strides, so each
    value is the one-row value.
    """
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def _theta_series(lam: np.ndarray, theta: float, chunk: PmfChunk):
    """The dispersion series of the rows of one PmfChunk, all read from its
    table; lam is the vector of means the chunk's rows index.

    Returns per-row arrays (sum_j w_j Pr(Y >= j), sum_j w_j Pr(Y >= j+1),
    brute-force E[-d2 lnL/dtheta2]), with
    w_j = (2j+u)/(j+u)^2 and u = 1/theta.  The survivor probabilities are
    suffix sums of the table.  The brute-force value weights each count's
    own negative Hessian, whose finite sum sum_{j<y} w_j is the running sum
    of w; it never reads the survivor sums.  Rows that share a cutoff J are
    evaluated together over their first J counts, so every row gets the
    value of its one-row call.
    """
    pmf = chunk.pmf
    width = pmf.shape[1]
    u = 1.0 / theta
    u3 = u * u * u
    y = np.arange(width, dtype=float)
    w = _SUMMANDS["weights"](y, u)
    u3_cum_w = np.zeros(width)
    np.cumsum(w[:-1], out=u3_cum_w[1:])
    u3_cum_w *= u3
    out = np.empty((3, pmf.shape[0]))
    for rows, j in _by_cutoff(chunk.cutoffs):
        p = _prefix(pmf, rows, j)
        surv = np.cumsum(p[:, ::-1], axis=1)[:, ::-1]
        out[0, rows] = _dots(surv, w[:j])
        out[1, rows] = _dots(surv[:, 1:], w[:j - 1])
        del surv
        lam_j = lam[chunk.rows[rows], None]
        t = theta * lam_j
        neg_h = _theta_bracket(y[:j] - lam_j, t, np.log1p(t), theta)
        neg_h *= u3
        neg_h -= u3_cum_w[:j]
        out[2, rows] = _dots(p, neg_h)
    return out


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
    lams = np.array([lam])
    (chunk,) = _pmf_chunks(lams, theta, eps_tail)
    sum_a, sum_b, _ = _theta_series(lams, theta, chunk)
    cutoff = int(chunk.cutoffs[0])
    pmf = chunk.pmf[0, :cutoff]
    # The double sum carries sum_{j<y} w_j as a running scalar across y, so
    # it reads neither the survivor sums nor numpy's cumsum.
    inner = np.empty(cutoff)
    running = 0.0
    for j in range(cutoff):
        inner[j] = running
        d = j + u
        running += (2.0 * j + u) / (d * d)
    return TailExpectation(
        survivor_at_j=u3 * float(sum_a[0]),
        survivor_at_j_plus_1=u3 * float(sum_b[0]),
        double_sum=u3 * float(np.sum(inner * pmf)),
        cutoff=cutoff,
        tail_bound=float(chunk.bounds[0]),
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
    series = np.empty((3, lam.size))
    cutoffs = np.empty(lam.size, dtype=np.int64)
    bounds = np.empty(lam.size)
    for chunk in _pmf_chunks(lam, theta, eps_tail):
        series[:, chunk.rows] = _theta_series(lam, theta, chunk)
        cutoffs[chunk.rows] = chunk.cutoffs
        bounds[chunk.rows] = chunk.bounds
    sum_a, sum_b, brute = series
    t = theta * lam
    # math.log1p: np.log1p may differ from it in the last place, which
    # u3 * (smooth - sum) magnifies.
    smooth = 2.0 * np.array([math.log1p(v) for v in t.tolist()]) - t / (1.0 + t)
    # Totals added up one row at a time in row order (the last entry of a
    # cumulative sum): the reported totals keep the rounding of a running
    # sum over the observations.
    total_a = float(np.cumsum(u3 * (smooth - sum_a))[-1])
    total_b = float(np.cumsum(u3 * (smooth - sum_b))[-1])
    total_bf = float(np.cumsum(brute)[-1])
    if abs(total_b - total_bf) <= abs(total_a - total_bf):
        chosen, element = "survivor_at_j_plus_1", total_b
    else:
        chosen, element = "survivor_at_j", total_a
    report = ThetaTruncationReport(
        eps_tail=eps_tail,
        cutoffs=tuple(cutoffs.tolist()),
        tail_bounds=tuple(bounds.tolist()),
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


def observed_info(ds: Dataset, p: Params) -> InfoMatrix:
    """Negative analytic Hessian assembled into a (p+1) x (p+1) matrix."""
    return observed_info_from(grad_hess(ds, p))


def observed_info_from(gh: GradHess) -> InfoMatrix:
    """The observed information from derivative blocks already evaluated."""
    m = -np.block([[gh.h_bb, gh.h_bt[:, None]], [gh.h_bt, gh.h_tt]])
    return InfoMatrix(kind=InfoKind.OBSERVED, m=m)


def expected_info(ds: Dataset, p: Params,
                  eps_tail: float = DEFAULT_EPS_TAIL) -> InfoMatrix:
    """Expected information matrix: PSD beta block, zero cross block (as
    E[y_i] = lam_i), adjudicated theta element."""
    k = ds.p + 1
    m = np.zeros((k, k))
    m[:-1, :-1] = expected_info_beta(ds, p)
    element, report = expected_info_theta(ds, p, eps_tail)
    m[-1, -1] = element
    return InfoMatrix(kind=InfoKind.EXPECTED, m=m, truncation=report)
