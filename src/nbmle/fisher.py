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

The expected matrix is one blocked pass: each block of model._row_blocks,
in the dataset's workers when it has them, evaluates its link once, and
from it its beta block and its rows' pmf tables, cut where a certified
bound on the neglected mass Pr(Y >= J) falls below eps_tail.  The tables
come from model._pmf_chunks as 2-D chunks, one row per observation, and
the series are evaluated a chunk at a time.  Both conventions are suffix
sums of a row and the brute-force negative Hessian weights the same row;
each is one left-to-right sum along a row, and a row's table is zero past
its cutoff, so each observation's values are those of its one-row call,
whatever its chunk or block.  The totals add each block's rows left to
right, then the blocks in order, as every sum over the rows does.

Standard errors default to the observed information (the negative analytic
Hessian), which needs no infinite sums at fit time; the expected matrix is
available behind a flag.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .derivatives import GradHess, _require_finite_range, _theta_bracket, grad_hess
from .exceptions import DomainError
from .model import (
    DEFAULT_EPS_TAIL, Dataset, Params, PmfChunk, _pmf_chunks, _row_map, link_mean)
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
        return {**vars(self), "cutoffs": list(self.cutoffs),
                "tail_bounds": list(self.tail_bounds)}


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
        return {"kind": self.kind.value, "matrix": self.m.tolist(),
                "truncation": self.truncation.to_dict() if self.truncation else None}


def _row_sums(a: np.ndarray) -> np.ndarray:
    """Each row of a 2-D a added up left to right."""
    return np.cumsum(a, axis=1)[:, -1]


def _theta_series(lam: np.ndarray, theta: float, chunk: PmfChunk):
    """The dispersion series of the rows of one PmfChunk, all read from its
    table; lam is the vector of means the chunk's rows index.

    Returns per-row arrays (sum_j w_j Pr(Y >= j), sum_j w_j Pr(Y >= j+1),
    brute-force E[-d2 lnL/dtheta2]), with
    w_j = (2j+u)/(j+u)^2 and u = 1/theta.  The survivor probabilities are
    suffix sums of the table.  The brute-force value weights each count's
    own negative Hessian, whose finite sum sum_{j<y} w_j is the running sum
    of w; it never reads the survivor sums.  Each series adds a row's terms
    left to right over the chunk; past the row's cutoff they are zero and
    add nothing, so every row gets the value of its one-row call.
    """
    pmf = chunk.pmf
    u = 1.0 / theta
    u3 = u * u * u
    y = np.arange(pmf.shape[1], dtype=float)
    w = _SUMMANDS["weights"](y, u)
    u3_cum_w = u3 * np.concatenate(([0.0], np.cumsum(w[:-1])))
    surv = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1]
    lam_k = lam[chunk.rows, None]
    t = theta * lam_k
    neg_h = u3 * _theta_bracket(y - lam_k, t, np.log1p(t), theta) - u3_cum_w
    return np.array([_row_sums(surv * w), _row_sums(surv[:, 1:] * w[:-1]),
                     _row_sums(pmf * neg_h)])


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
        survivor_at_j=u3 * float(sum_a[0]), survivor_at_j_plus_1=u3 * float(sum_b[0]),
        double_sum=u3 * float(np.sum(inner * pmf)), cutoff=cutoff,
        tail_bound=float(chunk.bounds[0]))


def observed_info(ds: Dataset, p: Params) -> InfoMatrix:
    """Negative analytic Hessian assembled into a (p+1) x (p+1) matrix."""
    return observed_info_from(grad_hess(ds, p))


def observed_info_from(gh: GradHess) -> InfoMatrix:
    """The observed information from derivative blocks already evaluated."""
    m = -np.block([[gh.h_bb, gh.h_bt[:, None]], [gh.h_bt, gh.h_tt]])
    return InfoMatrix(kind=InfoKind.OBSERVED, m=m)


def _expected_blocks(state, s, beta, theta: float, eps_tail: float) -> tuple:
    """From the one link of the row block s of (y, X) = state: (X_b'
    diag(lam/(1+t)) X_b; the totals over its rows, added left to right, of
    u^3 (smooth - sum_j w_j Pr(Y >= j)), u^3 (smooth - sum_j w_j Pr(Y >= j+1))
    and the brute-force values; its rows' cutoffs; their tail bounds), with
    t = theta*lam, smooth = 2 ln(1+t) - t/(1+t), u = 1/theta."""
    u = 1.0 / theta
    X_b = state[1][s]
    lam = link_mean(X_b, beta, s.start).lam
    series, bounds = np.empty((3, lam.size)), np.empty(lam.size)
    cutoffs = np.empty(lam.size, np.int64)
    for chunk in _pmf_chunks(lam, theta, eps_tail):
        series[:, chunk.rows] = _theta_series(lam, theta, chunk)
        cutoffs[chunk.rows], bounds[chunk.rows] = chunk.cutoffs, chunk.bounds
    t = theta * lam
    # math.log1p: np.log1p may differ from it in the last place, which
    # u^3 (smooth - sum) magnifies.
    smooth = 2.0 * np.array([math.log1p(v) for v in t.tolist()]) - t / (1.0 + t)
    series[:2] = u * u * u * (smooth - series[:2])
    return (X_b.T * (lam / (1.0 + t))) @ X_b, _row_sums(series), cutoffs, bounds


def expected_info(ds: Dataset, p: Params,
                  eps_tail: float = DEFAULT_EPS_TAIL) -> InfoMatrix:
    """Expected information matrix: PSD beta block sum_i lam_i/(1+t_i) x_i x_i',
    zero cross block (as E[y_i] = lam_i), and the theta element: per row
    (1/theta^3) [ 2 ln(1+t_i) - t_i/(1+t_i) - sum_j w_j T(j) ] under both
    tail-index conventions, of which the brute-force pmf-weighted negative
    Hessian picks one.  After the theta conditions of
    derivatives._require_finite_range, one pass over model._row_blocks, in
    ds's workers if it has them; the beta blocks and the theta totals, each
    block's rows added left to right, are added in block order."""
    _require_finite_range(p.theta)
    beta_blocks, totals, cutoffs, bounds = zip(
        *_row_map(ds, _expected_blocks, p.beta, p.theta, eps_tail))
    m = np.zeros((ds.p + 1, ds.p + 1))
    m[:-1, :-1] = sum(beta_blocks)
    total_a, total_b, total_bf = sum(totals).tolist()
    if abs(total_b - total_bf) <= abs(total_a - total_bf):
        chosen, m[-1, -1] = "survivor_at_j_plus_1", total_b
    else:
        chosen, m[-1, -1] = "survivor_at_j", total_a
    report = ThetaTruncationReport(
        eps_tail=eps_tail, cutoffs=tuple(np.concatenate(cutoffs).tolist()),
        tail_bounds=tuple(np.concatenate(bounds).tolist()), survivor_at_j_total=total_a,
        survivor_at_j_plus_1_total=total_b, brute_force_total=total_bf, chosen=chosen)
    return InfoMatrix(kind=InfoKind.EXPECTED, m=m, truncation=report)
