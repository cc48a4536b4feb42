"""NB2 probability model: p.d.f., link, log-likelihood, tail probabilities.

The model for counts y_i with regressors x_i is

    Pr(Y = y | lambda, alpha) = Gamma(y + alpha) / (Gamma(y+1) Gamma(alpha))
                                * (lambda / (lambda + alpha))^y
                                * (alpha / (lambda + alpha))^alpha

with conditional mean lambda_i = exp(x_i' beta) and gamma shape alpha, or
equivalently the dispersion parameter theta = 1/alpha.  Mean is lambda and
variance lambda * (1 + theta * lambda); theta -> 0 recovers Poisson.

The log-likelihood is evaluated in the finite-sum ("gamma-free") form

    sum_i { sum_{j=0}^{y_i - 1} ln(j + 1/theta) - ln(y_i!) + y_i x_i'beta
            + y_i ln theta - (1/theta + y_i) ln(1 + theta e^{x_i'beta}) }

with ln(1 + theta*lambda) computed through log1p.  The sums over j, and
ln(y_i!) as the same sum at shift 1, come from special._finite_sums, the
kernel the derivatives and the identity checks also read.

All operations are pure; Dataset and Params are immutable after
construction.  Per-observation reductions use numpy's pairwise summation,
so results are bit-reproducible for identical inputs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import (
    DomainError,
    LinearPredictorOverflow,
    TruncationCapExceeded,
)
from .special import (
    _finite_sums,
    _require_count,
    _require_positive,
    ln_gamma,
    sum_log_shifted,
)

# exp() overflows double precision just above 709, and an exp() this large
# poisons the likelihood silently; fail loudly instead.
MAX_LINEAR_PREDICTOR = 700.0

DEFAULT_EPS_TAIL = 1e-12
TRUNCATION_HARD_CAP = 10_000_000


@dataclass(frozen=True)
class Dataset:
    """Response counts plus design matrix.

    Attributes:
        y: integer counts, length n.
        X: design matrix, shape (n, p).  By CSV-ingestion convention the
            first column is an all-ones intercept unless disabled.
        names: p column labels.
    """

    y: np.ndarray
    X: np.ndarray
    names: tuple = ()

    def __post_init__(self):
        y = np.asarray(self.y)
        X = np.asarray(self.X, dtype=float)
        if y.ndim != 1:
            raise DomainError("y must be one-dimensional")
        if X.ndim != 2:
            raise DomainError("X must be two-dimensional")
        if not np.all(np.isfinite(y)):
            raise DomainError("y contains non-finite entries")
        if np.any(y < 0) or np.any(y != np.floor(y)):
            raise DomainError("y must contain non-negative integers")
        if not np.all(np.isfinite(X)):
            raise DomainError("X contains non-finite entries")
        n, p = X.shape
        if len(y) != n:
            raise DomainError(f"y has {len(y)} rows but X has {n}")
        if not (n >= p >= 1):
            raise DomainError(f"need n >= p >= 1, got n={n}, p={p}")
        constant_cols = [j for j in range(p) if np.ptp(X[:, j]) == 0.0]
        if len(constant_cols) > 1:
            raise DomainError(
                f"columns {constant_cols} are all constant; at most one "
                f"(the intercept) is allowed"
            )
        names = tuple(self.names) if self.names else tuple(f"x{j}" for j in range(p))
        if len(names) != p:
            raise DomainError(f"got {len(names)} names for {p} columns")
        object.__setattr__(self, "y", y.astype(np.int64))
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "names", names)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class Params:
    """Regression coefficients beta and dispersion theta > 0."""

    beta: np.ndarray
    theta: float

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        if beta.ndim != 1 or not np.all(np.isfinite(beta)):
            raise DomainError("beta must be a finite vector")
        theta = _require_positive(self.theta, "theta")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "theta", theta)

    @property
    def alpha(self) -> float:
        """Gamma shape parameter, the reciprocal of the dispersion."""
        return 1.0 / self.theta


@dataclass(frozen=True)
class LinkValues:
    """Linear predictors eta_i = x_i' beta and means lambda_i = exp(eta_i).

    Built only by link_mean, whose bound on |eta| keeps lam positive and
    finite.
    """

    lam: np.ndarray
    eta: np.ndarray


def link_mean(X: np.ndarray, beta: np.ndarray) -> LinkValues:
    """Evaluate the exponential link lambda_i = exp(x_i' beta).

    Raises LinearPredictorOverflow naming the first offending row when any
    |x_i' beta| exceeds MAX_LINEAR_PREDICTOR or is non-finite.
    """
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    eta = X @ beta
    bad = ~np.isfinite(eta) | (np.abs(eta) > MAX_LINEAR_PREDICTOR)
    if np.any(bad):
        row = int(np.argmax(bad))
        raise LinearPredictorOverflow(row, float(eta[row]))
    return LinkValues(np.exp(eta), eta)


def nb_logpmf(y: int, lam: float, alpha: float) -> float:
    """Log of the NB2 probability mass at count y."""
    y = _require_count(y)
    lam = _require_positive(lam, "lam")
    alpha = _require_positive(alpha, "alpha")
    return (
        sum_log_shifted(y, alpha)
        - ln_gamma(y + 1.0)
        + y * (math.log(lam) - math.log(lam + alpha))
        - alpha * math.log1p(lam / alpha)
    )


def nb_pmf(y: int, lam: float, alpha: float) -> float:
    """NB2 probability mass at count y, computed in log space."""
    return math.exp(nb_logpmf(y, lam, alpha))


def nb_pmf_binomial_form(y: int, lam: float, alpha: int) -> float:
    """Binomial-coefficient form of the p.m.f., defined for integer alpha.

    C(y + alpha - 1, y) * r^y * (1 - r)^alpha with r = lam / (lam + alpha).
    The factorials only make sense for integer alpha; fractional shapes must
    use nb_pmf.
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


def _ln_factorial(y: np.ndarray) -> np.ndarray:
    """ln(y!) = ln Gamma(y+1), via an exact cumulative table of logs."""
    return _finite_sums(y, 1.0, "log")


def _loglik_sum(y: np.ndarray, eta: np.ndarray, theta: float,
                log1p_t: np.ndarray) -> float:
    """The finite-sum log-likelihood from the linear predictors and
    ln(1 + theta*lambda), which derivatives.grad_hess also reads."""
    u = 1.0 / theta
    terms = (
        _finite_sums(y, u, "log")
        - _ln_factorial(y)
        + y * eta
        + y * math.log(theta)
        - (u + y) * log1p_t
    )
    return float(np.sum(terms))


def loglik(ds: Dataset, p: Params) -> float:
    """Log-likelihood in the dispersion parameterisation (beta, theta)."""
    link = link_mean(ds.X, p.beta)
    return _loglik_sum(ds.y, link.eta, p.theta, np.log1p(p.theta * link.lam))


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
        - _ln_factorial(y)
        + y * np.log(lam)
        - y * math.log(alpha)
        - (alpha + y) * np.log1p(lam / alpha)
    )
    return float(np.sum(terms))


# A chunk of the batched pmf table holds at most about this many entries;
# a single row longer than this is a chunk of its own.
_CHUNK_ENTRIES = 1 << 15


class PmfChunk(NamedTuple):
    """Certified pmf tables of some rows of a vector of means, one per row.

    pmf[k, y] = Pr(Y = y) for y < cutoffs[k] and 0 from cutoffs[k] on, for
    the mean lam[rows[k]]; bounds[k] is the certified bound on
    Pr(Y >= cutoffs[k]).  pmf is C-contiguous with width max(cutoffs).
    """

    rows: np.ndarray
    pmf: np.ndarray
    cutoffs: np.ndarray
    bounds: np.ndarray


def _cap_error(lam: float, theta: float, hard_cap: int) -> TruncationCapExceeded:
    return TruncationCapExceeded(
        f"series not converged within {hard_cap} terms (lam={lam}, theta={theta})"
    )


def _pmf_chunks(lam, theta: float, eps_tail: float = DEFAULT_EPS_TAIL,
                hard_cap: int = TRUNCATION_HARD_CAP):
    """Yield the certified pmf table of every mean in lam, as PmfChunks.

    ln pmf is the cumulative sum of ln rho_y, where
    rho_y = pmf(y+1)/pmf(y) = r (y + alpha) / (y + 1) and r = lam/(lam+alpha).
    Past the mode rho_y < 1 and moves monotonically toward r, so no later
    ratio exceeds max(r, rho_J) and Pr(Y >= J) <= pmf(J) / (1 - max(r, rho_J)).
    A row's cutoff J is the first count at or past its floor
    lam + 10*sqrt(lam*(1+theta*lam)), which keeps the moment mass inside
    the table, where that bound is below eps_tail.

    Rows are sorted by floor and evaluated as 2-D tables of at most about
    _CHUNK_ENTRIES entries, each as wide as the largest floor in it plus
    one.  Rows whose bound has not fallen below eps_tail within the width
    are evaluated again at twice the width.  Every operation acts on each
    row alone, so a row's table, cutoff and bound do not depend on the
    other rows.  TruncationCapExceeded, naming the row's mean, is raised
    when a cutoff would pass hard_cap.
    """
    if eps_tail <= 0.0:
        raise DomainError("eps_tail must be positive")
    lam = np.asarray(lam, dtype=float).reshape(-1)
    floors = np.ceil(lam + 10.0 * np.sqrt(lam * (1.0 + theta * lam)))
    if floors.max() > hard_cap:
        raise _cap_error(float(lam[np.argmax(floors > hard_cap)]), theta, hard_cap)
    floors = floors.astype(np.int64)
    order = np.argsort(floors, kind="stable")
    widths = (floors[order] + 1).tolist()
    work = deque()
    i = 0
    while i < len(widths):
        # As many rows as fit when the chunk is as wide as its last row.
        k = i + 1
        while k < len(widths) and (k + 1 - i) * widths[k] <= _CHUNK_ENTRIES:
            k += 1
        work.append((order[i:k], widths[k - 1]))
        i = k
    alpha = 1.0 / theta
    r = lam / (lam + alpha)
    # math.log1p, as in nb_logpmf: np.log1p may differ in the last place.
    log_pmf0 = -alpha * np.array([math.log1p(v) for v in (lam / alpha).tolist()])
    while work:
        rows, width = work.popleft()
        chunk, pending = _pmf_block(rows, r[rows], log_pmf0[rows], floors[rows],
                                    width, alpha, eps_tail)
        if chunk is not None:
            yield chunk
        if pending.size:
            if width > hard_cap:
                raise _cap_error(float(lam[pending.min()]), theta, hard_cap)
            width = min(2 * width, hard_cap + 1)
            step = max(1, _CHUNK_ENTRIES // width)
            work.extend((pending[j:j + step], width)
                        for j in range(0, pending.size, step))


def _pmf_block(rows, r, log_pmf0, starts, width, alpha, eps_tail):
    """One 2-D pass of _pmf_chunks over the given rows, width entries each,
    from their r, ln pmf(0) and floors: (the PmfChunk of the rows whose
    cutoff lies within the width, or None; the rows to evaluate again
    wider)."""
    y = np.arange(width, dtype=float)
    rho = np.multiply.outer(r, y + alpha)
    rho /= y + 1.0
    table = np.empty_like(rho)
    table[:, 0] = log_pmf0
    np.log(rho[:, :-1], out=table[:, 1:])
    np.cumsum(table, axis=1, out=table)
    np.exp(table, out=table)
    # A count stops its row when it is at or past the row's floor and
    # pmf < eps_tail * room, room = 1 - max(r, rho).
    room = np.subtract(1.0, np.maximum(rho, r[:, None], out=rho), out=rho)
    del rho
    room[y < starts[:, None]] = 0.0
    hit = table < eps_tail * room
    done = hit.any(axis=1)
    if not done.any():
        return None, rows
    pending = rows[~done]
    cutoffs = np.argmax(hit[done], axis=1)
    bounds = table[done, cutoffs] / room[done, cutoffs]
    del hit, room
    size = int(cutoffs.max())
    pmf = table[done, :size]
    del table
    pmf[y[:size] >= cutoffs[:, None]] = 0.0
    return PmfChunk(rows[done], pmf, cutoffs, bounds), pending


def _pmf_table(lam: float, theta: float, eps_tail: float = DEFAULT_EPS_TAIL,
               hard_cap: int = TRUNCATION_HARD_CAP):
    """(pmf(0..J-1) as an array, the cutoff J, a certified bound on Pr(Y >= J))
    for one mean: the one-row case of _pmf_chunks."""
    (chunk,) = _pmf_chunks([lam], theta, eps_tail, hard_cap)
    cutoff = int(chunk.cutoffs[0])
    return chunk.pmf[0, :cutoff], cutoff, float(chunk.bounds[0])


def tail_prob(j: int, lam: float, theta: float) -> float:
    """Pr(Y >= j) for Y ~ NB2(lam, alpha = 1/theta), clamped to [0, 1].

    Computed as 1 - sum_{y<j} pmf(y) over the pmf table; for j past the
    table's cutoff the result is within DEFAULT_EPS_TAIL of the truth.
    """
    j = _require_count(j, "j")
    lam = _require_positive(lam, "lam")
    theta = _require_positive(theta, "theta")
    pmf, _, _ = _pmf_table(lam, theta)
    return min(1.0, max(0.0, 1.0 - math.fsum(pmf[:j])))


@dataclass(frozen=True)
class TruncatedSum:
    """A pmf-weighted series value with its truncation diagnostics."""

    value: float
    cutoff: int
    tail_bound: float
    weight_sum: float


def truncated_pmf_sum(f, lam: float, theta: float, eps_tail: float = DEFAULT_EPS_TAIL,
                      hard_cap: int = TRUNCATION_HARD_CAP) -> TruncatedSum:
    """sum_y f(y) * pmf(y) over the counts y < J of the pmf table.

    J is the first count past the moment floor at which the certified
    bound on the neglected mass Pr(Y >= J) is below eps_tail; tail_bound
    is that bound.  f is called once per count with a Python int.  Raises
    TruncationCapExceeded when J would pass hard_cap.
    """
    lam = _require_positive(lam, "lam")
    theta = _require_positive(theta, "theta")
    pmf, cutoff, bound = _pmf_table(lam, theta, eps_tail, hard_cap)
    values = np.fromiter((f(y) for y in range(cutoff)), float, cutoff)
    return TruncatedSum(float(np.sum(values * pmf)), cutoff, bound, float(np.sum(pmf)))
