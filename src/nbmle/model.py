"""NB2 probability model: p.d.f., link, log-likelihood, certified pmf tables.

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
ln(y_i!) as the same sum at shift 1, come from special's finite-sum
tables, the kernel the derivatives and the identity checks also read.  The
sum over i runs over blocks of BLOCK_ROWS rows, in order.

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
    _finite_sum_tables,
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

# Rows per block of the O(n) reductions in loglik and derivatives.grad_hess,
# so that a block's temporaries stay in cache.  A constant: the blocks, and
# the order in which their sums are added, do not depend on the machine.
BLOCK_ROWS = 1 << 14


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
        if np.any(y < 0) or (y.dtype.kind == "f" and np.any(y != np.floor(y))):
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
        object.__setattr__(self, "y", y.astype(np.int64, copy=False))
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


@dataclass(frozen=True)
class LinkValues:
    """Linear predictors eta_i = x_i' beta and means lambda_i = exp(eta_i).

    Built only by link_mean, whose bound on |eta| keeps lam positive and
    finite.
    """

    lam: np.ndarray
    eta: np.ndarray


def link_mean(X: np.ndarray, beta: np.ndarray, start: int = 0) -> LinkValues:
    """Evaluate the exponential link lambda_i = exp(x_i' beta).

    Raises LinearPredictorOverflow naming the first offending row, plus
    start, when any |x_i' beta| exceeds MAX_LINEAR_PREDICTOR or is non-finite.
    """
    X = np.asarray(X, dtype=float)
    beta = np.asarray(beta, dtype=float)
    eta = X @ beta
    # NaN fails both comparisons; the offending row is located only then.
    if not (eta.max() <= MAX_LINEAR_PREDICTOR and eta.min() >= -MAX_LINEAR_PREDICTOR):
        row = int(np.argmax(~(np.abs(eta) <= MAX_LINEAR_PREDICTOR)))
        raise LinearPredictorOverflow(start + row, float(eta[row]))
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


def _row_blocks(n: int) -> list:
    """Slices of at most BLOCK_ROWS consecutive rows covering range(n), in
    order: one slice when n <= BLOCK_ROWS."""
    return [slice(s, s + BLOCK_ROWS) for s in range(0, n, BLOCK_ROWS)]


def _loglik_sum(y: np.ndarray, eta: np.ndarray, theta: float,
                log1p_t: np.ndarray, log_sums: np.ndarray) -> float:
    """The log-likelihood of one block of rows, from the counts as floats,
    eta, ln(1 + theta*lambda) and sum_{j<y} ln(j + 1/theta) - ln(y!);
    derivatives.grad_hess calls it on the same blocks."""
    terms = log_sums + y * (eta + math.log(theta)) - (1.0 / theta + y) * log1p_t
    return float(np.sum(terms))


def loglik(ds: Dataset, p: Params) -> float:
    """Log-likelihood in the dispersion parameterisation (beta, theta).

    Summed block by block over _row_blocks, in order."""
    theta = p.theta
    (log_u, log_1), keys = _finite_sum_tables(ds.y, ((1.0 / theta, "log"),
                                                      (1.0, "log")))
    log_sums = log_u - log_1
    ll = 0.0
    for s in _row_blocks(ds.n):
        link = link_mean(ds.X[s], p.beta, s.start)
        ll += _loglik_sum(ds.y[s].astype(float), link.eta, theta,
                          np.log1p(theta * link.lam), log_sums[keys[s]])
    return ll


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
