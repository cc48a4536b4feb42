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

import bisect
import math
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, LinearPredictorOverflow, TruncationCapExceeded
from .special import (
    LARGE_COUNT_SWITCH, _finite_sum_tables, _table_keys, _require_count,
    _require_positive, ln_gamma, sum_log_shifted)

# exp() overflows double precision just above 709, and an exp() this large
# poisons the likelihood silently; fail loudly instead.
MAX_LINEAR_PREDICTOR = 700.0

DEFAULT_EPS_TAIL = 1e-12
TRUNCATION_HARD_CAP = 10_000_000
# Version of the JSON payload schema shared by every CLI command.
SCHEMA_VERSION = 1

# Rows per block of the O(n) reductions in loglik and derivatives.grad_hess,
# so that a block's temporaries stay in cache.  A constant: the blocks, and
# the order in which their sums are added, do not depend on the machine.
BLOCK_ROWS = 1 << 14


@dataclass(frozen=True)
class Dataset:
    """Response counts plus design matrix.  Its O(n) passes, these checks
    included, run block by block in its workers, if any (_row_map): the
    process that holds it reads no n-row array.

    Attributes:
        y: integer counts, length n.
        X: design matrix, shape (n, p).  By CSV-ingestion convention the
            first column is an all-ones intercept unless disabled.
        names: p column labels.
        workers: the nbmle.workers.Workers whose state leads with y and X
            and that run the O(n) passes; None to run them here.
        y_max, y_total: the largest count and the exact sum of the counts.
        y_distinct: past special.LARGE_COUNT_SWITCH, the distinct counts.
    """

    y: np.ndarray
    X: np.ndarray
    names: tuple = ()
    workers: object = field(default=None, compare=False, repr=False)
    y_max: int = field(init=False, compare=False, repr=False)
    y_total: int = field(init=False, compare=False, repr=False)
    y_distinct: object = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        y = np.asarray(self.y)
        X = np.asarray(self.X, dtype=float)
        if y.ndim != 1:
            raise DomainError("y must be one-dimensional")
        if X.ndim != 2:
            raise DomainError("X must be two-dimensional")
        n, p = X.shape
        if len(y) != n:
            raise DomainError(f"y has {len(y)} rows but X has {n}")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        blocks = _row_map(self, _block_summaries)  # in the workers, if any
        for k, words in enumerate(("y contains non-finite entries",
                                   "y must contain non-negative integers",
                                   "X contains non-finite entries")):
            if not all(b[k] for b in blocks):
                raise DomainError(words)
        if not (n >= p >= 1):
            raise DomainError(f"need n >= p >= 1, got n={n}, p={p}")
        constant_cols = np.flatnonzero(np.min([b[5] for b in blocks], axis=0)
                                       == np.max([b[6] for b in blocks], axis=0))
        if len(constant_cols) > 1:
            raise DomainError(f"columns {constant_cols.tolist()} are all constant; "
                              f"at most one (the intercept) is allowed")
        names = tuple(self.names) if self.names else tuple(f"x{j}" for j in range(p))
        if len(names) != p:
            raise DomainError(f"got {len(names)} names for {p} columns")
        y_max = max(b[3] for b in blocks)
        for name, value in (("y", y.astype(np.int64, copy=False)), ("names", names),
                            ("y_max", y_max), ("y_total", sum(b[4] for b in blocks)),
                            ("y_distinct", np.unique(np.concatenate(_row_map(
                                self, _distinct_counts))) if y_max > LARGE_COUNT_SWITCH
                             else None)):
            object.__setattr__(self, name, value)

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
    order, none past n: one slice when n <= BLOCK_ROWS."""
    return [slice(s, min(s + BLOCK_ROWS, n)) for s in range(0, n, BLOCK_ROWS)]


def _row_map(ds: Dataset, fn, *args) -> list:
    """fn(state, s, *args) of each block s of _row_blocks, in block order,
    with state = (y, X): each worker of ds.workers runs its run of
    consecutive blocks through _run_blocks, or this process runs them all."""
    blocks = _row_blocks(ds.n)
    if ds.workers is None:
        return _run_blocks((ds.y, ds.X), blocks, fn, *args)
    k = ds.workers.count
    runs = [blocks[j * len(blocks) // k:(j + 1) * len(blocks) // k] for j in range(k)]
    return [r for run in ds.workers.map(_run_blocks, [r for r in runs if r], fn, *args)
            for r in run]


def _run_blocks(state, blocks, fn, *args) -> list:
    return [fn(state, s, *args) for s in blocks]


def _block_summaries(state, s) -> tuple:
    """(y is all finite, y holds only non-negative integers, X is all
    finite, the largest count, the exact sum of the counts, X's column
    minima, its column maxima) of the row block s of (y, X) = state."""
    y_b, X_b = state[0][s], state[1][s]
    ints = y_b.dtype.kind in "iub"  # checked with no float copy
    finite = ints or bool(np.isfinite(y_b).all())
    whole = ints or bool(np.all(y_b == np.floor(y_b)))
    counts = finite and whole and bool(y_b.min() >= 0)
    c = y_b.astype(np.int64, copy=False) if counts else np.zeros(1, np.int64)
    top = int(c.max())  # an int64 sum is exact below 2**63
    # Column by column: numpy reduces a narrow axis 0 several times slower.
    return (finite, counts, bool(np.isfinite(X_b).all()), top,
            int(c.sum()) if top < 2 ** 63 // len(c) else sum(c.tolist()),
            [col.min() for col in X_b.T], [col.max() for col in X_b.T])


def _distinct_counts(state, s) -> np.ndarray:
    return np.unique(state[0][s])


def _loglik_sum(y: np.ndarray, eta: np.ndarray, theta: float,
                log1p_t: np.ndarray, log_sums: np.ndarray) -> float:
    """The log-likelihood of one block of rows, from the counts as floats,
    eta, ln(1 + theta*lambda) and sum_{j<y} ln(j + 1/theta) - ln(y!);
    derivatives.grad_hess calls it on the same blocks."""
    terms = log_sums + y * (eta + math.log(theta)) - (1.0 / theta + y) * log1p_t
    return float(np.sum(terms))


def loglik(ds: Dataset, p: Params) -> float:
    """Log-likelihood in the dispersion parameterisation (beta, theta).

    Summed block by block over _row_blocks, in ds's workers if it has
    them, and the blocks added in order."""
    theta = p.theta
    log_u, log_1 = _finite_sum_tables(ds.y_max, ds.y_distinct,
                                      ((1.0 / theta, "log"), (1.0, "log")))
    return sum(_row_map(ds, _loglik_block, p.beta, theta, log_u - log_1,
                        ds.y_distinct))


def _loglik_block(state, s, beta, theta: float, log_sums, distinct) -> float:
    y_b = state[0][s]
    link = link_mean(state[1][s], beta, s.start)
    return _loglik_sum(y_b.astype(float), link.eta, theta, np.log1p(theta * link.lam),
                       log_sums[_table_keys(y_b, distinct)])


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


def _cap_error(lam: float, theta: float) -> TruncationCapExceeded:
    return TruncationCapExceeded(f"series not converged within {TRUNCATION_HARD_CAP}"
                                 f" terms (lam={lam}, theta={theta})")


def _pmf_chunks(lam, theta: float, eps_tail: float = DEFAULT_EPS_TAIL):
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
    when a cutoff would pass TRUNCATION_HARD_CAP.
    """
    if eps_tail <= 0.0:
        raise DomainError("eps_tail must be positive")
    lam = np.asarray(lam, dtype=float).reshape(-1)
    floors = np.ceil(lam + 10.0 * np.sqrt(lam * (1.0 + theta * lam)))
    if floors.max() > TRUNCATION_HARD_CAP:
        raise _cap_error(float(lam[np.argmax(floors > TRUNCATION_HARD_CAP)]), theta)
    floors = floors.astype(np.int64)
    order = np.argsort(floors, kind="stable")
    widths = (floors[order] + 1).tolist()
    work = deque()
    i = 0
    while i < len(widths):
        # As many rows as fit when the chunk is as wide as its last row; a
        # chunk's size grows with the row it ends at.
        k = bisect.bisect_right(range(i + 1, len(widths)), _CHUNK_ENTRIES,
                                key=lambda j: (j + 1 - i) * widths[j]) + i + 1
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
            if width > TRUNCATION_HARD_CAP:
                raise _cap_error(float(lam[pending.min()]), theta)
            width = min(2 * width, TRUNCATION_HARD_CAP + 1)
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


def _pmf_table(lam: float, theta: float, eps_tail: float = DEFAULT_EPS_TAIL):
    """(pmf(0..J-1) as an array, the cutoff J, a certified bound on Pr(Y >= J))
    for one mean: the one-row case of _pmf_chunks."""
    (chunk,) = _pmf_chunks([lam], theta, eps_tail)
    cutoff = int(chunk.cutoffs[0])
    return chunk.pmf[0, :cutoff], cutoff, float(chunk.bounds[0])
