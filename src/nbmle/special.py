"""Scalar gamma-family functions and the one finite-sum kernel.

The count-regression likelihood only ever needs gamma functions through the
ratio Gamma(y + a) / Gamma(a) with integer y, so every such ratio admits an
exact finite-sum form:

    ln[Gamma(y+a)/Gamma(a)]   = sum_{j=0}^{y-1} ln(j + a)
    Psi(y+a)  - Psi(a)        = sum_{j=0}^{y-1} 1/(j + a)
    Psi'(y+a) - Psi'(a)       = -sum_{j=0}^{y-1} 1/(j + a)^2

The finite sums are the canonical evaluation path here; the gamma-function
forms exist so the two routes can be checked against each other.
_finite_sums evaluates every finite sum, for an array of counts, from one
cumulative table, which _finite_sum_tables hands to blocked kernels; the
public sum_* functions are its one-count case.  When a count passes
LARGE_COUNT_SWITCH the kernel takes the gamma-difference forms instead
(O(1) per distinct count instead of O(y)); the equalities above make the
switch exact up to rounding.

All functions are pure and reentrant.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DomainError

# digamma and trigamma apply the upward recurrence until the argument
# reaches this threshold, after which their asymptotic (de Moivre)
# expansions below are accurate to well under 1e-14 relative.
_ASYMPTOTIC_THRESHOLD = 10.0

# Bernoulli-number coefficients of the asymptotic expansions, highest kept
# order chosen so the first omitted term is < 5e-17 at the threshold.
#   Psi(x):  ln x - 1/(2x) - sum c_k / x^(2k),  c_k = B_2k / (2k)
_DIGAMMA_SERIES = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0,
                   1.0 / 132.0, -691.0 / 32760.0, 1.0 / 12.0)
#   Psi'(x):  1/x + 1/(2x^2) + sum c_k / x^(2k+1),  c_k = B_2k
_TRIGAMMA_SERIES = (1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
                    5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0)

# Counts above this switch the finite sums to the gamma-difference forms.
LARGE_COUNT_SWITCH = 1_000_000


def _require_positive(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"{name} must be a positive finite real, got {x!r}")
    return x


def _require_count(y, name: str = "y") -> int:
    if isinstance(y, bool):
        raise DomainError(f"{name} must be a non-negative integer, got {y!r}")
    iy = int(y)
    if iy != y or iy < 0:
        raise DomainError(f"{name} must be a non-negative integer, got {y!r}")
    return iy


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0 (math.lgamma); inf past
    the double range, where math.lgamma raises OverflowError."""
    x = _require_positive(x, "x")
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def digamma(x: float) -> float:
    """Digamma Psi(x) = d/dx ln Gamma(x) for x > 0."""
    x = _require_positive(x, "x")
    acc = 0.0
    while x < _ASYMPTOTIC_THRESHOLD:
        acc -= 1.0 / x
        x += 1.0
    inv = 1.0 / x
    inv_sq = inv * inv
    series = 0.0
    power = inv_sq
    for c in _DIGAMMA_SERIES:
        series += c * power
        power *= inv_sq
    return acc + math.log(x) - 0.5 * inv - series


def trigamma(x: float) -> float:
    """Trigamma Psi'(x), the derivative of the digamma, for x > 0.

    Raises DomainError when Psi'(x) ~ 1/x^2 is past the double range."""
    x = _require_positive(x, "x")
    if x * x == 0.0 or 1.0 / (x * x) == math.inf:
        raise DomainError(f"trigamma({x!r}) overflows: 1/x^2 is not a "
                          "finite double")
    acc = 0.0
    while x < _ASYMPTOTIC_THRESHOLD:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv_sq = inv * inv
    series = 0.0
    power = inv_sq * inv
    for c in _TRIGAMMA_SERIES:
        series += c * power
        power *= inv_sq
    return acc + inv + 0.5 * inv_sq + series


def _gamma_diff(fn, y: np.ndarray, a: float) -> np.ndarray:
    """fn(y_i + a) - fn(a) per count (0.0 where y_i = 0), one scalar call per
    distinct count."""
    uniq, inv = np.unique(y, return_inverse=True)
    base = fn(a)
    return np.array([fn(v + a) - base if v else 0.0 for v in uniq])[inv]


# The summand of each finite sum at terms j and shift a, elementwise.
_SUMMANDS = {
    "log": lambda j, a: np.log(j + a),
    "recip": lambda j, a: 1.0 / (j + a),
    "recip_sq": lambda j, a: 1.0 / (j + a) ** 2,
    "weights": lambda j, a: (2.0 * j + a) / (j + a) ** 2,
}

# The same sums through the gamma-difference forms; the weights decompose
# as 2/(j+a) - a/(j+a)^2.
_GAMMA_FORMS = {
    "log": lambda y, a: _gamma_diff(ln_gamma, y, a),
    "recip": lambda y, a: _gamma_diff(digamma, y, a),
    "recip_sq": lambda y, a: -_gamma_diff(trigamma, y, a),
    "weights": lambda y, a: (2.0 * _gamma_diff(digamma, y, a)
                             + a * _gamma_diff(trigamma, y, a)),
}


def _finite_sums(y: np.ndarray, a: float, kind: str) -> np.ndarray:
    """sum_{j<y_i} of the `kind` summand at shift a, for each count y_i.

    kind is "log" (ln(j+a)), "recip" (1/(j+a)), "recip_sq" (1/(j+a)^2) or
    "weights" ((2j+a)/(j+a)^2).  Reads one cumulative table of length
    max(y); when a count passes LARGE_COUNT_SWITCH every count takes the
    exact gamma-difference form instead.
    """
    y_max = int(y.max()) if len(y) else 0
    distinct = np.unique(y) if y_max > LARGE_COUNT_SWITCH else None
    (table,) = _finite_sum_tables(y_max, distinct, ((a, kind),))
    return table[_table_keys(y, distinct)]


def _table_keys(y: np.ndarray, distinct) -> np.ndarray:
    return y if distinct is None else np.searchsorted(distinct, y)


def _finite_sum_tables(y_max: int, distinct, sums, check=lambda: None):
    """Tables t_k, t_k[_table_keys(y, distinct)] being _finite_sums(y, a,
    kind) for the k-th (a, kind) in sums, for counts y up to y_max:
    cumulative tables indexed by the counts, or past LARGE_COUNT_SWITCH the
    gamma forms at distinct, the sorted distinct counts (else None).
    check() runs after the gamma forms, whose scalar functions check their
    own range, and before any summand is evaluated.
    """
    if y_max > LARGE_COUNT_SWITCH:
        tables = [_GAMMA_FORMS[kind](distinct, a) for a, kind in sums]
        check()
        return tables
    check()
    j = np.arange(y_max, dtype=float)
    return [np.concatenate(([0.0], np.cumsum(_SUMMANDS[kind](j, a))))
            for a, kind in sums]


def _one_count(y: int, a: float, kind: str) -> float:
    return float(_finite_sums(np.array([y]), a, kind)[0])


def sum_log_shifted(y: int, a: float) -> float:
    """sum_{j=0}^{y-1} ln(j + a); equals ln Gamma(y+a) - ln Gamma(a).

    Empty sum (exactly 0.0) for y = 0.
    """
    y = _require_count(y)
    return _one_count(y, _require_positive(a, "a"), "log")


def sum_recip_shifted(y: int, theta: float) -> float:
    """sum_{j=0}^{y-1} 1/(j + 1/theta); equals Psi(y + 1/theta) - Psi(1/theta)."""
    y = _require_count(y)
    return _one_count(y, 1.0 / _require_positive(theta, "theta"), "recip")


def sum_recip_sq_shifted(y: int, a: float) -> float:
    """sum_{j=0}^{y-1} 1/(j + a)^2; equals -[Psi'(y+a) - Psi'(a)]."""
    y = _require_count(y)
    return _one_count(y, _require_positive(a, "a"), "recip_sq")


def sum_trigamma_weights(y: int, theta: float) -> float:
    """sum_{j=0}^{y-1} (2j + 1/theta) / (j + 1/theta)^2.

    The summand decomposes as 2/(j+u) - u/(j+u)^2 with u = 1/theta, so the
    sum equals 2*sum_recip_shifted(y, theta) - u*sum_recip_sq_shifted(y, u).
    """
    y = _require_count(y)
    return _one_count(y, 1.0 / _require_positive(theta, "theta"), "weights")
