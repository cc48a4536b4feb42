"""Poisson-Gamma mixture machinery: quadrature cross-check, the truncated
mean that verify checks against lam, and the compositional sampler.

Mixing a Poisson(lam * u) count with a unit-mean Gamma disturbance u
(shape = rate = alpha) yields the NB2 distribution.  mixture_pmf evaluates
that mixing integral numerically through the composed Poisson and Gamma
densities, providing a route to the p.m.f. that is independent of the
closed form in the model module; the two must agree.

The integral is taken in t, where ln u = c + w sinh(t): c places the
peak of the integrand at t = 0 and w matches its width, and the sinh makes
both tails decay double-exponentially, so a plain trapezoid rule converges
exponentially (Trefethen & Weideman, SIAM Review 56, 2014).  The nodes
never reach u = 0, where the integrand is singular when y + alpha < 1.
The node-independent terms of the two log-densities (ln y!, ln lam,
alpha ln alpha - ln Gamma(alpha)) are evaluated once per call, not once
per node.

The sampler draws u ~ Gamma(alpha, rate=alpha) then y ~ Poisson(lam * u)
from numpy's PCG64 generator, block by block in the stream of one call of
each, so a seed pins the exact output stream and no n-row array is held.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DomainError, QuadratureConvergenceError
from .model import DEFAULT_EPS_TAIL, _pmf_table, _row_blocks
from .special import _require_count, _require_positive, ln_gamma


# Relative agreement of two successive trapezoid sums that ends mixture_pmf,
# and its cap on step halvings (about 250k integrand nodes at most).
_REL_TOL = 1e-10
_MAX_HALVINGS = 12
# numpy's Poisson sampler refuses a mean above this (numpy.random._common).
_POISSON_LAM_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


def mixture_pmf(y: int, lam: float, alpha: float) -> float:
    """Pr(Y = y) via numerical evaluation of the Poisson-Gamma mixing integral.

    integral_0^inf  Poisson(y; lam*u) * Gamma(u; alpha, rate=alpha) du,
    which must equal the closed-form NB2 p.m.f.

    The trapezoid rule in t, where ln u = c + w sinh(t), halves its step
    until two successive sums agree.  Raises QuadratureConvergenceError,
    carrying the achieved tolerance, if _MAX_HALVINGS halvings do not suffice.
    """
    y = _require_count(y)
    lam = _require_positive(lam, "lam")
    alpha = _require_positive(alpha, "alpha")
    scale = lam + alpha
    s = y + alpha
    # The node-independent terms of the two log-densities, once per call.
    ln_lam = math.log(lam)
    ln_y_factorial = ln_gamma(y + 1.0)
    ln_gamma_alpha = ln_gamma(alpha)
    gamma_norm = alpha * math.log(alpha) - ln_gamma_alpha
    # In v = ln u the integrand peaks at v = c with width about 1/sqrt(s).
    c = math.log(s / scale)
    w = min(1.0, 1.0 / math.sqrt(s))

    def integrand(t: np.ndarray) -> np.ndarray:
        v = c + w * np.sinh(t)
        u = np.exp(v)
        # ln of the Poisson(lam*u) mass at y plus ln of u times the Gamma
        # density, the u from du = u dv.  y * (ln lam + v), not
        # y * ln(lam * u): u underflows to 0 far left.  alpha * v, not
        # (alpha - 1) * v + v: far left |v| reaches 40/s, and the two would
        # cancel to a tiny alpha * v.
        return np.exp(
            (y * (ln_lam + v) - ln_y_factorial - lam * u)
            + (gamma_norm + alpha * v - alpha * u)
        ) * (w * np.cosh(t))

    lo = -math.asinh((1.0 + 40.0 / s) / w)
    hi = math.asinh((math.log1p(40.0 / s) + 10.0 * w) / w)
    # The integrand is exp() of a sum of terms as large as ~alpha*ln(alpha),
    # so its point evaluations carry relative noise of roughly eps times
    # that magnitude; demanding agreement below it only halves rounding jitter.
    log_magnitude = (abs(alpha * math.log(alpha)) + abs(ln_gamma_alpha)
                     + abs(ln_y_factorial) + s * (1.0 + abs(math.log(scale))))
    noise_rel = 32.0 * 2.220446049250313e-16 * max(log_magnitude, 1.0)
    tol = max(_REL_TOL, noise_rel)
    # The integrand is negligible at lo and hi, so the end nodes take full
    # weight, as in the trapezoid rule on the whole line.
    n = math.ceil(2.0 * (hi - lo))
    h = (hi - lo) / n
    total = h * float(np.sum(integrand(np.linspace(lo, hi, n + 1))))
    for _ in range(_MAX_HALVINGS):
        n, h = 2 * n, 0.5 * h
        previous = total
        mids = lo + h * np.arange(1, n, 2)
        total = 0.5 * total + h * float(np.sum(integrand(mids)))
        if abs(total - previous) <= tol * abs(total):
            return total
    raise QuadratureConvergenceError(
        f"mixing integral did not converge for y={y}, lam={lam}, "
        f"alpha={alpha} within {_MAX_HALVINGS} halvings",
        achieved_tol=abs(total - previous) / max(abs(total), 1e-300))


def nb_mean_bruteforce(lam: float, alpha: float,
                       eps_tail: float = DEFAULT_EPS_TAIL) -> float:
    """Truncated sum_y y * pmf(y); must equal lam."""
    lam = _require_positive(lam, "lam")
    alpha = _require_positive(alpha, "alpha")
    pmf, cutoff, _ = _pmf_table(lam, 1.0 / alpha, eps_tail)
    return float(np.arange(cutoff, dtype=float) @ pmf)


def sample_counts(lam, theta: float, rng: np.random.Generator) -> np.ndarray:
    """Draw NB2 counts for a 1-D array of means from an existing generator,
    in the stream of one rng.gamma call, then one rng.poisson call."""
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1:
        raise DomainError(f"lam must be one-dimensional, not of shape {lam.shape}")
    if np.any(lam <= 0.0) or not np.all(np.isfinite(lam)):
        raise DomainError("lam must be positive and finite")
    blocks = [(s, lam[s].max()) for s in _row_blocks(len(lam))]
    counts = np.empty(len(lam), np.int64)
    states = gamma_states(lambda s: lam[s], blocks, theta, rng)
    for (s, _), state in zip(blocks, states):
        counts[s] = block_counts(lam[s], theta, state, rng)
    return counts


def generator(state) -> np.random.Generator:
    """A Generator that draws what one in the saved PCG64 state drew next."""
    bits = np.random.PCG64(0)  # the seed is overwritten
    bits.state = state
    return np.random.Generator(bits)


def gamma_states(lam_of, blocks, theta: float, rng) -> list:
    """The generator state before each block's Gamma variates, drawn block
    by block as one rng.gamma call over all rows would.  blocks lists (s,
    the largest mean of rows s) for consecutive slices from row 0; lam_of(s)
    gives the means of rows s where the largest variate times the largest
    mean passes the Poisson sampler's limit.  A Poisson mean past it raises
    DomainError once every variate is drawn; block_counts draws the counts.
    """
    theta = _require_positive(theta, "theta")
    states, top = [], 0.0
    for s, lam_top in blocks:
        states.append(rng.bit_generator.state)
        u = rng.gamma(shape=1.0 / theta, scale=theta, size=s.stop - s.start)
        if float(u.max()) * lam_top > _POISSON_LAM_MAX:  # else no mean is
            top = max(top, float((u * lam_of(s)).max()))
    if top > _POISSON_LAM_MAX:
        raise DomainError(f"Poisson mean lam*u = {top!r} exceeds "
                          f"the sampler's limit {_POISSON_LAM_MAX!r}")
    return states


def block_counts(lam_b, theta: float, gamma_state, rng) -> np.ndarray:
    """Counts of means lam_b drawn from rng, the Gamma variates again."""
    mean = generator(gamma_state).gamma(1.0 / theta, theta, len(lam_b))
    mean *= lam_b  # in place: the Poisson means lam * u
    return rng.poisson(mean)
