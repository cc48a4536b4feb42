"""Poisson-Gamma mixture machinery: quadrature cross-check, moment oracles,
and the compositional sampler.

Mixing a Poisson(lam * u) count with a unit-mean Gamma disturbance u
(shape = rate = alpha) yields the NB2 distribution.  mixture_pmf evaluates
that mixing integral numerically through the composed Poisson and Gamma
densities, providing a route to the p.m.f. that is independent of the
closed form in the model module; the two must agree.

The integration variable is rescaled to x = u * (lam + alpha), under which
the integrand is proportional to x^(y + alpha - 1) e^(-x).  The upper
cutoff comes from bounding the incomplete-gamma tail of that envelope.
Adaptive quadrature bisects panels of a 7-point Gauss-Legendre rule, whose
nodes are interior, so the integrable endpoint singularity that appears
when y + alpha < 1 is never evaluated directly.  The node-independent
terms of the two log-densities (ln y!, alpha ln alpha - ln Gamma(alpha))
are evaluated once per call, not once per node.

The sampler draws u ~ Gamma(alpha, rate=alpha) then y ~ Poisson(lam * u)
from numpy's PCG64 generator, so a seed pins the exact output stream.
Parallel generation should derive sub-streams with
numpy.random.SeedSequence(seed).spawn(k) rather than arithmetic on seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, QuadratureConvergenceError
from .model import _pmf_table
from .special import _require_count, _require_positive, ln_gamma


@dataclass(frozen=True)
class QuadratureSpec:
    """Controls for the mixing-integral evaluation: the relative tolerance
    and the cap on the number of panel bisections."""

    rel_tol: float = 1e-10
    max_subdivisions: int = 4000

    def __post_init__(self):
        if self.rel_tol <= 0.0:
            raise DomainError("rel_tol must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(7)
# numpy's Poisson sampler refuses a mean above this (numpy.random._common).
_POISSON_LAM_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


def _log_gamma_density(u: float, alpha: float) -> float:
    return alpha * math.log(alpha) - ln_gamma(alpha) + (alpha - 1.0) * math.log(u) \
        - alpha * u


def gamma_density(u: float, alpha: float) -> float:
    """Unit-mean Gamma density alpha^alpha / Gamma(alpha) * u^(alpha-1) e^(-alpha u)."""
    u = _require_positive(u, "u")
    alpha = _require_positive(alpha, "alpha")
    return math.exp(_log_gamma_density(u, alpha))


def _log_poisson_pmf(y: int, lam: float) -> float:
    return y * math.log(lam) - ln_gamma(y + 1.0) - lam


def poisson_pmf(y: int, lam: float) -> float:
    """Poisson probability mass lam^y / y! * e^(-lam)."""
    y = _require_count(y)
    lam = _require_positive(lam, "lam")
    return math.exp(_log_poisson_pmf(y, lam))


def _envelope_cutoff(s: float, eps: float) -> float:
    """Upper limit X with incomplete-gamma tail of x^(s-1) e^(-x) below
    eps * Gamma(s).

    For X >= 2*max(s-1, 1) the tail integral is bounded by 2 X^(s-1) e^(-X).
    """
    log_target = math.log(eps) + ln_gamma(s)
    x = max(2.0 * (s - 1.0), 2.0, s) + 20.0
    while math.log(2.0) + (s - 1.0) * math.log(x) - x > log_target:
        x *= 1.25
    return x


def _panel(f, a: float, b: float) -> float:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    return half * float(np.sum(_GL_WEIGHTS * np.array(
        [f(mid + half * t) for t in _GL_NODES]
    )))


def mixture_pmf(y: int, lam: float, alpha: float,
                q: QuadratureSpec | None = None) -> float:
    """Pr(Y = y) via numerical evaluation of the Poisson-Gamma mixing integral.

    integral_0^inf  poisson_pmf(y, lam*u) * gamma_density(u, alpha) du,
    which must equal the closed-form NB2 p.m.f.

    When y + alpha < 1 the rescaled integrand behaves like x^(y+alpha-1)
    at the origin; that piece is integrated in the variable w = x^(y+alpha),
    which regularises the endpoint.  Raises QuadratureConvergenceError,
    carrying the achieved tolerance, if the subdivision budget runs out.
    """
    y = _require_count(y)
    lam = _require_positive(lam, "lam")
    alpha = _require_positive(alpha, "alpha")
    q = q or QuadratureSpec()
    scale = lam + alpha
    # The terms of the log-densities that do not depend on the node; the
    # integrand keeps the summation order of _log_poisson_pmf and
    # _log_gamma_density.
    ln_y_factorial = ln_gamma(y + 1.0)
    ln_gamma_alpha = ln_gamma(alpha)
    gamma_norm = alpha * math.log(alpha) - ln_gamma_alpha

    def integrand(x: float) -> float:
        u = x / scale
        mu = lam * u
        return math.exp(
            (y * math.log(mu) - ln_y_factorial - mu)
            + (gamma_norm + (alpha - 1.0) * math.log(u) - alpha * u)
        ) / scale

    s = y + alpha
    upper = _envelope_cutoff(s, min(q.rel_tol, 1e-6) * 1e-2)

    # Pieces of the integral, each (f, lo, hi) in its own variable.
    pieces = []
    if s < 1.0:
        xb = min(1.0, upper)

        def transformed(w: float) -> float:
            x = w ** (1.0 / s)
            return integrand(x) * x / (s * w)  # dx = (1/s) w^(1/s - 1) dw

        pieces.append((transformed, 0.0, xb**s))
        if upper > xb:
            pieces.append((integrand, xb, upper))
    else:
        # Seed panel edges at the envelope's landmarks (peak x = s-1, width
        # sqrt(s)) so the first composite estimate already sees the mass.
        peak, width = max(s - 1.0, 0.0), math.sqrt(s)
        marks = {0.0, upper, min(1.0, upper)}
        for m in (peak - 10 * width, peak - 2 * width, peak,
                  peak + 2 * width, peak + 10 * width):
            if 0.0 < m < upper:
                marks.add(m)
        edges = sorted(marks)
        pieces.extend(
            (integrand, a, b) for a, b in zip(edges[:-1], edges[1:])
        )

    seeds = [(f, a, b, _panel(f, a, b)) for f, a, b in pieces]
    rough = sum(v for *_, v in seeds)
    target = q.rel_tol * max(abs(rough), 1e-300)
    span = sum(b - a for _, a, b in pieces)
    # The integrand is exp() of a sum of terms as large as ~alpha*ln(alpha),
    # so its point evaluations carry relative noise of roughly eps times
    # that magnitude.  Panels whose error estimate sits at this floor are
    # converged; demanding less only subdivides rounding jitter.
    log_magnitude = (abs(alpha * math.log(alpha)) + abs(ln_gamma_alpha)
                     + abs(ln_y_factorial) + s * (1.0 + abs(math.log(scale))))
    noise_rel = 32.0 * 2.220446049250313e-16 * max(log_magnitude, 1.0)

    total = 0.0
    splits = 0
    stack = list(seeds)
    while stack:
        f, a, b, whole = stack.pop()
        mid = 0.5 * (a + b)
        left = _panel(f, a, mid)
        right = _panel(f, mid, b)
        err = abs(whole - (left + right))
        if (err <= target * (b - a) / span
                or err <= noise_rel * (abs(left) + abs(right))
                or (b - a) < 1e-14 * span):
            total += left + right
            continue
        splits += 1
        if splits > q.max_subdivisions:
            raise QuadratureConvergenceError(
                f"mixing integral did not converge for y={y}, lam={lam}, "
                f"alpha={alpha} within {q.max_subdivisions} subdivisions",
                achieved_tol=err / max(abs(rough), 1e-300),
            )
        stack.append((f, a, mid, left))
        stack.append((f, mid, b, right))
    return total


def nb_mean_bruteforce(lam: float, alpha: float,
                       eps_tail: float = 1e-12) -> float:
    """Truncated sum_y y * pmf(y); must equal lam."""
    lam = _require_positive(lam, "lam")
    alpha = _require_positive(alpha, "alpha")
    pmf, cutoff, _ = _pmf_table(lam, 1.0 / alpha, eps_tail)
    return float(np.arange(cutoff, dtype=float) @ pmf)


def nb_variance_bruteforce(lam: float, alpha: float,
                           eps_tail: float = 1e-12) -> float:
    """Truncated sum_y y^2 pmf(y) minus the squared truncated mean, from one
    pmf table.

    Must equal lam + lam^2 / alpha, the NB2 variance."""
    lam = _require_positive(lam, "lam")
    alpha = _require_positive(alpha, "alpha")
    pmf, cutoff, _ = _pmf_table(lam, 1.0 / alpha, eps_tail)
    y = np.arange(cutoff, dtype=float)
    mean = float(y @ pmf)
    return float((y * y) @ pmf) - mean * mean


def sample_counts(lam, theta: float, rng: np.random.Generator) -> np.ndarray:
    """Draw NB2 counts for a vector of means from an existing generator."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lam <= 0.0) or not np.all(np.isfinite(lam)):
        raise DomainError("lam must be positive and finite")
    theta = _require_positive(theta, "theta")
    alpha = 1.0 / theta
    mean = rng.gamma(shape=alpha, scale=theta, size=lam.shape)
    mean *= lam  # in place: the Poisson means lam * u
    if np.any(mean > _POISSON_LAM_MAX):
        raise DomainError(f"Poisson mean lam*u = {float(mean.max())!r} exceeds "
                          f"the sampler's limit {_POISSON_LAM_MAX!r}")
    return rng.poisson(mean).astype(np.int64)


def sample_nb(lam: float, theta: float, seed: int, n: int) -> np.ndarray:
    """Draw n NB2(lam, alpha = 1/theta) counts, deterministically per seed.

    The compositional definition is used directly: u ~ Gamma(alpha,
    rate=alpha), then y ~ Poisson(lam * u).  The seed-to-stream mapping is
    numpy's default_rng (PCG64) and is stable across releases.
    """
    lam = _require_positive(lam, "lam")
    if int(n) != n or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")
    rng = np.random.default_rng(int(seed))
    return sample_counts(np.full(int(n), lam), theta, rng)
