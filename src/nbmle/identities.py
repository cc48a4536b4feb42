"""Numerical adjudication of the digamma/trigamma finite-sum identities.

Each check measures *pairwise* residuals between alternative expressions and
never presumes any equality.  Two of the chains under scrutiny mix a
gamma-parameter identity with a dispersion-parameter derivative; their
middle member (a bare digamma or trigamma difference) is off by the chain
factor of d(1/theta)/dtheta, so the suite is expected to flag those pairs
while confirming the others.

The reference value for the derivative chains is a finite difference of
ln[Gamma(y + 1/theta) / Gamma(1/theta)], so the adjudication does not rely
on any of the identities being tested.

Checks are deterministic given grid and tolerances; grid points are
evaluated independently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .derivatives import finite_diff, finite_diff_second
from .exceptions import DomainError
from .special import (
    LARGE_COUNT_SWITCH,
    _require_count,
    _require_positive,
    digamma,
    ln_gamma,
    sum_recip_shifted,
    sum_recip_sq_shifted,
    sum_trigamma_weights,
    trigamma,
)


class IdentityId(enum.Enum):
    """The four adjudicated identities."""

    DIGAMMA_SUM = "digamma_sum"
    DIGAMMA_CHAIN = "digamma_chain"
    TRIGAMMA_CHAIN = "trigamma_chain"
    TRIGAMMA_SUM = "trigamma_sum"


DEFAULT_Y_GRID = (0, 1, 2, 5, 10, 50)
DEFAULT_SCALE_GRID = (0.1, 0.5, 1.0, 2.0, 10.0)

# Tolerance of the two finite-sum identities, which hold to rounding.
TOL_SUM = 1e-9
# Tolerance of the algebraic rewrites of one finite sum, which share its
# terms and so agree more tightly.
_ALGEBRA_TOL = 1e-12

# Finite-difference steps for the chain reference values, sized so the
# truncation error stays well under the default 1e-6 / 1e-4 tolerances at
# the stiffest default grid point (y=50, theta=0.1).
_FD_STEP_FIRST = 1e-6
_FD_STEP_SECOND = 5e-4


def default_grid() -> tuple:
    """Cartesian default grid of (y, scale) points."""
    return tuple((y, s) for y in DEFAULT_Y_GRID for s in DEFAULT_SCALE_GRID)


@dataclass(frozen=True)
class PairVerdict:
    """Outcome of one residual pair over the whole grid."""

    holds: bool
    tol: float
    max_residual: float
    worst_point: tuple | None

    def to_dict(self) -> dict:
        return {
            "verdict": "HOLDS" if self.holds else "FAILS",
            "tol": self.tol,
            "max_residual": self.max_residual,
            "worst_point": list(self.worst_point) if self.worst_point else None,
        }


@dataclass(frozen=True)
class IdentityReport:
    """Per-point values/residuals and per-pair verdicts for one identity."""

    identity: IdentityId
    grid: tuple
    values: tuple          # per point: dict of labelled expression values
    residuals: tuple       # per point: dict of labelled pair |differences|
    verdicts: dict         # pair label -> PairVerdict
    invalid_points: tuple = field(default=())

    def to_dict(self) -> dict:
        return {
            "identity": self.identity.value,
            "grid": [list(pt) for pt in self.grid],
            "values": [dict(v) for v in self.values],
            "residuals": [dict(r) for r in self.residuals],
            "verdicts": {k: v.to_dict() for k, v in self.verdicts.items()},
            "invalid_points": [list(pt) for pt in self.invalid_points],
        }


def _evaluate(identity, grid, point_fn, pair_tols):
    """Assemble verdicts from the residual maxima of point_fn over the grid
    (default_grid() when None).  A point is invalid when y is not a count,
    the scale is not positive and finite, or point_fn raises DomainError."""
    grid = tuple(tuple(pt) for pt in (default_grid() if grid is None else grid))
    if not grid:
        raise DomainError("grid must be nonempty")
    values, residuals, invalid = [], [], []
    for pt in grid:
        try:
            y, scale = pt
            vals = point_fn(_require_count(y), _require_positive(scale, "scale"))
        except DomainError:
            invalid.append(pt)
            continue
        res = {}
        labels = list(vals)
        for i, ai in enumerate(labels):
            for bi in labels[i + 1:]:
                res[f"{ai}_vs_{bi}"] = abs(vals[ai] - vals[bi])
        values.append(vals)
        residuals.append(res)
    kept = [pt for pt in grid if pt not in invalid]
    if not kept:
        raise DomainError("no valid grid points to evaluate")
    verdicts = {}
    for pair, tol in pair_tols.items():
        worst, worst_pt = 0.0, None
        for pt, res in zip(kept, residuals):
            if res[pair] >= worst:
                worst, worst_pt = res[pair], pt
        verdicts[pair] = PairVerdict(worst <= tol, tol, worst, worst_pt)
    return IdentityReport(
        identity=identity,
        grid=tuple(kept),
        values=tuple(values),
        residuals=tuple(residuals),
        verdicts=verdicts,
        invalid_points=tuple(invalid),
    )


def check_digamma_sum(grid=None, tol: float = TOL_SUM) -> IdentityReport:
    """Digamma difference vs its finite-sum form, on (y, alpha) points.

    Compares Psi(y + alpha) - Psi(alpha) with sum_{j<y} 1/(j + alpha).
    """
    def point(y, alpha):
        dig = digamma(y + alpha) - digamma(alpha) if y else 0.0
        s = sum_recip_shifted(y, 1.0 / alpha)
        return {"digamma_diff": dig, "finite_sum": s}

    return _evaluate(
        IdentityId.DIGAMMA_SUM, grid, point, {"digamma_diff_vs_finite_sum": tol}
    )


def _ln_gamma_ratio_of_theta(y: int, theta: float) -> float:
    return ln_gamma(y + 1.0 / theta) - ln_gamma(1.0 / theta)


def check_digamma_chain(grid=None, tol: float = 1e-6) -> IdentityReport:
    """Three-way comparison for the first dispersion derivative, on (y, theta).

    fd_derivative   d/dtheta ln[Gamma(y + 1/theta)/Gamma(1/theta)], central
                    finite difference;
    digamma_diff    Psi(y + 1/theta) - Psi(1/theta), the bare difference;
    scaled_sum      -(1/theta^2) sum_{j<y} 1/(j + 1/theta), the chain-rule
                    form of the derivative.

    No pair is presumed equal; all three pairwise residuals are reported.
    """
    def point(y, theta):
        u = 1.0 / theta
        if y == 0:
            return {"fd_derivative": 0.0, "digamma_diff": 0.0, "scaled_sum": 0.0}
        h = min(_FD_STEP_FIRST * (1.0 + theta), theta / 8.0)
        a = finite_diff(lambda t: _ln_gamma_ratio_of_theta(y, t), theta, h)
        b = digamma(y + u) - digamma(u)
        c = -u * u * sum_recip_shifted(y, theta)
        return {"fd_derivative": a, "digamma_diff": b, "scaled_sum": c}

    return _evaluate(
        IdentityId.DIGAMMA_CHAIN,
        grid,
        point,
        {
            "fd_derivative_vs_digamma_diff": tol,
            "fd_derivative_vs_scaled_sum": tol,
            "digamma_diff_vs_scaled_sum": tol,
        },
    )


def check_trigamma_chain(grid=None, tol: float = 1e-4) -> IdentityReport:
    """Three-way comparison for the second dispersion derivative, on (y, theta).

    fd_second       d2/dtheta2 ln[Gamma(y + 1/theta)/Gamma(1/theta)] by a
                    five-point central stencil;
    trigamma_diff   Psi'(y + 1/theta) - Psi'(1/theta), the bare difference;
    weighted_sum    (1/theta^3) sum_{j<y} (2j + 1/theta)/(j + 1/theta)^2.
    """
    def point(y, theta):
        u = 1.0 / theta
        if y == 0:
            return {"fd_second": 0.0, "trigamma_diff": 0.0, "weighted_sum": 0.0}
        h = min(_FD_STEP_SECOND * (1.0 + theta), theta / 8.0)
        a = finite_diff_second(lambda t: _ln_gamma_ratio_of_theta(y, t), theta, h)
        b = trigamma(y + u) - trigamma(u)
        c = u * u * u * sum_trigamma_weights(y, theta)
        return {"fd_second": a, "trigamma_diff": b, "weighted_sum": c}

    return _evaluate(
        IdentityId.TRIGAMMA_CHAIN,
        grid,
        point,
        {
            "fd_second_vs_trigamma_diff": tol,
            "fd_second_vs_weighted_sum": tol,
            "trigamma_diff_vs_weighted_sum": tol,
        },
    )


def check_trigamma_sum(grid=None, tol: float = TOL_SUM) -> IdentityReport:
    """Trigamma difference vs squared-reciprocal sums, on (y, alpha) points.

    trigamma_diff       Psi'(y + alpha) - Psi'(alpha)
    neg_sq_sum          -sum_{j<y} 1/(j + alpha)^2
    theta_scaled_form   -theta^2 sum_{j<y} 1/(theta j + 1)^2 at theta = 1/alpha
    reciprocal_form     -sum_{j<y} 1/(j + 1/theta)^2 at theta = 1/alpha

    The last two are algebraic rewrites of neg_sq_sum, held to the tighter
    _ALGEBRA_TOL; they sum y terms, so y past LARGE_COUNT_SWITCH is invalid.
    """
    def point(y, alpha):
        if y > LARGE_COUNT_SWITCH:
            raise DomainError(f"y={y} is past LARGE_COUNT_SWITCH")
        theta = 1.0 / alpha
        tri = trigamma(y + alpha) - trigamma(alpha) if y else 0.0
        neg_sq = -sum_recip_sq_shifted(y, alpha)
        scaled = -theta * theta * math.fsum(
            1.0 / (theta * j + 1.0) ** 2 for j in range(y)
        )
        recip = -math.fsum(1.0 / (j + 1.0 / theta) ** 2 for j in range(y))
        return {
            "trigamma_diff": tri,
            "neg_sq_sum": neg_sq,
            "theta_scaled_form": scaled,
            "reciprocal_form": recip,
        }

    report = _evaluate(
        IdentityId.TRIGAMMA_SUM,
        grid,
        point,
        {
            "trigamma_diff_vs_neg_sq_sum": tol,
            "neg_sq_sum_vs_theta_scaled_form": _ALGEBRA_TOL,
            "theta_scaled_form_vs_reciprocal_form": _ALGEBRA_TOL,
        },
    )
    return report


def run_all_checks(grid=None, tol_first: float = 1e-6,
                   tol_second: float = 1e-4) -> dict:
    """Run the four identity checks; returns {IdentityId: IdentityReport}."""
    return {
        IdentityId.DIGAMMA_SUM: check_digamma_sum(grid),
        IdentityId.DIGAMMA_CHAIN: check_digamma_chain(grid, tol_first),
        IdentityId.TRIGAMMA_CHAIN: check_trigamma_chain(grid, tol_second),
        IdentityId.TRIGAMMA_SUM: check_trigamma_sum(grid),
    }
