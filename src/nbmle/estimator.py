"""Maximum-likelihood fitting of (beta, theta) by Newton ascent.

The search runs in one space, (beta, z = ln theta), so the dispersion
stays positive without constraints; the chain factors are exact (d/dz =
theta * d/dtheta).  z is bounded below by ln _THETA_FLOOR: at the bound
with a negative dispersion gradient the step and the decrement are
computed over beta alone, and a fit that ends there reports
boundary_theta.  Every accepted step must not decrease the
log-likelihood (step-halving line search); a trial point at which the
log-likelihood or a derivative block overflows is rejected like a worse
one.  The one stopping rule is the
Newton decrement: when H is negative definite and half of g . (-H)^-1 g
in the search coordinates is at most _DECREMENT_TOL, the last step is
taken in full and the fit is converged.  The decrement is
affine-invariant, so neither the scale of the data nor the
parameterisation changes when it fires.  Where H is not negative
definite the step uses H with its eigenvalues replaced by their
magnitudes; such a step proves nothing about stationarity and never
stops the fit.

Each point the fit visits is evaluated once, by grad_hess, whose result
carries the log-likelihood with the finite-sum derivative blocks, the
only derivative forms the package evaluates.

Standard errors come from the inverse of the observed information by
default, assembled from the evaluation at the last point; expected
information is available behind a flag and carries its truncation report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .derivatives import GradHess, grad_hess
from .exceptions import (
    AllZeroResponseError,
    CollinearColumnsError,
    DomainError,
    InformationNotInvertible,
    LinearPredictorOverflow,
)
from .fisher import InfoKind, InfoMatrix, expected_info, observed_info_from
from .model import DEFAULT_EPS_TAIL, Dataset, Params, _row_blocks


# The decrement g . (-H)^-1 g is the squared length of the remaining Newton
# step measured in standard errors.  Half of it at 1e-6 leaves a step of
# about 1e-3 standard errors, which the final full step then takes.
# Smaller values run into the rounding floor of the log-likelihood (about
# eps * sum |terms|, growing with n * y * ln y), below which the line
# search cannot verify a gain.
_DECREMENT_TOL = 1e-6
_THETA_FLOOR = 1e-6


@dataclass(frozen=True)
class FitOptions:
    max_iter: int = 100
    info_kind: InfoKind = InfoKind.OBSERVED
    eps_tail: float = DEFAULT_EPS_TAIL

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.eps_tail <= 0:
            raise ValueError("eps_tail must be positive")


@dataclass(frozen=True)
class FitResult:
    """Estimates, standard errors, likelihood trace, and convergence metadata."""

    beta_hat: np.ndarray
    theta_hat: float
    se: np.ndarray | None        # length p+1 (beta..., theta); None if unavailable
    loglik_at_mle: float
    iterations: int
    converged: bool
    boundary_theta: bool
    info: InfoMatrix
    loglik_trace: tuple
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "beta_hat": list(map(float, self.beta_hat)),
            "theta_hat": self.theta_hat,
            "se": None if self.se is None else list(map(float, self.se)),
            "loglik_at_mle": self.loglik_at_mle,
            "iterations": self.iterations,
            "converged": self.converged,
            "boundary_theta": self.boundary_theta,
            "info": self.info.to_dict(),
            "loglik_trace": list(self.loglik_trace),
            "message": self.message,
        }


def init_params(ds: Dataset) -> Params:
    """Starting values: log-count least squares for beta, method of moments
    for theta.

    R, the R factor of [X | ln(y + 0.5)], names the collinear columns, and
    beta0 solves R[:p, :p] beta0 = R[:p, p] by least squares, as X beta0 =
    ln(y + 0.5) would.  theta0 = clamp((s^2 - ybar) / ybar^2, 0.01, 100),
    from matching the NB2 variance ybar * (1 + theta * ybar) to the sample
    variance.
    """
    R = _r_factor(ds.X, ds.y)
    p = ds.p
    bad = _collinear_columns(R[:p, :p])
    if bad:
        raise CollinearColumnsError([ds.names[j] for j in bad])
    beta0, *_ = np.linalg.lstsq(R[:p, :p], R[:p, p], rcond=None)
    ybar = float(np.mean(ds.y))
    s2 = float(np.var(ds.y, ddof=1)) if ds.n > 1 else 0.0
    if ybar > 0.0:
        theta0 = (s2 - ybar) / (ybar * ybar)
    else:
        theta0 = 0.01
    theta0 = min(max(theta0, 0.01), 100.0)
    return Params(beta=beta0, theta=theta0)


def _r_factor(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The R factor of [X | ln(y + 0.5)], by a blocked QR (TSQR; Demmel et
    al., SIAM J. Sci. Comput. 2012): the R factors of the row blocks of
    model._row_blocks, stacked in order and factored once more, so no copy
    of the whole matrix is made.
    """
    parts = [np.linalg.qr(np.column_stack((X[s], np.log(y[s] + 0.5))), mode="r")
             for s in _row_blocks(len(X))]
    return parts[0] if len(parts) == 1 else np.linalg.qr(np.vstack(parts), mode="r")


def _collinear_columns(R: np.ndarray) -> list:
    """Indices of columns numerically inside the span of earlier columns,
    from their R factor: |R_jj| is the norm of column j's residual on
    columns 0..j-1, and R's column j has the norm of column j.
    """
    r = np.abs(np.diag(R))
    return [j for j in range(1, R.shape[1])
            if r[j] <= 1e-10 * (1.0 + np.linalg.norm(R[:j + 1, j]))]


def standard_errors(info: InfoMatrix) -> np.ndarray:
    """Square roots of the diagonal of the inverse information.

    Raises InformationNotInvertible when the matrix is not positive
    definite; no numbers are fabricated in that case.
    """
    try:
        chol = np.linalg.cholesky(info.m)
    except np.linalg.LinAlgError:
        raise InformationNotInvertible(
            f"{info.kind.value} information is not positive definite"
        ) from None
    inv_chol = np.linalg.solve(chol, np.eye(info.m.shape[0]))
    variances = np.sum(inv_chol**2, axis=0)
    return np.sqrt(variances)


def _search_gradient(gh: GradHess, theta: float):
    """Gradient and Hessian in the search coordinates (beta, z).

    z = ln theta: dl/dz = theta * dl/dtheta,
                  d2l/dz2 = theta^2 * d2l/dtheta2 + theta * dl/dtheta,
                  d2l/dbeta dz = theta * d2l/dbeta dtheta.
    """
    p = len(gh.score_beta)
    g = np.empty(p + 1)
    H = np.empty((p + 1, p + 1))
    g[:p] = gh.score_beta
    H[:p, :p] = gh.h_bb
    g[p] = theta * gh.score_theta
    H[:p, p] = H[p, :p] = theta * gh.h_bt
    H[p, p] = theta * theta * gh.h_tt + theta * gh.score_theta
    return g, H


def _ascent_direction(H: np.ndarray, g: np.ndarray):
    """Newton direction, with H modified by its eigenvalues where it is not
    negative definite.

    The flag is True only for the plain Newton step at a negative definite
    H, the one case in which g . d is the Newton decrement.  Otherwise
    d = V diag(1 / max(|lam_i|, delta)) V' g, an ascent direction whenever
    g != 0 (Nocedal & Wright, Numerical Optimization, 2006, sec. 3.4).
    """
    lam, V = np.linalg.eigh(H)
    if np.all(lam < 0.0):
        return np.linalg.solve(H, -g), True
    delta = 1e-8 * max(1.0, float(np.abs(lam).max()))
    return V @ ((V.T @ g) / np.maximum(np.abs(lam), delta)), False


def _trial(ds: Dataset, beta: np.ndarray, z: float, ll_min: float):
    """The evaluation at a line-search trial, or None when the trial is
    rejected: its log-likelihood is below ll_min or not finite, or the point
    cannot be evaluated in double precision (theta = e^z overflows, |x'beta|
    passes the link's range, the scalar trigamma overflows at 1/theta,
    theta is past the range of the derivative blocks, or a block is not
    finite)."""
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            gh = grad_hess(ds, Params(beta, math.exp(z)))
    except (OverflowError, LinearPredictorOverflow, DomainError):
        return None
    return gh if math.isfinite(gh.loglik) and gh.loglik >= ll_min else None


def fit(ds: Dataset, opts: FitOptions | None = None) -> FitResult:
    """Maximise the NB2 log-likelihood over (beta, theta).

    Raises AllZeroResponseError when every count is zero (theta is then
    unidentifiable).  Non-convergence is reported in the result, not
    raised.
    """
    opts = opts or FitOptions()
    if not np.any(ds.y > 0):
        raise AllZeroResponseError(
            "all responses are zero; the dispersion is unidentifiable"
        )
    start = init_params(ds)
    beta = start.beta.copy()
    z_floor = math.log(_THETA_FLOOR)
    z = math.log(max(start.theta, _THETA_FLOOR))
    gh = grad_hess(ds, Params(beta, math.exp(z)))
    trace = [gh.loglik]
    converged = False
    message = f"no convergence within {opts.max_iter} iterations"

    for iterations in range(1, opts.max_iter + 1):
        g, H = _search_gradient(gh, math.exp(z))
        # At the floor with g_z < 0 the bound is active: step in beta alone.
        free = len(g) - 1 if z <= z_floor + 1e-9 and g[-1] < 0.0 else len(g)
        d = np.zeros_like(g)
        d[:free], newton = _ascent_direction(H[:free, :free], g[:free])
        if newton and 0.5 * float(g @ d) <= _DECREMENT_TOL:
            # The line search cannot resolve a gain this small; take the
            # full step.
            beta, z = beta + d[:-1], max(z + d[-1], z_floor)
            gh = grad_hess(ds, Params(beta, math.exp(z)))
            trace.append(gh.loglik)
            converged = True
            message = "Newton decrement below tolerance"
            break

        step = 1.0
        for _ in range(45):
            z_new = max(z + step * d[-1], z_floor)
            b_new = beta + step * d[:-1]
            trial = _trial(ds, b_new, z_new, gh.loglik)
            if trial is not None:
                break
            step *= 0.5
        else:
            message = "line search found no ascent step"
            break
        beta, z, gh = b_new, z_new, trial
        trace.append(gh.loglik)

    theta_hat = math.exp(z)
    boundary = theta_hat <= _THETA_FLOOR * (1.0 + 1e-9)

    if opts.info_kind is InfoKind.EXPECTED:
        info = expected_info(ds, Params(beta, theta_hat), opts.eps_tail)
    else:
        info = observed_info_from(gh)
    try:
        se = standard_errors(info)
    except InformationNotInvertible:
        se = None
        message = (message + "; standard errors unavailable "
                   "(information not positive definite)").lstrip("; ")

    return FitResult(
        beta_hat=beta,
        theta_hat=theta_hat,
        se=se,
        loglik_at_mle=gh.loglik,
        iterations=iterations,
        converged=converged,
        boundary_theta=boundary,
        info=info,
        loglik_trace=tuple(trace),
        message=message,
    )

