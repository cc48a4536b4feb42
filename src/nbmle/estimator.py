"""Maximum-likelihood fitting of (beta, theta) by Newton ascent.

The search runs in (beta, ln theta) so the dispersion stays positive
without constraints; the chain factors are exact (d/d ln theta =
theta * d/dtheta).  Every accepted step must increase the log-likelihood
(step-halving line search), and after three failed line searches the
optimizer falls back to profiling: full Newton in beta at fixed theta
(that subproblem is concave), alternated with a safeguarded 1-D search in
ln theta.

Only the finite-sum derivative forms are consumed here; the literal
gamma-function forms exist for comparison, not estimation.

Standard errors come from the inverse of the observed information by
default; expected information is available behind a flag and carries its
truncation report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .derivatives import GradHess, grad_hess
from .exceptions import (
    AllZeroResponseError,
    CollinearColumnsError,
    InformationNotInvertible,
)
from .fisher import InfoKind, InfoMatrix, ThetaTruncationReport, expected_info, observed_info
from .model import DEFAULT_EPS_TAIL, Dataset, Params, loglik


@dataclass(frozen=True)
class FitOptions:
    max_iter: int = 100
    grad_tol: float = 1e-8
    loglik_tol: float = 1e-10
    info_kind: InfoKind = InfoKind.OBSERVED
    theta_floor: float = 1e-6
    eps_tail: float = DEFAULT_EPS_TAIL

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if min(self.grad_tol, self.loglik_tol, self.theta_floor, self.eps_tail) <= 0:
            raise ValueError("tolerances must be positive")


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

    @classmethod
    def from_dict(cls, d: dict) -> "FitResult":
        info = d["info"]
        trunc = info.get("truncation")
        report = ThetaTruncationReport(
            eps_tail=trunc["eps_tail"],
            cutoffs=tuple(trunc["cutoffs"]),
            tail_bounds=tuple(trunc["tail_bounds"]),
            survivor_at_j_total=trunc["survivor_at_j_total"],
            survivor_at_j_plus_1_total=trunc["survivor_at_j_plus_1_total"],
            brute_force_total=trunc["brute_force_total"],
            chosen=trunc["chosen"],
        ) if trunc else None
        return cls(
            beta_hat=np.array(d["beta_hat"], dtype=float),
            theta_hat=d["theta_hat"],
            se=None if d["se"] is None else np.array(d["se"], dtype=float),
            loglik_at_mle=d["loglik_at_mle"],
            iterations=d["iterations"],
            converged=d["converged"],
            boundary_theta=d["boundary_theta"],
            info=InfoMatrix(
                kind=InfoKind(info["kind"]),
                m=np.array(info["matrix"], dtype=float),
                truncation=report,
            ),
            loglik_trace=tuple(d["loglik_trace"]),
            message=d.get("message", ""),
        )


def init_params(ds: Dataset) -> Params:
    """Starting values: log-count least squares for beta, method of moments
    for theta.

    theta0 = clamp((s^2 - ybar) / ybar^2, 0.01, 100), from matching the NB2
    variance ybar * (1 + theta * ybar) to the sample variance.
    """
    bad = _collinear_columns(ds.X)
    if bad:
        raise CollinearColumnsError([ds.names[j] for j in bad])
    target = np.log(ds.y + 0.5)
    beta0, *_ = np.linalg.lstsq(ds.X, target, rcond=None)
    ybar = float(np.mean(ds.y))
    s2 = float(np.var(ds.y, ddof=1)) if ds.n > 1 else 0.0
    if ybar > 0.0:
        theta0 = (s2 - ybar) / (ybar * ybar)
    else:
        theta0 = 0.01
    theta0 = min(max(theta0, 0.01), 100.0)
    return Params(beta=beta0, theta=theta0)


def _collinear_columns(X: np.ndarray) -> list:
    """Indices of columns numerically inside the span of earlier columns."""
    n, p = X.shape
    bad = []
    for j in range(1, p):
        prev = X[:, :j]
        coef, *_ = np.linalg.lstsq(prev, X[:, j], rcond=None)
        resid = X[:, j] - prev @ coef
        if np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(X[:, j])):
            bad.append(j)
    return bad


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


def _search_gradient(gh: GradHess, theta: float, log_scale: bool):
    """Gradient and Hessian in the search coordinates (beta, z).

    z = ln theta: dl/dz = theta * dl/dtheta,
                  d2l/dz2 = theta^2 * d2l/dtheta2 + theta * dl/dtheta.
    """
    p = len(gh.score_beta)
    g = np.empty(p + 1)
    H = np.empty((p + 1, p + 1))
    g[:p] = gh.score_beta
    H[:p, :p] = gh.h_bb
    if log_scale:
        g[p] = theta * gh.score_theta
        H[:p, p] = H[p, :p] = theta * gh.h_bt
        H[p, p] = theta * theta * gh.h_tt + theta * gh.score_theta
    else:
        g[p] = gh.score_theta
        H[:p, p] = H[p, :p] = gh.h_bt
        H[p, p] = gh.h_tt
    return g, H


def _ascent_direction(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Newton direction, regularised until it is an ascent direction."""
    scale = max(1.0, float(np.abs(np.diag(H)).max()))
    tau = 0.0
    for _ in range(12):
        try:
            d = np.linalg.solve(H - tau * np.eye(len(g)), -g)
        except np.linalg.LinAlgError:
            d = None
        if d is not None and np.isfinite(d).all() and float(d @ g) > 0.0:
            return d
        tau = 1e-8 * scale if tau == 0.0 else tau * 100.0
    return g / max(1.0, float(np.linalg.norm(g)))


def _masked_grad_norm(g: np.ndarray, at_floor: bool) -> float:
    """Sup-norm of the search gradient; a negative dispersion gradient at the
    floor is a satisfied boundary condition, not a violation."""
    if at_floor and g[-1] < 0.0:
        return float(np.abs(g[:-1]).max()) if len(g) > 1 else 0.0
    return float(np.abs(g).max())


def fit(ds: Dataset, opts: FitOptions | None = None, *,
        log_theta_search: bool = True) -> FitResult:
    """Maximise the NB2 log-likelihood over (beta, theta).

    Raises AllZeroResponseError when every count is zero (theta is then
    unidentifiable).  Non-convergence is reported in the result, not
    raised.  log_theta_search=False switches to raw-theta Newton and exists
    for validating that both parameterisations reach the same optimum.
    """
    opts = opts or FitOptions()
    if not np.any(ds.y > 0):
        raise AllZeroResponseError(
            "all responses are zero; the dispersion is unidentifiable"
        )
    start = init_params(ds)
    beta = start.beta.copy()
    z_floor = math.log(opts.theta_floor) if log_theta_search else opts.theta_floor
    z = math.log(max(start.theta, opts.theta_floor)) if log_theta_search \
        else max(start.theta, opts.theta_floor)

    def theta_of(zv: float) -> float:
        return math.exp(zv) if log_theta_search else zv

    def ll_at(b: np.ndarray, zv: float) -> float:
        return loglik(ds, Params(b, theta_of(zv)))

    ll = ll_at(beta, z)
    trace = [ll]
    iterations = 0
    failed_searches = 0
    stalls = 0
    profiling = False
    message = ""

    for _ in range(opts.max_iter):
        iterations += 1
        params = Params(beta, theta_of(z))
        gh = grad_hess(ds, params)
        g, H = _search_gradient(gh, params.theta, log_theta_search)
        at_floor = z <= z_floor + (1e-9 if log_theta_search else 1e-9 * z_floor)
        if _masked_grad_norm(g, at_floor) <= opts.grad_tol:
            message = "gradient below tolerance"
            break

        if profiling:
            beta, z, ll = _profile_iteration(ds, beta, z, ll, z_floor, opts,
                                             log_theta_search)
            trace.append(ll)
            if len(trace) > 2 and abs(trace[-1] - trace[-2]) <= opts.loglik_tol:
                message = "log-likelihood stalled (profile)"
                break
            continue

        d = _ascent_direction(H, g)
        step = 1.0
        accepted = False
        terminal = False
        noise = 64.0 * np.finfo(float).eps * (1.0 + abs(ll))
        for _ in range(45):
            z_new = max(z + step * d[-1], z_floor)
            b_new = beta + step * d[:-1]
            ll_new = ll_at(b_new, z_new)
            # Ties are accepted: near the optimum a full Newton step can
            # improve the likelihood by less than one ulp while still
            # collapsing the gradient.
            if math.isfinite(ll_new) and ll_new >= ll:
                accepted = True
                break
            if math.isfinite(ll_new) and ll_new >= ll - noise:
                # Objective change is lost in rounding; take the step only
                # if it verifiably reaches the optimum.
                g_cand, _ = _search_gradient(
                    grad_hess(ds, Params(b_new, theta_of(z_new))),
                    theta_of(z_new), log_theta_search,
                )
                cand_floor = z_new <= z_floor + (
                    1e-9 if log_theta_search else 1e-9 * z_floor
                )
                if _masked_grad_norm(g_cand, cand_floor) <= opts.grad_tol:
                    accepted = True
                    terminal = True
                    break
            step *= 0.5
        if not accepted:
            failed_searches += 1
            if failed_searches >= 3:
                profiling = True
            continue
        delta = ll_new - ll
        beta, z, ll = b_new, z_new, ll_new
        trace.append(ll)
        if terminal:
            message = "gradient below tolerance"
            break
        if delta <= opts.loglik_tol:
            # Let the next iteration's gradient check decide before
            # declaring a stall.
            stalls += 1
            if stalls >= 2:
                message = "log-likelihood change below tolerance"
                break
        else:
            stalls = 0
    else:
        message = f"no convergence within {opts.max_iter} iterations"

    theta_hat = theta_of(z)
    params = Params(beta, theta_hat)
    gh = grad_hess(ds, params)
    g, _ = _search_gradient(gh, theta_hat, log_theta_search)
    boundary = theta_hat <= opts.theta_floor * (1.0 + 1e-9)
    converged = _masked_grad_norm(g, boundary) <= opts.grad_tol

    if opts.info_kind is InfoKind.EXPECTED:
        info = expected_info(ds, params, opts.eps_tail)
    else:
        info = observed_info(ds, params)
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
        loglik_at_mle=ll,
        iterations=iterations,
        converged=converged,
        boundary_theta=boundary,
        info=info,
        loglik_trace=tuple(trace),
        message=message,
    )


def _profile_iteration(ds, beta, z, ll, z_floor, opts, log_scale):
    """One profiling sweep: Newton-to-convergence in beta, then a
    safeguarded 1-D ascent in the dispersion coordinate."""
    theta = math.exp(z) if log_scale else z

    # Beta subproblem is concave: plain Newton with halving.
    b = beta.copy()
    for _ in range(60):
        params = Params(b, theta)
        gh = grad_hess(ds, params)
        g = gh.score_beta
        if float(np.abs(g).max()) <= 0.1 * opts.grad_tol:
            break
        d = _ascent_direction(gh.h_bb, g)
        step, cur = 1.0, loglik(ds, params)
        for _ in range(45):
            cand = b + step * d
            val = loglik(ds, Params(cand, theta))
            if math.isfinite(val) and val >= cur:
                b = cand
                break
            step *= 0.5

    def dll_dz(zv: float) -> float:
        th = math.exp(zv) if log_scale else zv
        gh = grad_hess(ds, Params(b, th))
        return th * gh.score_theta if log_scale else gh.score_theta

    # Bracket a sign change of the 1-D derivative, then bisect.
    lo = hi = z
    d0 = dll_dz(z)
    span = 0.5 if log_scale else 0.5 * max(theta, 1.0)
    if d0 > 0.0:
        hi = z
        for _ in range(60):
            hi = hi + span
            if dll_dz(hi) <= 0.0:
                break
            span *= 2.0
        lo = hi - span
    elif d0 < 0.0:
        lo = z
        for _ in range(60):
            lo = max(lo - span, z_floor)
            if lo <= z_floor or dll_dz(lo) >= 0.0:
                break
            span *= 2.0
        hi = min(lo + span, z)
    if lo < hi:
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if dll_dz(mid) > 0.0:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 1e-13 * (1.0 + abs(hi)):
                break
        z_new = 0.5 * (lo + hi)
    else:
        z_new = max(z, z_floor)
    ll_new = loglik(ds, Params(b, math.exp(z_new) if log_scale else z_new))
    if ll_new < ll:
        z_new, ll_new = z, loglik(ds, Params(b, theta))
    return b, z_new, ll_new
