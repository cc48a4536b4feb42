"""Output checks made apart from the program, with scipy as the oracle.

Each function returns a list of problems; an empty list means the output
passed.  None of this runs inside a timed region.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

from inputs import DataFile, Spec, read_csv

# Largest |z| accepted for an estimate against the generating value, and
# for a sample moment against its expectation.
Z_LIMIT = 5.0


def nb_loglik(y, X, beta, theta) -> float:
    lam = np.exp(X @ np.asarray(beta, dtype=float))
    return float(np.sum(stats.nbinom.logpmf(y, 1.0 / theta,
                                            1.0 / (1.0 + theta * lam))))


def _loglik_vec(d: DataFile, point):
    return nb_loglik(d.y, d.X, point[:-1], point[-1])


def _close(a, b, rel, scale=None) -> bool:
    scale = max(abs(a), abs(b)) if scale is None else scale
    return abs(a - b) <= rel * scale


def check_fit(payload: dict, d: DataFile) -> list:
    """Log-likelihood, stationarity and estimates of a converged fit."""
    problems = []
    est = np.array(payload["beta_hat"] + [payload["theta_hat"]])
    se = payload["se"]
    if se is None:
        return [f"{d.label}: fit reports no standard errors"]
    se = np.array(se)
    ll = _loglik_vec(d, est)
    if not _close(payload["loglik_at_mle"], ll, 1e-9):
        problems.append(f"{d.label}: loglik_at_mle {payload['loglik_at_mle']!r} "
                        f"!= scipy {ll!r}")
    # Central differences with a step of 1e-3 standard errors; g_k * se_k
    # is the log-likelihood rise per standard error along coordinate k.
    for k in range(len(est)):
        h = 1e-3 * se[k]
        up, dn = est.copy(), est.copy()
        up[k] += h
        dn[k] -= h
        g_se = (_loglik_vec(d, up) - _loglik_vec(d, dn)) / (2.0 * h) * se[k]
        if abs(g_se) > 1e-3:
            problems.append(f"{d.label}: scipy gradient x se = {g_se:.3e} "
                            f"at coordinate {k}")
    truth = np.array(list(d.spec.beta) + [d.spec.theta])
    z = (est - truth) / se
    if np.any(np.abs(z) > Z_LIMIT):
        problems.append(f"{d.label}: estimates {est.tolist()} are "
                        f"{np.abs(z).max():.1f} standard errors from {truth.tolist()}")
    return problems


def expected_theta_element(lam: np.ndarray, theta: float) -> float:
    """Sum over observations of E[-d2 l/dtheta2], summed over the support.

    The per-count second derivative is written with digamma and trigamma
    (u = 1/theta, L = log(1 + theta*lam)):
        u^4 [psi'(y+u) - psi'(u)] + 2u^3 [psi(y+u) - psi(u)] - y u^2
        - 2u^3 L + 2u^2 lam/(1+theta lam) + (y+u) lam^2/(1+theta lam)^2
    and weighted by scipy's pmf up to a count whose upper tail is < 1e-18.
    """
    u = 1.0 / theta
    total = 0.0
    for lam_i in lam:
        prob = 1.0 / (1.0 + theta * lam_i)
        top = int(stats.nbinom.isf(1e-18, u, prob)) + 2
        y = np.arange(top, dtype=float)
        one = 1.0 + theta * lam_i
        d2 = (u ** 4 * (special.polygamma(1, y + u) - special.polygamma(1, u))
              + 2.0 * u ** 3 * (special.digamma(y + u) - special.digamma(u))
              - y * u * u - 2.0 * u ** 3 * math.log1p(theta * lam_i)
              + 2.0 * u * u * lam_i / one + (y + u) * lam_i ** 2 / one ** 2)
        total += float(np.sum(stats.nbinom.pmf(y, u, prob) * -d2))
    return total


def _fd_hessian(d: DataFile, point: np.ndarray, scale: np.ndarray) -> np.ndarray:
    k = len(point)
    h = 1e-3 / scale
    H = np.empty((k, k))
    for a in range(k):
        for b in range(a, k):
            vals = []
            for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                q = point.copy()
                q[a] += sa * h[a]
                q[b] += sb * h[b]
                vals.append(_loglik_vec(d, q))
            H[a, b] = H[b, a] = (vals[0] - vals[1] - vals[2] + vals[3]) \
                / (4.0 * h[a] * h[b])
    return H


def check_info(payload: dict, d: DataFile) -> list:
    """Observed and expected information at the generating parameters."""
    problems = []
    beta = np.asarray(d.spec.beta)
    theta = d.spec.theta
    obs = np.array(payload["matrices"]["observed"]["matrix"])
    exp = payload["matrices"]["expected"]
    e = np.array(exp["matrix"])
    p = len(beta)
    lam = np.exp(d.X @ beta)
    w = lam / (1.0 + theta * lam)
    block = (d.X.T * w) @ d.X
    if np.abs(e[:p, :p] - block).max() > 1e-10 * np.abs(block).max():
        problems.append(f"{d.label}: expected beta block differs from "
                        f"sum lam/(1+theta lam) x x'")
    if np.any(e[:p, p] != 0.0):
        problems.append(f"{d.label}: expected cross block is not zero")
    ref = expected_theta_element(lam, theta)
    if not _close(e[p, p], ref, 1e-7):
        problems.append(f"{d.label}: expected theta element {e[p, p]!r} "
                        f"!= polygamma sum {ref!r}")
    chosen = (exp["truncation"] or {}).get("chosen")
    if chosen != "survivor_at_j_plus_1":
        problems.append(f"{d.label}: truncation chose {chosen!r}")
    scale = np.sqrt(np.abs(np.diag(obs)))
    fd = -_fd_hessian(d, np.append(beta, theta), scale)
    err = np.abs(fd - obs) / np.outer(scale, scale)
    if err.max() > 1e-5:
        problems.append(f"{d.label}: observed information differs from "
                        f"finite differences by {err.max():.2e} (scaled)")
    return problems


def check_verify(payload: dict) -> list:
    bad = [f"{e['section']}/{e['check']}/{e.get('pair')}"
           for e in payload["entries"]
           if e["expected"] is not None and e["verdict"] != e["expected"]]
    problems = [f"verify: verdict differs from expected for {b}" for b in bad]
    if not payload["all_expected_hold"]:
        problems.append("verify: all_expected_hold is false")
    return problems


def check_simulate(path, spec: Spec) -> list:
    """Shape of the simulated CSV and NB2 moments of y given its regressors.

    With r = y - lam and v = lam(1 + theta lam), E[r] = 0 and
    E[r^2 - v] = 0; each sample sum is tested against its standard error.
    """
    problems = []
    header, body = read_csv(path)
    p = len(spec.beta)
    if header != ["y"] + [f"x{j}" for j in range(1, p)]:
        problems.append(f"simulate: header {header}")
    if body.shape != (spec.n, p):
        return problems + [f"simulate: shape {body.shape}, expected {(spec.n, p)}"]
    y = body[:, 0]
    X = np.hstack([np.ones((spec.n, 1)), body[:, 1:]])
    lam = np.exp(X @ np.asarray(spec.beta))
    v = lam * (1.0 + spec.theta * lam)
    r = y - lam
    if abs(r.sum()) > Z_LIMIT * math.sqrt(v.sum()):
        problems.append(f"simulate: mean of y off by {r.mean():.4g}")
    dev = r * r - v
    if abs(dev.sum()) > Z_LIMIT * math.sqrt(np.sum((dev - dev.mean()) ** 2)):
        problems.append(f"simulate: variance of y off by {dev.mean():.4g}")
    if np.any(y < 0) or np.any(y != np.floor(y)):
        problems.append("simulate: y holds a value that is not a count")
    return problems
