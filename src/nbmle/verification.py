"""The verification program behind `nbmle verify`.

run_verification adjudicates, numerically and pairwise, the
digamma/trigamma identities, the Poisson-Gamma mixture and mean theorems,
the Fisher tail-index conventions and every analytic derivative block, and
returns one report entry per residual pair with its verdict and, where the
program has one, its expected outcome.  Everything here is a comparison
target or an oracle; the estimator never calls it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import identities
from .derivatives import finite_diff, grad_hess
from .fisher import expected_info_theta, expected_trigamma_tail
from .identities import IdentityId
from .mixture import mixture_pmf, nb_mean_bruteforce, sample_counts
from .model import (
    DEFAULT_EPS_TAIL, SCHEMA_VERSION, Dataset, Params, link_mean, nb_pmf)

_VERIFY_LAMBDA_GRID = (0.5, 1.0, 5.0)
_VERIFY_ALPHA_GRID = (0.5, 1.0, 2.0, 10.0)
_FISHER_LAMBDA_GRID = (0.2, 1.0, 5.0)
_FISHER_THETA_GRID = (0.2, 1.0, 3.0)
# Random datasets in the finite-difference sweep of the derivative blocks.
_FD_INSTANCES = 40

# Which residual pairs the verification program expects to hold, and which
# it expects to fail somewhere on a non-degenerate grid (the chain members
# that drop the d(1/theta)/dtheta factors).
_EXPECTED_HOLDS = {
    (IdentityId.DIGAMMA_SUM, "digamma_diff_vs_finite_sum"),
    (IdentityId.DIGAMMA_CHAIN, "fd_derivative_vs_scaled_sum"),
    (IdentityId.TRIGAMMA_CHAIN, "fd_second_vs_weighted_sum"),
    (IdentityId.TRIGAMMA_SUM, "trigamma_diff_vs_neg_sq_sum"),
    (IdentityId.TRIGAMMA_SUM, "neg_sq_sum_vs_theta_scaled_form"),
    (IdentityId.TRIGAMMA_SUM, "theta_scaled_form_vs_reciprocal_form"),
}
_EXPECTED_FAILS = {
    (IdentityId.DIGAMMA_CHAIN, "fd_derivative_vs_digamma_diff"),
    (IdentityId.DIGAMMA_CHAIN, "digamma_diff_vs_scaled_sum"),
    (IdentityId.TRIGAMMA_CHAIN, "fd_second_vs_trigamma_diff"),
    (IdentityId.TRIGAMMA_CHAIN, "trigamma_diff_vs_weighted_sum"),
}


def _fd_derivative_suite(seed: int) -> dict:
    """Worst relative finite-difference mismatch for each derivative block.

    Scores are checked against central differences of the log-likelihood;
    Hessian blocks against central differences of the analytic scores.  Each
    point is evaluated once, by grad_hess, which carries the log-likelihood
    with the scores."""
    rng = np.random.default_rng(seed)
    worst = {k: 0.0 for k in ("score_beta", "score_theta", "h_bb", "h_bt", "h_tt")}

    def note(block, a, b):
        worst[block] = max(worst[block], abs(a - b) / max(abs(a), abs(b), 1.0))

    for _ in range(_FD_INSTANCES):
        n = int(rng.integers(8, 51))
        p = int(rng.integers(1, 5))
        X = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p - 1))])
        beta = rng.uniform(-1.0, 1.0, size=p)
        theta = float(rng.uniform(0.1, 5.0))
        lam = link_mean(X, beta).lam
        y = sample_counts(lam, theta, rng)
        if not np.any(y > 0):
            y[0] = 1
        ds = Dataset(y=y, X=X)
        gh = grad_hess(ds, Params(beta, theta))
        h_t = 1e-5 * (1.0 + theta)

        @functools.cache
        def at(k, v):
            """The evaluation with beta_k, or theta when k = p, set to v."""
            if k == p:
                return grad_hess(ds, Params(beta, v))
            b = beta.copy()
            b[k] = v
            return grad_hess(ds, Params(b, theta))

        for k in range(p):
            h = 1e-5 * (1.0 + abs(beta[k]))
            note("score_beta", gh.score_beta[k],
                 finite_diff(lambda v: at(k, v).loglik, beta[k], h))
            note("h_bb", gh.h_bb[k, k],
                 finite_diff(lambda v: float(at(k, v).score_beta[k]), beta[k], h))
            note("h_bt", gh.h_bt[k],
                 finite_diff(lambda t: float(at(p, t).score_beta[k]), theta, h_t))
        note("score_theta", gh.score_theta,
             finite_diff(lambda t: at(p, t).loglik, theta, h_t))
        note("h_tt", gh.h_tt, finite_diff(lambda t: at(p, t).score_theta, theta, h_t))
    return worst


def _entry(section: str, check: str, pair, residual: float, tol: float,
           expected, *, strict: bool = False, **extra) -> dict:
    """One report entry; the verdict is HOLDS when the residual is within
    the tolerance it records (strictly below it when strict)."""
    holds = residual < tol if strict else residual <= tol
    return {"section": section, "check": check, "pair": pair,
            "max_residual": residual, "tol": tol,
            "verdict": "HOLDS" if holds else "FAILS", "expected": expected,
            **extra}


def run_verification(grid=None, tol_first: float = 1e-6,
                     tol_second: float = 1e-4, eps_tail: float = DEFAULT_EPS_TAIL,
                     seed: int = 20260809) -> tuple:
    """Execute the whole verification program.

    Returns (payload, all_expected_hold).  The payload lists one entry per
    residual pair with its measured maximum, tolerance, HOLDS/FAILS verdict
    and, where the program has an expectation, whether the outcome matched.
    """
    entries = []
    reports = identities.run_all_checks(grid, tol_first, tol_second)
    for ident, report in reports.items():
        for pair, verdict in report.verdicts.items():
            key = (ident, pair)
            expected = ("HOLDS" if key in _EXPECTED_HOLDS
                        else "FAILS" if key in _EXPECTED_FAILS else None)
            worst = list(verdict.worst_point) if verdict.worst_point else None
            entries.append(_entry("identities", ident.value, pair,
                                  verdict.max_residual, verdict.tol, expected,
                                  worst_point=worst))

    worst_mix = worst_mean = 0.0
    for lam in _VERIFY_LAMBDA_GRID:
        for alpha in _VERIFY_ALPHA_GRID:
            worst_mean = max(worst_mean,
                             abs(nb_mean_bruteforce(lam, alpha, eps_tail) - lam))
            for y in range(11):
                worst_mix = max(worst_mix, abs(mixture_pmf(y, lam, alpha)
                                               - nb_pmf(y, lam, alpha)))
    entries.append(_entry("mixture", "mixture_pmf_vs_closed_form", None,
                          worst_mix, 1e-8, "HOLDS"))
    entries.append(_entry("mixture", "bruteforce_mean_vs_lambda", None,
                          worst_mean, 1e-6, "HOLDS"))

    worst_interchange = worst_element = 0.0
    worst_other_conv = min_element = math.inf
    conventions = set()
    for lam in _FISHER_LAMBDA_GRID:
        for theta in _FISHER_THETA_GRID:
            tails = expected_trigamma_tail(lam, theta, eps_tail)
            worst_interchange = max(
                worst_interchange, abs(tails.survivor_at_j_plus_1 - tails.double_sum)
            )
            worst_other_conv = min(
                worst_other_conv, abs(tails.survivor_at_j - tails.double_sum)
            )
            ds = Dataset(y=np.array([1]), X=np.array([[1.0]]))
            params = Params(np.array([math.log(lam)]), theta)
            element, report = expected_info_theta(ds, params, eps_tail)
            bf = report.brute_force_total
            worst_element = max(worst_element, abs(element - bf) / max(abs(bf), 1e-12))
            min_element = min(min_element, element)
            conventions.add(report.chosen)
    entries.append(_entry("fisher", "tail_interchange_survivor_j_plus_1",
                          "survivor_at_j_plus_1_vs_double_sum",
                          worst_interchange, 1e-9, "HOLDS"))
    entries.append(_entry("fisher", "tail_interchange_survivor_j",
                          "survivor_at_j_vs_double_sum",
                          worst_other_conv, 1e-9, "FAILS"))
    entries.append(_entry("fisher", "expected_element_vs_bruteforce", None,
                          worst_element, 1e-6, "HOLDS",
                          detail={"min_element": min_element,
                                  "conventions_used": sorted(conventions)}))
    # The element must be strictly positive: a zero element FAILS.
    entries.append(_entry("fisher", "expected_element_positive", None,
                          -min_element, 0.0, "HOLDS", strict=True))

    fd_worst = _fd_derivative_suite(seed)
    for block, err in fd_worst.items():
        entries.append(_entry("derivatives", f"fd_match_{block}", None,
                              err, 1e-5, "HOLDS"))

    ok = all(e["verdict"] == "HOLDS" for e in entries if e["expected"] == "HOLDS")
    payload = {
        "schema_version": SCHEMA_VERSION, "command": "verify", "seed": seed,
        "tolerances": {"sum": identities.TOL_SUM, "first_derivative": tol_first,
                       "second_derivative": tol_second, "eps_tail": eps_tail},
        "entries": entries,
        "identity_reports": {i.value: r.to_dict() for i, r in reports.items()},
        "all_expected_hold": ok}
    return payload, ok
