"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and residuals.
"""

import json
import math
import time

import numpy as np

from nbmle import (
    Dataset,
    Params,
    check_digamma_chain,
    check_digamma_sum,
    check_trigamma_chain,
    check_trigamma_sum,
    expected_info,
    expected_trigamma_tail,
    finite_diff,
    fit,
    grad_hess,
    loglik,
    mixture_pmf,
    nb_mean_bruteforce,
    nb_pmf,
)
from nbmle.cli import main as cli_main
from conftest import make_instance, simulate_dataset
from oracles import loglik_alpha, nb_pmf_binomial_form, truncated_pmf_sum

FISHER_LAMBDAS = (0.2, 1.0, 5.0)
FISHER_THETAS = (0.2, 1.0, 3.0)
MIX_LAMBDAS = (0.5, 1.0, 5.0)
MIX_ALPHAS = (0.5, 1.0, 2.0, 10.0)


class _Line:
    """Collects details and prints the one-line verdict at the end."""

    def __init__(self, number, name):
        self.number = number
        self.name = name
        self.details = []

    def add(self, text):
        self.details.append(text)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        detail = "; ".join(self.details)
        print(f"\n[{verdict}] criterion {self.number} ({self.name}): {detail}")
        return False


def test_criterion_1_identity_adjudication():
    with _Line(1, "identity adjudication") as line:
        t0 = time.perf_counter()
        sum_report = check_digamma_sum(tol=1e-9)
        assert sum_report.verdicts["digamma_diff_vs_finite_sum"].holds

        tri_sum = check_trigamma_sum(tol=1e-9)
        assert tri_sum.verdicts["trigamma_diff_vs_neg_sq_sum"].holds

        chain1 = check_digamma_chain(tol=1e-6)
        v = chain1.verdicts["fd_derivative_vs_scaled_sum"]
        assert v.holds
        line.add(f"first-derivative chain max|fd-sum|={v.max_residual:.2e}")
        mid = chain1.verdicts["digamma_diff_vs_scaled_sum"]
        assert mid.max_residual > 0.1
        line.add(f"digamma member off by {mid.max_residual:.2e}")

        chain2 = check_trigamma_chain(tol=1e-4)
        v2 = chain2.verdicts["fd_second_vs_weighted_sum"]
        assert v2.holds
        line.add(f"second-derivative chain max|fd-sum|={v2.max_residual:.2e}")
        mid2 = chain2.verdicts["trigamma_diff_vs_weighted_sum"]
        assert mid2.max_residual > 0.1

        elapsed = time.perf_counter() - t0
        line.add(f"{elapsed:.2f}s")
        assert elapsed < 5.0


def test_criterion_2_derivative_correctness():
    with _Line(2, "derivative correctness, 200 instances") as line:
        t0 = time.perf_counter()
        rng = np.random.default_rng(20210212)
        worst = {k: 0.0 for k in
                 ("score_beta", "score_theta", "h_bb", "h_bt", "h_tt")}

        def rel(a, b):
            return abs(a - b) / max(abs(a), abs(b), 1.0)

        for _ in range(200):
            ds, p = make_instance(rng)
            gh = grad_hess(ds, p)
            h_t = 1e-5 * (1.0 + p.theta)
            for k in range(ds.p):
                h_b = 1e-5 * (1.0 + abs(p.beta[k]))

                def with_k(v, k=k):
                    b = p.beta.copy()
                    b[k] = v
                    return b

                worst["score_beta"] = max(worst["score_beta"], rel(
                    gh.score_beta[k],
                    finite_diff(lambda v: loglik(ds, Params(with_k(v), p.theta)),
                                p.beta[k], h_b)))
                worst["h_bb"] = max(worst["h_bb"], rel(
                    gh.h_bb[k, k],
                    finite_diff(
                        lambda v: float(
                            grad_hess(ds, Params(with_k(v), p.theta)).score_beta[k]),
                        p.beta[k], h_b)))
                worst["h_bt"] = max(worst["h_bt"], rel(
                    gh.h_bt[k],
                    finite_diff(
                        lambda t: float(grad_hess(ds, Params(p.beta, t)).score_beta[k]),
                        p.theta, h_t)))
            worst["score_theta"] = max(worst["score_theta"], rel(
                gh.score_theta,
                finite_diff(lambda t: loglik(ds, Params(p.beta, t)), p.theta, h_t)))
            worst["h_tt"] = max(worst["h_tt"], rel(
                gh.h_tt,
                finite_diff(lambda t: grad_hess(ds, Params(p.beta, t)).score_theta,
                            p.theta, h_t)))

        for block, err in worst.items():
            assert err < 1e-5, f"{block} mismatch {err:.2e}"
        line.add("worst rel err " + ", ".join(
            f"{k}={v:.1e}" for k, v in worst.items()))
        elapsed = time.perf_counter() - t0
        line.add(f"{elapsed:.1f}s")
        assert elapsed < 30.0


def test_criterion_3_mixture_theorem():
    with _Line(3, "Poisson-Gamma mixture equals closed form") as line:
        t0 = time.perf_counter()
        worst = 0.0
        for lam in MIX_LAMBDAS:
            for alpha in MIX_ALPHAS:
                for y in range(11):
                    diff = abs(mixture_pmf(y, lam, alpha) - nb_pmf(y, lam, alpha))
                    worst = max(worst, diff)
        assert worst < 1e-8
        elapsed = time.perf_counter() - t0
        line.add(f"max |mixture - closed form| = {worst:.2e}; {elapsed:.2f}s")
        assert elapsed < 10.0


def test_criterion_4_mean_theorem_and_binomial_form():
    with _Line(4, "truncated mean and binomial-coefficient form") as line:
        worst_mean = 0.0
        for lam in MIX_LAMBDAS:
            for alpha in MIX_ALPHAS:
                worst_mean = max(worst_mean,
                                 abs(nb_mean_bruteforce(lam, alpha) - lam))
        assert worst_mean < 1e-6
        line.add(f"max |mean - lambda| = {worst_mean:.2e}")

        rng = np.random.default_rng(4)
        worst_pmf = 0.0
        for alpha in (1, 2, 3):
            for _ in range(60):
                y = int(rng.integers(0, 25))
                lam = float(10 ** rng.uniform(-1, 1))
                a = nb_pmf_binomial_form(y, lam, alpha)
                b = nb_pmf(y, lam, float(alpha))
                worst_pmf = max(worst_pmf, abs(a - b) / b)
        assert worst_pmf < 1e-12
        line.add(f"max rel |binomial form - p.m.f.| = {worst_pmf:.2e}")


def test_criterion_5_fisher_element():
    with _Line(5, "expected information element and tail convention") as line:
        worst_rel = 0.0
        worst_interchange = 0.0
        min_element = math.inf
        for lam in FISHER_LAMBDAS:
            for theta in FISHER_THETAS:
                tails = expected_trigamma_tail(lam, theta)
                worst_interchange = max(
                    worst_interchange,
                    abs(tails.survivor_at_j_plus_1 - tails.double_sum))
                # The other convention must NOT be the one matching the
                # definitional double sum.
                assert abs(tails.survivor_at_j - tails.double_sum) > 1e-4

                ds = Dataset(y=np.array([1]), X=np.array([[1.0]]))
                params = Params(np.array([math.log(lam)]), theta)
                info = expected_info(ds, params)
                element, report = info.m[-1, -1], info.truncation
                worst_rel = max(
                    worst_rel,
                    abs(element - report.brute_force_total)
                    / abs(report.brute_force_total))
                min_element = min(min_element, element)
                assert report.chosen == "survivor_at_j_plus_1"
        assert worst_interchange < 1e-9
        assert worst_rel < 1e-6
        assert min_element > 0.0
        line.add(f"max |S(j+1) - double sum| = {worst_interchange:.2e}")
        line.add(f"max rel |element - brute force| = {worst_rel:.2e}")
        line.add(f"min element = {min_element:.3e}; estimator uses Pr(Y>=j+1)")


def test_criterion_6_zero_mean_scores():
    with _Line(6, "pmf-weighted scores vanish at truth") as line:
        worst = 0.0
        for lam in (0.5, 1.0, 3.0):
            for theta in (0.3, 1.0, 2.0):
                beta = np.array([math.log(lam)])

                def theta_contrib(y):
                    d = Dataset(y=np.array([y]), X=np.array([[1.0]]))
                    return grad_hess(d, Params(beta, theta)).score_theta

                def beta_contrib(y):
                    d = Dataset(y=np.array([y]), X=np.array([[1.0]]))
                    return float(grad_hess(d, Params(beta, theta)).score_beta[0])

                worst = max(worst,
                            abs(truncated_pmf_sum(theta_contrib, lam, theta).value),
                            abs(truncated_pmf_sum(beta_contrib, lam, theta).value))
        assert worst < 1e-8
        line.add(f"max |E[score]| = {worst:.2e}")


def test_criterion_7_recovery_at_desk_scale():
    with _Line(7, "simulation recovery and standard errors") as line:
        ds = simulate_dataset(42, 5000, [0.5, -0.3], 0.8)
        t0 = time.perf_counter()
        res = fit(ds)
        elapsed = time.perf_counter() - t0
        assert res.converged
        assert res.iterations < 50
        assert elapsed < 2.0
        truth = np.array([0.5, -0.3, 0.8])
        est = np.array([*res.beta_hat, res.theta_hat])
        np.testing.assert_array_less(np.abs(est - truth), 3.0 * res.se)
        line.add(f"fit {res.iterations} iters, {elapsed*1e3:.0f} ms, "
                 f"all within 3 SEs")

        estimates = []
        for seed in range(200):
            d = simulate_dataset(seed, 5000, [0.5, -0.3], 0.8)
            r = fit(d)
            estimates.append([*r.beta_hat, r.theta_hat])
        sd = np.array(estimates).std(axis=0, ddof=1)
        rel = np.abs(res.se - sd) / sd
        assert rel.max() < 0.2
        line.add(f"SE vs 200-replication SD: max rel dev {rel.max():.3f}")


def test_criterion_8_reparameterization():
    with _Line(8, "dispersion vs shape parameterisation") as line:
        rng = np.random.default_rng(88)
        worst = 0.0
        for _ in range(100):
            ds, p = make_instance(rng)
            a = loglik(ds, p)
            b = loglik_alpha(ds, 1.0 / p.theta, p.beta)
            worst = max(worst, abs(a - b) / (1.0 + abs(a)))
        assert worst < 1e-10
        line.add(f"max rel |theta-form - alpha-form| = {worst:.2e}")


def test_criterion_9_cli_end_to_end(tmp_path):
    with _Line(9, "CLI pipeline from files alone") as line:
        sim = tmp_path / "sim.csv"
        sim2 = tmp_path / "sim2.csv"
        args = ["simulate", "--beta", "0.5,-0.3", "--theta", "0.8",
                "--n", "3000", "--seed", "77"]
        assert cli_main(args + ["--output", str(sim)]) == 0
        assert cli_main(args + ["--output", str(sim2)]) == 0
        assert sim.read_bytes() == sim2.read_bytes()
        line.add("simulate deterministic per seed")

        fit_out = tmp_path / "fit.json"
        assert cli_main(["fit", "--input", str(sim),
                         "--output", str(fit_out)]) == 0
        payload = json.loads(fit_out.read_text())
        assert payload["converged"]
        est = np.array(payload["beta_hat"] + [payload["theta_hat"]])
        se = np.array(payload["se"])
        np.testing.assert_array_less(
            np.abs(est - np.array([0.5, -0.3, 0.8])), 3.0 * se)
        line.add("fit recovers truth, exit 0")

        verify_out = tmp_path / "verify.json"
        assert cli_main(["verify", "--output", str(verify_out)]) == 0
        report = json.loads(verify_out.read_text())
        assert report["all_expected_hold"]
        line.add("verify exit 0")

        assert cli_main(["simulate", "--beta", "0.5", "--theta", "0",
                         "--n", "5", "--seed", "1",
                         "--output", str(tmp_path / "x.csv")]) == 1
        assert cli_main(["fit", "--input", str(sim), "--max-iter", "1",
                         "--output", str(tmp_path / "nc.json")]) == 2
        assert cli_main(["verify", "--tol-first", "1e-14",
                         "--output", str(tmp_path / "v3.json")]) == 3
        line.add("exit codes 1/2/3 as specified")
