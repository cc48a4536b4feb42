import math

import numpy as np
import pytest

from nbmle import (
    Dataset,
    Params,
    finite_diff,
    finite_diff_second,
    grad_hess,
    hessian_beta_beta,
    hessian_beta_theta,
    hessian_theta,
    hessian_theta_gamma_form,
    link_mean,
    loglik,
    score_beta,
    score_theta,
    score_theta_gamma_form,
    truncated_pmf_sum,
)
from conftest import make_instance


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def single_obs(y, theta, beta0=0.0):
    ds = Dataset(y=np.array([y]), X=np.array([[1.0]]))
    return ds, Params(np.array([beta0]), theta)


class TestScoreBeta:
    def test_zero_when_counts_equal_means(self):
        # lam = exp(0) = 1 everywhere, y = 1 everywhere
        X = np.hstack([np.ones((6, 1)), np.linspace(-1, 1, 6).reshape(-1, 1)])
        ds = Dataset(y=np.ones(6, dtype=int), X=X)
        g = score_beta(ds, Params(np.zeros(2), 0.7))
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_hand_value(self):
        ds, p = single_obs(2, 1.0)
        assert score_beta(ds, p)[0] == pytest.approx(0.5, rel=1e-14)

    def test_finite_difference_match(self, rng):
        for _ in range(30):
            ds, p = make_instance(rng)
            g = score_beta(ds, p)
            for k in range(ds.p):
                def f(v):
                    b = p.beta.copy()
                    b[k] = v
                    return loglik(ds, Params(b, p.theta))
                fd = finite_diff(f, p.beta[k], 1e-5 * (1.0 + abs(p.beta[k])))
                assert rel_err(g[k], fd) < 1e-6


class TestScoreTheta:
    def test_hand_value_zero_count(self):
        ds, p = single_obs(0, 1.0)
        assert score_theta(ds, p) == pytest.approx(math.log(2.0) - 0.5, abs=1e-14)

    def test_finite_difference_match(self, rng):
        for _ in range(50):
            ds, p = make_instance(rng)
            fd = finite_diff(
                lambda t: loglik(ds, Params(p.beta, t)),
                p.theta, 1e-5 * (1.0 + p.theta),
            )
            assert rel_err(score_theta(ds, p), fd) < 1e-6

    def test_zero_mean_over_pmf(self):
        # At the data-generating parameters the expected score vanishes.
        for lam in (0.5, 1.0, 3.0):
            for theta in (0.3, 1.0, 2.0):
                beta = np.array([math.log(lam)])

                def contrib(y):
                    ds = Dataset(y=np.array([y]), X=np.array([[1.0]]))
                    return score_theta(ds, Params(beta, theta))

                res = truncated_pmf_sum(contrib, lam, theta)
                assert abs(res.value) < 1e-8


class TestScoreThetaGammaForm:
    def test_equals_finite_sum_form_for_zero_counts(self):
        ds = Dataset(y=np.zeros(4, dtype=int), X=np.ones((4, 1)))
        p = Params(np.array([0.3]), 0.9)
        assert score_theta_gamma_form(ds, p) == pytest.approx(
            score_theta(ds, p), abs=1e-12
        )

    def test_hand_residual_is_two(self):
        # y=1, theta=1, lam=1: gamma form gives ln2 + 1, finite-sum form ln2 - 1.
        ds, p = single_obs(1, 1.0)
        gamma_form = score_theta_gamma_form(ds, p)
        sum_form = score_theta(ds, p)
        assert gamma_form == pytest.approx(math.log(2.0) + 1.0, abs=1e-12)
        assert sum_form == pytest.approx(math.log(2.0) - 1.0, abs=1e-12)
        assert gamma_form - sum_form == pytest.approx(2.0, abs=1e-12)

    def test_disagrees_with_derivative_when_counts_positive(self, rng):
        # The bare digamma difference is not the theta-derivative: the
        # residual (1 + 1/theta^2) * sum_i digamma-difference is positive
        # whenever any y_i > 0.
        for _ in range(10):
            ds, p = make_instance(rng)
            if not np.any(ds.y > 0):
                continue
            fd = finite_diff(
                lambda t: loglik(ds, Params(p.beta, t)),
                p.theta, 1e-5 * (1.0 + p.theta),
            )
            assert abs(score_theta_gamma_form(ds, p) - fd) > 1e-3
            assert score_theta_gamma_form(ds, p) - score_theta(ds, p) > 0.0


class TestHessianTheta:
    def test_hand_value_zero_count(self):
        # Direct evaluation of the second-derivative formula at y=0,
        # theta=1, lam=1 gives 1.25 - 2 ln 2 (confirmed against the
        # finite-difference of the log-likelihood).
        ds, p = single_obs(0, 1.0)
        assert hessian_theta(ds, p) == pytest.approx(
            1.25 - 2.0 * math.log(2.0), abs=1e-13
        )

    def test_finite_difference_match(self, rng):
        for _ in range(40):
            ds, p = make_instance(rng)
            fd = finite_diff(
                lambda t: score_theta(ds, Params(p.beta, t)),
                p.theta, 1e-5 * (1.0 + p.theta),
            )
            assert rel_err(hessian_theta(ds, p), fd) < 1e-5

    def test_counts_equal_means_reduction(self):
        # With y_i = lam_i the (y - lam) term drops from the bracket.
        X = np.ones((3, 1))
        ds = Dataset(y=np.ones(3, dtype=int), X=X)
        theta = 0.8
        p = Params(np.zeros(1), theta)
        t = theta  # theta * lam with lam = 1
        u = 1.0 / theta
        expected_one = (
            u**3 * (u / (0.0 + u) ** 2)  # j = 0 term of the weighted sum
            - u**3 * ((-t * (1.0 + t)) / (1.0 + t) ** 2 + 2.0 * math.log1p(t))
        )
        assert hessian_theta(ds, p) == pytest.approx(3.0 * expected_one, rel=1e-12)


class TestHessianThetaGammaForm:
    def test_zero_counts_drop_trigamma_difference(self):
        ds = Dataset(y=np.zeros(5, dtype=int), X=np.ones((5, 1)))
        p = Params(np.array([-0.2]), 1.3)
        assert hessian_theta_gamma_form(ds, p) == pytest.approx(
            hessian_theta(ds, p), abs=1e-12
        )

    def test_hand_value(self):
        # y=1, theta=1, lam=1: trigamma difference Psi'(2) - Psi'(1) = -1;
        # smooth part equals the finite-sum form's, so the residual is the
        # trigamma difference minus the weighted sum = -1 - 1 = -2.
        ds, p = single_obs(1, 1.0)
        gamma_form = hessian_theta_gamma_form(ds, p)
        sum_form = hessian_theta(ds, p)
        assert gamma_form - sum_form == pytest.approx(-2.0, abs=1e-12)

    def test_residual_reported_not_zero(self, rng):
        ds, p = make_instance(rng)
        if np.any(ds.y > 0):
            assert hessian_theta_gamma_form(ds, p) != pytest.approx(
                hessian_theta(ds, p), abs=1e-8
            )


class TestGammaFormsAgainstScipy:
    """The gamma forms carry exactly the bare digamma/trigamma differences,
    for small counts and for counts past LARGE_COUNT_SWITCH."""

    @staticmethod
    def _instances(rng):
        from nbmle.special import LARGE_COUNT_SWITCH

        for k in range(6):
            ds, p = make_instance(rng)
            if k % 2:
                y = ds.y.copy()
                y[0] = LARGE_COUNT_SWITCH + 17 * k
                ds = Dataset(y=y, X=ds.X)
            yield ds, p

    def test_score_theta_gamma_form(self, rng):
        from scipy.special import psi

        for ds, p in self._instances(rng):
            u, lam = 1.0 / p.theta, link_mean(ds.X, p.beta).lam
            t = p.theta * lam
            terms = (u * u * np.log1p(t) + (ds.y - lam) / (p.theta * (1.0 + t))
                     + psi(ds.y + u) - psi(u))
            assert abs(score_theta_gamma_form(ds, p) - np.sum(terms)) \
                <= 1e-12 * np.sum(np.abs(terms))

    def test_hessian_theta_gamma_form(self, rng):
        from scipy.special import polygamma

        for ds, p in self._instances(rng):
            theta, u, lam = p.theta, 1.0 / p.theta, link_mean(ds.X, p.beta).lam
            t = theta * lam
            bracket = ((theta * (1.0 + 2.0 * t) * (ds.y - lam) - t * (1.0 + t))
                       / (1.0 + t) ** 2 + 2.0 * np.log1p(t))
            terms = (-u ** 3 * bracket
                     + polygamma(1, ds.y + u) - polygamma(1, u))
            assert abs(hessian_theta_gamma_form(ds, p) - np.sum(terms)) \
                <= 1e-12 * np.sum(np.abs(terms))


class TestHessianBetaBlocks:
    def test_bb_hand_value(self):
        ds, p = single_obs(1, 1.0)
        assert hessian_beta_beta(ds, p)[0, 0] == pytest.approx(-0.5, rel=1e-14)

    def test_bb_finite_difference_match(self, rng):
        for _ in range(25):
            ds, p = make_instance(rng)
            h = hessian_beta_beta(ds, p)
            for k in range(ds.p):
                def g(v):
                    b = p.beta.copy()
                    b[k] = v
                    return score_beta(ds, Params(b, p.theta))
                step = 1e-5 * (1.0 + abs(p.beta[k]))
                col = (g(p.beta[k] + step) - g(p.beta[k] - step)) / (2 * step)
                np.testing.assert_allclose(
                    h[:, k], col, rtol=1e-5, atol=1e-7 * (1 + np.abs(h).max())
                )

    def test_bb_negative_semidefinite(self, rng):
        for _ in range(30):
            ds, p = make_instance(rng)
            eigs = np.linalg.eigvalsh(hessian_beta_beta(ds, p))
            assert eigs.max() <= 1e-10

    def test_bb_poisson_limit(self, rng):
        ds, p = make_instance(rng)
        tiny = Params(p.beta, 1e-8)
        lam = link_mean(ds.X, p.beta).lam
        poisson_h = -(ds.X.T * lam) @ ds.X
        np.testing.assert_allclose(
            hessian_beta_beta(ds, tiny), poisson_h,
            atol=1e-6 * (1 + np.abs(poisson_h).max()),
        )

    def test_bt_zero_when_counts_equal_means(self):
        X = np.hstack([np.ones((4, 1)), np.array([[0.5], [-0.5], [1.0], [-1.0]])])
        ds = Dataset(y=np.ones(4, dtype=int), X=X)
        np.testing.assert_allclose(
            hessian_beta_theta(ds, Params(np.zeros(2), 0.6)), 0.0, atol=1e-13
        )

    def test_bt_hand_value(self):
        ds, p = single_obs(2, 1.0)
        assert hessian_beta_theta(ds, p)[0] == pytest.approx(-0.25, rel=1e-14)

    def test_bt_finite_difference_match(self, rng):
        for _ in range(25):
            ds, p = make_instance(rng)
            step = 1e-5 * (1.0 + p.theta)
            fd = (
                score_beta(ds, Params(p.beta, p.theta + step))
                - score_beta(ds, Params(p.beta, p.theta - step))
            ) / (2 * step)
            np.testing.assert_allclose(
                hessian_beta_theta(ds, p), fd, rtol=1e-5,
                atol=1e-7 * (1 + np.abs(fd).max()),
            )


class TestZeroMeanBetaScore:
    def test_zero_mean_over_pmf(self):
        for lam in (0.5, 2.0):
            for theta in (0.4, 1.5):
                beta = np.array([math.log(lam)])

                def contrib(y):
                    ds = Dataset(y=np.array([y]), X=np.array([[1.0]]))
                    return float(score_beta(ds, Params(beta, theta))[0])

                res = truncated_pmf_sum(contrib, lam, theta)
                assert abs(res.value) < 1e-8


class TestFiniteDiff:
    def test_quadratic_exact(self):
        for h in (1e-2, 1e-4, 1e-6):
            assert finite_diff(lambda x: x * x, 3.0, h) == pytest.approx(
                6.0, abs=1e-7
            )

    def test_exponential(self):
        assert finite_diff(math.exp, 0.0, 1e-5) == pytest.approx(1.0, abs=1e-9)

    def test_second_derivative(self):
        assert finite_diff_second(lambda x: x**3, 2.0, 1e-3) == pytest.approx(
            12.0, abs=1e-6
        )

    def test_nonfinite_evaluation_raises(self):
        from nbmle import DomainError

        with pytest.raises(DomainError):
            finite_diff(lambda x: math.inf, 0.0, 1e-5)

    def test_matches_loglik_usage(self, rng):
        ds, p = make_instance(rng)
        fd = finite_diff(
            lambda t: loglik(ds, Params(p.beta, t)), p.theta, 1e-5 * (1 + p.theta)
        )
        assert rel_err(score_theta(ds, p), fd) < 1e-6


class TestGradHessContainer:
    def test_collects_consistent_blocks(self, rng):
        ds, p = make_instance(rng)
        gh = grad_hess(ds, p)
        np.testing.assert_array_equal(gh.score_beta, score_beta(ds, p))
        assert gh.h_tt == hessian_theta(ds, p)
        np.testing.assert_array_equal(gh.h_bb, gh.h_bb.T)


class TestSharedLink:
    """grad_hess and loglik each evaluate the link once per call."""

    @pytest.fixture
    def link_calls(self, monkeypatch):
        import nbmle.derivatives
        import nbmle.model

        calls = []

        def counting(X, beta):
            calls.append(1)
            return link_mean(X, beta)

        monkeypatch.setattr(nbmle.derivatives, "link_mean", counting)
        monkeypatch.setattr(nbmle.model, "link_mean", counting)
        return calls

    def test_grad_hess_one_link_evaluation(self, rng, link_calls):
        ds, p = make_instance(rng)
        grad_hess(ds, p)
        assert len(link_calls) == 1

    def test_loglik_one_link_evaluation(self, rng, link_calls):
        ds, p = make_instance(rng)
        loglik(ds, p)
        assert len(link_calls) == 1

    def test_grad_hess_carries_the_loglik_bit_for_bit(self, rng):
        from nbmle.special import LARGE_COUNT_SWITCH

        for k in range(30):
            ds, p = make_instance(rng)
            if k % 10 == 9:
                y = ds.y.copy()
                y[0] = LARGE_COUNT_SWITCH + 17 * k
                ds = Dataset(y=y, X=ds.X)
            assert grad_hess(ds, p).loglik == loglik(ds, p)
