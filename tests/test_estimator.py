import math

import numpy as np
import pytest

from nbmle import (
    AllZeroResponseError,
    CollinearColumnsError,
    Dataset,
    FitOptions,
    FitResult,
    InfoKind,
    InformationNotInvertible,
    InfoMatrix,
    LinearPredictorOverflow,
    Params,
    fit,
    grad_hess,
    init_params,
    loglik,
    standard_errors,
)
from conftest import simulate_dataset
from nbmle.mixture import sample_counts
from nbmle.model import BLOCK_ROWS, _row_blocks

RECOVERY = dict(seed=42, n=5000, beta=(0.5, -0.3), theta=0.8)


@pytest.fixture(scope="module")
def recovery_fit():
    ds = simulate_dataset(**RECOVERY)
    return ds, fit(ds)


def poisson_mle(ds, tol=1e-10):
    """Reference Poisson Newton fit used for the nested-model check."""
    beta = np.zeros(ds.p)
    for _ in range(100):
        lam = np.exp(ds.X @ beta)
        g = ds.X.T @ (ds.y - lam)
        if np.abs(g).max() < tol:
            break
        H = -(ds.X.T * lam) @ ds.X
        beta = beta - np.linalg.solve(H, g)
    return beta


class TestInitParams:
    def test_constant_counts(self):
        ds = Dataset(y=np.full(20, 3), X=np.ones((20, 1)))
        p0 = init_params(ds)
        assert p0.beta[0] == pytest.approx(math.log(3.5), rel=1e-12)
        assert p0.theta == 0.01  # zero sample variance clamps at the floor

    def test_method_of_moments_window(self):
        ds = simulate_dataset(31, 10_000, [math.log(2.0)], 1.0)
        p0 = init_params(ds)
        assert 0.5 <= p0.theta <= 2.0

    @staticmethod
    def _lstsq_flags(X):
        """Reference: column j is flagged when its least-squares residual on
        the earlier columns is below 1e-10 * (1 + |X_j|)."""
        bad = []
        for j in range(1, X.shape[1]):
            coef, *_ = np.linalg.lstsq(X[:, :j], X[:, j], rcond=None)
            resid = X[:, j] - X[:, :j] @ coef
            if np.linalg.norm(resid) <= 1e-10 * (1.0 + np.linalg.norm(X[:, j])):
                bad.append(j)
        return bad

    @pytest.mark.parametrize("n", [5, 1000])
    @pytest.mark.parametrize("kind, noise, flagged", [
        ("duplicate", 0.0, [3]),
        ("scaled", 0.0, [3]),
        ("sum", 0.0, [3]),
        ("sum", 1e-13, [3]),
        ("sum", 1e-8, []),
        ("sum", 1e-6, []),
        ("scaled", 1e-13, [3]),
        ("scaled", 1e-6, []),
    ])
    def test_collinear_columns_match_least_squares(self, n, kind, noise, flagged):
        from nbmle.estimator import _collinear_columns

        rng = np.random.default_rng([n, len(kind), int(-math.log10(noise or 1))])
        X = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 2))])
        col = {"duplicate": X[:, 1], "scaled": -37.5 * X[:, 2],
               "sum": X[:, 1] + 3.0 * X[:, 2]}[kind]
        u = rng.standard_normal(n)
        col = col + noise * np.linalg.norm(col) * u / np.linalg.norm(u)
        X = np.column_stack([X, col])
        assert self._lstsq_flags(X) == flagged
        assert _collinear_columns(np.linalg.qr(X, mode="r")) == flagged

    @pytest.mark.parametrize("n", [7, 3 * BLOCK_ROWS + 5])
    def test_start_beta_matches_least_squares(self, n):
        ds = simulate_dataset(53, n, [0.4, 0.3, -0.2, 0.25], 0.7)
        want, *_ = np.linalg.lstsq(ds.X, np.log(ds.y + 0.5), rcond=None)
        np.testing.assert_allclose(init_params(ds).beta, want, rtol=1e-10, atol=0)

    def test_start_values_copy_no_design(self):
        """The blocked QR keeps init_params' traced allocations below one
        copy of X."""
        import tracemalloc

        ds = simulate_dataset(59, 200_000, [0.4, 0.3, -0.2, 0.25], 0.7)
        tracemalloc.start()
        try:
            init_params(ds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ds.X.nbytes

    def test_collinear_design_named(self):
        x = np.linspace(0.0, 1.0, 12)
        X = np.column_stack([np.ones(12), x, 2.0 * x])
        ds = Dataset(y=np.arange(12), X=X, names=("intercept", "dose", "dose_x2"))
        with pytest.raises(CollinearColumnsError) as err:
            init_params(ds)
        assert "dose_x2" in str(err.value)

    def test_collinear_design_named_across_row_blocks(self):
        n = 3 * BLOCK_ROWS + 5
        rng = np.random.default_rng(61)
        x = rng.standard_normal((n, 2))
        X = np.column_stack([np.ones(n), x, x[:, 0] - 3.0 * x[:, 1]])
        ds = Dataset(y=rng.integers(0, 9, n), X=X, names=("intercept", "a", "b", "a_minus_3b"))
        with pytest.raises(CollinearColumnsError) as err:
            init_params(ds)
        assert err.value.columns == ("a_minus_3b",)


class TestFitRecovery:
    def test_converges_quickly(self, recovery_fit):
        _, res = recovery_fit
        assert res.converged
        assert res.iterations < 50

    def test_estimates_within_three_se(self, recovery_fit):
        _, res = recovery_fit
        truth = np.array([0.5, -0.3, 0.8])
        est = np.array([*res.beta_hat, res.theta_hat])
        assert res.se is not None
        np.testing.assert_array_less(np.abs(est - truth), 3.0 * res.se)

    def test_monotone_ascent_trace(self, recovery_fit):
        _, res = recovery_fit
        diffs = np.diff(res.loglik_trace)
        # Non-decreasing up to the roundoff floor of the objective.
        assert diffs.min() >= -1e-9 * (1.0 + abs(res.loglik_at_mle))

    def test_first_order_conditions_at_optimum(self, recovery_fit):
        ds, res = recovery_fit
        p = Params(res.beta_hat, res.theta_hat)
        gh = grad_hess(ds, p)
        assert np.abs(gh.score_beta).max() <= 1e-8
        assert abs(gh.score_theta * res.theta_hat) <= 1e-8


class TestSearchCoordinates:
    """fit searches in (beta, z = ln theta); the chain factors of that
    change of variables must match finite differences in z."""

    @staticmethod
    def _rel(a, b):
        return abs(a - b) / max(abs(a), abs(b), 1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_chain_factors_match_finite_differences(self, seed):
        from nbmle.derivatives import finite_diff, grad_hess
        from nbmle.estimator import _search_gradient

        rng = np.random.default_rng([8, seed])
        n, p = int(rng.integers(8, 51)), int(rng.integers(1, 5))
        X = np.hstack([np.ones((n, 1)), rng.standard_normal((n, p - 1))])
        beta = rng.uniform(-1.0, 1.0, size=p)
        theta = float(rng.uniform(0.1, 5.0))
        y = sample_counts(np.exp(X @ beta), theta, rng)
        y[0] = max(y[0], 1)
        ds = Dataset(y=y, X=X)
        z, h = math.log(theta), 1e-5
        g, H = _search_gradient(grad_hess(ds, Params(beta, theta)), theta)

        def at(zv):
            return grad_hess(ds, Params(beta, math.exp(zv)))

        g_z = finite_diff(lambda zv: loglik(ds, Params(beta, math.exp(zv))), z, h)
        h_zz = finite_diff(lambda zv: math.exp(zv) * at(zv).score_theta, z, h)
        assert self._rel(g[p], g_z) <= 1e-5
        assert self._rel(H[p, p], h_zz) <= 1e-5
        for k in range(p):
            h_bz = finite_diff(lambda zv: float(at(zv).score_beta[k]), z, h)
            assert self._rel(H[k, p], h_bz) <= 1e-5
            assert H[p, k] == H[k, p]


class TestBoundaryBehaviour:
    def test_poisson_data_hits_floor(self):
        hits = 0
        for seed in range(7):
            rng = np.random.default_rng(seed)
            y = rng.poisson(2.0, size=400)
            if not np.any(y > 0):
                continue
            ds = Dataset(y=y, X=np.ones((400, 1)))
            res = fit(ds)
            if res.boundary_theta:
                hits += 1
                assert res.theta_hat <= 1e-6 * (1 + 1e-9)
        assert hits >= 4  # majority of seeds

    def test_zero_variance_positive_mean_proceeds(self):
        ds = Dataset(y=np.full(30, 2), X=np.ones((30, 1)))
        res = fit(ds)
        assert res.boundary_theta
        assert res.beta_hat[0] == pytest.approx(math.log(2.0), abs=1e-6)

    def test_all_zero_response_rejected(self):
        ds = Dataset(y=np.zeros(10, dtype=int), X=np.ones((10, 1)))
        with pytest.raises(AllZeroResponseError):
            fit(ds)


class TestNestedPoissonConsistency:
    def test_beta_matches_poisson_fit_for_tiny_dispersion(self):
        rng = np.random.default_rng(8)
        n = 3000
        X = np.hstack([np.ones((n, 1)), rng.standard_normal((n, 1))])
        beta_true = np.array([0.3, 0.4])
        y = rng.poisson(np.exp(X @ beta_true))
        ds = Dataset(y=y, X=X)
        res = fit(ds)
        ref = poisson_mle(ds)
        assert res.boundary_theta
        np.testing.assert_allclose(res.beta_hat, ref, atol=1e-3)


def _two_column_design(rng, n):
    return np.hstack([np.ones((n, 1)), rng.standard_normal((n, 1))])


class TestScaleInvariantConvergence:
    """Large counts make |loglik| large; convergence must not depend on it."""

    @pytest.mark.parametrize("seed", [2, 4, 6, 11, 15, 17, 18, 19])
    def test_large_mean_gamma_mixture_converges(self, seed):
        rng = np.random.default_rng(seed)
        n = 50_000
        X = _two_column_design(rng, n)
        y = rng.poisson(np.exp(X @ [6.0, 0.3]) * rng.gamma(20.0, 0.05, size=n))
        ds = Dataset(y=y, X=X)
        res = fit(ds)
        assert res.converged, res.message
        p = Params(res.beta_hat, res.theta_hat)
        assert np.abs(grad_hess(ds, p).score_beta).max() <= 1e-6

    @staticmethod
    def _grid_dataset(n, beta0, theta):
        rng = np.random.default_rng([n, int(10 * beta0), int(100 * theta)])
        X = _two_column_design(rng, n)
        return Dataset(y=sample_counts(np.exp(X @ [beta0, 0.3]), theta, rng), X=X)

    @staticmethod
    def _assert_stationary(ds, res):
        # A stop on a regularised step would leave scores of many standard
        # errors; in those units the test is free of the data's scale.
        assert res.converged, res.message
        p = Params(res.beta_hat, res.theta_hat)
        gh = grad_hess(ds, p)
        in_se = np.abs(np.append(gh.score_beta, gh.score_theta)) * res.se
        assert in_se[:-1 if res.boundary_theta else None].max() <= 1e-5

    @pytest.mark.parametrize("theta", [0.01, 0.8, 50.0])
    @pytest.mark.parametrize("beta0", [0.5, 3.0, 6.0, 8.0])
    @pytest.mark.parametrize("n", [200, 2000])
    def test_mean_and_dispersion_grid_converges(self, n, beta0, theta):
        ds = self._grid_dataset(n, beta0, theta)
        self._assert_stationary(ds, fit(ds))

    def test_regularised_step_does_not_stop_the_fit(self, monkeypatch):
        """Far below theta-hat, H is indefinite in ln theta, and g . d of the
        regularised step is tiny although the dispersion score is not."""
        import nbmle.estimator as est

        ds = self._grid_dataset(200, 0.5, 0.01)
        start = est.init_params
        monkeypatch.setattr(est, "init_params", lambda d: Params(start(d).beta, 1e-5))
        self._assert_stationary(ds, fit(ds))

    def test_overflowing_trial_step_is_halved(self, monkeypatch):
        """From theta0 far below theta-hat the first full step sends x'beta
        past the link's range; the line search must shorten it, not raise."""
        import nbmle.estimator as est

        ds = self._grid_dataset(2000, 0.5, 50.0)
        start = est.init_params
        monkeypatch.setattr(est, "init_params", lambda d: Params(start(d).beta, 0.5))
        self._assert_stationary(ds, fit(ds))

    @staticmethod
    def _mixed_poisson_dataset(k):
        rng = np.random.default_rng([7, k])
        n = [50, 200, 2000][rng.integers(3)]
        b0 = rng.uniform(-1, 6)
        theta = 10 ** rng.uniform(-3, 1.5)
        X = np.column_stack([np.ones(n), rng.standard_normal(n)])
        y = rng.poisson(np.exp(X @ [b0, 0.3]) * rng.gamma(1 / theta, theta, size=n))
        return Dataset(y=y, X=X)

    @pytest.mark.parametrize("k, e", [(53, -6), (66, -3), (90, 4), (206, -5)])
    def test_trial_theta_past_exp_range_is_halved(self, monkeypatch, k, e):
        """A trial z = ln theta above 709.78 overflows exp(); the line search
        must shorten the step, not raise OverflowError."""
        import nbmle.estimator as est

        ds = self._mixed_poisson_dataset(k)
        start = est.init_params
        monkeypatch.setattr(est, "init_params", lambda d: Params(start(d).beta, 10.0 ** e))
        assert isinstance(fit(ds), FitResult)

    def test_trial_with_overflowing_derivatives_is_halved(self, monkeypatch):
        """From theta0 = 1e6 a trial step reaches x'beta of several hundred,
        where the log-likelihood is finite and higher but (1 + theta*lam)^2
        overflows; no Newton step could be taken from there, so the trial
        must be rejected."""
        import nbmle.estimator as est

        ds = self._mixed_poisson_dataset(112)
        start = est.init_params
        monkeypatch.setattr(est, "init_params", lambda d: Params(start(d).beta, 1e6))
        assert isinstance(fit(ds), FitResult)

    @pytest.mark.parametrize("z", [400.0, 709.0])
    def test_trial_with_underflowing_shift_is_rejected(self, z):
        """Past LARGE_COUNT_SWITCH the dispersion blocks take the gamma
        forms, whose trigamma at 1/theta = e^-z squares it to zero."""
        from nbmle.estimator import _trial
        from nbmle.special import LARGE_COUNT_SWITCH

        X = np.column_stack([np.ones(4), [0.1, 0.2, -0.3, 0.5]])
        ds = Dataset(y=[LARGE_COUNT_SWITCH + 17, 3, 0, 5], X=X)
        assert _trial(ds, np.array([1.0, 0.3]), z, -math.inf) is None

    def test_overflow_at_the_start_still_raises(self, monkeypatch):
        import nbmle.estimator as est

        ds = self._grid_dataset(200, 0.5, 0.8)
        monkeypatch.setattr(est, "init_params", lambda d: Params([800.0, 0.0], 0.8))
        with pytest.raises(LinearPredictorOverflow):
            fit(ds)


class TestIndefiniteHessianStep:
    """Poisson data on which the search Hessian has a positive eigenvalue
    along ln theta; a step regularised by a shift of H stayed short, and
    the fit crawled to max_iter unconverged."""

    @pytest.mark.parametrize("n, beta0", [(200, 6.0), (20_000, -2.0)])
    def test_poisson_data_converges_promptly(self, n, beta0):
        rng = np.random.default_rng([0, n, int(10 * beta0) + 100, 0])
        X = _two_column_design(rng, n)
        ds = Dataset(y=rng.poisson(np.exp(X @ [beta0, 0.3])), X=X)
        res = fit(ds)
        assert res.converged, res.message
        assert res.iterations <= 20

    def test_direction_ascends_on_an_indefinite_hessian(self):
        from nbmle.estimator import _ascent_direction

        H = np.array([[-4.0, 1.0], [1.0, 0.5]])
        g = np.array([0.3, -2.0])
        d, newton = _ascent_direction(H, g)
        assert not newton
        assert float(g @ d) > 0.0

    def test_negative_definite_hessian_gives_the_newton_step(self):
        from nbmle.estimator import _ascent_direction

        H = np.array([[-4.0, 1.0], [1.0, -0.5]])
        g = np.array([0.3, -2.0])
        d, newton = _ascent_direction(H, g)
        assert newton
        np.testing.assert_array_equal(d, np.linalg.solve(H, -g))


class TestOneEvaluationPerPoint:
    """The fit evaluates each point it visits once, by grad_hess, and reads
    the log-likelihood and the observed information from those
    evaluations."""

    PROBE = dict(n=2000, beta=(0.5, -0.3), theta=0.8)

    @pytest.fixture
    def calls(self, monkeypatch):
        import nbmle.derivatives
        import nbmle.estimator
        import nbmle.fisher
        import nbmle.model
        from nbmle import grad_hess, link_mean

        calls = {"link_mean": 0, "grad_hess": [], "loglik": 0}

        def counting_link(*args):
            calls["link_mean"] += 1
            return link_mean(*args)

        def recording_grad_hess(ds, p):
            gh = grad_hess(ds, p)
            calls["grad_hess"].append((p, gh))
            return gh

        def counting_loglik(ds, p):
            calls["loglik"] += 1
            return loglik(ds, p)

        monkeypatch.setattr(nbmle.model, "link_mean", counting_link)
        monkeypatch.setattr(nbmle.derivatives, "link_mean", counting_link)
        monkeypatch.setattr(nbmle.estimator, "grad_hess", recording_grad_hess)
        monkeypatch.setattr(nbmle.fisher, "grad_hess", recording_grad_hess)
        monkeypatch.setattr(nbmle.estimator, "loglik", counting_loglik,
                            raising=False)
        return calls

    @pytest.mark.parametrize("n", [PROBE["n"], 3 * BLOCK_ROWS + 5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_one_evaluation_per_point(self, calls, seed, n):
        """One link evaluation per row block of each point."""
        ds = simulate_dataset(seed, **dict(self.PROBE, n=n))
        res = fit(ds)
        assert res.converged, res.message
        blocks = len(_row_blocks(n))
        assert calls["link_mean"] == (res.iterations + 1) * blocks
        assert len(calls["grad_hess"]) == res.iterations + 1
        assert calls["loglik"] == 0

    def test_result_reads_the_last_evaluation(self, calls):
        from nbmle.fisher import observed_info, observed_info_from

        ds = simulate_dataset(4, **self.PROBE)
        res = fit(ds)
        p_last, gh_last = calls["grad_hess"][-1]
        np.testing.assert_array_equal(p_last.beta, res.beta_hat)
        assert p_last.theta == res.theta_hat
        assert res.loglik_at_mle == gh_last.loglik == res.loglik_trace[-1]
        assert len(calls["grad_hess"]) == res.iterations + 1
        assert res.loglik_trace == tuple(gh.loglik for _, gh in calls["grad_hess"])
        p = Params(res.beta_hat, res.theta_hat)
        assert res.info.kind is InfoKind.OBSERVED
        np.testing.assert_array_equal(res.info.m, observed_info(ds, p).m)
        np.testing.assert_array_equal(res.info.m, observed_info_from(gh_last).m)


class TestStandardErrors:
    def test_identity_info(self):
        info = InfoMatrix(kind=InfoKind.OBSERVED, m=np.eye(2))
        np.testing.assert_allclose(standard_errors(info), [1.0, 1.0])

    def test_diagonal_info(self):
        info = InfoMatrix(kind=InfoKind.OBSERVED, m=np.diag([4.0, 25.0]))
        np.testing.assert_allclose(standard_errors(info), [0.5, 0.2])

    def test_non_positive_definite_raises(self):
        info = InfoMatrix(kind=InfoKind.OBSERVED, m=np.diag([1.0, -1.0]))
        with pytest.raises(InformationNotInvertible):
            standard_errors(info)

    def test_ses_match_monte_carlo_sd(self):
        ses = None
        estimates = []
        for seed in range(200):
            ds = simulate_dataset(seed, 2000, [0.5, -0.3], 0.8)
            res = fit(ds)
            estimates.append([*res.beta_hat, res.theta_hat])
            if seed == 42:
                ses = res.se
        sd = np.array(estimates).std(axis=0, ddof=1)
        assert ses is not None
        np.testing.assert_allclose(ses, sd, rtol=0.2)


class TestOptionsAndResult:
    def test_expected_info_flag(self):
        ds = simulate_dataset(3, 400, [0.2], 1.0)
        res = fit(ds, FitOptions(info_kind=InfoKind.EXPECTED))
        assert res.info.kind is InfoKind.EXPECTED
        assert res.info.truncation is not None
        np.testing.assert_array_equal(res.info.m[:-1, -1], 0.0)

    def test_nonconvergence_reported_not_raised(self):
        ds = simulate_dataset(5, 2000, [0.4, -0.1], 1.2)
        res = fit(ds, FitOptions(max_iter=1))
        assert not res.converged
        assert res.iterations == 1

    def test_options_validation(self):
        with pytest.raises(ValueError):
            FitOptions(max_iter=0)
        with pytest.raises(ValueError):
            FitOptions(eps_tail=-1.0)

    def test_result_json_round_trips_losslessly(self, recovery_fit):
        import json

        _, observed = recovery_fit
        expected = fit(simulate_dataset(3, 200, [0.2], 1.0),
                       FitOptions(info_kind=InfoKind.EXPECTED))
        assert expected.info.truncation is not None
        for res in (observed, expected):
            d = res.to_dict()
            assert json.loads(json.dumps(d)) == d
