import math

import numpy as np
import pytest
from scipy import special, stats

from nbmle import (
    Dataset,
    InfoKind,
    Params,
    expected_info,
    expected_trigamma_tail,
    fit,
    grad_hess,
    link_mean,
    loglik,
    observed_info,
)
import nbmle.fisher as fisher
import nbmle.model as model
from nbmle.derivatives import _theta_bracket
from nbmle.fisher import _theta_series
from nbmle.model import _pmf_table
from conftest import make_instance, simulate_dataset
from oracles import truncated_pmf_sum

LAMBDA_GRID = (0.2, 1.0, 5.0)
THETA_GRID = (0.2, 1.0, 3.0)


def one_obs_dataset(lam, theta):
    ds = Dataset(y=np.array([1]), X=np.array([[1.0]]))
    return ds, Params(np.array([math.log(lam)]), theta)


def theta_element(ds, p):
    """expected_info's theta element and its truncation report."""
    info = expected_info(ds, p)
    return info.m[-1, -1], info.truncation


def brute_force(lam, theta):
    """(E[-d2 lnL/dtheta2] of one mean by pmf-weighted summation, as
    _theta_series computes it, and the pmf table it weights with)."""
    lams = np.array([lam])
    (chunk,) = model._pmf_chunks(lams, theta)
    return float(_theta_series(lams, theta, chunk)[2, 0]), chunk.pmf[0]


class TestTailExpectation:
    def test_double_sum_matches_shifted_survivor(self):
        for lam in LAMBDA_GRID:
            for theta in THETA_GRID:
                tails = expected_trigamma_tail(lam, theta)
                assert abs(tails.survivor_at_j_plus_1 - tails.double_sum) < 1e-9
                # The unshifted survivor index overshoots by the w_0 term
                # and cannot match the definitional double sum.
                assert abs(tails.survivor_at_j - tails.double_sum) > 1e-4

    def test_near_degenerate_mean(self):
        tails = expected_trigamma_tail(0.01, 2.0)
        assert tails.survivor_at_j_plus_1 == pytest.approx(tails.double_sum, abs=1e-10)
        assert tails.double_sum > 0.0

    def test_reports_cutoff(self):
        tails = expected_trigamma_tail(1.0, 1.0)
        assert tails.cutoff >= 1 + 10 * math.sqrt(2.0)
        assert 0.0 <= tails.tail_bound < 1e-10

    def test_large_mean_double_sum_matches_polygamma_sum(self):
        lam, theta = 300.0, 1.0
        tails = expected_trigamma_tail(lam, theta)
        u = 1.0 / theta
        y = np.arange(int(stats.nbinom.isf(1e-18, u, u / (u + lam))) + 2,
                      dtype=float)
        # sum_{j<y} (2j+u)/(j+u)^2 = 2[psi(y+u) - psi(u)] - u[psi'(u) - psi'(y+u)]
        inner = (2.0 * (special.digamma(y + u) - special.digamma(u))
                 - u * (special.polygamma(1, u) - special.polygamma(1, y + u)))
        ref = u ** 3 * float(np.sum(stats.nbinom.pmf(y, u, u / (u + lam)) * inner))
        assert tails.double_sum == pytest.approx(ref, rel=1e-9)


class TestBruteForce:
    def test_positive_finite_reference(self):
        value, _ = brute_force(1.0, 1.0)
        assert math.isfinite(value)
        assert value > 0.0

    def test_weights_cover_distribution(self):
        _, pmf = brute_force(5.0, 3.0)
        assert np.sum(pmf) >= 1.0 - 1e-9

    def test_matches_direct_definition(self):
        # Independent re-computation through the generic truncated sum and
        # the full Hessian evaluator.
        lam, theta = 0.7, 1.4
        beta = np.array([math.log(lam)])

        def neg_h_tt(y):
            ds = Dataset(y=np.array([y]), X=np.array([[1.0]]))
            return -grad_hess(ds, Params(beta, theta)).h_tt

        direct = truncated_pmf_sum(neg_h_tt, lam, theta)
        value, _ = brute_force(lam, theta)
        assert value == pytest.approx(direct.value, rel=1e-12)


class TestExpectedInfoTheta:
    def test_matches_brute_force_on_grid(self):
        for lam in LAMBDA_GRID:
            for theta in THETA_GRID:
                ds, p = one_obs_dataset(lam, theta)
                element, report = theta_element(ds, p)
                bf = report.brute_force_total
                assert element == pytest.approx(bf, rel=1e-6)
                assert element > 0.0
                assert report.chosen == "survivor_at_j_plus_1"

    def test_additive_over_observations(self):
        ds1, p1 = one_obs_dataset(1.3, 0.9)
        e1, _ = theta_element(ds1, p1)
        ds2 = Dataset(y=np.array([1, 1]), X=np.array([[1.0], [1.0]]))
        e2, _ = theta_element(ds2, Params(p1.beta, p1.theta))
        assert e2 == pytest.approx(2.0 * e1, rel=1e-12)

    def test_heavy_tail_returns(self):
        # The tail here is nearly geometric with ratio 1 - 1e-5, so the
        # cutoff runs to about 2.5e6 counts.
        ds, p = one_obs_dataset(2.1e4, 5.0)
        element, report = theta_element(ds, p)
        assert math.isfinite(element) and element > 0.0
        assert report.chosen == "survivor_at_j_plus_1"

    @pytest.mark.parametrize("lam", [120.0, 400.0, 750.0])
    def test_large_mean_matches_polygamma_sum(self, lam):
        theta = 0.05
        ds, p = one_obs_dataset(lam, theta)
        element, _ = theta_element(ds, p)
        lam = float(link_mean(ds.X, p.beta).lam[0])
        u = 1.0 / theta
        one = 1.0 + theta * lam
        y = np.arange(int(stats.nbinom.isf(1e-18, u, 1.0 / one)) + 2, dtype=float)
        # d2/dtheta2 of ln pmf(y) in its gamma-function form.
        d2 = (u ** 4 * (special.polygamma(1, y + u) - special.polygamma(1, u))
              + 2.0 * u ** 3 * (special.digamma(y + u) - special.digamma(u))
              - y * u * u - 2.0 * u ** 3 * math.log1p(theta * lam)
              + 2.0 * u * u * lam / one + (y + u) * lam ** 2 / one ** 2)
        ref = float(np.sum(stats.nbinom.pmf(y, u, 1.0 / one) * -d2))
        assert element == pytest.approx(ref, rel=1e-7)

    def test_report_carries_both_conventions(self):
        ds, p = one_obs_dataset(1.0, 1.0)
        element, report = theta_element(ds, p)
        assert report.survivor_at_j_total != report.survivor_at_j_plus_1_total
        assert element == report.survivor_at_j_plus_1_total
        assert len(report.cutoffs) == 1


class TestExpectedInfoBeta:
    def test_hand_value(self):
        ds, p = one_obs_dataset(1.0, 1.0)
        assert expected_info(ds, p).m[0, 0] == pytest.approx(0.5, rel=1e-14)

    def test_matches_brute_force(self):
        lam, theta = 1.7, 0.8
        beta = np.array([math.log(lam)])
        ds, p = one_obs_dataset(lam, theta)

        def neg_h_bb(y):
            d = Dataset(y=np.array([y]), X=np.array([[1.0]]))
            return -float(grad_hess(d, Params(beta, theta)).h_bb[0, 0])

        direct = truncated_pmf_sum(neg_h_bb, lam, theta)
        assert expected_info(ds, p).m[0, 0] == pytest.approx(
            direct.value, abs=1e-8
        )

    def test_poisson_limit(self, rng):
        ds, p = make_instance(rng)
        tiny = Params(p.beta, 1e-8)
        lam = link_mean(ds.X, p.beta).lam
        poisson_info = (ds.X.T * lam) @ ds.X
        np.testing.assert_allclose(
            expected_info(ds, tiny).m[:-1, :-1], poisson_info,
            rtol=1e-6,
        )

    def test_positive_semidefinite(self, rng):
        for _ in range(10):
            ds, p = make_instance(rng)
            eigs = np.linalg.eigvalsh(expected_info(ds, p).m[:-1, :-1])
            assert eigs.min() >= -1e-10


class TestExpectedInfoCross:
    """The cross block is zero, as is its pmf-weighted sum over the rows."""

    @staticmethod
    def _per_row_cross(ds, p):
        """The cross block's numeric vector row by row from one-row tables."""
        numeric = np.zeros(ds.p)
        for i, lam_i in enumerate(link_mean(ds.X, p.beta).lam):
            pmf, cutoff, _ = _pmf_table(lam_i, p.theta)
            mean_dev = float(np.sum((np.arange(cutoff) - lam_i) * pmf))
            numeric += lam_i / (1.0 + p.theta * lam_i) ** 2 * mean_dev * ds.X[i]
        return numeric

    def test_analytic_zero(self):
        ds, p = one_obs_dataset(2.0, 1.0)
        np.testing.assert_array_equal(expected_info(ds, p).m[:-1, -1], 0.0)
        assert np.abs(self._per_row_cross(ds, p)).max() < 1e-8

    def test_skewed_design_still_zero(self, rng):
        X = np.hstack([np.ones((6, 1)),
                       rng.uniform(0.0, 3.0, (6, 1)),
                       rng.uniform(-2.0, 0.0, (6, 1))])
        ds = Dataset(y=np.arange(6), X=X)
        p = Params(np.array([0.4, 0.3, -0.2]), 0.7)
        np.testing.assert_array_equal(expected_info(ds, p).m[:-1, -1], 0.0)
        assert np.abs(self._per_row_cross(ds, p)).max() < 1e-8


class TestBatchedSeries:
    """The expected-information series read 2-D pmf tables; a chunk cap of
    256 entries makes chunks of several rows and doubles rows."""

    @staticmethod
    def _dataset():
        rng = np.random.default_rng(11)
        n = 200
        X = np.column_stack([np.ones(n), rng.uniform(-3.0, 3.0, n)])
        return Dataset(y=rng.integers(0, 50, n), X=X)

    @staticmethod
    def _one_dimensional_series(lam, theta):
        """The dispersion series of one mean on its 1-D table, by 1-D
        products, and the scale sum_y |pmf * neg_h| of the brute-force one."""
        pmf, cutoff, _ = _pmf_table(lam, theta)
        u = 1.0 / theta
        u3 = u * u * u
        y = np.arange(cutoff, dtype=float)
        w = (2.0 * y + u) / (y + u) ** 2
        surv = np.cumsum(pmf[::-1])[::-1]
        cum_w = np.concatenate(([0.0], np.cumsum(w[:-1])))
        t = theta * lam
        neg_h = u3 * _theta_bracket(y - lam, t, np.log1p(t), theta) - u3 * cum_w
        return w @ surv, w[:-1] @ surv[1:], pmf @ neg_h, np.abs(pmf * neg_h).sum()

    @pytest.mark.parametrize("entries", [256, model._CHUNK_ENTRIES])
    @pytest.mark.parametrize("theta", [1e-6, 0.05, 0.8, 5.0])
    def test_rows_match_their_one_row_series_bit_for_bit(self, monkeypatch,
                                                         entries, theta):
        """Every row of a chunk is its one-row chunk's value, bit for bit.
        The survivor series are also the 1-D products' values bit for bit;
        the brute-force one is a running sum where the 1-D product may take
        a BLAS dot, so it agrees to rounding."""
        lam = link_mean(self._dataset().X, np.array([1.3, 1.2])).lam
        monkeypatch.setattr(model, "_CHUNK_ENTRIES", entries)
        for chunk in model._pmf_chunks(lam, theta):
            series = _theta_series(lam, theta, chunk)
            for k, i in enumerate(chunk.rows):
                (alone,) = model._pmf_chunks(lam[i:i + 1], theta)
                one_row = _theta_series(lam[i:i + 1], theta, alone)[:, 0]
                assert tuple(series[:, k]) == tuple(one_row)
                a, b, brute, scale = self._one_dimensional_series(lam[i], theta)
                assert (series[0, k], series[1, k]) == (a, b)
                assert abs(series[2, k] - brute) <= 1e-13 * scale

    @pytest.mark.parametrize("theta", [1e-6, 0.05, 0.8, 5.0])
    def test_theta_element_independent_of_chunking(self, monkeypatch, theta):
        ds = self._dataset()
        p = Params(np.array([1.3, 1.2]), theta)
        info = expected_info(ds, p)
        report = info.truncation
        monkeypatch.setattr(model, "_CHUNK_ENTRIES", 256)
        again = expected_info(ds, p)
        assert np.array_equal(again.m, info.m) and again.truncation == report
        lam = link_mean(ds.X, p.beta).lam
        rows = [expected_trigamma_tail(lam_i, theta) for lam_i in lam]
        assert report.cutoffs == tuple(r.cutoff for r in rows)
        assert report.tail_bounds == tuple(r.tail_bound for r in rows)
        brute = sum(brute_force(lam_i, theta)[0] for lam_i in lam)
        assert report.brute_force_total == pytest.approx(brute, rel=1e-12)


class TestExpectedInfoBlocked:
    """expected_info is one pass over model._row_blocks: no link over more
    rows than a block, and the same report and theta element whatever the
    blocks."""

    def test_no_link_spans_more_than_a_block(self, monkeypatch):
        ds = simulate_dataset(5, 3 * model.BLOCK_ROWS + 5, [0.4, -0.3], 0.7)
        link = fisher.link_mean

        def one_block(X, beta, start=0):
            assert len(X) <= model.BLOCK_ROWS, f"a link over {len(X)} rows"
            return link(X, beta, start)

        monkeypatch.setattr(fisher, "link_mean", one_block)
        assert expected_info(ds, Params(np.array([0.4, -0.3]), 0.7)).m[-1, -1] > 0.0

    def test_large_mean_design_in_small_blocks(self, monkeypatch):
        ds = simulate_dataset(3, 300, [5.7, 0.3], 0.05)
        p = Params(np.array([5.7, 0.3]), 0.05)
        whole = expected_info(ds, p)
        monkeypatch.setattr(model, "BLOCK_ROWS", 64)
        blocked = expected_info(ds, p)
        assert blocked.truncation == whole.truncation
        assert blocked.m[-1, -1] == whole.m[-1, -1]
        np.testing.assert_array_equal(blocked.m[:-1, -1], 0.0)
        np.testing.assert_allclose(blocked.m[:-1, :-1], whole.m[:-1, :-1],
                                   rtol=1e-13, atol=0)


class TestObservedInfo:
    def test_symmetric(self, rng):
        ds, p = make_instance(rng)
        m = observed_info(ds, p).m
        np.testing.assert_allclose(m, m.T, atol=1e-12)

    def test_matches_finite_difference_hessian(self, rng):
        ds, p = make_instance(rng)
        k = ds.p + 1
        m = observed_info(ds, p).m

        def ll(vec):
            return loglik(ds, Params(vec[:-1], vec[-1]))

        x0 = np.concatenate([p.beta, [p.theta]])
        fd = np.empty((k, k))
        for i in range(k):
            for j in range(k):
                hi = 1e-4 * (1.0 + abs(x0[i]))
                hj = 1e-4 * (1.0 + abs(x0[j]))
                pp = x0.copy(); pp[i] += hi; pp[j] += hj
                pm = x0.copy(); pm[i] += hi; pm[j] -= hj
                mp = x0.copy(); mp[i] -= hi; mp[j] += hj
                mm = x0.copy(); mm[i] -= hi; mm[j] -= hj
                fd[i, j] = (ll(pp) - ll(pm) - ll(mp) + ll(mm)) / (4.0 * hi * hj)
        np.testing.assert_allclose(m, -fd, atol=1e-4 * (1 + np.abs(m).max()))

    def test_positive_definite_at_mle(self):
        ds = simulate_dataset(7, 800, [0.4, -0.2], 0.9)
        res = fit(ds)
        assert res.converged
        eigs = np.linalg.eigvalsh(res.info.m)
        assert eigs.min() > 0.0


class TestExpectedMatrixAssembly:
    def test_zero_cross_block_and_kind(self):
        ds, p = one_obs_dataset(1.0, 1.0)
        info = expected_info(ds, p)
        assert info.kind is InfoKind.EXPECTED
        np.testing.assert_array_equal(info.m[:-1, -1], 0.0)
        assert info.truncation is not None

    def test_observed_vs_expected_law_of_large_numbers(self):
        # At the generating parameters, the average observed theta-element
        # converges to the expected one.
        ds = simulate_dataset(99, 10_000, [0.6], 0.8)
        p = Params(np.array([0.6]), 0.8)
        obs = observed_info(ds, p).m[-1, -1]
        exp_el, _ = theta_element(ds, p)
        assert abs(obs - exp_el) / abs(exp_el) < 0.05
