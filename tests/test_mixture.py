import math

import numpy as np
import pytest

from nbmle import (
    DomainError,
    QuadratureConvergenceError,
    mixture_pmf,
    nb_mean_bruteforce,
    nb_pmf,
)
import nbmle.mixture
from nbmle.mixture import _POISSON_LAM_MAX, sample_counts
from nbmle.model import BLOCK_ROWS
from oracles import gamma_density, nb_variance_bruteforce, poisson_pmf


def adaptive_integral(f, lo, hi, tol=1e-10):
    """Simple bisection quadrature used as the plain oracle in these tests."""
    nodes, weights = np.polynomial.legendre.leggauss(10)

    def panel(a, b):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        return half * sum(w * f(mid + half * t) for w, t in zip(weights, nodes))

    stack = [(lo, hi, panel(lo, hi))]
    total = 0.0
    for _ in range(20000):
        if not stack:
            return total
        a, b, whole = stack.pop()
        mid = 0.5 * (a + b)
        left, right = panel(a, mid), panel(mid, b)
        if abs(whole - (left + right)) < tol or (b - a) < 1e-13:
            total += left + right
        else:
            stack.append((a, mid, left))
            stack.append((mid, b, right))
    raise RuntimeError("oracle quadrature did not converge")


class TestGammaDensity:
    def test_exponential_special_case(self):
        for u in (0.1, 1.0, 3.0):
            assert gamma_density(u, 1.0) == pytest.approx(math.exp(-u), rel=1e-13)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 10.0])
    def test_normalization(self, alpha):
        # u = t^2 regularises the u^(alpha-1) endpoint for alpha in [1/2, 1).
        total = adaptive_integral(
            lambda t: 2.0 * t * gamma_density(t * t, alpha), 1e-14, math.sqrt(80.0)
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 10.0])
    def test_unit_mean(self, alpha):
        mean = adaptive_integral(
            lambda t: 2.0 * t**3 * gamma_density(t * t, alpha),
            1e-14, math.sqrt(80.0),
        )
        assert mean == pytest.approx(1.0, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_density(-1.0, 1.0)
        with pytest.raises(DomainError):
            gamma_density(1.0, 0.0)


class TestPoissonPmf:
    def test_known_values(self):
        assert poisson_pmf(0, 2.0) == pytest.approx(math.exp(-2.0), rel=1e-14)
        assert poisson_pmf(1, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_normalization(self):
        for lam in (0.3, 2.0, 9.0):
            cutoff = int(lam + 10 * math.sqrt(lam)) + 10
            total = sum(poisson_pmf(y, lam) for y in range(cutoff))
            assert total >= 1.0 - 1e-10


class TestMixturePmf:
    def test_zero_count_closed_form(self):
        assert mixture_pmf(0, 1.0, 2.0) == pytest.approx(4.0 / 9.0, abs=1e-8)

    def test_matches_nb_pmf(self):
        assert mixture_pmf(3, 2.0, 1.5) == pytest.approx(
            nb_pmf(3, 2.0, 1.5), abs=1e-8
        )

    def test_sweep_matches_closed_form(self):
        for lam in (0.5, 1.0, 5.0):
            for alpha in (1e-3, 5e-3, 0.5, 1.0, 2.0, 10.0):
                for y in range(11):
                    assert mixture_pmf(y, lam, alpha) == pytest.approx(
                        nb_pmf(y, lam, alpha), abs=1e-8
                    )

    def test_poisson_limit_for_huge_shape(self):
        for y in range(6):
            assert mixture_pmf(y, 1.0, 1e4) == pytest.approx(
                poisson_pmf(y, 1.0), abs=1e-3
            )

    def test_huge_shape_stops_at_rounding_noise(self):
        # The integrand's log terms reach alpha*ln(alpha) ~ 1e13, so two
        # successive sums only agree to the rounding of those terms.
        for y, lam, alpha in ((0, 2.0, 1e10), (20, 20.0, 1e9), (5, 5.0, 1e12)):
            assert mixture_pmf(y, lam, alpha) == pytest.approx(
                nb_pmf(y, lam, alpha), abs=1e-3
            )

    def test_nonconvergence_raises_with_achieved_tolerance(self, monkeypatch):
        monkeypatch.setattr(nbmle.mixture, "_REL_TOL", 1e-14)
        monkeypatch.setattr(nbmle.mixture, "_MAX_HALVINGS", 1)
        with pytest.raises(QuadratureConvergenceError) as err:
            mixture_pmf(8, 5.0, 0.5)
        assert err.value.achieved_tol > 0.0


class TestBruteforceMoments:
    def test_mean_geometric(self):
        assert nb_mean_bruteforce(1.0, 1.0) == pytest.approx(1.0, abs=1e-8)

    def test_mean_generic(self):
        assert nb_mean_bruteforce(2.5, 1.7) == pytest.approx(2.5, abs=1e-6)

    def test_mean_near_degenerate(self):
        assert nb_mean_bruteforce(0.01, 5.0) == pytest.approx(0.01, abs=1e-8)

    def test_mean_sweep(self):
        for lam in (0.5, 1.0, 5.0):
            for alpha in (0.5, 1.0, 2.0, 10.0):
                assert nb_mean_bruteforce(lam, alpha) == pytest.approx(
                    lam, abs=1e-6
                )

    def test_variance_geometric(self):
        assert nb_variance_bruteforce(1.0, 1.0) == pytest.approx(2.0, abs=1e-6)

    def test_variance_generic(self):
        assert nb_variance_bruteforce(2.0, 4.0) == pytest.approx(3.0, abs=1e-6)

    def test_variance_poisson_limit(self):
        assert nb_variance_bruteforce(1.5, 1e6) == pytest.approx(1.5, abs=1e-3)


def sample_nb(lam, theta, seed, n):
    """n NB2 draws of one mean from the generator of seed."""
    return sample_counts(np.full(n, lam), theta, np.random.default_rng(seed))


class TestSampler:
    def test_reproducible(self):
        a = sample_nb(2.0, 0.5, seed=123, n=1000)
        b = sample_nb(2.0, 0.5, seed=123, n=1000)
        np.testing.assert_array_equal(a, b)
        c = sample_nb(2.0, 0.5, seed=124, n=1000)
        assert not np.array_equal(a, c)

    def test_sample_mean_within_clt_band(self):
        n = 1_000_000
        draws = sample_nb(2.0, 0.5, seed=7, n=n)
        var = nb_variance_bruteforce(2.0, 2.0)  # alpha = 1/theta = 2
        band = 4.0 * math.sqrt(var / n)
        assert abs(draws.mean() - 2.0) < band

    def test_sample_variance_matches_nb2(self):
        draws = sample_nb(2.0, 0.5, seed=7, n=1_000_000)
        assert draws.var() == pytest.approx(2.0 * (1 + 0.5 * 2.0), rel=0.05)

    def test_empirical_pmf_at_zero(self):
        n = 200_000
        draws = sample_nb(1.5, 0.8, seed=11, n=n)
        p0 = nb_pmf(0, 1.5, 1.0 / 0.8)
        se = math.sqrt(p0 * (1 - p0) / n)
        assert abs((draws == 0).mean() - p0) < 4.0 * se

    def test_vector_means(self):
        rng = np.random.default_rng(5)
        lam = np.array([0.5, 1.0, 4.0])
        draws = sample_counts(np.tile(lam, 20000), 0.6, rng)
        by_group = draws.reshape(20000, 3).mean(axis=0)
        np.testing.assert_allclose(by_group, lam, rtol=0.05)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_nb(0.0, 1.0, seed=1, n=10)

    def test_blocks_draw_one_call_stream(self):
        """Counts drawn block by block over the means' own buffer equal one
        rng.poisson call over all the means, from a twin generator."""
        n, theta = 3 * BLOCK_ROWS + 5, 0.5
        lam = np.exp(np.random.default_rng(3).standard_normal(n))
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        counts = sample_counts(lam, theta, rng)
        mean = twin.gamma(shape=1.0 / theta, scale=theta, size=n) * lam
        expected = twin.poisson(mean)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, expected)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_sampler_limit_checked_before_any_count(self):
        """A Poisson mean past the sampler's limit in the last row is refused
        after the Gamma draws and before the first count is drawn."""
        n, theta = 3 * BLOCK_ROWS + 5, 0.5
        lam = np.ones(n)
        lam[-1] = 1e300
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        with pytest.raises(DomainError, match="exceeds the sampler's limit"):
            sample_counts(lam, theta, rng)
        mean = twin.gamma(shape=1.0 / theta, scale=theta, size=n) * lam
        assert mean[-1] > _POISSON_LAM_MAX
        assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("lam", [2.0, [[1.0, 2.0]], np.ones((3, 1))])
    def test_refuses_means_that_are_not_one_dimensional(self, lam):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="one-dimensional"):
            sample_counts(lam, 0.5, rng)
        assert rng.bit_generator.state == state
