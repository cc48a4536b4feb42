import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sps

from nbmle import (
    DomainError,
    digamma,
    ln_gamma,
    sum_log_shifted,
    sum_recip_shifted,
    sum_recip_sq_shifted,
    sum_trigamma_weights,
    trigamma,
)
from nbmle.special import LARGE_COUNT_SWITCH, _finite_sums

# ln Gamma(1/2) = ln sqrt(pi), an independent closed form.
LN_GAMMA_HALF = 0.5723649429247001
EULER_MASCHERONI = 0.5772156649015329


class TestLnGamma:
    def test_factorial_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)
        assert ln_gamma(11.0) == pytest.approx(math.log(math.factorial(10)), rel=1e-13)

    def test_half_integer_closed_form(self):
        assert ln_gamma(0.5) == pytest.approx(LN_GAMMA_HALF, rel=1e-12)

    @staticmethod
    def _wide_range(rng):
        return np.concatenate([
            10.0 ** rng.uniform(-3, 6, size=3000),
            rng.uniform(1e-3, 60.0, size=3000),
        ])

    def test_against_scipy_wide_range(self, rng):
        for x in self._wide_range(rng):
            np.testing.assert_allclose(
                ln_gamma(float(x)), sps.gammaln(x), rtol=1e-12, atol=1e-13
            )

    def test_within_a_few_ulps_of_scipy(self, rng):
        # Ten times tighter than the test above, dense over (0.5, 30) where
        # ln Gamma crosses its roots at 1 and 2.
        xs = np.concatenate([self._wide_range(rng), np.linspace(0.5, 30, 2000)])
        ref = sps.gammaln(xs)
        got = np.array([ln_gamma(float(x)) for x in xs])
        bad = np.abs(got - ref) > 2e-15 * (1.0 + np.abs(ref))
        assert not bad.any(), xs[bad][:10]

    def test_domain(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                ln_gamma(bad)

    def test_past_the_double_range_is_inf(self):
        # ln Gamma(1e306) ~ 7e308 is past the largest double: inf, not an
        # OverflowError, so gamma-form differences overflow to inf or nan
        # and the callers' range checks name the input.
        assert ln_gamma(1e306) == math.inf
        assert ln_gamma(1e305) == pytest.approx(sps.gammaln(1e305), rel=1e-15)


class TestDigamma:
    @given(st.floats(min_value=1e-2, max_value=1e4))
    @settings(max_examples=300, deadline=None)
    def test_recurrence(self, x):
        lhs = digamma(x + 1.0) - digamma(x)
        assert abs(lhs - 1.0 / x) <= 1e-12 * (1.0 + 1.0 / x)

    def test_recurrence_bulk(self, rng):
        xs = 10.0 ** rng.uniform(-2, 4, size=1000)
        for x in xs:
            x = float(x)
            assert abs(digamma(x + 1.0) - digamma(x) - 1.0 / x) \
                <= 1e-12 * (1.0 + 1.0 / x)

    def test_at_one_vs_finite_difference_of_ln_gamma(self):
        h = 1e-6
        fd = (ln_gamma(1.0 + h) - ln_gamma(1.0 - h)) / (2.0 * h)
        assert digamma(1.0) == pytest.approx(fd, abs=1e-8)

    def test_at_one_is_minus_euler(self):
        assert digamma(1.0) == pytest.approx(-EULER_MASCHERONI, abs=1e-13)

    def test_unit_step(self):
        assert digamma(2.0) - digamma(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_against_scipy(self, rng):
        for x in 10.0 ** rng.uniform(-3, 5, size=2000):
            np.testing.assert_allclose(digamma(float(x)), sps.psi(x),
                                       rtol=1e-12, atol=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(-0.5)


class TestTrigamma:
    @given(st.floats(min_value=1e-2, max_value=1e4))
    @settings(max_examples=300, deadline=None)
    def test_recurrence(self, x):
        lhs = trigamma(x + 1.0) - trigamma(x)
        assert abs(lhs + 1.0 / (x * x)) <= 1e-12 * (1.0 + 1.0 / (x * x))

    def test_recurrence_bulk(self, rng):
        xs = 10.0 ** rng.uniform(-2, 4, size=1000)
        for x in xs:
            x = float(x)
            assert abs(trigamma(x + 1.0) - trigamma(x) + 1.0 / (x * x)) \
                <= 1e-12 * (1.0 + 1.0 / (x * x))

    def test_at_one_vs_finite_difference_of_digamma(self):
        h = 1e-5
        fd = (digamma(1.0 + h) - digamma(1.0 - h)) / (2.0 * h)
        assert trigamma(1.0) == pytest.approx(fd, abs=1e-6)

    def test_at_one_is_pi_sq_over_six(self):
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-13)

    def test_two_step_difference(self):
        # Psi'(3) - Psi'(1) = -(1/1 + 1/4), by the direct squared-reciprocal sum.
        assert trigamma(3.0) - trigamma(1.0) == pytest.approx(-1.25, abs=1e-12)

    def test_against_scipy(self, rng):
        for x in 10.0 ** rng.uniform(-3, 5, size=2000):
            np.testing.assert_allclose(trigamma(float(x)), sps.polygamma(1, x),
                                       rtol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            trigamma(0.0)
        with pytest.raises(DomainError):
            trigamma(1e-200)


class TestFiniteSums:
    def test_empty_sums_are_exactly_zero(self):
        assert sum_log_shifted(0, 3.7) == 0.0
        assert sum_recip_shifted(0, 1.0) == 0.0
        assert sum_recip_sq_shifted(0, 1.0) == 0.0
        assert sum_trigamma_weights(0, 1.0) == 0.0

    def test_log_sum_single_term(self):
        assert sum_log_shifted(1, 2.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_log_sum_equals_gamma_ratio(self):
        assert sum_log_shifted(3, 1.0) == pytest.approx(math.log(6.0), rel=1e-14)
        assert sum_log_shifted(3, 1.0) == pytest.approx(
            ln_gamma(4.0) - ln_gamma(1.0), abs=1e-12
        )

    @given(st.integers(min_value=0, max_value=300),
           st.floats(min_value=1e-2, max_value=1e3))
    @settings(max_examples=200, deadline=None)
    def test_log_sum_gamma_identity_property(self, y, a):
        lhs = sum_log_shifted(y, a)
        rhs = ln_gamma(y + a) - ln_gamma(a)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))

    def test_recip_sum_values(self):
        assert sum_recip_shifted(3, 1.0) == pytest.approx(11.0 / 6.0, rel=1e-14)
        assert sum_recip_shifted(2, 0.5) == pytest.approx(5.0 / 6.0, rel=1e-14)

    def test_recip_sum_equals_digamma_difference(self):
        for y in (0, 1, 2, 5, 10, 50):
            for theta in (0.1, 0.5, 1.0, 2.0, 10.0):
                a = 1.0 / theta
                lhs = sum_recip_shifted(y, theta)
                rhs = digamma(y + a) - digamma(a)
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))

    def test_recip_sq_values(self):
        assert sum_recip_sq_shifted(2, 1.0) == pytest.approx(1.25, rel=1e-14)
        assert sum_recip_sq_shifted(5, 2.3) == pytest.approx(
            -(trigamma(7.3) - trigamma(2.3)), abs=1e-10
        )

    def test_recip_sq_equals_trigamma_difference(self):
        for y in (0, 1, 2, 5, 10, 50):
            for a in (0.1, 0.5, 1.0, 2.0, 10.0):
                lhs = sum_recip_sq_shifted(y, a)
                rhs = -(trigamma(y + a) - trigamma(a))
                assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))

    def test_trigamma_weights_value(self):
        assert sum_trigamma_weights(2, 1.0) == pytest.approx(1.75, rel=1e-14)

    def test_trigamma_weights_decomposition(self):
        # (2j+u)/(j+u)^2 = 2/(j+u) - u/(j+u)^2 with u = 1/theta
        for y, theta in ((4, 0.7), (10, 2.0), (50, 0.1), (3, 10.0)):
            u = 1.0 / theta
            lhs = sum_trigamma_weights(y, theta)
            rhs = 2.0 * sum_recip_shifted(y, theta) - u * sum_recip_sq_shifted(y, u)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_large_count_switch_consistent(self):
        # Above the switch the gamma-difference forms take over; equality
        # invariants make that exact up to rounding.
        y = 1_500_000
        assert sum_log_shifted(y, 2.0) == pytest.approx(
            ln_gamma(y + 2.0) - ln_gamma(2.0), rel=1e-12
        )
        assert sum_recip_shifted(y, 1.0) == pytest.approx(
            digamma(y + 1.0) - digamma(1.0), rel=1e-12
        )

    def test_count_domain(self):
        with pytest.raises(DomainError):
            sum_log_shifted(-1, 1.0)
        with pytest.raises(DomainError):
            sum_recip_shifted(2.5, 1.0)
        with pytest.raises(DomainError):
            sum_trigamma_weights(1, 0.0)


def _loop_sums(kind, max_y, a):
    """Running finite sums over j < y for y = 0..max_y, one term at a time.

    np.log, not math.log: the two may differ in the last bit, and the
    kernel evaluates its logs with numpy.
    """
    out, total = [], 0.0
    for j in range(max_y + 1):
        out.append(total)
        j = float(j)
        d = j + a
        if kind == "log":
            total += float(np.log(d))
        elif kind == "recip":
            total += 1.0 / d
        elif kind == "recip_sq":
            total += 1.0 / (d * d)
        else:
            total += (2.0 * j + a) / (d * d)
    return np.array(out)


KINDS = ("log", "recip", "recip_sq", "weights")


class TestFiniteSumKernel:
    @pytest.mark.parametrize("a", [0.01, 0.5, 1.0, 7.3, 1e3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_bit_identical_to_loop(self, kind, a):
        y = np.arange(301)
        got = _finite_sums(y, a, kind)
        np.testing.assert_array_equal(got, _loop_sums(kind, 300, a))
        # Any order and repeats read the same table.
        perm = np.random.default_rng(3).permutation(np.repeat(y, 2))
        np.testing.assert_array_equal(_finite_sums(perm, a, kind), got[perm])

    @pytest.mark.parametrize("a", [0.01, 0.5, 1.0, 7.3, 1e3])
    def test_public_sums_are_the_one_count_case(self, a):
        theta = 1.0 / a
        u = 1.0 / theta
        y = np.arange(301)
        public = {
            "log": lambda k: sum_log_shifted(k, a),
            "recip": lambda k: sum_recip_shifted(k, theta),
            "recip_sq": lambda k: sum_recip_sq_shifted(k, a),
            "weights": lambda k: sum_trigamma_weights(k, theta),
        }
        shift = {"log": a, "recip": u, "recip_sq": a, "weights": u}
        for kind in KINDS:
            values = [public[kind](int(k)) for k in y]
            assert all(isinstance(v, float) for v in values)
            np.testing.assert_array_equal(values, _finite_sums(y, shift[kind], kind))

    @pytest.mark.parametrize("a", [0.05, 0.5, 7.3, 1e3])
    def test_mixed_large_counts_against_scipy(self, a):
        y = np.array([0, 1, 2, 7, 300, 4_000, LARGE_COUNT_SWITCH,
                      LARGE_COUNT_SWITCH + 1, 3_000_000, 2**40, 7])
        recip = sps.psi(y + a) - sps.psi(a)
        neg_sq = sps.polygamma(1, y + a) - sps.polygamma(1, a)
        expected = {
            "log": sps.gammaln(y + a) - sps.gammaln(a),
            "recip": recip,
            "recip_sq": -neg_sq,
            "weights": 2.0 * recip + a * neg_sq,
        }
        for kind in KINDS:
            np.testing.assert_allclose(_finite_sums(y, a, kind), expected[kind],
                                       rtol=1e-12, atol=0.0, err_msg=kind)

    def test_empty_count_array(self):
        for kind in KINDS:
            assert _finite_sums(np.zeros(0, dtype=np.int64), 1.0, kind).shape == (0,)
