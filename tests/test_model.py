import math

import numpy as np
import pytest
from scipy import stats

from nbmle import (
    Dataset,
    DomainError,
    LinearPredictorOverflow,
    Params,
    TruncationCapExceeded,
    link_mean,
    loglik,
    loglik_alpha,
    nb_pmf,
    nb_pmf_binomial_form,
    tail_prob,
    truncated_pmf_sum,
)
import nbmle.model as model
from nbmle.model import _pmf_chunks, _pmf_table
from conftest import make_instance


class TestDataset:
    def test_rejects_negative_counts(self):
        with pytest.raises(DomainError):
            Dataset(y=np.array([1, -1]), X=np.ones((2, 1)))

    def test_rejects_fractional_counts(self):
        with pytest.raises(DomainError):
            Dataset(y=np.array([1.5, 2.0]), X=np.ones((2, 1)))

    def test_rejects_more_columns_than_rows(self):
        with pytest.raises(DomainError):
            Dataset(y=np.array([1]), X=np.ones((1, 2)))

    def test_rejects_nonfinite_design(self):
        X = np.array([[1.0, np.inf], [1.0, 0.0]])
        with pytest.raises(DomainError):
            Dataset(y=np.array([0, 1]), X=X)

    def test_rejects_second_constant_column(self):
        X = np.array([[1.0, 2.0, 0.3], [1.0, 2.0, 1.0], [1.0, 2.0, -0.4]])
        with pytest.raises(DomainError):
            Dataset(y=np.array([0, 1, 2]), X=X)

    def test_params_validation(self):
        with pytest.raises(DomainError):
            Params(np.array([0.0]), 0.0)
        with pytest.raises(DomainError):
            Params(np.array([np.nan]), 1.0)
        assert Params(np.array([0.0]), 0.25).alpha == 4.0


class TestLinkMean:
    def test_zero_beta_gives_unit_means(self):
        X = np.random.default_rng(0).standard_normal((10, 3))
        lam = link_mean(X, np.zeros(3)).lam
        np.testing.assert_array_equal(lam, np.ones(10))

    def test_intercept_only_active(self):
        lam = link_mean(np.array([[1.0, 0.0]]), np.array([math.log(2.0), 5.0])).lam
        assert lam[0] == pytest.approx(2.0, rel=1e-15)

    def test_log_round_trip(self, rng):
        X = np.hstack([np.ones((30, 1)), rng.standard_normal((30, 2))])
        beta = rng.uniform(-1, 1, 3)
        lam = link_mean(X, beta).lam
        np.testing.assert_allclose(np.log(lam), X @ beta, atol=1e-12)

    def test_overflow_names_row(self):
        X = np.array([[1.0], [800.0]])
        with pytest.raises(LinearPredictorOverflow) as err:
            link_mean(X, np.array([1.0]))
        assert err.value.row == 1


class TestPmf:
    def test_geometric_special_cases(self):
        assert nb_pmf(0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-14)
        assert nb_pmf(1, 1.0, 1.0) == pytest.approx(0.25, rel=1e-14)

    def test_direct_substitution(self):
        assert nb_pmf(0, 1.0, 2.0) == pytest.approx(4.0 / 9.0, rel=1e-14)

    def test_in_unit_interval(self, rng):
        for _ in range(200):
            y = int(rng.integers(0, 40))
            lam = float(10 ** rng.uniform(-2, 1.5))
            alpha = float(10 ** rng.uniform(-1, 1.5))
            v = nb_pmf(y, lam, alpha)
            assert 0.0 < v <= 1.0

    def test_normalization_under_truncation_rule(self):
        for lam in (0.1, 1.0, 5.0, 20.0):
            for alpha in (0.3, 1.0, 2.0, 10.0):
                res = truncated_pmf_sum(lambda y: 1.0, lam, 1.0 / alpha)
                assert res.weight_sum >= 1.0 - 1e-9
                assert res.value == pytest.approx(res.weight_sum, abs=1e-15)


class TestBinomialForm:
    def test_zero_count(self):
        # r = 3/5, so (1-r)^2 = 0.16
        assert nb_pmf_binomial_form(0, 3.0, 2) == pytest.approx(0.16, rel=1e-13)

    def test_single_count(self):
        assert nb_pmf_binomial_form(1, 2.0, 2) == pytest.approx(0.25, rel=1e-13)

    def test_matches_gamma_form_for_integer_alpha(self, rng):
        for alpha in (1, 2, 3):
            for _ in range(40):
                y = int(rng.integers(0, 30))
                lam = float(10 ** rng.uniform(-1, 1))
                a = nb_pmf_binomial_form(y, lam, alpha)
                b = nb_pmf(y, lam, float(alpha))
                assert a == pytest.approx(b, rel=1e-12)

    def test_rejects_fractional_alpha(self):
        with pytest.raises(DomainError):
            nb_pmf_binomial_form(1, 1.0, 1.5)


class TestLoglik:
    def test_single_zero_count(self):
        ds = Dataset(y=np.array([0]), X=np.array([[1.0]]))
        p = Params(np.array([0.0]), 1.0)
        assert loglik(ds, p) == pytest.approx(-math.log(2.0), abs=1e-14)

    def test_matches_pmf_sum(self, rng):
        for _ in range(25):
            ds, p = make_instance(rng)
            lam = link_mean(ds.X, p.beta).lam
            direct = sum(
                math.log(nb_pmf(int(y), float(l), p.alpha))
                for y, l in zip(ds.y, lam)
            )
            assert loglik(ds, p) == pytest.approx(direct, abs=1e-10 * ds.n)

    def test_reparameterization_with_alpha_form(self, rng):
        for _ in range(100):
            ds, p = make_instance(rng)
            a = loglik(ds, p)
            b = loglik_alpha(ds, 1.0 / p.theta, p.beta)
            assert abs(a - b) <= 1e-10 * (1.0 + abs(a))

    def test_alpha_form_degenerate_case(self):
        ds = Dataset(y=np.array([0]), X=np.array([[1.0]]))
        assert loglik_alpha(ds, 1.0, np.array([0.0])) == pytest.approx(
            -math.log(2.0), abs=1e-14
        )

    def test_alpha_form_hand_value(self):
        # y=1, alpha=1, lam=1: 0 - 0 + 0 - 0 - 2 ln 2
        ds = Dataset(y=np.array([1]), X=np.array([[1.0]]))
        assert loglik_alpha(ds, 1.0, np.array([0.0])) == pytest.approx(
            -2.0 * math.log(2.0), abs=1e-14
        )

    def test_propagates_overflow(self):
        ds = Dataset(y=np.array([1, 2]), X=np.array([[1.0], [900.0]]))
        with pytest.raises(LinearPredictorOverflow):
            loglik(ds, Params(np.array([1.0]), 1.0))


class TestTailProb:
    def test_zero_index_is_one(self):
        assert tail_prob(0, 3.0, 0.7) == 1.0

    def test_geometric_closed_form(self):
        for j in range(12):
            assert tail_prob(j, 1.0, 1.0) == pytest.approx(2.0**-j, rel=1e-12)

    def test_monotone_nonincreasing(self, rng):
        for _ in range(20):
            lam = float(10 ** rng.uniform(-1, 1))
            theta = float(10 ** rng.uniform(-1, 1))
            probs = [tail_prob(j, lam, theta) for j in range(30)]
            assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_difference_is_pmf(self, rng):
        for _ in range(20):
            lam = float(10 ** rng.uniform(-1, 1))
            theta = float(10 ** rng.uniform(-1, 1))
            j = int(rng.integers(0, 20))
            diff = tail_prob(j, lam, theta) - tail_prob(j + 1, lam, theta)
            assert diff == pytest.approx(nb_pmf(j, lam, 1.0 / theta), abs=1e-12)


class TestTruncatedSum:
    def test_cutoff_past_moment_floor(self):
        res = truncated_pmf_sum(lambda y: 1.0, 5.0, 1.0)
        assert res.cutoff >= 5.0 + 10.0 * math.sqrt(5.0 * 6.0)

    def test_hard_cap_raises(self):
        with pytest.raises(TruncationCapExceeded):
            truncated_pmf_sum(lambda y: 1.0, 1.0, 1.0, eps_tail=1e-12, hard_cap=3)

    def test_mean_identity(self):
        res = truncated_pmf_sum(lambda y: float(y), 2.0, 0.5)
        assert res.value == pytest.approx(2.0, abs=1e-9)


class TestPmfTable:
    @pytest.mark.parametrize("theta", [1e-6, 0.2, 3.0])  # near-Poisson, alpha>1, alpha<1
    @pytest.mark.parametrize("lam", [0.3, 5.0, 120.0, 750.0])
    def test_tail_bound_covers_scipy_survivor(self, lam, theta):
        alpha = 1.0 / theta
        pmf, cutoff, bound = _pmf_table(lam, theta)
        assert len(pmf) == cutoff >= lam + 10.0 * math.sqrt(lam * (1.0 + theta * lam))
        assert bound < 1e-12
        assert bound >= stats.nbinom.sf(cutoff - 1, alpha, alpha / (alpha + lam))


class TestBatchedPmfTable:
    """Rows evaluated together, with a chunk cap small enough that chunks
    hold several rows and rows are doubled, against the one-row call."""

    LAM = np.concatenate([[1e-3, 2e3],
                          10 ** np.random.default_rng(5).uniform(-3, math.log10(2e3), 38)])

    @staticmethod
    def _passes(monkeypatch):
        """Shrink the chunk cap and record (rows, width, pending) per pass."""
        monkeypatch.setattr(model, "_CHUNK_ENTRIES", 256)
        passes = []
        block = model._pmf_block

        def recorded(rows, r, log_pmf0, starts, width, alpha, eps_tail):
            chunk, pending = block(rows, r, log_pmf0, starts, width, alpha, eps_tail)
            passes.append((rows.size, width, pending.size))
            return chunk, pending

        monkeypatch.setattr(model, "_pmf_block", recorded)
        return passes

    @staticmethod
    def _one_dimensional(lam, theta, eps_tail=1e-12):
        """The recurrence on one 1-D table, doubled from the floor until a
        count at or past the floor stops it: (pmf, cutoff, bound)."""
        alpha = 1.0 / theta
        r = lam / (lam + alpha)
        log_pmf0 = -alpha * math.log1p(lam / alpha)
        start = math.ceil(lam + 10.0 * math.sqrt(lam * (1.0 + theta * lam)))
        size = start + 1
        while True:
            y = np.arange(size, dtype=float)
            rho = r * (y + alpha) / (y + 1.0)
            pmf = np.exp(np.cumsum(np.concatenate(([log_pmf0], np.log(rho[:-1])))))
            room = 1.0 - np.maximum(r, rho[start:])
            hits = np.flatnonzero(pmf[start:] < eps_tail * room)
            if hits.size:
                k = int(hits[0])
                return pmf[:start + k], start + k, float(pmf[start + k] / room[k])
            size *= 2

    @pytest.mark.parametrize("theta", [1e-6, 0.05, 0.8, 5.0])
    def test_one_row_call_matches_the_1d_recurrence(self, theta):
        for lam in self.LAM:
            pmf, cutoff, bound = _pmf_table(lam, theta)
            ref_pmf, ref_cutoff, ref_bound = self._one_dimensional(lam, theta)
            assert (cutoff, bound) == (ref_cutoff, ref_bound)
            np.testing.assert_array_equal(pmf, ref_pmf)

    @pytest.mark.parametrize("theta", [1e-6, 0.05, 0.8, 5.0])
    def test_rows_match_the_one_row_call_bit_for_bit(self, monkeypatch, theta):
        passes = self._passes(monkeypatch)
        chunks = list(_pmf_chunks(self.LAM, theta))
        assert any(rows > 1 for rows, _, _ in passes)
        assert any(pending > 0 for _, _, pending in passes)
        seen = np.concatenate([c.rows for c in chunks])
        np.testing.assert_array_equal(np.sort(seen), np.arange(self.LAM.size))
        for c in chunks:
            assert c.pmf.flags.c_contiguous
            assert c.pmf.shape == (c.rows.size, c.cutoffs.max())
            for k, i in enumerate(c.rows):
                pmf, cutoff, bound = _pmf_table(self.LAM[i], theta)
                assert c.cutoffs[k] == cutoff
                assert c.bounds[k] == bound
                np.testing.assert_array_equal(c.pmf[k, :cutoff], pmf)
                assert not c.pmf[k, cutoff:].any()

    def test_floor_past_hard_cap_names_the_row(self):
        with pytest.raises(TruncationCapExceeded, match=r"lam=2000\.0, theta=5\.0"):
            list(_pmf_chunks(np.array([1.0, 2e3, 5.0]), 5.0, hard_cap=10_000))

    def test_cutoff_past_hard_cap_names_the_row(self, monkeypatch):
        # The floor of lam=2000 (46,724) is inside the cap, its cutoff is not.
        passes = self._passes(monkeypatch)
        with pytest.raises(TruncationCapExceeded, match=r"lam=2000\.0, theta=5\.0"):
            list(_pmf_chunks(np.array([1.0, 2e3, 5.0]), 5.0, hard_cap=100_000))
        assert max(width for _, width, _ in passes) == 100_001
