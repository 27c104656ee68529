"""Closed-form power-law-process inference: likelihood, MLEs, posteriors."""

import math

import numpy as np
import pytest
import mpmath
from hypothesis import given, settings, strategies as st
from scipy import integrate
from scipy.special import gammainc, gammaincc, gammaincinv
from scipy.stats import gamma as gamma_dist

from frailplp.data import DatasetError, FailureDataset, ObservationDesign, summarize
from frailplp.plp import (
    PlpParams,
    PriorConfig,
    GammaMarginal,
    ImproperPosteriorError,
    _gamma_pq,
    mle,
    parameter_names,
    classic_mle,
    posterior,
    bayes_estimates,
    check_duane,
    duane_points,
)
from frailplp.simulate import SimScenario, simulate

from conftest import make_dataset


def rate(params, cause, t, T, z=1.0):
    """Cause-specific failure rate z * beta_q * alpha_q * t^(beta_q - 1) * T^(-beta_q)."""
    b = params.beta[cause - 1]
    a = params.alpha[cause - 1]
    return z * b * a * t ** (b - 1.0) * T ** (-b)


def summary_log_likelihood(params, z, summary):
    """Joint log-likelihood of all systems given frailties z, from the summary alone.

    A cause-q failure of system j at time t adds log z_j - (beta_q - 1) log(T / t)
    + log(beta_q alpha_q / T) and each system the exposure -z_j * sum_q alpha_q,
    so the times enter the exact total only through the log-ratio sums S_q.
    """
    n_jq = summary.n_jq
    per_cause = (
        n_jq.sum(axis=0) * np.log(params.beta * params.alpha / summary.design.T)
        - (params.beta - 1.0) * summary.log_ratio_sums
    )
    return float(n_jq.sum(axis=1) @ np.log(z) + per_cause.sum() - z.sum() * params.alpha.sum())


class TestIntensityAndMean:
    """The per-event rate that the likelihood oracle below integrates."""

    def test_unit_elasticity_gives_constant_rate(self):
        p = PlpParams(beta=np.array([1.0]), alpha=np.array([5.0]))
        assert rate(p, 1, 10.0, T=20.0, z=1.0) == pytest.approx(0.25)
        assert rate(p, 1, 0.5, T=20.0, z=1.0) == pytest.approx(0.25)

    def test_frailty_scales_rate_multiplicatively(self):
        p = PlpParams(beta=np.array([1.3]), alpha=np.array([5.0]))
        base = rate(p, 1, 10.0, T=20.0, z=1.0)
        assert rate(p, 1, 10.0, T=20.0, z=2.5) == pytest.approx(2.5 * base)

    def test_rate_increases_iff_elasticity_above_one(self):
        grow = PlpParams(beta=np.array([1.5]), alpha=np.array([5.0]))
        decay = PlpParams(beta=np.array([0.5]), alpha=np.array([5.0]))
        assert rate(grow, 1, 15.0, T=20.0) > rate(grow, 1, 5.0, T=20.0)
        assert rate(decay, 1, 15.0, T=20.0) < rate(decay, 1, 5.0, T=20.0)

    def test_integrated_rate_equals_expected_count(self):
        # alpha_q is the expected number of cause-q failures per unit-frailty
        # system: the rate integrates to z * alpha_q over the window.
        p = PlpParams(beta=np.array([1.7, 0.6]), alpha=np.array([5.0, 13.33]))
        for q, z in ((1, 1.0), (2, 2.0)):
            total, _ = integrate.quad(lambda t: rate(p, q, t, T=20.0, z=z), 1e-12, 20.0)
            assert total == pytest.approx(z * p.alpha[q - 1], rel=1e-6)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PlpParams(beta=np.array([1.0, 2.0]), alpha=np.array([1.0]))
        with pytest.raises(ValueError):
            PlpParams(beta=np.array([-1.0]), alpha=np.array([1.0]))


class TestLogLikelihood:
    """summarize's (n_jq, log_ratio_sums) give the exact NHPP log-likelihood."""

    def _oracle(self, params, z, data):
        """Independent NHPP likelihood: product of event rates times the
        exponential of the numerically integrated total rate per system."""
        d = data.design
        total = 0.0
        events = zip(data.system_id.tolist(), data.cause.tolist(), data.time.tolist())
        for j, q, t in events:
            total += math.log(rate(params, q, t, d.T, z=z[j - 1]))
        for j in range(1, d.m + 1):
            for q in range(1, d.K + 1):
                cum, _ = integrate.quad(
                    lambda t: rate(params, q, t, d.T, z=z[j - 1]), 1e-12, d.T
                )
                total -= cum
        return total

    def test_matches_numerical_nhpp_likelihood(self):
        data = make_dataset(
            T=20.0,
            m=3,
            K=2,
            events=[(1, 1, 2.0), (1, 2, 15.0), (2, 1, 8.0), (3, 2, 19.0), (3, 1, 1.0)],
        )
        params = PlpParams(beta=np.array([1.3, 0.8]), alpha=np.array([2.0, 1.5]))
        z = np.array([0.5, 1.0, 2.2])
        assert summary_log_likelihood(params, z, summarize(data)) == pytest.approx(
            self._oracle(params, z, data), rel=1e-8
        )

    def test_unit_frailty_is_multiplicative_identity(self):
        data = make_dataset(T=20.0, m=2, K=1, events=[(1, 1, 3.0), (2, 1, 11.0)])
        params = PlpParams(beta=np.array([0.9]), alpha=np.array([4.0]))
        ones = np.ones(2)
        assert summary_log_likelihood(params, ones, summarize(data)) == pytest.approx(
            self._oracle(params, ones, data), rel=1e-8
        )

    def test_frailty_enters_only_through_counts_and_exposure(self):
        # L(theta, z) / L(theta, 1) = prod z_j^{n_j} * exp(-(sum z_j - m) sum alpha)
        data = make_dataset(
            T=20.0, m=3, K=2, events=[(1, 1, 2.0), (1, 2, 15.0), (2, 1, 8.0)]
        )
        params = PlpParams(beta=np.array([1.3, 0.8]), alpha=np.array([2.0, 1.5]))
        z = np.array([0.4, 1.7, 0.9])
        s = summarize(data)
        expected_shift = float(
            np.sum(s.n_j * np.log(z)) - (z.sum() - 3) * params.alpha.sum()
        )
        shift = summary_log_likelihood(params, z, s) - summary_log_likelihood(params, np.ones(3), s)
        assert shift == pytest.approx(expected_shift, rel=1e-10)
        # and the oracle agrees, so the shift is not one of the summary form alone
        oracle_shift = self._oracle(params, z, data) - self._oracle(params, np.ones(3), data)
        assert oracle_shift == pytest.approx(expected_shift, rel=1e-8)


class TestMle:
    def test_single_record_at_t_over_e(self):
        T = 20.0
        data = make_dataset(T=T, m=1, events=[(1, 1, T / math.e)])
        assert mle(summarize(data))[0] == pytest.approx(1.0)

    def test_two_records_at_exp_minus_two(self):
        T = 20.0
        t = T * math.exp(-2.0)
        data = make_dataset(T=T, m=1, events=[(1, 1, t), (1, 1, t * (1 + 1e-12))])
        assert mle(summarize(data))[0] == pytest.approx(0.5, rel=1e-9)

    def test_cause_without_failures_raises(self):
        data = make_dataset(T=20.0, m=1, K=2, events=[(1, 1, 5.0)])
        with pytest.raises(ImproperPosteriorError):
            mle(summarize(data))

    def test_consistency_on_large_sample(self):
        scen = SimScenario(
            design=ObservationDesign(T=20.0, m=400, K=2),
            true_params=PlpParams(beta=np.array([1.2, 0.7]), alpha=np.array([5.0, 13.33])),
            eta=0.0,
            seed=1,
        )
        data, _ = simulate(scen)
        est = mle(summarize(data))
        assert est == pytest.approx([1.2, 0.7], rel=0.05)

    def test_classic_single_system_estimates(self):
        T = 20.0
        # three failures placed so that sum log(T/t) = 3 exactly
        data = make_dataset(
            T=T, m=1, events=[(1, 1, T / math.e), (1, 1, T * math.exp(-0.5)),
                              (1, 1, T * math.exp(-1.5))]
        )
        beta_hat, mu_hat = classic_mle(summarize(data))
        assert beta_hat == pytest.approx(1.0)
        assert mu_hat == pytest.approx(T / 3.0)

    def test_classic_requires_single_system_single_cause(self):
        data = make_dataset(T=20.0, m=2, events=[(1, 1, 5.0)])
        with pytest.raises(ValueError):
            classic_mle(summarize(data))


class TestGammaMarginal:
    def test_moments(self):
        g = GammaMarginal(shape=4.0, rate=2.0)
        assert g.mean == pytest.approx(2.0)
        assert g.sd == pytest.approx(1.0)

    def test_ppf_matches_reference_distribution(self):
        g = GammaMarginal(shape=3.7, rate=1.9)
        for p in (0.025, 0.5, 0.975):
            assert g.ppf(p) == pytest.approx(
                gamma_dist.ppf(p, a=3.7, scale=1 / 1.9), rel=1e-10
            )

    def test_exponential_median(self):
        g = GammaMarginal(shape=1.0, rate=3.0)
        assert g.ppf(0.5) == pytest.approx(math.log(2.0) / 3.0)

    @settings(max_examples=50, deadline=None)
    @given(
        shape=st.floats(0.5, 50.0),
        rate=st.floats(0.1, 50.0),
        level=st.floats(0.5, 0.99),
    )
    def test_interval_nested_in_wider_level(self, shape, rate, level):
        g = GammaMarginal(shape=shape, rate=rate)
        lo, hi = g.interval(level)
        lo2, hi2 = g.interval(min(level + 0.005, 0.995))
        assert lo > 0 and lo < hi
        assert lo2 <= lo and hi2 >= hi


SHAPES = np.concatenate([np.geomspace(0.5, 1e5, 23), [1.0, 2.0, 3.7, 9.99, 10.0, 10.01, 45_000.0]])
PROBS = np.concatenate([np.geomspace(1e-12, 0.5, 20), 1.0 - np.geomspace(1e-12, 0.5, 20)[:-1]])


def _rel(a, b):
    return np.abs(np.asarray(a) / np.asarray(b) - 1.0)


class TestIncompleteGamma:
    """The numpy incomplete gamma and its inverse against reference libraries."""

    def test_ppf_matches_gammaincinv_on_grid(self):
        for shape in SHAPES:
            x = GammaMarginal(shape=shape, rate=1.0).ppf(PROBS)
            assert _rel(x, gammaincinv(shape, PROBS)).max() <= 1e-13, shape

    @settings(max_examples=200, deadline=None)
    @given(
        log_shape=st.floats(math.log(0.5), math.log(1e5)),
        p=st.floats(1e-12, 1.0 - 1e-12),
        rate=st.floats(0.01, 100.0),
    )
    def test_ppf_matches_gammaincinv(self, log_shape, p, rate):
        shape = math.exp(log_shape)
        x = GammaMarginal(shape=shape, rate=rate).ppf(p)
        assert _rel(x * rate, gammaincinv(shape, p)) <= 1e-13

    def test_cdf_sf_match_gammainc_on_grid(self):
        # _gamma_pq's P and Q score the harness's interval coverage.  scipy's
        # own P and Q drift by up to ~4e-13 on this grid (its log prefactor
        # a log x - x - lgamma(a) cancels), so the 1e-13 check is against
        # 30-digit mpmath on a subgrid and scipy gets a 1e-12 band.
        for shape in SHAPES:
            x = gammaincinv(shape, PROBS)
            p, q, _ = _gamma_pq(shape, x)
            assert _rel(p, gammainc(shape, x)).max() <= 1e-12, shape
            assert _rel(q, gammaincc(shape, x)).max() <= 1e-12, shape
        with mpmath.workdps(30):
            for shape in SHAPES[::3]:
                x = gammaincinv(shape, PROBS[::2])
                lower = np.array([float(mpmath.gammainc(shape, 0, v, regularized=True)) for v in x])
                upper = np.array([float(mpmath.gammainc(shape, v, mpmath.inf, regularized=True)) for v in x])
                p, q, _ = _gamma_pq(shape, x)
                assert _rel(p, lower).max() <= 1e-13, shape
                assert _rel(q, upper).max() <= 1e-13, shape
        p, q, _ = _gamma_pq(3.7, 0.0)
        assert (p[0], q[0]) == (0.0, 1.0)

    def test_ppf_endpoints(self):
        g = GammaMarginal(shape=2.5, rate=3.0)
        assert g.ppf(0.0) == 0.0
        assert g.ppf(1.0) == math.inf
        assert np.shape(g.ppf(0.3)) == ()

    @pytest.mark.parametrize("shape", [0.05, 0.2])
    def test_small_shape_quantile_finite_and_monotone(self, shape):
        # n_q + 1 - zeta can be any positive number, so the beta marginal's
        # shape reaches well below the range where scipy is compared at 1e-13.
        p = np.concatenate([np.geomspace(1e-12, 0.5, 200), 1.0 - np.geomspace(1e-12, 0.5, 200)[::-1]])
        x = GammaMarginal(shape=shape, rate=1.0).ppf(p)
        assert np.all(np.isfinite(x)) and np.all(np.diff(x) >= 0)
        assert _rel(x, gammaincinv(shape, p)).max() <= 1e-12

    def test_small_shape_small_p_start(self):
        # Wilson-Hilferty goes negative here; the (p Gamma(a+1))^(1/a) start
        # keeps the iteration on the right root.
        x = GammaMarginal(shape=3.7, rate=1.0).ppf(1.4e-8)
        assert _rel(x, gammaincinv(3.7, 1.4e-8)) <= 1e-13


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


class TestArrayMarginal:
    """An array of marginals gives each entry's scalar result bit for bit."""

    SHAPES = np.concatenate([np.geomspace(0.05, 1e5, 41), [1.0, 2.0, 9.99, 10.0, 10.01]])
    RATES = np.random.default_rng(3).uniform(0.01, 100.0, SHAPES.size)
    # 0 and 1, both tails down to 1e-12, the median and the 95% endpoints
    PROBS = np.concatenate([
        [0.0, 1.0, 0.5, 0.025, 0.975],
        np.geomspace(1e-12, 0.4, 12),
        1.0 - np.geomspace(1e-12, 0.4, 12),
    ])

    def scalar_ppf(self, p):
        return [GammaMarginal(shape=a, rate=b).ppf(p) for a, b in zip(self.SHAPES, self.RATES)]

    def test_ppf_at_each_probability(self):
        g = GammaMarginal(shape=self.SHAPES, rate=self.RATES)
        for p in self.PROBS:
            assert bits(g.ppf(p)) == bits(self.scalar_ppf(p)), p

    def test_ppf_over_the_whole_grid_at_once(self):
        g = GammaMarginal(shape=self.SHAPES, rate=self.RATES)
        x = g.ppf(self.PROBS[:, None])
        assert x.shape == (self.PROBS.size, self.SHAPES.size)
        assert bits(x) == bits([self.scalar_ppf(p) for p in self.PROBS])

    def test_ppf_per_entry_probabilities(self):
        # each entry its own probability, so that tails, medians and
        # endpoints share the Halley loop and the incomplete-gamma batches
        p = np.resize(self.PROBS, self.SHAPES.size)
        g = GammaMarginal(shape=self.SHAPES, rate=self.RATES)
        ref = [GammaMarginal(shape=a, rate=b).ppf(q) for a, b, q in zip(self.SHAPES, self.RATES, p)]
        assert bits(g.ppf(p)) == bits(ref)

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.999])
    def test_interval(self, level):
        lo, hi = GammaMarginal(shape=self.SHAPES, rate=self.RATES).interval(level)
        ref = [GammaMarginal(shape=a, rate=b).interval(level) for a, b in zip(self.SHAPES, self.RATES)]
        assert bits(lo) == bits([r[0] for r in ref])
        assert bits(hi) == bits([r[1] for r in ref])

    def test_incomplete_gamma_independent_of_batch(self):
        # P, Q and the prefactor of an entry do not depend on the entries
        # computed with it: the power series' block length depends on a alone
        a = np.repeat(self.SHAPES, 5)
        x = a * np.tile([0.3, 0.9, 1.0, 1.1, 3.0], self.SHAPES.size)
        batch = _gamma_pq(a, x)
        single = [_gamma_pq(ai, xi) for ai, xi in zip(a, x)]
        for k in range(3):
            assert bits(batch[k]) == bits([s[k][0] for s in single])


class TestPosterior:
    def test_parameter_order(self):
        assert parameter_names(1) == ["beta_1", "alpha_1"]
        assert parameter_names(3) == ["beta_1", "beta_2", "beta_3", "alpha_1", "alpha_2", "alpha_3"]

    def test_entries_follow_parameter_names(self, warranty_summary):
        s = warranty_summary
        post = posterior(s, PriorConfig(zeta=1.5))
        beta_hat = s.n_q / s.log_ratio_sums
        for q in range(3):
            assert post.shape[q] == s.n_q[q] + 1.0 - 1.5
            assert post.rate[q] == s.n_q[q] / beta_hat[q]
            assert post.shape[3 + q] == s.n_q[q]
            assert post.rate[3 + q] == s.design.m
        rows = bayes_estimates(post)
        assert [r.name for r in rows] == parameter_names(3)
        lo, hi = post.interval(0.95)
        for i, r in enumerate(rows):
            assert type(r.mean) is float and type(r.ci_low) is float
            assert (r.mean, r.sd, r.ci_low, r.ci_high) == (
                post.shape[i] / post.rate[i], math.sqrt(post.shape[i]) / post.rate[i], lo[i], hi[i]
            )

    def test_marginal_shapes_and_rates(self):
        data = make_dataset(
            T=20.0, m=4, K=1, events=[(1, 1, 2.0), (1, 1, 9.0), (2, 1, 14.0)]
        )
        s = summarize(data)
        post = posterior(s, PriorConfig(zeta=2.0))
        beta_hat = s.n_q[0] / s.log_ratio_sums[0]
        # one cause: entry 0 is beta_1, entry 1 alpha_1
        assert post.shape[0] == pytest.approx(s.n_q[0] + 1.0 - 2.0)
        assert post.rate[0] == pytest.approx(s.n_q[0] / beta_hat)
        assert post.shape[1] == pytest.approx(s.n_q[0])
        assert post.rate[1] == pytest.approx(4.0)

    def test_alpha_mean_is_count_over_fleet_size(self, warranty_summary):
        post = posterior(warranty_summary)
        means = post.mean[3:].tolist()
        assert means == pytest.approx([76 / 439, 87 / 439, 111 / 439])

    def test_warranty_scale_alpha_summaries(self, warranty_summary):
        post = posterior(warranty_summary)
        alpha_1 = 3  # after beta_1..beta_3
        assert post.mean[alpha_1] == pytest.approx(0.173121, abs=5e-7)
        assert post.sd[alpha_1] == pytest.approx(0.019858, abs=5e-7)
        lo, hi = post.interval(0.95)
        assert lo[alpha_1] == pytest.approx(0.136399, abs=5e-7)
        assert hi[alpha_1] == pytest.approx(0.214153, abs=5e-7)

    def test_propriety_boundary(self):
        # one failure for a cause is not enough under zeta = 2
        s = summarize(make_dataset(T=20.0, m=2, K=1, events=[(1, 1, 5.0)]))
        with pytest.raises(ImproperPosteriorError):
            posterior(s, PriorConfig(zeta=2.0))
        # but is proper under a flatter prior
        post = posterior(s, PriorConfig(zeta=0.0))
        assert post.shape[0] == pytest.approx(2.0)
        # a cause with no failures has no MLE, so no posterior, even under the
        # flatter priors that its count n_q = 0 > zeta - 1 passes
        no_cause_2 = summarize(make_dataset(
            T=20.0, m=3, K=2, events=[(1, 1, 2.0), (2, 1, 5.0), (3, 1, 9.0)]
        ))
        for zeta in (0.0, 0.5):
            with pytest.raises(ImproperPosteriorError, match="cause 2 has no failures"):
                posterior(no_cause_2, PriorConfig(zeta=zeta))

    def test_point_mean_shrinkage_factor(self):
        # posterior mean of the elasticity is ((n_q + 1 - zeta) / n_q) * MLE
        s = summarize(make_dataset(
            T=20.0, m=1, K=1,
            events=[(1, 1, 1.0), (1, 1, 3.0), (1, 1, 7.0), (1, 1, 15.0)],
        ))
        beta_hat = mle(s)[0]
        for zeta in (0.0, 1.0, 2.0):
            post = posterior(s, PriorConfig(zeta=zeta))
            assert post.mean[0] == pytest.approx(
                (4 + 1 - zeta) / 4 * beta_hat
            )

    def test_bayes_estimates_layout(self, warranty_summary):
        rows = bayes_estimates(posterior(warranty_summary))
        assert [r.name for r in rows] == [
            "beta_1", "beta_2", "beta_3", "alpha_1", "alpha_2", "alpha_3",
        ]
        for r in rows:
            assert r.ci_low < r.mean < r.ci_high


class TestDuane:
    def test_exact_slope_for_power_law_times(self):
        # cumulative count at t_i = T (i/n)^(1/beta) is exactly i, so the
        # log-log points are collinear with slope beta.
        T, n, beta = 20.0, 12, 1.4
        times = [T * (i / n) ** (1.0 / beta) for i in range(1, n + 1)]
        data = make_dataset(T=T * 1.0001, m=1, events=[(1, 1, t) for t in times])
        log_t, log_n, slope = duane_points(data, 1)
        assert slope == pytest.approx(beta, rel=1e-9)
        assert log_t.size == log_n.size == n

    def test_pools_systems(self):
        data = make_dataset(
            T=20.0, m=2, K=2,
            events=[(1, 1, 2.0), (2, 1, 5.0), (1, 2, 1.0), (2, 2, 9.0)],
        )
        log_t, log_n, _ = duane_points(data, 1)
        assert np.allclose(log_t, np.log([2.0, 5.0]))
        assert np.allclose(log_n, np.log([1.0, 2.0]))

    def test_needs_two_failures(self):
        data = make_dataset(T=20.0, m=1, events=[(1, 1, 5.0)])
        with pytest.raises(ValueError):
            duane_points(data, 1)

    def test_all_tied_times_rejected(self):
        # ties across systems are valid data, but a cause whose times all tie
        # has no slope
        data = make_dataset(T=10.0, m=2, events=[(1, 1, 5.0), (2, 1, 5.0)])
        for check in (check_duane, duane_points):
            with pytest.raises(DatasetError, match="needs two distinct failure times"):
                check(data, 1)

    def test_some_tied_times_accepted(self):
        data = make_dataset(T=10.0, m=3, events=[(1, 1, 5.0), (2, 1, 5.0), (3, 1, 2.0)])
        log_t, log_n, slope = duane_points(data, 1)
        assert log_t.tolist() == np.log([2.0, 5.0, 5.0]).tolist()
        assert slope == pytest.approx(polyfit_slope(log_t, log_n), rel=1e-12, abs=0.0)


def polyfit_slope(log_t, log_n):
    """The least-squares slope as the Vandermonde solve computed it, kept as the oracle."""
    return np.polyfit(log_t, log_n, 1)[0]


class TestClosedFormSlope:
    @pytest.mark.parametrize("T", [20.0, 1e6])
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_matches_polyfit_on_pooled_fleets(self, T, seed):
        scen = SimScenario(
            design=ObservationDesign(T=T, m=300, K=2),
            true_params=PlpParams(beta=np.array([1.2, 0.7]), alpha=np.array([5.0, 13.33])),
            eta=0.5,
            seed=seed,
        )
        data, _ = simulate(scen)
        for q in (1, 2):
            log_t, log_n, slope = duane_points(data, q)
            assert slope == pytest.approx(polyfit_slope(log_t, log_n), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("T, times", [(20.0, (2.0, 5.0)), (1e6, (3e5, 8e5))])
    def test_matches_polyfit_at_two_points(self, T, times):
        data = make_dataset(T=T, m=2, events=[(1, 1, times[0]), (2, 1, times[1])])
        log_t, log_n, slope = duane_points(data, 1)
        assert slope == pytest.approx(polyfit_slope(log_t, log_n), rel=1e-12, abs=0.0)
        assert slope == pytest.approx(math.log(2.0) / math.log(times[1] / times[0]), rel=1e-12)

    @pytest.mark.parametrize("T", [20.0, 1e6])
    def test_matches_polyfit_at_1e5_points(self, T):
        n = 100_000
        times = T * np.random.default_rng(5).random(n) ** (1.0 / 1.3)
        ones = np.ones(n, dtype=np.int64)
        data = FailureDataset(ObservationDesign(T=T, m=1, K=1), ones, ones, times)
        log_t, log_n, slope = duane_points(data, 1)
        assert log_t.size == n
        assert slope == pytest.approx(polyfit_slope(log_t, log_n), rel=1e-12, abs=0.0)
