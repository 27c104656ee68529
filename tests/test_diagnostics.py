"""Chain diagnostics and the Monte Carlo evaluation harness."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frailplp import dpm
from frailplp.data import ObservationDesign, summarize
from frailplp.plp import GammaMarginal, PlpParams, PriorConfig
from frailplp.simulate import FrailtyMixture, SimScenario, simulate
from frailplp.diagnostics import (
    HarnessRow,
    _interval_covers,
    _spectral_variance_at_zero,
    autocorrelation,
    ess,
    geweke,
    run_harness,
)


def ar1(n, rho, rng, burn=500):
    e = rng.standard_normal(n + burn)
    x = np.empty(n + burn)
    x[0] = e[0]
    for i in range(1, n + burn):
        x[i] = rho * x[i - 1] + e[i]
    return x[burn:]


class TestGeweke:
    def test_iid_chain_passes(self):
        rng = np.random.default_rng(0)
        assert geweke(rng.standard_normal(5000)).passed

    def test_trending_chain_fails(self):
        x = np.linspace(0.0, 5.0, 5000) + np.random.default_rng(1).standard_normal(5000) * 0.1
        assert not geweke(x).passed

    def test_constant_chain_scores_zero(self):
        result = geweke(np.full(1000, 2.5))
        assert result.z_score == 0.0 and result.passed

    def test_short_chain_rejected(self):
        with pytest.raises(ValueError):
            geweke(np.ones(50))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "first_frac, last_frac",
        [
            (-0.2, 0.5),  # a negative window used to score z = 0, a silent pass
            (0.0, 0.5),
            (0.1, 0.0),
            (math.nan, 0.5),
            (1.5, 0.5),  # windows that overlap
            (0.6, 0.5),
            (0.001, 0.5),  # an empty first window: numpy's "Mean of empty slice"
            (0.1, 0.0015),  # a one-draw last window
        ],
    )
    def test_rejects_bad_windows(self, first_frac, last_frac):
        chain = np.random.default_rng(2).standard_normal(1000)
        with pytest.raises(ValueError, match="geweke windows"):
            geweke(chain, first_frac=first_frac, last_frac=last_frac)

    def test_windows_that_meet_or_hold_two_draws_are_scored(self):
        chain = np.random.default_rng(2).standard_normal(1000)
        assert math.isfinite(geweke(chain, first_frac=0.5, last_frac=0.5).z_score)
        assert math.isfinite(geweke(chain, first_frac=0.002, last_frac=0.002).z_score)

    def test_calibrated_against_autocorrelation(self):
        # strongly autocorrelated but stationary chains alarm more than the
        # nominal 5% (the early segment is short relative to the correlation
        # length) but must stay far below a coin flip
        rng = np.random.default_rng(3)
        alarms = sum(not geweke(ar1(4000, 0.9, rng)).passed for _ in range(200))
        assert alarms / 200 < 0.20


class TestAutocorrelation:
    def test_rejects_negative_max_lag(self):
        # a negative lag used to slice from the end of the FFT output
        with pytest.raises(ValueError, match="max_lag"):
            autocorrelation(np.random.default_rng(4).standard_normal(1000), -3)

    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(4)
        acf = autocorrelation(rng.standard_normal(1000), 5)
        assert acf[0] == pytest.approx(1.0)

    def test_constant_chain_convention(self):
        acf = autocorrelation(np.full(100, 3.0), 4)
        assert acf[0] == 1.0 and np.all(acf[1:] == 0.0)

    def test_iid_chain_has_negligible_lag_one(self):
        rng = np.random.default_rng(5)
        acf = autocorrelation(rng.standard_normal(100_000), 3)
        assert abs(acf[1]) < 0.02

    def test_recovers_ar1_coefficient(self):
        rng = np.random.default_rng(6)
        acf = autocorrelation(ar1(200_000, 0.9, rng), 2)
        assert acf[1] == pytest.approx(0.9, abs=0.01)

    def test_max_lag_bound(self):
        with pytest.raises(ValueError):
            autocorrelation(np.arange(10.0), 10)


class TestEss:
    def test_iid_chain_ess_near_n(self):
        rng = np.random.default_rng(7)
        n = 20_000
        assert ess(rng.standard_normal(n)) == pytest.approx(n, rel=0.1)

    def test_autocorrelated_chain_shrinks(self):
        # AR(1) with coefficient rho has ESS ~ n (1-rho)/(1+rho)
        rng = np.random.default_rng(8)
        n, rho = 100_000, 0.8
        val = ess(ar1(n, rho, rng))
        assert val == pytest.approx(n * (1 - rho) / (1 + rho), rel=0.15)

    def test_constant_chain_is_zero(self):
        assert ess(np.full(500, 1.0)) == 0.0


def _direct_autocovariance(x, max_lag):
    """The O(n^2) reference: every lag of np.correlate on the centred chain."""
    n = x.size
    x = x - x.mean()
    return np.correlate(x, x, mode="full")[n - 1 : n + max_lag] / n


class TestFftAutocovarianceMatchesDirectSum:
    @pytest.mark.parametrize("n, rho", [(2, 0.0), (3, 0.5), (101, 0.9), (1000, -0.6), (4096, 0.99)])
    def test_acf_ess_and_spectral_variance(self, n, rho):
        rng = np.random.default_rng(n)
        x = ar1(n, rho, rng, burn=50) + 3.0
        ref = _direct_autocovariance(x, n - 1)
        tol = 1e-12 * ref[0]
        assert np.max(np.abs(autocorrelation(x, n - 1) * ref[0] - ref)) <= tol
        # ess (same truncation rule) and Geweke's spectral variance, both
        # recomputed from the direct sum
        acf = ref / ref[0]
        tau, k = 1.0, 1
        while k + 1 < min(n - 1, max(10, n // 2)) + 1:
            if acf[k] + acf[k + 1] <= 0:
                break
            tau += 2.0 * (acf[k] + acf[k + 1])
            k += 2
        assert ess(x) == pytest.approx(n / tau, rel=1e-12)
        max_lag = max(1, int(0.04 * n))
        w = 1.0 - np.arange(1, max_lag + 1) / (max_lag + 1.0)
        spectral = ref[0] + 2.0 * np.sum(w * ref[1 : max_lag + 1])
        assert abs(_spectral_variance_at_zero(x) - spectral) <= 4 * tol


class TestIntervalCoverage:
    @settings(max_examples=200, deadline=None)
    @given(
        marginals=st.lists(
            st.tuples(
                st.floats(0.05, 1e5),
                st.floats(0.01, 100.0),
                st.one_of(
                    st.floats(1e-6, 1.0 - 1e-6),
                    st.floats(0.0249, 0.0251),
                    st.floats(0.9749, 0.9751),
                    st.sampled_from([0.025, 0.975]),
                ),
            ),
            min_size=1,
            max_size=8,
        ),
        truth_scale=st.one_of(st.just(1.0), st.floats(0.5, 2.0)),
    )
    def test_batched_coverage_equals_interval_test(self, marginals, truth_scale):
        # Each truth sits at a quantile of its own marginal, often next to an
        # interval endpoint, so that both outcomes and the edges are exercised.
        shape, rate, u = (np.array(c) for c in zip(*marginals))
        gammas = [GammaMarginal(shape=a, rate=b) for a, b in zip(shape, rate)]
        truth = np.array([g.ppf(p) for g, p in zip(gammas, u)]) * truth_scale
        covered = _interval_covers(shape, rate, truth)
        for g, t, hit in zip(gammas, truth, covered):
            lo, hi = g.interval(0.95)
            if math.isclose(t, lo, rel_tol=1e-12) or math.isclose(t, hi, rel_tol=1e-12):
                continue
            assert hit == (lo <= t <= hi)


def reference_harness(scenario, prior, M, mcmc=None):
    """The harness one parameter at a time, from scalar marginals.

    Each replication's scenario is built field by field, its marginals are
    the closed-form gammas written out per cause, and an interval covers the
    truth when the scalar quantiles bracket it.  With `mcmc` as (iterations,
    burn_in), each replication's chain scores an "eta" row.
    """
    K, zeta = scenario.design.K, prior.zeta
    truths = {f"beta_{q + 1}": float(b) for q, b in enumerate(scenario.true_params.beta)}
    truths.update({f"alpha_{q + 1}": float(a) for q, a in enumerate(scenario.true_params.alpha)})
    marginals = {name: [] for name in truths}
    eta = []
    for rep in range(M):
        seed = int(np.random.SeedSequence(entropy=scenario.seed, spawn_key=(rep,)).generate_state(1)[0])
        rep_scenario = SimScenario(
            design=scenario.design,
            true_params=scenario.true_params,
            eta=scenario.eta,
            frailty_family=scenario.frailty_family,
            seed=seed,
            normalize_frailties=True,
        )
        summary = summarize(simulate(rep_scenario)[0])
        for q in range(K):
            n, s = summary.n_q[q], summary.log_ratio_sums[q]
            marginals[f"beta_{q + 1}"].append(GammaMarginal(shape=float(n + 1.0 - zeta), rate=float(n / (n / s))))
            marginals[f"alpha_{q + 1}"].append(GammaMarginal(shape=float(n), rate=float(scenario.design.m)))
        if mcmc:
            trace = dpm.run_chain(summary, iterations=mcmc[0], burn_in=mcmc[1], seed=seed)
            vz = dpm.frailty_variance(trace.post_burn_in(trace.var_z))
            eta.append((vz.mean, vz.ci_low <= scenario.eta <= vz.ci_high))

    def row(name, truth, estimates, covered):
        err = np.asarray(estimates) - truth
        mse = float(np.mean(err**2))
        return HarnessRow(
            name, truth, float(err.mean()), mse, math.sqrt(mse), float(np.mean(covered)),
            float(np.std(estimates, ddof=1) / math.sqrt(M)) if M > 1 else 0.0,
        )

    rows = {}
    for name, truth in truths.items():
        gammas = marginals[name]
        bounds = [g.interval(0.95) for g in gammas]
        rows[name] = row(
            name, truth, [g.mean for g in gammas], [lo <= truth <= hi for lo, hi in bounds]
        )
    if mcmc:
        rows["eta"] = row("eta", scenario.eta, [e for e, _ in eta], [c for _, c in eta])
    return rows


class TestMatchesScalarReference:
    """run_harness's rows equal the one-parameter-at-a-time reference exactly."""

    @pytest.mark.parametrize("K, eta, zeta, mixture, M", [
        (2, 0.5, 2.0, None, 120),
        (1, 0.0, 1.5, None, 60),
        (3, 0.0, 0.0, FrailtyMixture(weights=[0.5, 0.5], mu=[-0.8, 0.5], sigma=[0.25, 0.25]), 40),
        (2, 0.5, 2.0, None, 1),
    ])
    def test_closed_form_rows(self, K, eta, zeta, mixture, M):
        scen = SimScenario(
            design=ObservationDesign(T=20.0, m=30, K=K),
            true_params=PlpParams(beta=[1.2, 0.7, 1.5][:K], alpha=[5.0, 13.33, 2.0][:K]),
            eta=eta,
            frailty_family=mixture,
            seed=41,
        )
        report = run_harness(scen, PriorConfig(zeta=zeta), M=M)
        assert list(report) == [f"beta_{q}" for q in range(1, K + 1)] + [f"alpha_{q}" for q in range(1, K + 1)]
        assert report == reference_harness(scen, PriorConfig(zeta=zeta), M)

    def test_with_mcmc(self):
        scen = SimScenario(
            design=ObservationDesign(T=20.0, m=15, K=1),
            true_params=PlpParams(beta=np.array([1.0]), alpha=np.array([8.0])),
            eta=0.8,
            seed=8,
        )
        report = run_harness(scen, M=3, with_mcmc=True, mcmc_iterations=300, mcmc_burn_in=100)
        assert list(report) == ["beta_1", "alpha_1", "eta"]
        assert report == reference_harness(scen, PriorConfig(), 3, mcmc=(300, 100))


class TestHarness:
    @pytest.fixture(scope="class")
    def small_report(self):
        scen = SimScenario(
            design=ObservationDesign(T=20.0, m=40, K=2),
            true_params=PlpParams(beta=np.array([1.2, 0.7]), alpha=np.array([5.0, 13.33])),
            eta=0.5,
            seed=100,
        )
        return run_harness(scen, PriorConfig(zeta=2.0), M=300)

    def test_row_lookup(self, small_report):
        names = {r.name for r in small_report.values()}
        assert names == {"beta_1", "beta_2", "alpha_1", "alpha_2"}
        with pytest.raises(KeyError):
            small_report["nope"]

    def test_rmse_is_root_of_mse(self, small_report):
        for r in small_report.values():
            assert r.rmse == pytest.approx(np.sqrt(r.mse))

    def test_estimators_score_sanely(self, small_report):
        for r in small_report.values():
            assert abs(r.bias) < 5 * r.mc_se + 1e-12
            assert 0.85 < r.cp95 <= 1.0

    def test_replications_deterministic(self):
        scen = SimScenario(
            design=ObservationDesign(T=20.0, m=10, K=1),
            true_params=PlpParams(beta=np.array([1.0]), alpha=np.array([5.0])),
            eta=0.5,
            seed=7,
        )
        a = run_harness(scen, M=20)
        b = run_harness(scen, M=20)
        assert a == b

    def test_rejects_zero_replications(self):
        scen = SimScenario(
            design=ObservationDesign(T=20.0, m=10, K=1),
            true_params=PlpParams(beta=np.array([1.0]), alpha=np.array([5.0])),
            seed=7,
        )
        with pytest.raises(ValueError):
            run_harness(scen, M=0)

    def test_mcmc_row_present_when_requested(self):
        scen = SimScenario(
            design=ObservationDesign(T=20.0, m=15, K=1),
            true_params=PlpParams(beta=np.array([1.0]), alpha=np.array([8.0])),
            eta=0.8,
            seed=8,
        )
        report = run_harness(
            scen, M=2, with_mcmc=True, mcmc_iterations=400, mcmc_burn_in=200
        )
        eta_row = report["eta"]
        assert eta_row.truth == 0.8
        assert np.isfinite(eta_row.bias)
