"""Gibbs blocks of the nonparametric frailty sampler and the full chain."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import betaln
from scipy.stats import chi2, chisquare

from frailplp.data import ObservationDesign, summarize
from frailplp.plp import PlpParams
from frailplp.simulate import SimScenario, simulate
from frailplp.hmc import FrailtyTarget, HmcConfig, hmc_update, transform
from frailplp.dpm import (
    DpmHyperparams,
    DpmState,
    stick_break,
    update_concentration,
    update_sticks,
    update_slices,
    update_atoms,
    update_allocations,
    extend_levels,
    DEFAULT_GRID,
    run_chain,
    log_frailty_density,
    frailty_variance,
    _mixture_var,
)
from frailplp import dpm

from conftest import UniformDraws


def make_state(m=6, levels=4, y=None, c=1.0, seed=0, z=None):
    rng = np.random.default_rng(seed)
    nu = rng.uniform(0.2, 0.6, size=levels)
    return DpmState(
        c=c,
        y=np.zeros(m, dtype=int) if y is None else np.asarray(y, dtype=int),
        w=np.zeros(m) if z is None else np.log(z),
        nu=nu,
        rho=stick_break(nu),
        mu=rng.normal(size=levels),
        tau=rng.uniform(0.5, 2.0, size=levels),
        u=np.full(m, 1e-4),
    )


def small_fleet(m=8, seed=0):
    data, _ = simulate(
        SimScenario(
            design=ObservationDesign(T=20.0, m=m, K=1),
            true_params=PlpParams(beta=np.array([1.2]), alpha=np.array([5.0])),
            eta=0.5,
            seed=seed,
        )
    )
    return summarize(data)


class TestDerivedFrailties:
    def test_log_frailties_finite_where_frailties_underflow(self):
        # the HMC target's log-frailties, which the chain's state takes on
        # each accepted move, are v - logsumexp(v) + log m in log space
        m = 1000
        v = np.random.default_rng(3).uniform(-800.0, 800.0, size=m)
        v -= v.mean()
        w = FrailtyTarget(v).w
        z, _ = transform(v)
        assert np.any(z == 0.0)
        assert np.array_equal(np.exp(w), z)
        assert np.all(np.isfinite(w))
        normal = z > 1e-300
        assert np.allclose(w[normal], np.log(z[normal]), rtol=1e-12, atol=1e-12)

    def test_one_forward_pass_per_leapfrog_step(self, monkeypatch):
        # the chain's target makes one at z* = 0, which gives the initial
        # state its log-frailties; then a transition starts from its current
        # point's pass, and an accepted end point's pass gives the state its
        # log-frailties
        calls = []
        forward = FrailtyTarget._forward

        def counted(self, q):
            calls.append(1)
            forward(self, q)

        monkeypatch.setattr(FrailtyTarget, "_forward", counted)
        run_chain(small_fleet(), iterations=30, burn_in=10, seed=0)
        assert len(calls) == 1 + 30 * HmcConfig().leapfrog_steps

    def test_state_takes_each_accepted_point(self, monkeypatch):
        # every recorded draw is the target's current point after that
        # sweep's move, so the atoms and allocations of the next sweep see it
        current = []

        def recorded(target, *args, **kwargs):
            out = hmc_update(target, *args, **kwargs)
            current.append(np.exp(target.w))
            return out

        monkeypatch.setattr(dpm, "hmc_update", recorded)
        tr = run_chain(small_fleet(), iterations=60, burn_in=20, seed=1)
        assert 0 < tr.accepted.sum() < tr.iterations
        assert np.array_equal(tr.z, current)


class TestStickBreaking:
    @pytest.mark.parametrize("seed", range(5))
    def test_weights_follow_the_sticks_of_each_stage(self, seed):
        # update_sticks replaces the sticks and extend_levels appends to them;
        # each sets the weights with them
        rng = np.random.default_rng(seed)
        state = make_state(m=30, levels=0, y=rng.integers(0, 4, size=30), c=2.0)
        update_sticks(state, rng)
        assert np.array_equal(state.rho, stick_break(state.nu))
        update_slices(state, rng)
        state.u[0] = 1e-6  # more levels than the allocated ones
        levels = state.l_star
        extend_levels(state, rng)
        assert state.l_star > levels
        assert np.allclose(state.rho, stick_break(state.nu), rtol=1e-12, atol=0.0)

    def test_trivial_values(self):
        assert stick_break(np.array([])).size == 0
        assert np.allclose(stick_break([0.3]), [0.3])
        assert np.allclose(stick_break([0.5, 0.5]), [0.5, 0.25])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(1e-6, 1 - 1e-6), min_size=1, max_size=20))
    def test_weights_plus_remainder_telescope_to_one(self, nu):
        nu = np.array(nu)
        rho = stick_break(nu)
        assert np.all(rho > 0)
        assert rho.sum() + np.prod(1 - nu) == pytest.approx(1.0, abs=1e-9)


class TestHyperparams:
    @pytest.mark.parametrize("name", ["ac0", "bc0", "m0", "s0", "d0", "p0"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(ValueError, match=name):
            DpmHyperparams(**{name: value})

    def test_rejects_non_positive_scales_but_not_a_negative_mean(self):
        with pytest.raises(ValueError, match="s0"):
            DpmHyperparams(s0=0.0)
        assert DpmHyperparams(m0=-2.0).m0 == -2.0


class TestConcentration:
    def test_auxiliary_beta_marginal(self):
        # with c held at its current value, xi ~ Beta(c+1, m)
        m, c = 100, 1.0
        hyper = DpmHyperparams()
        rng = np.random.default_rng(1)
        xis = []
        for _ in range(20_000):
            state = make_state(m=m, c=c, y=np.zeros(m))
            xi, _ = update_concentration(state, m, hyper, rng)
            xis.append(xi)
        assert np.mean(xis) == pytest.approx((c + 1) / (c + 1 + m), rel=0.02)

    def test_uses_occupied_count_not_highest_index(self):
        # allocations (0, 7, 7, ...) and (0, 1, 1, ...) have the same number
        # of occupied components, so the concentration draws must match in
        # distribution; a max-index rule would inflate the first case
        hyper = DpmHyperparams()
        m = 30

        def mean_c(y, seed):
            rng = np.random.default_rng(seed)
            out = []
            for _ in range(20_000):
                state = make_state(m=m, levels=8, y=y, c=1.0)
                _, c = update_concentration(state, m, hyper, rng)
                out.append(c)
            return np.mean(out)

        y_gappy = np.zeros(m, dtype=int)
        y_gappy[1:3] = 7
        y_dense = np.zeros(m, dtype=int)
        y_dense[1:3] = 1
        assert mean_c(y_gappy, 2) == pytest.approx(mean_c(y_dense, 2), rel=0.03)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 300), st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_occupied_count_equals_distinct_allocations(self, m, levels, seed):
        # random allocations over fewer systems than levels leave empty levels
        # between occupied ones; the bincount count must match np.unique's
        rng = np.random.default_rng(seed)
        y = rng.choice(rng.permutation(levels)[: rng.integers(1, levels + 1)], size=m)
        state = make_state(m=m, levels=levels, y=y)
        assert state.n_occupied == np.unique(y).size

    def test_stationary_distribution_matches_quadrature(self):
        # the (xi, c) pair is a two-block Gibbs sampler whose c-marginal is
        # pi(c | k, m) ~ Gamma(c; a0, b0) c^{k-1} (c + m) B(c+1, m)
        a0 = b0 = 1.0
        m, k = 50, 6
        hyper = DpmHyperparams(ac0=a0, bc0=b0)
        y = np.arange(m) % k  # k occupied components
        rng = np.random.default_rng(3)
        state = make_state(m=m, levels=k, y=y, c=1.0)
        draws = []
        for _ in range(100_000):
            update_concentration(state, m, hyper, rng)
            draws.append(state.c)
        draws = np.array(draws[1_000:])

        def log_density(c):
            return (
                (a0 - 1) * np.log(c) - b0 * c + (k - 1) * np.log(c)
                + np.log(c + m) + betaln(c + 1.0, m)
            )

        bins = np.linspace(0.0, 20.0, 41)
        hist, _ = np.histogram(np.clip(draws, None, 19.999), bins=bins)
        p_emp = hist / hist.sum()
        p_quad = []
        for lo, hi in zip(bins[:-1], bins[1:]):
            xs = np.linspace(max(lo, 1e-9), hi, 2001)
            p_quad.append(np.trapezoid(np.exp(log_density(xs)), xs))
        p_quad = np.array(p_quad)
        p_quad /= p_quad.sum()
        tv = 0.5 * np.abs(p_emp - p_quad).sum()
        assert tv < 0.02

    def test_prior_dominates_single_cluster_small_m(self):
        # with k = 1 the update is close to the Gamma(ac0, bc0 - log xi) prior
        hyper = DpmHyperparams(ac0=3.0, bc0=2.0)
        rng = np.random.default_rng(4)
        state = make_state(m=2, c=1.0, y=np.zeros(2))
        draws = []
        for _ in range(50_000):
            update_concentration(state, 2, hyper, rng)
            draws.append(state.c)
        # E[c] under the invariant law stays near the prior mean 1.5
        assert 1.0 < np.mean(draws) < 2.5


class TestSticks:
    def test_occupied_level_conditional_moments(self):
        # nu_l ~ Beta(1 + n_l, c + m - cum_l) for levels up to the top
        # allocated one
        m, c = 9, 2.0
        y = np.array([0, 0, 0, 1, 1, 2, 2, 2, 2])
        rng = np.random.default_rng(5)
        draws = []
        for _ in range(20_000):
            state = make_state(m=m, levels=4, y=y, c=c)
            draws.append(update_sticks(state, rng).copy())
        draws = np.array(draws)
        counts = np.array([3, 2, 4])
        cum = np.cumsum(counts)
        for l in range(3):
            a, b = 1.0 + counts[l], c + m - cum[l]
            assert draws[:, l].mean() == pytest.approx(a / (a + b), rel=0.02)

    def test_unallocated_levels_are_prior_draws(self):
        # every stick extend_levels appends is Beta(1, c); pooled over
        # repetitions their mean is 1 / (1 + c) by Wald's identity
        m, c = 4, 3.0
        rng = np.random.default_rng(6)
        draws = []
        for _ in range(5_000):
            state = make_state(m=m, levels=1, y=np.zeros(m), c=c)
            state.u = np.full(m, 1e-4)
            extend_levels(state, rng)
            draws.extend(state.nu[1:])
        assert len(draws) > 20_000
        assert np.mean(draws) == pytest.approx(1.0 / (1.0 + c), rel=0.03)

    @pytest.mark.parametrize("y", [[0, 0, 0], [2, 0, 5, 5, 1], [0, 0, 3, 0]])
    def test_one_stick_per_level_up_to_the_top_allocated(self, y):
        # carried sticks of any number are replaced, never extended or cut
        for levels in (1, 4, 9):
            state = make_state(m=len(y), levels=levels, y=y)
            assert update_sticks(state, np.random.default_rng(6)).size == max(y) + 1
            assert state.l_star == max(y) + 1


class TestSlicesAndLevels:
    def test_slice_supported_below_allocated_weight(self):
        state = make_state(m=50, levels=3, y=np.zeros(50))
        rng = np.random.default_rng(7)
        u = update_slices(state, rng)
        rho = state.rho
        assert np.all(u > 0)
        assert np.all(u < rho[state.y])

    def test_slice_mean_is_half_the_weight(self):
        state = make_state(m=6, levels=3, y=np.zeros(6))
        rho0 = state.rho[0]
        rng = np.random.default_rng(8)
        means = np.mean([update_slices(state, rng).mean() for _ in range(5000)])
        assert means == pytest.approx(rho0 / 2.0, rel=0.02)

    def test_extension_covers_every_slice(self):
        hyper = DpmHyperparams()
        rng = np.random.default_rng(9)
        state = make_state(m=10, levels=2, y=np.zeros(10), c=5.0)
        state.u = np.full(10, 1e-6)
        extend_levels(state, rng)
        assert state.rho.sum() > 1.0 - 1e-6
        update_atoms(state, hyper, rng)
        assert state.nu.size == state.mu.size == state.tau.size


class TestUniformDraws:
    @pytest.mark.parametrize("seed", range(6))
    def test_concentration_and_slices_draw_as_uniform_calls(self, seed):
        # random() returns the doubles of uniform(0, 1) and advances the
        # stream alike
        y = np.random.default_rng(seed).integers(0, 4, size=30)
        runs = []
        for rng in (np.random.default_rng(seed), UniformDraws(seed)):
            state = make_state(m=30, levels=4, y=y, c=0.7, seed=seed)
            xi_c = update_concentration(state, 30, DpmHyperparams(), rng)
            u = update_slices(state, rng)
            runs.append((xi_c, u, rng.bit_generator.state))
        (xi_c, u, state), (old_xi_c, old_u, old_state) = runs
        assert xi_c == old_xi_c
        assert np.array_equal(u, old_u)
        assert state == old_state


class TestAtoms:
    def test_single_observation_posterior_parameters(self):
        # prior (m0=0, s0=1, d0=1, p0=1) with one log-frailty w = 2 in the
        # level gives m_l = 1, s_l = 2, d_l = 2, d_l p_l = 3
        hyper = DpmHyperparams(m0=0.0, s0=1.0, d0=1.0, p0=1.0)
        w = 2.0
        n_l, w_bar = 1, w
        s_l = hyper.s0 + n_l
        m_l = (hyper.s0 * hyper.m0 + n_l * w_bar) / s_l
        d_l = hyper.d0 + n_l
        dp_l = hyper.d0 * hyper.p0 + 0.0 + hyper.s0 * n_l / s_l * (hyper.m0 - w_bar) ** 2
        assert (m_l, s_l, d_l, dp_l) == (1.0, 2.0, 2.0, 3.0)
        # and the sampler draws from exactly that normal-gamma law
        rng = np.random.default_rng(10)
        state = make_state(m=3, levels=1, y=np.zeros(3))
        mus, taus = [], []
        for _ in range(30_000):
            mu, tau = update_atoms(state, hyper, rng)
            mus.append(mu[0])
            taus.append(tau[0])
        # all three w = 0 here: m_l = 0, s_l = 4, d_l = 4, dp_l = 1
        assert np.mean(taus) == pytest.approx(4.0 / 1.0, rel=0.03)
        assert np.mean(mus) == pytest.approx(0.0, abs=0.02)

    def test_empty_level_resampled_from_prior(self):
        hyper = DpmHyperparams(m0=1.5, s0=2.0, d0=3.0, p0=0.5)
        rng = np.random.default_rng(11)
        mus, taus = [], []
        for _ in range(30_000):
            state = make_state(m=2, levels=2, y=np.zeros(2))
            mu, tau = update_atoms(state, hyper, rng)
            mus.append(mu[1])
            taus.append(tau[1])
        # prior: tau ~ Gamma(d0, rate d0 p0), mu | tau ~ N(m0, 1/(s0 tau))
        assert np.mean(taus) == pytest.approx(3.0 / 1.5, rel=0.03)
        assert np.mean(mus) == pytest.approx(1.5, abs=0.03)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_draws_are_bit_identical_to_the_broadcasting_calls(self, seed):
        # standard_gamma(d) * (1 / dp) and m + standard_normal(L) * scale
        # replay gamma(shape, scale) and normal(loc, scale) on one stream
        hyper = DpmHyperparams(m0=0.3, s0=1.5, d0=2.0, p0=0.7)
        state = make_state(m=40, levels=6, y=np.arange(40) % 4, seed=seed)
        state.w = np.random.default_rng(seed).normal(scale=0.8, size=40)
        gen_state = np.random.default_rng(seed + 10).bit_generator.state
        mu, tau = update_atoms(state, hyper, np.random.default_rng(seed + 10))

        old = np.random.default_rng()
        old.bit_generator.state = gen_state
        w, y, L = state.w, state.y, state.l_star
        counts = np.bincount(y, minlength=L)
        sums = np.bincount(y, weights=w, minlength=L)
        w_bar = sums / np.maximum(counts, 1)
        sq_dev = np.bincount(y, weights=(w - w_bar[y]) ** 2, minlength=L)
        s_l = hyper.s0 + counts
        m_l = (hyper.s0 * hyper.m0 + sums) / s_l
        d_l = hyper.d0 + counts
        dp_l = hyper.d0 * hyper.p0 + sq_dev + hyper.s0 * counts / s_l * (hyper.m0 - w_bar) ** 2
        old_tau = old.gamma(shape=d_l, scale=1.0 / dp_l)
        old_mu = old.normal(loc=m_l, scale=1.0 / np.sqrt(s_l * old_tau))
        assert np.array_equal(tau, old_tau)
        assert np.array_equal(mu, old_mu)

    def test_posterior_concentrates_on_observed_log_frailties(self):
        hyper = DpmHyperparams()
        rng = np.random.default_rng(12)
        z = np.array([0.5, 0.5, 1.5, 1.5])
        state = make_state(m=4, levels=2, y=np.array([0, 0, 1, 1]), z=z)
        mus = np.array([update_atoms(state, hyper, rng)[0] for _ in range(20_000)])
        # posterior means shrink the group log-means toward the prior mean 0
        w_low, w_high = math.log(0.5), math.log(1.5)
        assert mus[:, 0].mean() == pytest.approx(2 * w_low / 3, abs=0.02)
        assert mus[:, 1].mean() == pytest.approx(2 * w_high / 3, abs=0.02)


class TestAllocations:
    def test_respects_slice_admissibility(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            state = make_state(m=8, levels=5, y=np.zeros(8), seed=rng.integers(1 << 30))
            update_slices(state, rng)
            y = update_allocations(state, rng)
            assert np.all(state.rho[y] > state.u)

    def test_identical_atoms_allocate_by_admissibility_only(self):
        # when all atoms are equal the likelihood weight cancels and the
        # allocation is uniform over admissible levels
        rng = np.random.default_rng(14)
        hits = np.zeros(2)
        for _ in range(20_000):
            state = make_state(m=2, levels=2, y=np.zeros(2))
            state.mu = np.zeros(2)
            state.tau = np.ones(2)
            state.u = np.full(2, min(state.rho) * 0.5)
            y = update_allocations(state, rng)
            hits[y[0]] += 1
        assert hits[0] / hits.sum() == pytest.approx(0.5, abs=0.02)

    def test_prefers_the_likely_atom(self):
        rng = np.random.default_rng(15)
        state = make_state(m=3, levels=2, y=np.zeros(3))
        state.mu = np.array([0.0, 5.0])
        state.tau = np.ones(2)  # and w = 0
        state.u = np.full(3, min(state.rho) * 0.5)
        y = update_allocations(state, rng)
        assert np.all(y == 0)

    def test_frequencies_match_exact_categorical(self):
        # 20 000 identical systems (w = 0) share one categorical law over the
        # admissible levels {0, 1, 3}: p_l ~ sqrt(tau_l) exp(-tau_l mu_l^2 / 2)
        m = 20_000
        state = make_state(m=m, levels=4)
        state.nu = np.array([0.4, 0.5, 0.3, 0.6])
        state.rho = stick_break(state.nu)  # 0.4, 0.3, 0.09, 0.126
        state.mu = np.array([0.0, 0.5, -0.8, 0.3])
        state.tau = np.array([1.0, 2.0, 0.5, 1.5])
        state.u = np.full(m, 0.1)
        admissible = state.rho > 0.1
        assert admissible.tolist() == [True, True, False, True]
        y = update_allocations(state, np.random.default_rng(16))
        hits = np.bincount(y, minlength=4)
        assert hits[2] == 0
        weights = np.sqrt(state.tau) * np.exp(-0.5 * state.tau * state.mu**2)
        probs = weights[admissible] / weights[admissible].sum()
        assert chisquare(hits[admissible], m * probs).pvalue > 1e-3

    @pytest.mark.parametrize("m, levels", [(40, 4), (3, 8)])
    def test_per_system_frequencies_match_exact_categorical(self, m, levels):
        # systems with different log-frailties and slices, so that their
        # admissible level sets differ (each keeps at least two levels); the
        # second case has more levels than systems.  Each system's counts
        # over 20 000 draws meet its exact categorical law
        # p_jl ~ sqrt(tau_l) exp(-tau_l (w_j - mu_l)^2 / 2) on rho_l > u_j
        rng = np.random.default_rng(18)
        state = make_state(m=m, levels=levels, seed=levels)
        state.w = rng.uniform(-1.0, 1.0, size=m)
        state.mu = rng.uniform(-1.0, 1.0, size=levels)
        state.tau = rng.uniform(0.5, 1.5, size=levels)
        state.u = 0.999 * np.sort(state.rho)[rng.integers(0, levels - 1, size=m)]
        admissible = state.rho > state.u[:, None]
        assert len({tuple(row) for row in admissible}) > 1
        weights = np.sqrt(state.tau) * np.exp(-0.5 * state.tau * (state.w[:, None] - state.mu) ** 2)
        probs = np.where(admissible, weights, 0.0)
        probs /= probs.sum(axis=1, keepdims=True)
        draws = 20_000
        ys = np.array([update_allocations(state, rng) for _ in range(draws)])
        hits = np.array([np.bincount(ys[:, j], minlength=levels) for j in range(m)])
        assert np.all(hits[~admissible] == 0)
        expected = draws * probs[admissible]
        assert expected.min() > 5.0  # the chi-square approximation holds
        pvalues = [
            chisquare(hits[j, admissible[j]], draws * probs[j, admissible[j]]).pvalue
            for j in range(m)
        ]
        # Bonferroni over the systems, and all systems' cells pooled
        assert min(pvalues) > 1e-3 / m
        stat = np.sum((hits[admissible] - expected) ** 2 / expected)
        assert chi2.sf(stat, admissible.sum() - m) > 1e-3

    def test_system_without_admissible_level_raises(self):
        state = make_state(m=3, levels=2)
        state.u = np.array([1e-4, 1.0, 1e-4])  # no weight exceeds u_2
        with pytest.raises(FloatingPointError):
            update_allocations(state, np.random.default_rng(17))


class TestChain:
    @pytest.fixture(scope="class")
    def trace(self, ):
        scen = SimScenario(
            design=ObservationDesign(T=20.0, m=50, K=2),
            true_params=PlpParams(beta=np.array([1.2, 0.7]), alpha=np.array([5.0, 13.33])),
            eta=1.0,
            seed=3,
            normalize_frailties=True,
        )
        data, z = simulate(scen)
        grid = np.linspace(*DEFAULT_GRID)
        return run_chain(summarize(data), iterations=1500, burn_in=500, seed=5, grid=grid), z

    def test_frailty_mean_constraint_every_iteration(self, trace):
        tr, _ = trace
        assert np.max(np.abs(tr.z.mean(axis=1) - 1.0)) < 1e-10

    def test_recovers_realized_frailty_variance(self, trace):
        tr, z = trace
        vz = frailty_variance(tr.post_burn_in(tr.var_z))
        truth = float(np.sum((z - 1.0) ** 2) / (z.size - 1))
        assert vz.ci_low < truth < vz.ci_high

    def test_individual_frailties_track_truth(self, trace):
        tr, z = trace
        assert np.corrcoef(tr.z_hat, z)[0, 1] > 0.8

    def test_acceptance_near_target(self, trace):
        tr, _ = trace
        assert 0.6 < tr.acceptance_rate < 0.95
        assert tr.divergences < 0.05 * tr.iterations

    def test_trace_shapes(self, trace):
        tr, _ = trace
        assert tr.z.shape == (1500, 50)
        assert tr.var_z.shape == tr.mixture_var.shape == tr.c.shape == (1500,)
        assert tr.density.shape == np.linspace(*DEFAULT_GRID).shape

    def test_reproducible(self, trace):
        scen = SimScenario(
            design=ObservationDesign(T=20.0, m=50, K=2),
            true_params=PlpParams(beta=np.array([1.2, 0.7]), alpha=np.array([5.0, 13.33])),
            eta=1.0,
            seed=3,
            normalize_frailties=True,
        )
        data, _ = simulate(scen)
        again = run_chain(summarize(data), iterations=1500, burn_in=500, seed=5)
        assert np.array_equal(again.z, trace[0].z)

    def test_rejects_bad_lengths(self, trace):
        scen_data, _ = simulate(
            SimScenario(
                design=ObservationDesign(T=20.0, m=4, K=1),
                true_params=PlpParams(beta=np.array([1.0]), alpha=np.array([5.0])),
                seed=1,
            )
        )
        with pytest.raises(ValueError):
            run_chain(summarize(scen_data), iterations=100, burn_in=200, seed=0)

    @pytest.mark.parametrize("levels", [1, 5, 40])
    def test_carried_levels_are_never_read(self, monkeypatch, levels):
        # only c, y and w cross a sweep: NaN sticks, weights, atoms and slices
        # of any length in the initial state leave the chain bit-identical
        data, _ = simulate(
            SimScenario(
                design=ObservationDesign(T=20.0, m=12, K=1),
                true_params=PlpParams(beta=np.array([1.0]), alpha=np.array([5.0])),
                eta=0.5,
                seed=4,
            )
        )
        summary = summarize(data)
        reference = run_chain(summary, iterations=80, burn_in=30, seed=2, grid=np.linspace(*DEFAULT_GRID))
        init = dpm._init_state

        def nan_levels(w):
            state = init(w)
            state.nu, state.rho, state.mu, state.tau, state.u = (
                np.full(levels, np.nan) for _ in range(5)
            )
            return state

        monkeypatch.setattr(dpm, "_init_state", nan_levels)
        again = run_chain(summary, iterations=80, burn_in=30, seed=2, grid=np.linspace(*DEFAULT_GRID))
        for f in dataclasses.fields(again):
            assert np.array_equal(getattr(again, f.name), getattr(reference, f.name)), f.name

    def test_rejects_negative_burn_in_before_sweeping(self, monkeypatch):
        # a negative burn-in used to run, keep only the last draws as
        # "post-burn-in" and divide the density sum by iterations - burn_in
        def no_sweeps(*args):
            raise AssertionError("the chain ran")

        monkeypatch.setattr(dpm, "update_concentration", no_sweeps)
        data, _ = simulate(
            SimScenario(
                design=ObservationDesign(T=20.0, m=4, K=1),
                true_params=PlpParams(beta=np.array([1.0]), alpha=np.array([5.0])),
                seed=1,
            )
        )
        with pytest.raises(ValueError, match="burn_in must not be negative"):
            run_chain(summarize(data), iterations=200, burn_in=-5, seed=0)

    def test_needs_two_systems(self):
        data, _ = simulate(
            SimScenario(
                design=ObservationDesign(T=20.0, m=1, K=1),
                true_params=PlpParams(beta=np.array([1.0]), alpha=np.array([5.0])),
                seed=1,
            )
        )
        with pytest.raises(ValueError):
            run_chain(summarize(data), iterations=10, burn_in=5, seed=0)


class TestDensity:
    def test_single_standard_atom_at_one(self):
        val = log_frailty_density(np.array([1.0]), [1.0], [0.0], [1.0])[0]
        assert val == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_two_separated_atoms_are_bimodal(self):
        grid = np.linspace(0.05, 4.0, 800)
        dens = log_frailty_density(grid, [0.5, 0.5], [-1.0, 0.8], [8.0, 8.0])
        interior = (dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:])
        assert interior.sum() == 2

    def test_integrates_to_one(self):
        # the upper integration limit must sit far enough out: the standard
        # log-normal still carries ~5e-5 of mass beyond z = 50
        grid = np.linspace(1e-4, 400.0, 400_001)
        dens = log_frailty_density(grid, [1.0], [0.0], [1.0])
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(ValueError):
            log_frailty_density(np.array([0.0, 1.0]), [1.0], [0.0], [1.0])

    def test_estimate_renormalizes_truncated_mass(self):
        # a state covering only half the stick mass must still integrate to 1
        grid = np.linspace(1e-4, 400.0, 200_001)
        dens = log_frailty_density(grid, [0.5], [0.0], [1.0])
        assert np.trapezoid(dens, grid) == pytest.approx(1.0, abs=1e-5)

    def test_levels_at_once_match_a_sum_over_levels(self):
        grid = np.linspace(0.05, 4.0, 80)
        rho = np.array([0.3, 0.6, 0.05])
        mu = np.array([-0.5, 0.4, 1.2])
        tau = np.array([4.0, 2.0, 0.5])
        expected = sum(
            r * np.sqrt(t / (2.0 * np.pi)) / grid * np.exp(-0.5 * t * (np.log(grid) - u) ** 2)
            for r, u, t in zip(rho, mu, tau)
        ) / rho.sum()
        assert np.allclose(log_frailty_density(grid, rho, mu, tau), expected, rtol=1e-14, atol=0.0)

    def test_chain_density_is_the_mean_over_post_burn_in_states(self, monkeypatch):
        calls = []

        def recorded(*args):
            calls.append(log_frailty_density(*args))
            return calls[-1]

        monkeypatch.setattr(dpm, "log_frailty_density", recorded)
        data, _ = simulate(
            SimScenario(
                design=ObservationDesign(T=20.0, m=10, K=1),
                true_params=PlpParams(beta=np.array([1.0]), alpha=np.array([5.0])),
                eta=0.5,
                seed=2,
            )
        )
        grid = np.linspace(0.1, 3.0, 50)
        tr = run_chain(summarize(data), iterations=60, burn_in=20, seed=1, grid=grid)
        assert len(calls) == 60 - 20
        assert np.allclose(tr.density, np.mean(calls, axis=0), rtol=1e-14, atol=0.0)

    def test_chain_without_a_grid_evaluates_no_density(self, monkeypatch):
        data, _ = simulate(
            SimScenario(
                design=ObservationDesign(T=20.0, m=10, K=1),
                true_params=PlpParams(beta=np.array([1.0]), alpha=np.array([5.0])),
                eta=0.5,
                seed=2,
            )
        )
        summary = summarize(data)
        with_grid = run_chain(summary, iterations=60, burn_in=20, seed=1, grid=np.linspace(0.1, 3.0, 50))

        def no_density(*args):
            raise AssertionError("the density was evaluated")

        monkeypatch.setattr(dpm, "log_frailty_density", no_density)
        tr = run_chain(summary, iterations=60, burn_in=20, seed=1)
        assert tr.density is None
        # the grid is only read, so the chain itself is the same
        for f in dataclasses.fields(tr):
            if f.name != "density":
                assert np.array_equal(getattr(tr, f.name), getattr(with_grid, f.name)), f.name

    @pytest.mark.parametrize("grid", [np.array([0.0, 1.0]), np.array([np.nan]), np.empty(0)])
    def test_chain_rejects_a_bad_grid_before_sweeping(self, monkeypatch, grid):
        def no_sweeps(*args):
            raise AssertionError("the chain ran")

        monkeypatch.setattr(dpm, "update_concentration", no_sweeps)
        data, _ = simulate(
            SimScenario(
                design=ObservationDesign(T=20.0, m=4, K=1),
                true_params=PlpParams(beta=np.array([1.0]), alpha=np.array([5.0])),
                seed=1,
            )
        )
        with pytest.raises(ValueError, match="grid"):
            run_chain(summarize(data), iterations=10, burn_in=5, seed=0, grid=grid)


class TestVarianceSummaries:
    def test_constant_draws(self):
        vs = frailty_variance(np.full(50, 0.5))
        assert vs.mean == 0.5 and vs.sd == 0.0
        assert vs.ci_low == vs.ci_high == 0.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            frailty_variance(np.array([]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "finite, n_inf, ci_high",
        [(90, 11, math.inf), (98, 3, math.inf), (40, 1, 1.0), (99, 2, 1.0)],
    )
    def test_interval_end_among_inf_draws(self, finite, n_inf, ci_high):
        # the 97.5% point lies between two inf draws, between a finite and
        # an inf draw, exactly on a finite draw next to an inf one, or
        # between two finite draws below the infs
        vs = frailty_variance([1.0] * finite + [math.inf] * n_inf)
        assert vs.ci_low == 1.0
        assert vs.ci_high == ci_high

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=300))
    def test_finite_interval_is_numpy_linear_quantile(self, draws):
        vs = frailty_variance(draws)
        lo, hi = np.quantile(draws, [0.025, 0.975])
        assert vs.ci_low == pytest.approx(lo, rel=1e-12, abs=1e-300)
        assert vs.ci_high == pytest.approx(hi, rel=1e-12, abs=1e-300)

    def test_mixture_based_summary_runs(self):
        # crude agreement check on a short chain; the mixture version is
        # heavy-tailed, so only the quantiles are compared loosely
        scen = SimScenario(
            design=ObservationDesign(T=20.0, m=30, K=2),
            true_params=PlpParams(beta=np.array([1.2, 0.7]), alpha=np.array([5.0, 13.33])),
            eta=0.6,
            seed=21,
            normalize_frailties=True,
        )
        data, _ = simulate(scen)
        tr = run_chain(summarize(data), iterations=800, burn_in=400, seed=1)
        mv = frailty_variance(tr.post_burn_in(tr.mixture_var))
        assert mv.ci_low > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_mixture_state_beyond_float_range_leaves_interval_exact(self):
        # a standard log-normal atom has variance e (e - 1); one state with
        # tau = 1e-3 has a variance near exp(2000), beyond the float range
        state = (np.array([1.0]), np.array([0.0]), np.array([1.0]))
        huge = (np.array([1.0]), np.array([0.0]), np.array([1e-3]))
        # and one with tau = 4e-3 a finite variance near exp(500), whose square overflows
        big = (np.array([1.0]), np.array([0.0]), np.array([4e-3]))
        assert _mixture_var(*huge) == math.inf
        assert math.isfinite(_mixture_var(*big))
        for outlier, mean in ((huge, math.inf), (big, pytest.approx(_mixture_var(*big) / 101))):
            mv = frailty_variance([_mixture_var(*state)] * 100 + [_mixture_var(*outlier)])
            assert mv.ci_low == mv.ci_high == pytest.approx(math.e * (math.e - 1.0), rel=1e-12)
            assert mv.mean == mean
