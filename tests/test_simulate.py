"""Synthetic data generation: distributions, determinism, substreams."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from frailplp.data import _CHUNK_VALUES, FailureDataset, ObservationDesign, summarize
from frailplp.plp import PlpParams
from frailplp.simulate import (
    FrailtyMixture,
    SimScenario,
    draw_frailties,
    simulate,
    write_frailties,
)

from conftest import COLUMNS, REPR_EDGES, same_events

# the package exports the simulate function under the module's name
simulate_module = importlib.import_module("frailplp.simulate")


def scenario(m=50, K=2, beta=(1.2, 0.7), alpha=(5.0, 13.33), **kw):
    return SimScenario(
        design=ObservationDesign(T=20.0, m=m, K=K),
        true_params=PlpParams(beta=np.array(beta), alpha=np.array(alpha)),
        **kw,
    )


class TestFrailties:
    def test_zero_variance_gives_unit_frailties(self):
        z = draw_frailties(scenario(eta=0.0, seed=1))
        assert np.all(z == 1.0)

    def test_gamma_moments_large_sample(self):
        z = draw_frailties(scenario(m=200_000, eta=0.5, seed=2))
        assert z.mean() == pytest.approx(1.0, abs=0.01)
        assert z.var(ddof=1) == pytest.approx(0.5, rel=0.03)

    def test_gamma_shape_matches_reference(self):
        # gamma with mean 1 and variance eta has shape 1/eta; compare the
        # empirical CDF against the reference distribution
        eta = 0.8
        z = draw_frailties(scenario(m=100_000, eta=eta, seed=3))
        d, _ = stats.kstest(z, "gamma", args=(1.0 / eta, 0.0, eta))
        assert d < 1.63 / np.sqrt(z.size)  # 1% critical value

    def test_normalization_forces_sample_mean_one(self):
        z = draw_frailties(scenario(m=37, eta=1.0, seed=4, normalize_frailties=True))
        assert z.mean() == pytest.approx(1.0, abs=1e-12)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            scenario(eta=-0.1)

    @pytest.mark.parametrize("eta", [float("nan"), float("inf")])
    def test_non_finite_variance_rejected(self, eta):
        with pytest.raises(ValueError, match="eta must be finite"):
            scenario(eta=eta)

    def test_variance_whose_gamma_shape_overflows_rejected(self):
        # 1/eta overflows below about 5.6e-309; a mixture family has no use for eta
        with pytest.raises(ValueError, match="eta 1e-310 is too small: the gamma shape 1/eta overflows"):
            scenario(eta=1e-310)
        assert draw_frailties(scenario(m=1000, eta=1e-308, seed=1)) == pytest.approx(1.0)
        mixture = FrailtyMixture(weights=[1.0], mu=[0.0], sigma=[0.5])
        assert draw_frailties(scenario(eta=1e-310, frailty_family=mixture)).all()

    @pytest.mark.parametrize("seed", [5, 15])
    def test_frailties_that_all_underflow_cannot_be_normalized(self, seed):
        # a Gamma(1e-3) draw is exactly 0 with probability 0.47, and these
        # seeds draw three zeros, whose rescale to mean one would be 0/0
        assert not draw_frailties(scenario(m=3, eta=1e3, seed=seed)).any()
        message = f"all 3 frailties drawn with eta 1000.0 and seed {seed} underflowed to 0"
        with pytest.raises(FloatingPointError, match=message):
            draw_frailties(scenario(m=3, eta=1e3, seed=seed, normalize_frailties=True))

    def test_mixture_frailties_that_all_underflow_cannot_be_normalized(self):
        # the unit-mean shift leaves the heavy component at exp(-772), below
        # the smallest float; the message names the mixture, not the unused eta
        mixture = FrailtyMixture(weights=[1 - 1e-12, 1e-12], mu=[-800.0, 0.0], sigma=[0.1, 0.1])
        assert not draw_frailties(scenario(m=3, frailty_family=mixture, seed=1)).any()
        message = "all 3 frailties drawn with the frailty mixture and seed 1 underflowed to 0"
        with pytest.raises(FloatingPointError, match=message):
            draw_frailties(scenario(m=3, frailty_family=mixture, seed=1, normalize_frailties=True))


class TestFrailtyMixture:
    def test_rescaled_to_unit_mean(self):
        mix = FrailtyMixture(
            weights=np.array([0.3, 0.7]), mu=np.array([-1.0, 0.8]),
            sigma=np.array([0.2, 0.4]),
        )
        analytic = float(np.sum(mix.weights * np.exp(mix.mu + 0.5 * mix.sigma**2)))
        assert analytic == pytest.approx(1.0, abs=1e-12)
        z = mix.sample(300_000, np.random.default_rng(5))
        assert z.mean() == pytest.approx(1.0, abs=0.01)

    def test_variance_property_matches_samples(self):
        mix = FrailtyMixture(
            weights=np.array([0.5, 0.5]), mu=np.array([-0.8, 0.5]),
            sigma=np.array([0.25, 0.25]),
        )
        z = mix.sample(400_000, np.random.default_rng(6))
        assert z.var(ddof=1) == pytest.approx(mix.variance, rel=0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            FrailtyMixture(weights=np.array([1.0]), mu=np.array([0.0, 1.0]),
                           sigma=np.array([1.0]))
        with pytest.raises(ValueError):
            FrailtyMixture(weights=np.array([-1.0]), mu=np.array([0.0]),
                           sigma=np.array([1.0]))

    @pytest.mark.parametrize("name, triple", [
        ("weight", (math.nan, 0.0, 1.0)),
        ("weight", (math.inf, 0.0, 1.0)),
        ("mu", (1.0, math.nan, 1.0)),
        ("mu", (1.0, -math.inf, 1.0)),
        ("sigma", (1.0, 0.0, math.nan)),
        ("sigma", (1.0, 0.0, math.inf)),
    ], ids=["weight-nan", "weight-inf", "mu-nan", "mu-neg-inf", "sigma-nan", "sigma-inf"])
    def test_non_finite_parameter_rejected(self, name, triple):
        weight, mu, sigma = triple
        with pytest.raises(ValueError, match=f"mixture {name} must be finite"):
            FrailtyMixture(weights=np.array([weight]), mu=np.array([mu]), sigma=np.array([sigma]))

    @pytest.mark.parametrize("mu, sigma, mean", [
        (1000.0, 1.0, "inf"), (0.0, 40.0, "inf"), (-1000.0, 1.0, "0.0"),
    ], ids=["overflow-mu", "overflow-sigma", "underflow-mu"])
    def test_mean_beyond_floats_rejected(self, mu, sigma, mean):
        # exp(mu + sigma^2 / 2) overflows or underflows, so the rescaling to
        # unit mean would make every frailty 0 or inf
        with pytest.raises(ValueError, match=f"mixture mean {mean} is not finite"):
            FrailtyMixture(weights=np.array([1.0]), mu=np.array([mu]), sigma=np.array([sigma]))


class TestEventGeneration:
    def test_counts_are_poisson_with_frailty_scaled_mean(self):
        # with unit frailties each (system, cause) count is Poisson(alpha_q)
        scen = scenario(m=20_000, eta=0.0, seed=7)
        data, _ = simulate(scen)
        s = summarize(data)
        for q, a in enumerate((5.0, 13.33)):
            counts = s.n_jq[:, q]
            assert counts.mean() == pytest.approx(a, rel=0.02)
            assert counts.var(ddof=1) == pytest.approx(a, rel=0.05)

    def test_expected_total_failures_per_system(self):
        scen = scenario(m=20_000, eta=0.0, seed=8)
        data, _ = simulate(scen)
        assert len(data) / 20_000 == pytest.approx(5.0 + 13.33, rel=0.02)

    def test_unit_elasticity_times_are_uniform(self):
        scen = scenario(m=2_000, K=1, beta=(1.0,), alpha=(5.0,), eta=0.0, seed=9)
        data, _ = simulate(scen)
        times = data.time
        assert times.size > 9_000
        d, _ = stats.kstest(times / 20.0, "uniform")
        assert d < 1.63 / np.sqrt(times.size)  # 1% critical value

    def test_general_elasticity_time_distribution(self):
        # marginal CDF of an event time is (t/T)^beta
        beta = 2.0
        scen = scenario(m=2_000, K=1, beta=(beta,), alpha=(5.0,), eta=0.0, seed=10)
        data, _ = simulate(scen)
        times = data.time
        d, _ = stats.kstest((times / 20.0) ** beta, "uniform")
        assert d < 1.63 / np.sqrt(times.size)

    def test_overdispersion_under_frailty(self):
        # marginally the per-system count has variance alpha + eta * alpha^2
        eta, alpha = 0.5, 5.0
        scen = scenario(m=50_000, K=1, beta=(1.2,), alpha=(alpha,), eta=eta, seed=11)
        data, _ = simulate(scen)
        counts = summarize(data).n_jq[:, 0]
        assert counts.mean() == pytest.approx(alpha, rel=0.03)
        assert counts.var(ddof=1) == pytest.approx(alpha + eta * alpha**2, rel=0.05)

    def test_cause_counts_conditionally_independent(self):
        # without frailty, counts across causes are uncorrelated
        scen = scenario(m=50_000, eta=0.0, seed=12)
        data, _ = simulate(scen)
        s = summarize(data)
        corr = np.corrcoef(s.n_jq[:, 0], s.n_jq[:, 1])[0, 1]
        assert abs(corr) < 0.02

    def test_shared_frailty_induces_positive_dependence(self):
        scen = scenario(m=50_000, eta=1.0, seed=13)
        data, _ = simulate(scen)
        s = summarize(data)
        corr = np.corrcoef(s.n_jq[:, 0], s.n_jq[:, 1])[0, 1]
        assert corr > 0.5


class TestReproducibility:
    def test_same_seed_same_fleet(self):
        a, za = simulate(scenario(m=30, eta=0.5, seed=14))
        b, zb = simulate(scenario(m=30, eta=0.5, seed=14))
        assert same_events(a, b)
        assert np.array_equal(za, zb)

    def test_different_seeds_differ(self):
        a, _ = simulate(scenario(m=30, eta=0.5, seed=14))
        b, _ = simulate(scenario(m=30, eta=0.5, seed=15))
        assert not same_events(a, b)

    def test_per_system_substreams_prefix_stable(self):
        # growing the fleet must not change the histories of existing systems
        small, z_small = simulate(scenario(m=10, eta=0.5, seed=16))
        large, z_large = simulate(scenario(m=25, eta=0.5, seed=16))
        assert np.array_equal(z_small, z_large[:10])
        keep = large.system_id <= 10
        for name in COLUMNS:
            assert np.array_equal(getattr(large, name)[keep], getattr(small, name))


def reference_simulate(scenario):
    """The per-system loop that the fleet-wide uniform buffer replaced, kept as the oracle."""
    d, params = scenario.design, scenario.true_params
    z = draw_frailties(scenario)
    counts = np.empty((d.m, d.K), dtype=int)
    times = []
    for j in range(d.m):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=scenario.seed, spawn_key=(j + 1,)))
        system_times = []
        for q in range(d.K):
            counts[j, q] = rng.poisson(z[j] * params.alpha[q])
            system_times.append(d.T * rng.uniform(size=counts[j, q]) ** (1.0 / params.beta[q]))
        times.append(np.concatenate(system_times))
    system_id = np.repeat(np.arange(1, d.m + 1), counts.sum(axis=1))
    cause = np.repeat(np.tile(np.arange(1, d.K + 1), d.m), counts.ravel())
    return FailureDataset(d, system_id, cause, np.concatenate(times)), z


def assert_same_fleet(scen):
    (data, z), (ref, z_ref) = simulate(scen), reference_simulate(scen)
    assert np.array_equal(z, z_ref)
    for name in COLUMNS:
        assert getattr(data, name).dtype == getattr(ref, name).dtype
        assert np.array_equal(getattr(data, name), getattr(ref, name)), name
    return data


BIMODAL = FrailtyMixture(
    weights=np.array([0.5, 0.5]), mu=np.array([-1.5, 0.5]), sigma=np.array([0.2, 0.2])
)


# run entropy of 1 to 9 32-bit words, with the edges of the word counts
SEEDS = st.one_of(
    st.sampled_from([0, 2**32 - 1, 2**32, 2**128, 2**256]),
    st.integers(1, 9).flatmap(lambda words: st.integers(2 ** (32 * words - 32), 2 ** (32 * words) - 1)),
)


def numpy_stream(seed, key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


class TestSubstreamsMatchSeedSequence:
    @settings(max_examples=300, deadline=None)
    @given(seed=SEEDS, keys=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
           n=st.sampled_from([1, 8]))
    def test_seed_words_are_generate_state(self, seed, keys, n):
        words = simulate_module._seed_words(seed, keys, n)
        expected = [np.random.SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(n) for k in keys]
        assert words.dtype == np.uint32
        assert np.array_equal(words, expected)

    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, start=st.integers(0, 2**32 - 3))
    def test_each_stream_starts_from_the_pcg64_state(self, seed, start):
        keys = range(start, start + 3)
        for key, rng in zip(keys, simulate_module._streams(seed, keys.start, keys.stop), strict=True):
            assert rng.bit_generator.state == numpy_stream(seed, key).bit_generator.state
            assert np.array_equal(rng.random(3), numpy_stream(seed, key).random(3))

    @pytest.mark.parametrize("family, eta", [(None, 0.5), (BIMODAL, 0.0)], ids=["gamma", "mixture"])
    def test_frailties_come_from_substream_zero(self, family, eta):
        rng = numpy_stream(2**32 + 1, 0)
        expected = family.sample(40, rng) if family else rng.gamma(shape=1 / eta, scale=eta, size=40)
        z = draw_frailties(scenario(m=40, eta=eta, frailty_family=family, seed=2**32 + 1))
        assert np.array_equal(z, expected)


class TestMatchesPerSystemLoop:
    # exponents 1/beta of 2, 1 and 0.5 take numpy's scalar-power fast paths
    @pytest.mark.parametrize("m", [1, 2, 50, 500])
    @pytest.mark.parametrize(
        "beta", [(0.5,), (1.0,), (2.0,), (1.2, 0.7), (2.0, 0.5), (0.5, 1.0, 2.0)]
    )
    def test_same_fleet(self, m, beta):
        alpha = (5.0, 13.33, 2.5)[: len(beta)]
        for seed in (1, 2, 3):
            assert_same_fleet(scenario(m=m, K=len(beta), beta=beta, alpha=alpha, eta=0.5, seed=seed))

    # 600 systems cross two stream chunks; the seeds have 2 and 5 words
    @pytest.mark.parametrize("seed", [2**32 + 1, 2**128 + 3])
    def test_same_fleet_across_stream_chunks(self, seed):
        assert 2 * simulate_module._STREAM_CHUNK < 600
        assert_same_fleet(scenario(m=600, eta=0.5, seed=seed))

    # eta = 0 gives the degenerate law Z = 1 through the gamma family; the
    # mixture ignores eta
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize(
        "family, eta",
        [(None, 0.8), (None, 0.0), (BIMODAL, 0.8)],
        ids=["gamma", "degenerate", "family2"],
    )
    def test_same_fleet_for_each_frailty_family(self, family, eta, normalize):
        for seed in (4, 5):
            assert_same_fleet(
                scenario(m=60, K=3, beta=(1.3, 0.5, 2.0), alpha=(4.0, 9.0, 0.7), eta=eta,
                         frailty_family=family, seed=seed, normalize_frailties=normalize)
            )

    def test_same_fleet_when_most_systems_have_no_events(self):
        for seed in (6, 7):
            data = assert_same_fleet(
                scenario(m=200, beta=(1.2, 0.7), alpha=(0.03, 0.02), eta=1.5, seed=seed)
            )
            assert 0 < np.unique(data.system_id).size < 200 // 10

    def test_same_fleet_with_no_events_at_all(self):
        data = assert_same_fleet(scenario(m=3, K=1, beta=(1.0,), alpha=(1e-9,), seed=8))
        assert len(data) == 0

    @pytest.mark.parametrize("first", [0, 1, 40])
    def test_same_fleet_when_the_buffer_grows(self, monkeypatch, first):
        grown = []
        grow = simulate_module._grow

        def counted(buf, used, need):
            grown.append(need)
            return grow(buf, used, need)

        monkeypatch.setattr(simulate_module, "_first_capacity", lambda mean: first)
        monkeypatch.setattr(simulate_module, "_grow", counted)
        assert_same_fleet(scenario(m=50, eta=0.5, seed=9))
        assert len(grown) > 1

    def test_first_capacity_covers_a_typical_fleet(self):
        # the buffer is sized so that the usual fleet never copies it
        for seed in range(10):
            scen = scenario(m=500, eta=0.5, seed=seed)
            z = draw_frailties(scen)
            data, _ = simulate(scen)
            assert len(data) <= simulate_module._first_capacity(z.sum() * (5.0 + 13.33))


class TestFleetHeldOnce:
    def test_fleet_is_sorted_and_read_only(self):
        data, _ = simulate(scenario(m=500, eta=0.5, seed=12))
        assert np.array_equal(np.lexsort((data.time, data.system_id)), np.arange(len(data)))
        for name in COLUMNS:
            assert not getattr(data, name).flags.writeable

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            # each system's times, distinct within it and in any order; the
            # small pool makes times shared across systems common
            st.lists(st.sampled_from([0.25, 0.5, 1.0, 3.0, 7.5, 19.0, 20.0]), unique=True),
            min_size=1,
            max_size=12,
        )
    )
    def test_fleet_order_is_lexsort_order(self, systems):
        system_id = np.repeat(np.arange(1, len(systems) + 1), [len(t) for t in systems])
        time = np.array([t for times in systems for t in times], dtype=float)
        order = simulate_module._fleet_order(system_id, time)
        assert np.array_equal(order, np.lexsort((time, system_id)))

    def test_large_fleet_simulates_in_bounded_memory(self):
        scen = scenario(m=5000, eta=0.5, seed=11)
        tracemalloc.start()
        try:
            data, _ = simulate(scen)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(data) > 80_000
        column_bytes = sum(getattr(data, name).nbytes for name in COLUMNS)
        # the uniform buffer, the columns and the sort order while one column
        # is reordered: about 1.85 times the column bytes; a simulate that
        # leaves the sort to the dataset reads 2.85 times
        assert peak < 2.2 * column_bytes


def reference_write_frailties(path, z):
    """The per-row writer that the chunked writer replaced, kept as the oracle."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("system_id,z\n")
        for j, zj in enumerate(np.asarray(z, dtype=float), start=1):
            fh.write(f"{j},{float(zj)!r}\n")


SIDECAR_CHUNK_ROWS = _CHUNK_VALUES // 2
# row counts at the boundaries of a 1024-value chunk: off the current chunk's
# boundaries, they end a table part way through a chunk
SIDECAR_SMALL_CHUNK_ROWS = [511, 512, 513, 1538]


class TestSidecar:
    @pytest.mark.parametrize(
        "n",
        [0, 1, SIDECAR_CHUNK_ROWS - 1, SIDECAR_CHUNK_ROWS, SIDECAR_CHUNK_ROWS + 1,
         3 * SIDECAR_CHUNK_ROWS + 2, *SIDECAR_SMALL_CHUNK_ROWS],
    )
    def test_bytes_match_per_row_writer(self, tmp_path, n):
        z = np.concatenate([REPR_EDGES, np.random.default_rng(n).lognormal(sigma=12.0, size=n)])[:n]
        write_frailties(tmp_path / "new.csv", z)
        reference_write_frailties(tmp_path / "ref.csv", z)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_int_frailties_written_as_floats(self, tmp_path):
        write_frailties(tmp_path / "new.csv", [1, 2, 3])
        assert (tmp_path / "new.csv").read_text() == "system_id,z\n1,1.0\n2,2.0\n3,3.0\n"

    def test_round_trip_exact(self, tmp_path):
        z = draw_frailties(scenario(m=23, eta=0.7, seed=17))
        path = tmp_path / "truth.csv"
        write_frailties(path, z)
        assert np.array_equal(np.loadtxt(path, delimiter=",", skiprows=1, usecols=1), z)
