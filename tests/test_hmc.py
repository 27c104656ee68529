"""Hamiltonian Monte Carlo kernel: integrator, acceptance, adaptation."""

import numpy as np
import pytest

from frailplp.hmc import (
    HmcConfig,
    DualAveraging,
    transform,
    leapfrog,
    hmc_update,
    log_target_z,
)

# a fixed smooth target for kernel-level checks: standard normal in z*
def _gauss(q):
    return -0.5 * float(q @ q), -q


FIXED_ATOMS = dict(
    n_j=np.array([4.0, 1.0, 7.0]),
    mu=np.array([0.1, -0.2, 0.3]),
    tau=np.array([2.0, 1.5, 3.0]),
)


def _frailty_target(q):
    return log_target_z(q, FIXED_ATOMS["n_j"], FIXED_ATOMS["mu"], FIXED_ATOMS["tau"])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HmcConfig(step_size=0.0)
        with pytest.raises(ValueError):
            HmcConfig(leapfrog_steps=0)
        with pytest.raises(ValueError):
            HmcConfig(step_jitter=1.0)


class TestLeapfrog:
    def test_reversibility(self):
        q0 = np.array([0.3, -0.7, 1.1])
        p0 = np.array([0.5, 0.2, -0.4])
        q1, p1, _, ok = leapfrog(q0, p0, 0.05, 30, _gauss, -q0)
        assert ok
        q2, p2, _, ok = leapfrog(q1, -p1, 0.05, 30, _gauss, -q1)
        assert ok
        assert np.max(np.abs(q2 - q0)) < 1e-10
        assert np.max(np.abs(-p2 - p0)) < 1e-10

    def test_energy_conservation_small_step(self):
        q0 = np.array([0.3, -0.7])
        p0 = np.array([0.5, 0.2])
        logp0, _ = _gauss(q0)
        h0 = -logp0 + 0.5 * float(p0 @ p0)
        q1, p1, logp1, ok = leapfrog(q0, p0, 1e-3, 100, _gauss, -q0)
        assert ok
        h1 = -logp1 + 0.5 * float(p1 @ p1)
        assert abs(h1 - h0) < 1e-5

    def test_exact_dynamics_on_quadratic(self):
        # for the standard normal, Hamiltonian flow is rotation; a full
        # period (2 pi) returns to the start up to integrator error
        q0 = np.array([1.0])
        p0 = np.array([0.0])
        eps = 0.01
        n = int(round(2 * np.pi / eps))
        q1, p1, _, _ = leapfrog(q0, p0, eps, n, _gauss, -q0)
        assert q1[0] == pytest.approx(1.0, abs=0.01)
        assert p1[0] == pytest.approx(0.0, abs=0.01)


class TestUpdate:
    def test_tiny_step_always_accepts(self):
        rng = np.random.default_rng(0)
        cfg = HmcConfig(step_size=1e-6, leapfrog_steps=3, step_jitter=0.0, adapt=False)
        q = np.array([0.2, -0.1])
        for _ in range(20):
            q, accepted, divergent, accept_prob = hmc_update(q, _gauss, cfg, rng)
            assert accepted and not divergent
            assert accept_prob > 0.999

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_keeps_current_point(self):
        rng = np.random.default_rng(1)
        cfg = HmcConfig(step_size=200.0, leapfrog_steps=30, step_jitter=0.0, adapt=False)
        q0 = np.array([0.5, 0.5])
        q, accepted, divergent, accept_prob = hmc_update(q0, _frailty_target, cfg, rng)
        assert divergent and not accepted
        assert np.array_equal(q, q0)
        assert accept_prob == 0.0

    def test_one_gradient_evaluation_per_step_plus_start(self):
        calls = []

        def counted(q):
            calls.append(q)
            return _gauss(q)

        rng = np.random.default_rng(4)
        cfg = HmcConfig(step_size=0.05, leapfrog_steps=20, step_jitter=0.0, adapt=False)
        _, _, divergent, _ = hmc_update(np.array([0.3, -0.2]), counted, cfg, rng)
        assert not divergent
        assert len(calls) == 21

    def test_invariance_of_gaussian_moments(self):
        rng = np.random.default_rng(2)
        cfg = HmcConfig(step_size=0.4, leapfrog_steps=10, adapt=False)
        q = np.zeros(2)
        draws = []
        for _ in range(6000):
            q, *_ = hmc_update(q, _gauss, cfg, rng)
            draws.append(q.copy())
        draws = np.array(draws[500:])
        assert np.abs(draws.mean(axis=0)).max() < 0.05
        assert np.allclose(draws.var(axis=0), 1.0, atol=0.08)


class TestDualAveraging:
    def test_drives_acceptance_to_target(self):
        rng = np.random.default_rng(3)
        cfg = HmcConfig(step_size=0.5, leapfrog_steps=10, target_accept=0.8)
        adapter = DualAveraging(cfg.step_size, target=cfg.target_accept)
        q = np.zeros(2)
        step = cfg.step_size
        for it in range(1500):
            q, _, _, accept_prob = hmc_update(q, _frailty_target, cfg, rng, step_size=step)
            step = adapter.update(accept_prob)
        step = adapter.adapted_step
        accepts = []
        for _ in range(2000):
            q, accepted, *_ = hmc_update(q, _frailty_target, cfg, rng, step_size=step)
            accepts.append(accepted)
        assert 0.65 < np.mean(accepts) < 0.95

    def test_shrinks_oversized_step(self):
        adapter = DualAveraging(10.0, target=0.8)
        step = 10.0
        for _ in range(200):
            step = adapter.update(0.0)  # constant rejection
        assert adapter.adapted_step < 1.0

    def test_grows_undersized_step(self):
        adapter = DualAveraging(1e-4, target=0.8)
        for _ in range(200):
            adapter.update(1.0)  # constant acceptance
        assert adapter.adapted_step > 1e-4


class TestFrailtyPosterior:
    def test_exchangeable_target_centers_at_unit_frailties(self):
        # equal counts and identical atoms make the coordinates exchangeable,
        # so every posterior mean frailty is 1
        n_j = np.full(4, 5.0)
        mu = np.zeros(4)
        tau = np.full(4, 2.0)
        rng = np.random.default_rng(4)
        cfg = HmcConfig(step_size=0.1, leapfrog_steps=20)
        adapter = DualAveraging(cfg.step_size, target=cfg.target_accept)
        q = np.zeros(3)
        step = cfg.step_size
        zs = []
        for it in range(6000):
            q, _, _, accept_prob = hmc_update(
                q, lambda x: log_target_z(x, n_j, mu, tau), cfg, rng, step_size=step
            )
            if it < 1000:
                step = adapter.update(accept_prob)
            elif it == 1000:
                step = adapter.adapted_step
            else:
                zs.append(transform(q)[0])
        zs = np.array(zs)
        assert np.abs(zs.mean(axis=0) - 1.0).max() < 0.05

    def test_chain_orders_frailties_by_counts(self):
        # more failures mean a larger inferred frailty when atoms are shared
        n_j = np.array([1.0, 5.0, 12.0])
        mu = np.zeros(3)
        tau = np.ones(3)
        rng = np.random.default_rng(5)
        cfg = HmcConfig(step_size=0.15, leapfrog_steps=20)
        q = np.zeros(2)
        zs = []
        for it in range(4000):
            q, *_ = hmc_update(
                q, lambda x: log_target_z(x, n_j, mu, tau), cfg, rng
            )
            if it >= 500:
                zs.append(transform(q)[0])
        z_mean = np.array(zs).mean(axis=0)
        assert z_mean[0] < z_mean[1] < z_mean[2]
