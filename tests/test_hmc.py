"""Hamiltonian Monte Carlo kernel: integrator, acceptance, adaptation."""

import math
from collections import Counter

import numpy as np
import pytest
from scipy.stats import ks_2samp

from frailplp.hmc import (
    STEP_JITTER,
    HmcConfig,
    DualAveraging,
    FrailtyTarget,
    leapfrog,
    hmc_update,
)

from conftest import UniformDraws
from test_transform import reference_log_target_z, transform


class Gauss:
    """A fixed smooth target for kernel-level checks: standard normal in the
    point, with FrailtyTarget's start / kick / finish / accept steps."""

    def __init__(self, z_star):
        self.z_star = np.array(z_star, dtype=float)

    def start(self, eps, r):
        self.scale = eps * eps
        r -= 0.5 * self.scale * self.z_star
        return -0.5 * float(self.z_star @ self.z_star)

    def kick(self, q, r):
        r -= self.scale * q

    def finish(self, q, r):
        r -= 0.5 * self.scale * q
        return -0.5 * float(q @ q)

    def accept(self, q):
        self.z_star = q


def frailty_target(z_star, n_j, mu, tau):
    target = FrailtyTarget(z_star)
    target.set_atoms(n_j, mu, tau)
    return target


def fixed_atoms(z_star):
    return frailty_target(
        z_star, np.array([4.0, 1.0, 7.0]), np.array([0.1, -0.2, 0.3]), np.array([2.0, 1.5, 3.0])
    )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            HmcConfig(step_size=0.0)
        with pytest.raises(ValueError):
            HmcConfig(leapfrog_steps=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(step_size=math.nan),
            dict(step_size=math.inf),
            dict(target_accept=0.0),
            dict(target_accept=1.0),
            dict(target_accept=1.5),
            dict(target_accept=math.nan),
        ],
    )
    def test_rejects_settings_that_make_a_meaningless_chain(self, kwargs):
        with pytest.raises(ValueError):
            HmcConfig(**kwargs)


class TestLeapfrog:
    def test_reversibility(self):
        q0 = np.array([0.3, -0.7, 1.1])
        p0 = np.array([0.5, 0.2, -0.4])
        q1, p1, _, _ = leapfrog(Gauss(q0), p0, 0.05, 30)
        q2, p2, _, _ = leapfrog(Gauss(q1), -p1, 0.05, 30)
        assert np.max(np.abs(q2 - q0)) < 1e-10
        assert np.max(np.abs(-p2 - p0)) < 1e-10

    def test_energy_conservation_small_step(self):
        q0 = np.array([0.3, -0.7])
        p0 = np.array([0.5, 0.2])
        q1, p1, logp0, logp1 = leapfrog(Gauss(q0), p0, 1e-3, 100)
        assert logp0 == -0.5 * float(q0 @ q0)
        h0 = -logp0 + 0.5 * float(p0 @ p0)
        h1 = -logp1 + 0.5 * float(p1 @ p1)
        assert abs(h1 - h0) < 1e-5

    def test_exact_dynamics_on_quadratic(self):
        # for the standard normal, Hamiltonian flow is rotation; a full
        # period (2 pi) returns to the start up to integrator error
        q0 = np.array([1.0])
        p0 = np.array([0.0])
        eps = 0.01
        n = int(round(2 * np.pi / eps))
        q1, p1, _, _ = leapfrog(Gauss(q0), p0, eps, n)
        assert q1[0] == pytest.approx(1.0, abs=0.01)
        assert p1[0] == pytest.approx(0.0, abs=0.01)


class TestUpdate:
    def test_tiny_step_always_accepts(self):
        rng = np.random.default_rng(0)
        cfg = HmcConfig(step_size=1e-6, leapfrog_steps=3, adapt=False)
        target = Gauss([0.2, -0.1])
        for _ in range(20):
            q, accepted, divergent, accept_prob = hmc_update(target, cfg, rng)
            assert accepted and not divergent
            assert q is target.z_star
            assert accept_prob > 0.999

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_keeps_current_point(self):
        rng = np.random.default_rng(1)
        cfg = HmcConfig(step_size=200.0, leapfrog_steps=30, adapt=False)
        q0 = np.array([0.5, 0.0, -0.5])
        target = fixed_atoms(q0)
        q, accepted, divergent, accept_prob = hmc_update(target, cfg, rng)
        assert divergent and not accepted
        assert np.array_equal(q, q0) and np.array_equal(target.z_star, q0)
        assert accept_prob == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_interior_gradient_is_divergent(self, bad):
        # interior steps do not check the gradient; the non-finite value
        # reaches the end point's energy, which must reject the trajectory
        rng = np.random.default_rng(6)
        cfg = HmcConfig(step_size=0.05, leapfrog_steps=5, adapt=False)
        class BadInterior(Gauss):
            def kick(self, q, r):
                r += bad

        q0 = np.array([0.3, -0.2])
        q, accepted, divergent, accept_prob = hmc_update(BadInterior(q0), cfg, rng)
        assert divergent and not accepted
        assert np.array_equal(q, q0)
        assert accept_prob == 0.0

    def test_one_gradient_evaluation_per_step_plus_start(self):
        # only the start and end points, where the Hamiltonian is evaluated,
        # compute the log density
        calls = []

        class Counted(Gauss):
            def start(self, eps, r):
                calls.append("logp")
                return super().start(eps, r)

            def kick(self, q, r):
                calls.append("grad")
                super().kick(q, r)

            def finish(self, q, r):
                calls.append("logp")
                return super().finish(q, r)

        rng = np.random.default_rng(4)
        cfg = HmcConfig(step_size=0.05, leapfrog_steps=20, adapt=False)
        _, _, divergent, _ = hmc_update(Counted([0.3, -0.2]), cfg, rng)
        assert not divergent
        assert len(calls) == 21
        assert calls.count("logp") == 2
        assert calls[0] == calls[-1] == "logp"

    def test_invariance_of_gaussian_moments(self):
        rng = np.random.default_rng(2)
        cfg = HmcConfig(step_size=0.4, leapfrog_steps=10, adapt=False)
        target = Gauss(np.zeros(2))
        draws = []
        for _ in range(6000):
            q, *_ = hmc_update(target, cfg, rng)
            draws.append(q.copy())
        draws = np.array(draws[500:])
        assert np.abs(draws.mean(axis=0)).max() < 0.05
        assert np.allclose(draws.var(axis=0), 1.0, atol=0.08)


class TestDualAveraging:
    def test_drives_acceptance_to_target(self):
        rng = np.random.default_rng(3)
        cfg = HmcConfig(step_size=0.5, leapfrog_steps=10, target_accept=0.8)
        adapter = DualAveraging(cfg.step_size, target=cfg.target_accept)
        target = fixed_atoms(np.zeros(3))
        step = cfg.step_size
        for it in range(1500):
            _, _, _, accept_prob = hmc_update(target, cfg, rng, step_size=step)
            step = adapter.update(accept_prob)
        step = adapter.adapted_step
        accepts = []
        for _ in range(2000):
            _, accepted, *_ = hmc_update(target, cfg, rng, step_size=step)
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
        target = frailty_target(np.zeros(4), n_j, mu, tau)
        step = cfg.step_size
        zs = []
        for it in range(6000):
            q, _, _, accept_prob = hmc_update(target, cfg, rng, step_size=step)
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
        target = frailty_target(np.zeros(3), n_j, mu, tau)
        zs = []
        for it in range(4000):
            q, *_ = hmc_update(target, cfg, rng)
            if it >= 500:
                zs.append(transform(q)[0])
        z_mean = np.array(zs).mean(axis=0)
        assert z_mean[0] < z_mean[1] < z_mean[2]


# A plain reference for one transition on the sum-zero plane: every leapfrog
# step evaluates the log density with scipy's max-shifted logsumexp and
# checks the gradient for finiteness, and the momentum is projected onto the
# plane, where the drawn momentum's component along (1, ..., 1) cancels.
def _reference_leapfrog(v, p, eps, n_steps, grad_fn, grad0):
    q = np.array(v, dtype=float)
    p = np.array(p, dtype=float) + 0.5 * eps * grad0
    for step in range(n_steps):
        q = q + eps * p
        logp, grad = grad_fn(q)
        if not np.isfinite(grad).all():
            return q, p, -np.inf, False
        p = p + (eps if step < n_steps - 1 else 0.5 * eps) * grad
    return q, p, logp, True


def _reference_hmc_update(v, logp_grad_fn, config, rng, step_size):
    eps = step_size * (1.0 + STEP_JITTER * (2.0 * rng.uniform() - 1.0))
    q0 = np.asarray(v, dtype=float)
    logp0, grad0 = logp_grad_fn(q0)
    p0 = rng.standard_normal(q0.size)
    p0 -= p0.mean()
    h0 = -logp0 + 0.5 * float(p0 @ p0)
    with np.errstate(over="ignore", invalid="ignore"):
        q1, p1, logp1, ok = _reference_leapfrog(
            q0, p0, eps, config.leapfrog_steps, logp_grad_fn, grad0
        )
    if not ok or not np.isfinite(logp1):
        return q0, False, True, 0.0
    h1 = -logp1 + 0.5 * float(p1 @ p1)
    delta = h0 - h1
    if delta < -1000.0:
        return q0, False, True, 0.0
    accept_prob = min(1.0, math.exp(min(0.0, delta)))
    if rng.uniform() < accept_prob:
        return q1, True, False, accept_prob
    return q0, False, False, accept_prob


def _transition_pairs(m, v_scale, log_eps_range, count=200):
    """Reference and new transitions from random states, each pair on one stream."""
    cfg = HmcConfig()
    gen = np.random.default_rng(m)
    for i in range(count):
        v = gen.normal(scale=v_scale, size=m)
        v -= v.mean()
        n_j = gen.poisson(5.0, size=m).astype(float)
        mu = gen.normal(scale=0.5, size=m)
        tau = gen.gamma(2.0, 1.0, size=m)
        eps = math.exp(gen.uniform(*log_eps_range))
        ref = _reference_hmc_update(
            v,
            lambda q: reference_log_target_z(q, n_j, mu, tau)[:2],
            cfg,
            np.random.default_rng(i),
            eps,
        )
        target = frailty_target(v, n_j, mu, tau)
        new = hmc_update(target, cfg, np.random.default_rng(i), step_size=eps)
        yield ref, new, target


def _assert_same_transitions(pairs):
    outcomes = Counter()
    for ref, new, target in pairs:
        assert new[1:3] == ref[1:3]
        assert np.max(np.abs(new[0] - ref[0])) <= 1e-10 * max(1.0, np.max(np.abs(ref[0])))
        assert new[3] == pytest.approx(ref[3], abs=1e-9)
        # the target's current point is the returned one, on the plane, and
        # its forward pass is that point's
        assert new[0] is target.z_star
        assert abs(new[0].sum()) <= 1e-10 * max(1.0, np.max(np.abs(new[0])))
        assert np.array_equal(target.w, FrailtyTarget(new[0]).w)
        outcomes[ref[1:3]] += 1
    return set(outcomes)


class TestMatchesReferenceTransition:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [50, 500, 2000, 5000])
    def test_same_decisions_and_end_point(self, m):
        # step sizes from 0.01 to 1 give accepted, rejected and divergent
        # trajectories; on the plane the rejections fall within 0.25-0.5
        outcomes = _assert_same_transitions(
            _transition_pairs(m, 0.3, (math.log(0.01), math.log(1.0)))
        )
        assert outcomes == {(True, False), (False, False), (False, True)}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [50, 500, 5000])
    def test_same_decisions_and_end_point_far_from_the_origin(self, m):
        # v at scale 20 puts frailties up to e^80 apart, where exp(v) spans
        # most of the float range.  Out there the target is so steep that a
        # trajectory mostly either falls toward the mode and is accepted with
        # probability 1 or diverges.
        outcomes = _assert_same_transitions(
            _transition_pairs(m, 20.0, (math.log(1e-4), math.log(2.0)))
        )
        assert {(True, False), (False, True)} <= outcomes


class TestUniformDraws:
    def test_same_transition_and_stream_as_uniform_calls(self):
        # random() returns the doubles of uniform(0, 1) and advances the
        # stream alike, for the step jitter and the accept test
        cfg = HmcConfig(leapfrog_steps=5)
        gen = np.random.default_rng(0)
        outcomes = set()
        for seed in range(40):
            v = gen.normal(scale=0.3, size=10)
            v -= v.mean()
            eps = math.exp(gen.uniform(math.log(0.05), math.log(1.5)))
            moves = []
            for rng in (np.random.default_rng(seed), UniformDraws(seed)):
                target = frailty_target(v.copy(), np.full(10, 3.0), np.zeros(10), np.ones(10))
                moves.append((hmc_update(target, cfg, rng, step_size=eps), rng.bit_generator.state))
            (new, state), (old, old_state) = moves
            assert np.array_equal(new[0], old[0])
            assert new[1:] == old[1:]
            assert state == old_state
            outcomes.add(new[1])
        assert outcomes == {True, False}


# The stick-breaking target that the sum-zero one replaced, kept as the oracle
# for the HMC move's law.  z* has length m - 1: B_j = logistic(z*_j - log(m -
# j)), A_j = B_j prod_{o<j}(1 - B_o), A_m closes the simplex and Z = m A, so
# z* = 0 gives Z = (1, ..., 1) and log |J| = sum_j log A_j.  With x = z* -
# offset, sp = log1p(exp(-|x|)) gives log B = min(x, 0) - sp and log(1 - B) =
# log B - x; with g = (n + tau mu) - tau w and T_k = sum_{j>=k} g_j, the
# gradient is g_k - B_k T_k for k = 1..m-1.
class StickTarget:
    def __init__(self, z_star):
        self.z_star = np.array(z_star, dtype=float)
        m = self.z_star.size + 1
        self._offset = np.log(np.arange(m - 1, 0, -1, dtype=float))
        self._m_log_m = m * math.log(m)
        self.w = self._forward(self.z_star)[1]

    def _forward(self, q):
        x = q - self._offset
        sp = np.log1p(np.exp(-np.abs(x)))
        log_b = np.minimum(x, 0.0) - sp
        w = np.empty(q.size + 1)
        w[0] = math.log(q.size + 1)
        w[1:] = log_b - x
        np.add.accumulate(w, out=w)
        w[:-1] += log_b
        return log_b, w

    def _kick(self, q, r, scale):
        log_b, w = self._forward(q)
        g = scale * (self._ntm - self._tau * w)
        r += g[:-1] - np.exp(log_b) * np.add.accumulate(g[::-1])[::-1][:-1]
        d = w - self._mu
        self._w_end = w
        return float(w @ self._n) - self._m_log_m - 0.5 * float(d @ (self._tau * d))

    def set_atoms(self, n_j, mu_y, tau_y):
        self._n, self._mu, self._tau = n_j, mu_y, tau_y
        self._ntm = n_j + tau_y * mu_y

    def start(self, eps, r):
        self._scale = eps * eps
        return self._kick(self.z_star, r, 0.5 * self._scale)

    def kick(self, q, r):
        self._kick(q, r, self._scale)

    def finish(self, q, r):
        return self._kick(q, r, 0.5 * self._scale)

    def accept(self, q):
        self.z_star, self.w = q, self._w_end


def _frailty_draws(target, n_j, mu, tau, seed, iterations=5000, burn_in=1000, thin=4):
    """Thinned post-burn-in z_1, z_m and var_z of an adapted HMC chain at fixed atoms."""
    target.set_atoms(n_j, mu, tau)
    cfg = HmcConfig()
    rng = np.random.default_rng(seed)
    adapter = DualAveraging(cfg.step_size, target=cfg.target_accept)
    step = cfg.step_size
    zs = []
    for it in range(iterations):
        _, _, _, accept_prob = hmc_update(target, cfg, rng, step_size=step)
        if it < burn_in:
            step = adapter.update(accept_prob)
        elif it == burn_in:
            step = adapter.adapted_step
        if it >= burn_in and (it - burn_in) % thin == 0:
            zs.append(np.exp(target.w))
    z = np.array(zs)
    return {"z_1": z[:, 0], "z_m": z[:, -1], "var_z": ((z - 1.0) ** 2).sum(axis=1) / (z.shape[1] - 1)}


def _random_atoms(m):
    gen = np.random.default_rng(m)
    return gen.poisson(3.0, size=m).astype(float), gen.normal(scale=0.5, size=m), gen.gamma(2.0, 1.0, size=m)


class TestLawMatchesStickKernel:
    """At fixed atoms, the sum-zero move and the stick-breaking move it
    replaced sample one law: two-sample KS tests on thinned draws."""

    @pytest.mark.parametrize(
        "atoms",
        [
            (np.array([4.0, 1.0, 7.0]), np.array([0.1, -0.2, 0.3]), np.array([2.0, 1.5, 3.0])),
            _random_atoms(20),
        ],
        ids=["criterion6_m3", "random_m20"],
    )
    def test_frailty_draws_follow_one_law(self, atoms):
        m = atoms[0].size
        new = _frailty_draws(FrailtyTarget(np.zeros(m)), *atoms, seed=11)
        old = _frailty_draws(StickTarget(np.zeros(m - 1)), *atoms, seed=12)
        for name in new:
            p = ks_2samp(new[name], old[name]).pvalue
            assert p > 1e-3, f"{name}: KS p = {p:.2e}"
