"""Mean-one simplex transform: round trip, Jacobian, gradient."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from frailplp.hmc import FrailtyTarget, transform, inverse_transform, log_target_z


def numeric_log_jacobian(z_star, eps=1e-6):
    """log |det d(Z_1..Z_{m-1})/dz*| via central differences."""
    z_star = np.asarray(z_star, dtype=float)
    k = z_star.size
    jac = np.empty((k, k))
    for i in range(k):
        up = z_star.copy()
        dn = z_star.copy()
        up[i] += eps
        dn[i] -= eps
        jac[:, i] = (transform(up)[0][:-1] - transform(dn)[0][:-1]) / (2 * eps)
    sign, logdet = np.linalg.slogdet(jac)
    assert sign > 0
    # transform returns Z = m * A; the reference Jacobian is in A coordinates
    return logdet - k * math.log(k + 1)


class TestForward:
    def test_origin_maps_to_unit_vector(self):
        for m in (2, 3, 10, 100):
            z, _ = transform(np.zeros(m - 1))
            assert np.allclose(z, 1.0, atol=1e-12)

    def test_mean_one_everywhere(self):
        rng = np.random.default_rng(0)
        for m in (2, 5, 40):
            for _ in range(20):
                z, _ = transform(rng.normal(scale=3.0, size=m - 1))
                assert z.mean() == pytest.approx(1.0, abs=1e-12)
                assert np.all(z > 0)

    def test_two_system_reference_point(self):
        # at the origin the single stick fraction is exactly 1/2 and the
        # Jacobian factor B(1-B) equals 1/4
        z, log_jac = transform(np.zeros(1))
        assert np.allclose(z, [1.0, 1.0])
        assert log_jac == pytest.approx(math.log(0.25))

    def test_extreme_inputs_stay_finite(self):
        z, log_jac = transform(np.array([40.0, -40.0]))
        assert np.all(np.isfinite(z)) and np.all(z >= 0)
        assert np.isfinite(log_jac)


class TestInverse:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 10_000),
        st.integers(0, 2**32 - 1),
    )
    def test_round_trip(self, m, seed):
        # at m = 10^4 the frailties reach ~1e-40
        rng = np.random.default_rng(seed)
        z_star = rng.uniform(-5.0, 5.0, size=m - 1)
        z, _ = transform(z_star)
        err = np.abs(inverse_transform(z) - z_star)
        assert np.max(err / np.maximum(1.0, np.abs(z_star))) < 1e-10

    def test_rejects_wrong_mean(self):
        with pytest.raises(ValueError):
            inverse_transform(np.array([0.5, 0.6]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            inverse_transform(np.array([2.0, 0.0]))

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            inverse_transform(np.array([1.0]))


class TestJacobian:
    @pytest.mark.parametrize("m", [2, 3, 10, 100])
    def test_analytic_matches_finite_differences(self, m):
        rng = np.random.default_rng(m)
        z_star = rng.uniform(-2.0, 2.0, size=m - 1)
        _, log_jac = transform(z_star)
        ref = numeric_log_jacobian(z_star)
        assert log_jac == pytest.approx(ref, rel=1e-5, abs=1e-5)


class TestTargetGradient:
    def _numeric_grad(self, z_star, n_j, mu, tau, eps=1e-6):
        g = np.empty_like(z_star)
        for i in range(z_star.size):
            up, dn = z_star.copy(), z_star.copy()
            up[i] += eps
            dn[i] -= eps
            g[i] = (
                log_target_z(up, n_j, mu, tau)[0]
                - log_target_z(dn, n_j, mu, tau)[0]
            ) / (2 * eps)
        return g

    @pytest.mark.parametrize("m", [2, 3, 10, 50])
    def test_gradient_matches_finite_differences(self, m):
        rng = np.random.default_rng(m + 1)
        z_star = rng.uniform(-1.5, 1.5, size=m - 1)
        n_j = rng.poisson(5.0, size=m).astype(float)
        mu = rng.normal(size=m)
        tau = rng.uniform(0.5, 3.0, size=m)
        _, grad = log_target_z(z_star, n_j, mu, tau)
        ref = self._numeric_grad(z_star, n_j, mu, tau)
        assert np.max(np.abs(grad - ref)) < 1e-4 * max(1.0, np.max(np.abs(ref)))

    def test_no_failure_case_reduces_to_jacobian_plus_priors(self):
        # with n_j = 0 and standard atoms, the target is |J| times the
        # log-normal kernels; verify against an independent evaluation
        m = 4
        z_star = np.array([0.3, -0.2, 0.1])
        n_j = np.zeros(m)
        mu = np.zeros(m)
        tau = np.ones(m)
        z, log_jac = transform(z_star)
        w = np.log(z)
        expected = log_jac + float(np.sum(-w - 0.5 * (w - 0.0) ** 2))
        logp, _ = log_target_z(z_star, n_j, mu, tau)
        assert logp == pytest.approx(expected, rel=1e-12)

    def test_value_consistent_with_components(self):
        m = 5
        rng = np.random.default_rng(99)
        z_star = rng.normal(size=m - 1)
        n_j = rng.poisson(4.0, size=m).astype(float)
        mu = rng.normal(size=m)
        tau = rng.uniform(0.5, 2.0, size=m)
        z, log_jac = transform(z_star)
        w = np.log(z)
        expected = log_jac + float(np.sum((n_j - 1.0) * w - 0.5 * tau * (w - mu) ** 2))
        logp, _ = log_target_z(z_star, n_j, mu, tau)
        assert logp == pytest.approx(expected, rel=1e-12)


def _reference_log_sigmoid(x):
    return np.where(x >= 0, -np.log1p(np.exp(-np.abs(x))), x - np.log1p(np.exp(-np.abs(x))))


def _reference_sticks(z_star):
    m = z_star.size + 1
    x = z_star - np.log(np.arange(m - 1, 0, -1, dtype=float))
    log_b = _reference_log_sigmoid(x)
    log_1mb = _reference_log_sigmoid(-x)
    log_rem = np.concatenate(([0.0], np.cumsum(log_1mb)))
    return m, log_b, log_1mb, log_rem


def reference_transform(z_star):
    """Two-branch log-sigmoid forward pass, kept as the reference."""
    m, log_b, log_1mb, log_rem = _reference_sticks(z_star)
    log_a = np.concatenate((log_b + log_rem[:-1], [log_rem[-1]]))
    return m * np.exp(log_a), float(np.sum(log_b + log_1mb + log_rem[:-1]))


def reference_log_target_z(z_star, n_j, mu_y, tau_y):
    """Unfolded gradient (1 - B_k)(1 + h_k) - B_k (m - k + tail_{k+1}), kept as the reference."""
    m, log_b, log_1mb, log_rem = _reference_sticks(z_star)
    w = math.log(m) + np.concatenate((log_b + log_rem[:-1], [log_rem[-1]]))
    log_jac = np.sum(log_b + log_1mb + log_rem[:-1])
    logp = float(log_jac + np.sum((n_j - 1.0) * w - 0.5 * tau_y * (w - mu_y) ** 2))
    h = n_j - 1.0 - tau_y * (w - mu_y)
    b = np.exp(log_b)
    tail = np.cumsum(h[::-1])[::-1]
    k = np.arange(1, m, dtype=float)
    grad = (1.0 - b) * (1.0 + h[:-1]) - b * (m - k + tail[1:])
    return logp, grad


def _close(new, ref, rel=1e-12):
    """Equal to rel times the largest reference magnitude."""
    new, ref = np.atleast_1d(new), np.atleast_1d(ref)
    return np.all(np.isfinite(new)) and np.max(np.abs(new - ref)) <= rel * np.max(np.abs(ref))


class TestMatchesReferenceKernel:
    """The one-softplus forward pass and the folded gradient equal the
    two-branch formulas up to summation order."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [2, 50, 500, 5000])
    @pytest.mark.parametrize("max_logit", [1.0, 30.0, 800.0])
    def test_logp_gradient_frailties_and_jacobian(self, m, max_logit):
        rng = np.random.default_rng(m)
        x = rng.uniform(-max_logit, max_logit, size=m - 1)
        x[0] = max_logit  # hit the largest |x| on both signs
        x[-1] = -max_logit
        z_star = x + np.log(np.arange(m - 1, 0, -1, dtype=float))
        n_j = rng.poisson(5.0, size=m).astype(float)
        mu = rng.normal(size=m)
        tau = rng.uniform(0.5, 3.0, size=m)

        logp, grad = log_target_z(z_star, n_j, mu, tau)
        ref_logp, ref_grad = reference_log_target_z(z_star, n_j, mu, tau)
        assert _close(logp, ref_logp)
        assert _close(grad, ref_grad)

        z, log_jac = transform(z_star)
        ref_z, ref_log_jac = reference_transform(z_star)
        assert _close(z, ref_z)
        assert _close(log_jac, ref_log_jac)


class TestGradientOnlyPath:
    """The leapfrog kicks' gradient and end-point density equal log_target_z's."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [2, 3, 50, 500, 5000])
    @pytest.mark.parametrize("half_width", [0.5, 20.0, 700.0])
    def test_equals_full_evaluation(self, m, half_width):
        rng = np.random.default_rng(m)
        z_star = rng.uniform(-half_width, half_width, size=m - 1)
        n_j = rng.poisson(5.0, size=m).astype(float)
        mu = rng.normal(size=m)
        tau = rng.uniform(0.5, 3.0, size=m)
        logp, grad = log_target_z(z_star, n_j, mu, tau)
        target = FrailtyTarget(np.zeros(m - 1))
        target.set_atoms(n_j, mu, tau)
        target.start(1.0, np.zeros(m - 1))  # with eps = 1 a kick adds the gradient itself
        fast = np.zeros(m - 1)
        target.kick(z_star, fast)
        half = np.zeros(m - 1)
        end_logp = target.finish(z_star, half)
        assert np.isfinite(logp)
        assert np.all(np.isfinite(grad)) and np.all(np.isfinite(fast))
        assert np.all(np.abs(fast - grad) <= 1e-11 * np.maximum(1.0, np.abs(grad)))
        assert np.array_equal(2.0 * half, fast)
        assert end_logp == logp
