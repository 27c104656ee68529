"""Mean-one simplex transform on the sum-zero plane: round trip, Jacobian, gradient."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp, softmax

from frailplp.hmc import FrailtyTarget, transform, inverse_transform

from conftest import log_target_z


def sum_zero(x):
    """x projected onto the plane sum = 0."""
    x = np.asarray(x, dtype=float)
    return x - x.mean()


def plane_basis(m):
    """An orthonormal basis of the plane sum = 0, as the columns of an m x (m-1) matrix."""
    q, _ = np.linalg.qr(np.eye(m)[:, : m - 1] - 1.0 / m)
    return q


def numeric_log_jacobian(v, eps=1e-6):
    """log |det dZ/dv| via central differences, in one orthonormal basis of the
    sum-zero plane for both v and the tangent plane of {sum(Z) = m}."""
    v = np.asarray(v, dtype=float)
    basis = plane_basis(v.size)
    k = v.size - 1
    jac = np.empty((k, k))
    for i in range(k):
        step = eps * basis[:, i]
        jac[:, i] = basis.T @ (transform(v + step)[0] - transform(v - step)[0]) / (2 * eps)
    sign, logdet = np.linalg.slogdet(jac)
    assert sign > 0
    return logdet


class TestForward:
    def test_origin_maps_to_unit_vector(self):
        for m in (2, 3, 10, 100):
            z, _ = transform(np.zeros(m))
            assert np.allclose(z, 1.0, atol=1e-12)

    def test_mean_one_everywhere(self):
        rng = np.random.default_rng(0)
        for m in (2, 5, 40):
            for _ in range(20):
                z, _ = transform(sum_zero(rng.normal(scale=3.0, size=m)))
                assert z.mean() == pytest.approx(1.0, abs=1e-12)
                assert np.all(z > 0)

    def test_two_system_reference_point(self):
        # at the origin both frailties are one and log |J| = sum(w) is exactly
        # 0; at v = (t, -t), Z = (1 + tanh t, 1 - tanh t) and log |J| = -2 log cosh t
        z, log_jac = transform(np.zeros(2))
        assert np.array_equal(z, [1.0, 1.0])
        assert log_jac == 0.0
        z, log_jac = transform(np.array([0.5, -0.5]))
        assert np.allclose(z, [1.0 + math.tanh(0.5), 1.0 - math.tanh(0.5)], rtol=1e-14)
        assert log_jac == pytest.approx(-2.0 * math.log(math.cosh(0.5)), rel=1e-14)

    @pytest.mark.filterwarnings("error")
    def test_extreme_inputs_stay_finite(self):
        # beyond |v| = 709 the exponentials overflow and the max-shifted pass runs
        for v in ([40.0, -40.0, 0.0], [800.0, -800.0], [-800.0, 400.0, 400.0]):
            z, log_jac = transform(np.array(v))
            assert np.all(np.isfinite(z)) and np.all(z >= 0)
            assert z.mean() == pytest.approx(1.0, abs=1e-12)
            assert np.isfinite(log_jac)


class TestInverse:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 10_000),
        st.integers(0, 2**32 - 1),
    )
    def test_round_trip(self, m, seed):
        # at |v| = 45 the frailties reach ~1e-40
        rng = np.random.default_rng(seed)
        v = sum_zero(rng.uniform(-45.0, 45.0, size=m))
        z, _ = transform(v)
        err = np.abs(inverse_transform(z) - v)
        assert np.max(err / np.maximum(1.0, np.abs(v))) < 1e-10

    def test_rejects_wrong_mean(self):
        with pytest.raises(ValueError):
            inverse_transform(np.array([0.5, 0.6]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            inverse_transform(np.array([2.0, 0.0]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            inverse_transform(np.array([1.0, np.nan, 1.0]))

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            inverse_transform(np.array([1.0]))


class TestJacobian:
    @pytest.mark.parametrize("m", [2, 3, 10, 100])
    def test_analytic_matches_finite_differences(self, m):
        rng = np.random.default_rng(m)
        v = sum_zero(rng.uniform(-2.0, 2.0, size=m))
        _, log_jac = transform(v)
        ref = numeric_log_jacobian(v)
        assert log_jac == pytest.approx(ref, rel=1e-5, abs=1e-5)


class TestTargetGradient:
    def _numeric_grad(self, v, n_j, mu, tau, eps=1e-6):
        # the target does not change along (1, ..., 1), so its gradient in
        # R^m is the gradient on the plane
        g = np.empty_like(v)
        for i in range(v.size):
            up, dn = v.copy(), v.copy()
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
        v = sum_zero(rng.uniform(-1.5, 1.5, size=m))
        n_j = rng.poisson(5.0, size=m).astype(float)
        mu = rng.normal(size=m)
        tau = rng.uniform(0.5, 3.0, size=m)
        _, grad = log_target_z(v, n_j, mu, tau)
        ref = self._numeric_grad(v, n_j, mu, tau)
        assert np.max(np.abs(grad - ref)) < 1e-4 * max(1.0, np.max(np.abs(ref)))
        assert abs(grad.sum()) < 1e-12 * max(1.0, np.max(np.abs(grad))) * m

    def test_no_failure_case_reduces_to_jacobian_plus_priors(self):
        # with n_j = 0 and standard atoms, the target is |J| times the
        # log-normal kernels; verify against an independent evaluation
        m = 4
        v = np.array([0.3, -0.2, 0.1, -0.2])
        n_j = np.zeros(m)
        mu = np.zeros(m)
        tau = np.ones(m)
        z, log_jac = transform(v)
        w = np.log(z)
        expected = log_jac + float(np.sum(-w - 0.5 * (w - 0.0) ** 2))
        logp, _ = log_target_z(v, n_j, mu, tau)
        assert logp == pytest.approx(expected, rel=1e-12)

    def test_value_consistent_with_components(self):
        m = 5
        rng = np.random.default_rng(99)
        v = sum_zero(rng.normal(size=m))
        n_j = rng.poisson(4.0, size=m).astype(float)
        mu = rng.normal(size=m)
        tau = rng.uniform(0.5, 2.0, size=m)
        z, log_jac = transform(v)
        w = np.log(z)
        expected = log_jac + float(np.sum((n_j - 1.0) * w - 0.5 * tau * (w - mu) ** 2))
        logp, _ = log_target_z(v, n_j, mu, tau)
        assert logp == pytest.approx(expected, rel=1e-12)


def reference_log_target_z(v, n_j, mu_y, tau_y):
    """scipy's max-shifted logsumexp and softmax with the unfolded gradient
    (1 + h) - softmax(v) sum(1 + h), h the derivative of the normal terms;
    returns the log density, the gradient and the log-frailties."""
    m = v.size
    w = v - logsumexp(v) + math.log(m)
    logp = float(np.sum(w) + np.sum((n_j - 1.0) * w - 0.5 * tau_y * (w - mu_y) ** 2))
    one_h = n_j - tau_y * (w - mu_y)
    grad = one_h - softmax(v) * one_h.sum()
    return logp, grad, w


def _close(new, ref, rel=1e-12):
    """Equal to rel times the largest reference magnitude."""
    new, ref = np.atleast_1d(new), np.atleast_1d(ref)
    return np.all(np.isfinite(new)) and np.max(np.abs(new - ref)) <= rel * np.max(np.abs(ref))


class TestMatchesReferenceKernel:
    """The one-exp forward pass and the folded gradient equal the max-shifted
    reference formulas up to summation order."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("m", [2, 50, 500, 5000])
    @pytest.mark.parametrize("max_logit", [1.0, 30.0, 800.0])
    def test_logp_gradient_frailties_and_jacobian(self, m, max_logit):
        rng = np.random.default_rng(m)
        v = rng.uniform(-max_logit, max_logit, size=m)
        v[0] = max_logit  # hit the largest |v| on both signs
        v[-1] = -max_logit
        v = sum_zero(v)
        n_j = rng.poisson(5.0, size=m).astype(float)
        mu = rng.normal(size=m)
        tau = rng.uniform(0.5, 3.0, size=m)

        logp, grad = log_target_z(v, n_j, mu, tau)
        ref_logp, ref_grad, ref_w = reference_log_target_z(v, n_j, mu, tau)
        assert _close(logp, ref_logp)
        assert _close(grad, ref_grad)

        z, log_jac = transform(v)
        assert _close(z, np.exp(ref_w))
        assert _close(log_jac, ref_w.sum())
        assert _close(FrailtyTarget(v).w, ref_w)


class TestGradientOnlyPath:
    """The leapfrog kicks' gradient and end-point density equal the start point's."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("m", [2, 3, 50, 500, 5000])
    @pytest.mark.parametrize("half_width", [0.5, 20.0, 700.0])
    def test_equals_full_evaluation(self, m, half_width):
        rng = np.random.default_rng(m)
        v = sum_zero(rng.uniform(-half_width, half_width, size=m))
        v *= half_width / np.abs(v).max()  # the largest |v| is half_width
        n_j = rng.poisson(5.0, size=m).astype(float)
        mu = rng.normal(size=m)
        tau = rng.uniform(0.5, 3.0, size=m)
        logp, grad = log_target_z(v, n_j, mu, tau)
        target = FrailtyTarget(np.zeros(m))
        target.set_atoms(n_j, mu, tau)
        target.start(1.0, np.zeros(m))  # with eps = 1 a kick adds the gradient itself
        fast = np.zeros(m)
        target.kick(v, fast)
        half = np.zeros(m)
        end_logp = target.finish(v, half)
        assert np.isfinite(logp)
        assert np.all(np.isfinite(grad)) and np.all(np.isfinite(fast))
        assert np.all(np.abs(fast - grad) <= 1e-11 * np.maximum(1.0, np.abs(grad)))
        assert np.array_equal(2.0 * half, fast)
        assert end_logp == logp
