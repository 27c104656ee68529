"""Hamiltonian Monte Carlo for the mean-one constrained frailty vector.

The positive vector Z with mean(Z) = 1 lives on a scaled simplex.  It is
mapped to an unconstrained vector z* of length m-1 through a stick-breaking
construction: B_j = logistic(z*_j - log(m - j)), A_j = B_j * prod_{o<j}(1 -
B_o), A_m closes the simplex, and Z = m * A.  The offsets log(m - j) center
the map so z* = 0 gives Z = (1, ..., 1).  HMC runs on z* with the
log-Jacobian folded into the target.

With x = z* - offset, one softplus sp = log1p(exp(-|x|)) gives both
log B = min(x, 0) - sp and log(1 - B) = -max(x, 0) - sp without overflow,
and log |J| = sum_j log A_j over all m sticks.  Because h_k + tail_{k+1} =
tail_k, where tail_k sums the per-system derivatives h_j for j >= k, the
gradient folds to (1 + h_k) - B_k (m - k + 1 + tail_k).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HmcConfig",
    "DualAveraging",
    "transform",
    "inverse_transform",
    "log_target_z",
    "leapfrog",
    "hmc_update",
]


@dataclass
class HmcConfig:
    """Leapfrog integrator settings; defaults are conservative generic choices."""

    step_size: float = 0.1
    leapfrog_steps: int = 20
    step_jitter: float = 0.2
    adapt: bool = True
    target_accept: float = 0.8

    def __post_init__(self):
        if self.step_size <= 0:
            raise ValueError("step size must be positive")
        if self.leapfrog_steps < 1:
            raise ValueError("need at least one leapfrog step")
        if not 0.0 <= self.step_jitter < 1.0:
            raise ValueError("step jitter must lie in [0, 1)")


def _sticks(z_star):
    """Shared forward pass: (m, m-1, ..., 1), log B, the log-frailties w, log |J|."""
    z_star = np.asarray(z_star, dtype=float)
    m = z_star.size + 1
    r = np.arange(m, 0, -1, dtype=float)
    x = z_star - np.log(r[1:])
    sp = np.log1p(np.exp(-np.abs(x)))
    log_b = np.minimum(x, 0.0) - sp
    # w[j] = log prod_{o<j}(1 - B_o) (w[0] is the empty product), then log A, then log Z
    w = np.empty(m)
    w[0] = 0.0
    (-np.maximum(x, 0.0) - sp).cumsum(out=w[1:])
    w[:-1] += log_b
    log_jac = float(w.sum())
    w += math.log(m)
    return r, log_b, w, log_jac


def transform(z_star):
    """Map unconstrained z* to (Z, log |Jacobian|); mean(Z) = 1 by construction."""
    _, _, w, log_jac = _sticks(z_star)
    return np.exp(w), log_jac


def inverse_transform(z):
    """Recover z* from a valid constrained frailty vector."""
    z = np.asarray(z, dtype=float)
    m = z.size
    if m < 2:
        raise ValueError("need at least two systems")
    if np.any(z <= 0):
        raise ValueError("frailties must be strictly positive")
    if abs(z.mean() - 1.0) > 1e-8:
        raise ValueError("frailty vector must have mean 1")
    a = z / m
    # remaining mass as a suffix sum of positives; the equivalent 1 - cumsum
    # cancels catastrophically when little mass is left
    rem = np.cumsum(a[::-1])[::-1]
    b = a[:-1] / rem[:-1]
    if np.any(b >= 1.0) or np.any(b <= 0.0):
        raise ValueError("frailty vector is not an interior simplex point")
    offset = np.log(np.arange(m - 1, 0, -1, dtype=float))
    return np.log(b) - np.log1p(-b) + offset


def log_target_z(z_star, n_j, mu_y, tau_y):
    """Log conditional density of z* given allocations, with its gradient.

    Target: |J(z*)| * prod_j LN(z_j | mu_{Y_j}, 1/tau_{Y_j}) * prod_j z_j^{n_j},
    i.e. per system (n_j - 1) w_j - tau_j/2 (w_j - mu_j)^2 with w = log z,
    plus the log-Jacobian.  The gradient is exact; additive constants in the
    normal densities are dropped.
    """
    r, log_b, w, log_jac = _sticks(z_star)
    n1 = np.asarray(n_j, dtype=float) - 1.0
    d = w - mu_y
    td = tau_y * d
    logp = log_jac + float(n1.dot(w)) - 0.5 * float(td.dot(d))

    # h_j = d/dw_j of the per-system term; with tail_k = sum_{j>=k} h_j the
    # stick-breaking chain rule gives, for k = 1..m-1,
    #   dL/dz*_k = (1 + h_k) - B_k (m - k + 1 + tail_k)
    h = n1 - td
    tail = h[::-1].cumsum()[::-1]
    grad = (1.0 + h[:-1]) - np.exp(log_b) * (r[:-1] + tail[:-1])
    return logp, grad


def leapfrog(z_star, p, eps, n_steps, grad_fn, grad0):
    """Standard leapfrog integration of Hamiltonian dynamics (identity mass).

    grad0 is the gradient at z_star, which the caller already holds, so a
    trajectory of n_steps evaluates grad_fn n_steps times.
    """
    q = np.array(z_star, dtype=float)
    p = np.array(p, dtype=float) + 0.5 * eps * grad0
    for step in range(n_steps):
        q = q + eps * p
        logp, grad = grad_fn(q)
        if not np.isfinite(grad).all():
            return q, p, -np.inf, False
        p = p + (eps if step < n_steps - 1 else 0.5 * eps) * grad
    return q, p, logp, True


def hmc_update(z_star, logp_grad_fn, config: HmcConfig, rng, step_size=None):
    """One HMC transition; returns (new z*, accepted, divergent, accept prob).

    A trajectory that overflows to a non-finite state is reported as
    divergent, so floating-point warnings along it are silenced.
    """
    eps = config.step_size if step_size is None else step_size
    if config.step_jitter > 0:
        eps = eps * (1.0 + config.step_jitter * (2.0 * rng.uniform() - 1.0))
    q0 = np.asarray(z_star, dtype=float)
    logp0, grad0 = logp_grad_fn(q0)
    p0 = rng.standard_normal(q0.size)
    h0 = -logp0 + 0.5 * float(p0 @ p0)

    with np.errstate(over="ignore", invalid="ignore"):
        q1, p1, logp1, ok = leapfrog(q0, p0, eps, config.leapfrog_steps, logp_grad_fn, grad0)
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


class DualAveraging:
    """Nesterov dual-averaging step-size adaptation toward a target acceptance."""

    def __init__(self, eps0, target=0.8, gamma=0.05, t0=10.0, kappa=0.75):
        self.mu = math.log(10.0 * eps0)
        self.target = target
        self.gamma = gamma
        self.t0 = t0
        self.kappa = kappa
        self.log_eps = math.log(eps0)
        self.log_eps_bar = math.log(eps0)
        self.h_bar = 0.0
        self.t = 0

    def update(self, accept_prob):
        self.t += 1
        frac = 1.0 / (self.t + self.t0)
        self.h_bar = (1.0 - frac) * self.h_bar + frac * (self.target - accept_prob)
        self.log_eps = self.mu - math.sqrt(self.t) / self.gamma * self.h_bar
        w = self.t ** (-self.kappa)
        self.log_eps_bar = w * self.log_eps + (1.0 - w) * self.log_eps_bar
        return math.exp(self.log_eps)

    @property
    def adapted_step(self):
        return math.exp(self.log_eps_bar)
