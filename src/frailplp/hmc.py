"""Hamiltonian Monte Carlo for the mean-one constrained frailty vector.

The positive vector Z with mean(Z) = 1 lives on a scaled simplex.  It is
mapped to an unconstrained vector z* of length m-1 through a stick-breaking
construction: B_j = logistic(z*_j - log(m - j)), A_j = B_j * prod_{o<j}(1 -
B_o), A_m closes the simplex, and Z = m * A.  The offsets log(m - j) center
the map so z* = 0 gives Z = (1, ..., 1).  HMC runs on z* with the
log-Jacobian folded into the target.

With x = z* - offset, one softplus sp = log1p(exp(-|x|)) gives both
log B = min(x, 0) - sp and log(1 - B) = -max(x, 0) - sp without overflow.
One cumsum of the log(1 - B), seeded with log m, plus log B gives the
log-frailties w = log Z, and log |J| = sum_j log A_j = sum(w) - m log m.
The offsets and log m depend only on m and are computed once per m.

With g_j = (n_j + tau_j mu_j) - tau_j w_j, which is 1 plus the derivative of
system j's term in w_j, and T_k = sum_{j>=k} g_j, the stick-breaking chain
rule gives dL/dz*_k = g_k - B_k T_k for k = 1..m-1: T_k holds both the
m - k + 1 and the tail sum of the derivatives.  n_j + tau_j mu_j is fixed
while the allocations are.

A leapfrog trajectory needs the log density only where the Hamiltonian is
evaluated, at its start and end points (Neal, "MCMC using Hamiltonian
dynamics", Handbook of MCMC, 2011, section 5.2).  log_target_z returns the
density with the gradient there; the interior steps call the gradient-only
_gradient.  Both are built on the one forward pass _sticks.
"""

from __future__ import annotations

import functools
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
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError("step size must be finite and positive")
        if self.leapfrog_steps < 1:
            raise ValueError("need at least one leapfrog step")
        if not 0.0 <= self.step_jitter < 1.0:
            raise ValueError("step jitter must lie in [0, 1)")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target acceptance must lie in (0, 1)")


@functools.lru_cache(maxsize=8)
def _offsets(m):
    """The stick offsets log(m - 1), ..., log 1 (read-only) and log m."""
    offset = np.log(np.arange(m - 1, 0, -1, dtype=float))
    offset.flags.writeable = False
    return offset, math.log(m)


def _sticks(z_star):
    """Shared forward pass: log B (length m-1) and the log-frailties w (length m)."""
    z_star = np.asarray(z_star, dtype=float)
    m = z_star.size + 1
    offset, log_m = _offsets(m)
    x = z_star - offset
    sp = np.abs(x)
    np.negative(sp, out=sp)
    np.exp(sp, out=sp)
    np.log1p(sp, out=sp)
    log_b = np.minimum(x, 0.0)
    log_b -= sp
    # w[j] = log m + log prod_{o<j}(1 - B_o) (w[0] is the empty product);
    # adding log B to all but the last turns it into log Z
    w = np.empty(m)
    w[0] = log_m
    log_1mb = w[1:]
    np.maximum(x, 0.0, out=log_1mb)
    log_1mb += sp
    np.negative(log_1mb, out=log_1mb)
    w.cumsum(out=w)
    w[:-1] += log_b
    return log_b, w


def _fold(log_b, w, ntm, tau_y):
    """The gradient g[:-1] - B T[:-1] from one forward pass; overwrites log_b."""
    g = tau_y * w
    np.subtract(ntm, g, out=g)
    t = g[::-1].cumsum()[::-1]
    b = np.exp(log_b, out=log_b)
    b *= t[:-1]
    return np.subtract(g[:-1], b, out=b)


def transform(z_star):
    """Map unconstrained z* to (Z, log |Jacobian|); mean(Z) = 1 by construction."""
    _, w = _sticks(z_star)
    return np.exp(w), float(w.sum()) - w.size * math.log(w.size)


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
    return np.log(b) - np.log1p(-b) + _offsets(m)[0]


def log_target_z(z_star, n_j, mu_y, tau_y):
    """Log conditional density of z* given allocations, with its gradient.

    Target: |J(z*)| * prod_j LN(z_j | mu_{Y_j}, 1/tau_{Y_j}) * prod_j z_j^{n_j},
    i.e. per system (n_j - 1) w_j - tau_j/2 (w_j - mu_j)^2 with w = log z,
    plus the log-Jacobian.  The gradient is exact; additive constants in the
    normal densities are dropped.
    """
    log_b, w = _sticks(z_star)
    m = w.size
    d = w - mu_y
    # log |J| = sum(w) - m log m, and its sum(w) cancels the -1 of (n_j - 1) w_j
    logp = float(w.dot(n_j)) - m * math.log(m) - 0.5 * float(d.dot(tau_y * d))
    return logp, _fold(log_b, w, n_j + tau_y * mu_y, tau_y)


def _gradient(z_star, ntm, tau_y):
    """The gradient of log_target_z alone, given ntm = n_j + tau_y * mu_y."""
    log_b, w = _sticks(z_star)
    return _fold(log_b, w, ntm, tau_y)


def _frailty_target(n_j, mu_y, tau_y):
    """The (log density and gradient, gradient alone) pair of hmc_update for
    fixed allocations; n_j + tau_y * mu_y is computed once, not per gradient."""
    ntm = n_j + tau_y * mu_y
    return (
        lambda q: log_target_z(q, n_j, mu_y, tau_y),
        lambda q: _gradient(q, ntm, tau_y),
    )


def leapfrog(z_star, p, eps, n_steps, logp_grad_fn, grad_fn, grad0):
    """Leapfrog integration of Hamiltonian dynamics (identity mass).

    grad0 is the gradient at z_star, which the caller already holds.  The
    n_steps - 1 interior points need only grad_fn; the end point, where the
    Hamiltonian is evaluated, calls logp_grad_fn for the log density too.
    A non-finite state is not stopped here: it carries on to the end point
    as inf or nan.  Returns (q, p, log density at q).
    """
    q = np.array(z_star, dtype=float)
    p = p + 0.5 * eps * grad0
    for _ in range(n_steps - 1):
        q += eps * p
        p += eps * grad_fn(q)
    q += eps * p
    logp, grad = logp_grad_fn(q)
    p += 0.5 * eps * grad
    return q, p, logp


def hmc_update(z_star, logp_grad_fn, grad_fn, config: HmcConfig, rng, step_size=None):
    """One HMC transition; returns (new z*, accepted, divergent, accept prob).

    logp_grad_fn(q) gives (log density, gradient) and is called at the start
    and end points; grad_fn(q) gives the gradient alone.  A trajectory whose
    end-point energy is not finite, as any overflow along it makes it, is
    reported as divergent, so floating-point warnings along it are silenced.
    """
    eps = config.step_size if step_size is None else step_size
    if config.step_jitter > 0:
        eps = eps * (1.0 + config.step_jitter * (2.0 * rng.uniform() - 1.0))
    q0 = np.asarray(z_star, dtype=float)
    logp0, grad0 = logp_grad_fn(q0)
    p0 = rng.standard_normal(q0.size)
    h0 = -logp0 + 0.5 * float(p0 @ p0)

    with np.errstate(over="ignore", invalid="ignore"):
        q1, p1, logp1 = leapfrog(
            q0, p0, eps, config.leapfrog_steps, logp_grad_fn, grad_fn, grad0
        )
        h1 = -logp1 + 0.5 * float(p1 @ p1)
    delta = h0 - h1
    if not math.isfinite(h1) or delta < -1000.0:
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
