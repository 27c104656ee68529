"""Hamiltonian Monte Carlo for the mean-one constrained frailty vector.

The positive vector Z with mean(Z) = 1 lives on a scaled simplex.  It is
mapped to an unconstrained vector z* of length m-1 through a stick-breaking
construction: B_j = logistic(z*_j - log(m - j)), A_j = B_j * prod_{o<j}(1 -
B_o), A_m closes the simplex, and Z = m * A.  The offsets log(m - j) center
the map so z* = 0 gives Z = (1, ..., 1).  HMC runs on z* with the
log-Jacobian folded into the target.

With x = z* - offset, one softplus sp = log1p(exp(-|x|)) gives
log B = min(x, 0) - sp without overflow, and log(1 - B) = log B - x.
One cumsum of the log(1 - B), seeded with log m, plus log B gives the
log-frailties w = log Z, and log |J| = sum_j log A_j = sum(w) - m log m.
The offsets and log m depend only on m and are computed once per m.

With g_j = (n_j + tau_j mu_j) - tau_j w_j, which is 1 plus the derivative of
system j's term in w_j, and T_k = sum_{j>=k} g_j, the stick-breaking chain
rule gives dL/dz*_k = g_k - B_k T_k for k = 1..m-1: T_k holds both the
m - k + 1 and the tail sum of the derivatives.  n_j + tau_j mu_j is fixed
while the allocations are.

The leapfrog integrator carries the eps-scaled momentum r = eps p, so a step
is q += r, r += eps^2 grad(q), with half kicks at the two ends (Neal, "MCMC
using Hamiltonian dynamics", Handbook of MCMC, 2011, section 5.2).  The gradient
is linear in g, so eps^2 is folded into the constants n_j + tau_j mu_j and
tau_j once per transition and a kick needs no multiply of its own.  The log
density is needed only at the two ends, where the Hamiltonian is evaluated.
FrailtyTarget holds the forward pass of its current point, so a transition
starts without one, and an accepted end point's forward pass becomes the
current one: one forward pass per leapfrog step, none repeated.  A kick is
17 numpy calls into buffers allocated once per target, and one target serves
a whole chain.  On a 2-core Xeon box one move of 20 steps took a median
253 us at m=50, 396 us at m=500 and 2.0 ms at m=5000, against 407 us,
571 us and 2.3 ms for the kernel it replaced, timed interleaved in one
process (BENCH_lean_sweep.json).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HmcConfig",
    "DualAveraging",
    "FrailtyTarget",
    "transform",
    "inverse_transform",
    "leapfrog",
    "hmc_update",
]


# each transition draws its step size uniformly from (1 +- STEP_JITTER) times
# the nominal one, so that the trajectory length varies from move to move
STEP_JITTER = 0.2


@dataclass
class HmcConfig:
    """Leapfrog integrator settings; defaults are conservative generic choices."""

    step_size: float = 0.1
    leapfrog_steps: int = 20
    adapt: bool = True
    target_accept: float = 0.8

    def __post_init__(self):
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError("step size must be finite and positive")
        if self.leapfrog_steps < 1:
            raise ValueError("need at least one leapfrog step")
        if not 0.0 < self.target_accept < 1.0:
            raise ValueError("target acceptance must lie in (0, 1)")


@functools.lru_cache(maxsize=8)
def _offsets(m):
    """The stick offsets log(m - 1), ..., log 1 (read-only) and log m."""
    offset = np.log(np.arange(m - 1, 0, -1, dtype=float))
    offset.flags.writeable = False
    return offset, math.log(m)


class FrailtyTarget:
    """The log density of z* given the allocations and atoms, at a current point.

    The target is |J(z*)| prod_j LN(z_j | mu_{Y_j}, 1/tau_{Y_j}) z_j^{n_j}, i.e.
    per system (n_j - 1) w_j - tau_j/2 (w_j - mu_j)^2 with w = log z, plus
    the log-Jacobian; additive constants of the normal densities are dropped.

    z_star is the current point and log_b, w its forward pass; none of the
    three is written to once handed out.  set_atoms fixes the counts and the
    allocated atoms for a sweep.  start, kick and finish are the gradient
    kicks of one leapfrog trajectory (see leapfrog), and accept moves the
    current point to the trajectory's end.
    """

    def __init__(self, z_star):
        z_star = np.array(z_star, dtype=float)
        m = z_star.size + 1
        self._offset, self._log_m = _offsets(m)
        self._m_log_m = m * self._log_m
        self._g, self._t, self._b = np.empty(m), np.empty(m), np.empty(m - 1)
        self._g_head, self._g_rev = self._g[:-1], self._g[::-1]
        self._t_head, self._t_rev = self._t[:-1], self._t[::-1]
        self._new_work()
        self._forward(z_star)
        self.accept(z_star)

    def _new_work(self):
        m = self._g.size
        self._log_b, self._w = np.empty(m - 1), np.empty(m)
        self._w_tail, self._w_head = self._w[1:], self._w[:-1]

    def _forward(self, q):
        """The forward pass at q: log B and w into the work buffers.

        x lives in w[1:] and the softplus in the fold's buffer b until both
        are used up."""
        log_b, w, x, sp = self._log_b, self._w, self._w_tail, self._b
        np.subtract(q, self._offset, x)
        np.abs(x, sp)
        np.negative(sp, sp)
        np.exp(sp, sp)
        np.log1p(sp, sp)
        np.minimum(x, 0.0, out=log_b)
        log_b -= sp
        # log(1 - B) = log B - x; w[j] = log m + log prod_{o<j}(1 - B_o) (w[0]
        # is the empty product), and adding log B to all but the last turns
        # it into log Z
        np.subtract(log_b, x, x)
        w[0] = self._log_m
        # ufunc.accumulate is cumsum without the ndarray method's overhead,
        # about 1 us per call at m = 50
        np.add.accumulate(w, out=w)
        np.add(self._w_head, log_b, self._w_head)

    def _fold(self, log_b, w, r, ntm, tau):
        """r += g[:-1] - B T[:-1] at the point with forward pass (log_b, w),
        where g = ntm - tau w and ntm, tau carry the kick's scale."""
        g, b = self._g, self._b
        np.multiply(tau, w, g)
        np.subtract(ntm, g, g)
        np.add.accumulate(self._g_rev, out=self._t_rev)
        np.exp(log_b, b)
        b *= self._t_head
        r += self._g_head
        r -= b

    def _log_density(self, w):
        d = w - self._mu
        # log |J| = sum(w) - m log m, and its sum(w) cancels the -1 of (n_j - 1) w_j
        return float(w @ self._n) - self._m_log_m - 0.5 * float(d @ (self._tau * d))

    def set_atoms(self, n_j, mu_y, tau_y):
        """Fix the failure counts n_j and each system's allocated atom."""
        self._n, self._mu, self._tau = n_j, mu_y, tau_y
        self._ntm = n_j + tau_y * mu_y

    def start(self, eps, r):
        """Scale the kicks for step size eps and add eps^2/2 times the
        gradient at the current point to r; returns the log density there."""
        s = eps * eps
        self._ntm_s, self._tau_s = s * self._ntm, s * self._tau
        self._ntm_h, self._tau_h = 0.5 * self._ntm_s, 0.5 * self._tau_s
        self._fold(self.log_b, self.w, r, self._ntm_h, self._tau_h)
        return self._log_density(self.w)

    def kick(self, q, r):
        """Add eps^2 times the gradient at q to r."""
        self._forward(q)
        self._fold(self._log_b, self._w, r, self._ntm_s, self._tau_s)

    def finish(self, q, r):
        """Add eps^2/2 times the gradient at q to r; returns the log density at q."""
        self._forward(q)
        self._fold(self._log_b, self._w, r, self._ntm_h, self._tau_h)
        return self._log_density(self._w)

    def accept(self, q):
        """Make q, the point of the last finish, the current point."""
        self.z_star, self.log_b, self.w = q, self._log_b, self._w
        self._new_work()


def transform(z_star):
    """Map unconstrained z* to (Z, log |Jacobian|); mean(Z) = 1 by construction."""
    w = FrailtyTarget(z_star).w
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


def leapfrog(target, p, eps, n_steps):
    """Leapfrog integration of Hamiltonian dynamics (identity mass) from the
    target's current point with momentum p.

    The momentum is carried as r = eps p: a step is q += r, r += eps^2 grad(q),
    with the eps^2 folded into the target's kicks.  The n_steps - 1 interior
    points need only the gradient; the two ends, where the Hamiltonian is
    evaluated, also give the log density.  A non-finite state is not stopped
    here: it carries on to the end point as inf or nan.  Returns (q, p, log
    density at the start, log density at q).
    """
    r = eps * p
    logp0 = target.start(eps, r)
    q = target.z_star.copy()
    kick = target.kick
    for _ in range(n_steps - 1):
        q += r
        kick(q, r)
    q += r
    logp = target.finish(q, r)
    r /= eps
    return q, r, logp0, logp


def hmc_update(target, config: HmcConfig, rng, step_size=None):
    """One HMC transition from the target's current point; returns
    (new z*, accepted, divergent, accept prob).

    The step size is drawn uniformly from (1 +- STEP_JITTER) times the given one.
    An accepted end point becomes the target's current point.  A trajectory
    whose end-point energy is not finite, as any overflow along it makes it,
    is reported as divergent, so floating-point warnings along it are
    silenced.
    """
    eps = config.step_size if step_size is None else step_size
    eps = eps * (1.0 + STEP_JITTER * (2.0 * rng.random() - 1.0))
    p0 = rng.standard_normal(target.z_star.size)
    with np.errstate(over="ignore", invalid="ignore"):
        q1, p1, logp0, logp1 = leapfrog(target, p0, eps, config.leapfrog_steps)
        h1 = -logp1 + 0.5 * float(p1 @ p1)
    delta = (-logp0 + 0.5 * float(p0 @ p0)) - h1
    if not math.isfinite(h1) or delta < -1000.0:
        return target.z_star, False, True, 0.0
    accept_prob = min(1.0, math.exp(min(0.0, delta)))
    if rng.random() < accept_prob:
        target.accept(q1)
        return q1, True, False, accept_prob
    return target.z_star, False, False, accept_prob


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
