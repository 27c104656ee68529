"""Hamiltonian Monte Carlo for the mean-one constrained frailty vector.

The positive vector Z with mean(Z) = 1 lives on a scaled simplex.  HMC runs on
a point v of the plane sum(v) = 0 in R^m, mapped to the log-frailties by
w = log Z = v - logsumexp(v) + log m; v = 0 gives Z = (1, ..., 1), and
v = w - mean(w) inverts the map.  The plane is the isometric log-ratio
geometry of the simplex (Egozcue et al., Math. Geol. 2003): no system is
special.  In orthonormal bases of the plane and of the simplex's tangent
plane, log |J| of v -> Z is exactly sum(w).

A forward pass is e = exp(v), s = sum(e) and w = v - log(s / m), and
softmax(v) = e / s.  On the plane max(v) >= 0, so s >= 1; where s leaves
(1e-300, inf), as when one frailty is e^700 times another, the pass is
repeated with v shifted by its maximum.

With g_j = (n_j + tau_j mu_j) - tau_j w_j, which is the derivative of system
j's term in w_j plus the 1 that log |J| adds, the gradient in v is
g - softmax(v) sum(g), which sums to zero.  n_j + tau_j mu_j is fixed while
the allocations are.

The leapfrog integrator carries the eps-scaled momentum r = eps p, so a step
is q += r, r += eps^2 grad(q), with half kicks at the two ends (Neal, "MCMC
using Hamiltonian dynamics", Handbook of MCMC, 2011, section 5.2).  The
gradient is linear in g, so eps^2 is folded into the constants n_j + tau_j mu_j
and tau_j once per transition and a kick needs no multiply of its own.  The
momentum is drawn in R^m.  Its component along (1, ..., 1) moves no frailty
and the gradient has none, so the target sets it aside for the trajectory
and restores it at the end: the point stays on the plane, and the
component's kinetic energy cancels in the acceptance test.  The log density
is needed only at the two ends, where the Hamiltonian is evaluated.
FrailtyTarget holds the forward pass of its current point, so a transition
starts without one, and an accepted end point's forward pass becomes the
current one: one forward pass per leapfrog step, none repeated.  A kick is
9 numpy calls with one exp into buffers allocated once per target, and one
target serves a whole chain.  On a 2-core Xeon box a kick took a median
10.5 us at m=50, 12.0 us at m=500 and 23.2 us at m=5000 (BENCH_sum_zero.json).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HmcConfig",
    "DualAveraging",
    "FrailtyTarget",
    "leapfrog",
    "hmc_update",
]


# each transition draws its step size uniformly from (1 +- STEP_JITTER) times
# the nominal one, so that the trajectory length varies from move to move
STEP_JITTER = 0.2

# a forward pass whose sum of exponentials falls outside (_TINY, inf) is
# repeated with a max shift
_TINY = 1e-300


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


class FrailtyTarget:
    """The log density of v given the allocations and atoms, at a current point.

    The target is |J(v)| prod_j LN(z_j | mu_{Y_j}, 1/tau_{Y_j}) z_j^{n_j}, i.e.
    per system (n_j - 1) w_j - tau_j/2 (w_j - mu_j)^2 with w = log z, plus
    the log-Jacobian; additive constants of the normal densities are dropped.

    z_star is the current point v, of length m with sum zero, and w its
    log-frailties; neither is written to once handed out.  set_atoms fixes
    the counts and the allocated atoms for a sweep.  start, kick and finish
    are the gradient kicks of one leapfrog trajectory (see leapfrog), and
    accept moves the current point to the trajectory's end.
    """

    def __init__(self, v):
        v = np.array(v, dtype=float)
        self._m = v.size
        self._g = np.empty(self._m)
        self._new_work()
        with np.errstate(over="ignore"):
            self._forward(v)
        self.accept(v)

    def _new_work(self):
        self._w, self._e = np.empty(self._m), np.empty(self._m)

    def _forward(self, q):
        """The forward pass at q: w and e = exp(q - shift) into the work
        buffers, and s = sum(e)."""
        e = self._e
        np.exp(q, e)
        s = float(np.add.reduce(e))
        shift = 0.0
        if not _TINY < s < math.inf:
            shift = float(q.max())
            np.subtract(q, shift, e)
            np.exp(e, e)
            s = float(np.add.reduce(e))
        self._s = s
        np.subtract(q, shift + math.log(s / self._m), self._w)

    def _fold(self, w, e, s, r, ntm, tau):
        """r += g - (e / s) sum(g) at the point with forward pass (w, e, s),
        where g = ntm - tau w and ntm, tau carry the kick's scale."""
        g = self._g
        np.multiply(tau, w, g)
        np.subtract(ntm, g, g)
        r += g
        np.multiply(e, float(np.add.reduce(g)) / s, g)
        r -= g

    def _log_density(self, w):
        d = w - self._mu
        # log |J| = sum(w) cancels the -1 of (n_j - 1) w_j
        return float(w @ self._n) - 0.5 * float(d @ (self._tau * d))

    def set_atoms(self, n_j, mu_y, tau_y):
        """Fix the failure counts n_j and each system's allocated atom."""
        self._n, self._mu, self._tau = n_j, mu_y, tau_y
        self._ntm = n_j + tau_y * mu_y

    def start(self, eps, r):
        """Scale the kicks for step size eps, set r's component along
        (1, ..., 1) aside and add eps^2/2 times the gradient at the current
        point to r; returns the log density there."""
        s = eps * eps
        self._ntm_s, self._tau_s = s * self._ntm, s * self._tau
        self._ntm_h, self._tau_h = 0.5 * self._ntm_s, 0.5 * self._tau_s
        self._r_mean = float(np.add.reduce(r)) / self._m
        r -= self._r_mean
        self._fold(self.w, self._cur_e, self._cur_s, r, self._ntm_h, self._tau_h)
        return self._log_density(self.w)

    def kick(self, q, r):
        """Add eps^2 times the gradient at q to r."""
        self._forward(q)
        self._fold(self._w, self._e, self._s, r, self._ntm_s, self._tau_s)

    def finish(self, q, r):
        """Add eps^2/2 times the gradient at q to r and restore the component
        set aside by start; returns the log density at q."""
        self._forward(q)
        self._fold(self._w, self._e, self._s, r, self._ntm_h, self._tau_h)
        r += self._r_mean
        return self._log_density(self._w)

    def accept(self, q):
        """Make q, the point of the last finish, the current point."""
        self.z_star, self.w, self._cur_e, self._cur_s = q, self._w, self._e, self._s
        self._new_work()


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
    (new point, accepted, divergent, accept prob).

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

    # shrinkage, iteration offset and averaging decay of Hoffman & Gelman (2014)
    gamma = 0.05
    t0 = 10.0
    kappa = 0.75

    def __init__(self, eps0, target=0.8):
        self.mu = math.log(10.0 * eps0)
        self.target = target
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
