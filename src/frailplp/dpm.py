"""Dirichlet-process-mixture sampler for the shared-frailty distribution.

The log-frailties W = log Z follow an infinite mixture of normals with
stick-breaking weights.  A slice sampler (auxiliary variables U, allocation
indices Y) keeps the active part of the mixture finite each sweep; the
concentration parameter gets the Escobar-West auxiliary-variable update;
atoms are normal-gamma; the constrained Z itself moves by HMC in sum-zero
log-ratio coordinates.

The chain's Markov state is the concentration c, the allocations Y and the
frailties alone.  Each sweep draws the sticks, slices and atoms afresh
from their conditionals given those three, so no level value crosses a sweep.
The frailties are held as their log-frailties w; the sum-zero point the HMC
move runs on is owned by the chain's FrailtyTarget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import CountSummary
from .hmc import HmcConfig, DualAveraging, FrailtyTarget, hmc_update

__all__ = [
    "DpmHyperparams",
    "DpmState",
    "McmcTrace",
    "stick_break",
    "update_concentration",
    "update_sticks",
    "update_slices",
    "update_atoms",
    "update_allocations",
    "extend_levels",
    "run_chain",
    "log_frailty_density",
    "frailty_variance",
]

# (lo, hi, points) of the frailty-density grid of the mcmc command
DEFAULT_GRID = (0.02, 6.0, 300)


@dataclass(frozen=True)
class DpmHyperparams:
    """Hyperpriors: c ~ Gamma(ac0, bc0); atoms (mu_l, tau_l) ~ NG(m0, s0, d0*p0, d0)."""

    ac0: float = 1.0
    bc0: float = 1.0
    m0: float = 0.0
    s0: float = 1.0
    d0: float = 2.0
    p0: float = 1.0

    def __post_init__(self):
        for name in ("ac0", "bc0", "m0", "s0", "d0", "p0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
            if name != "m0" and value <= 0:
                raise ValueError(f"{name} must be positive")


def _no_levels():
    return np.empty(0)


@dataclass
class DpmState:
    """Mutable sampler state: the carried c, y and w, and one sweep's levels.

    Only the concentration c, the 0-based allocations y and the log-frailties
    w carry from one sweep to the next.  The sticks nu with their weights
    rho = stick_break(nu), the slices u and the atoms (mu, tau) are drawn
    afresh within each sweep, so they start empty; l_star is the number of
    levels instantiated.  A plain record: whoever sets nu sets rho with it,
    and w is the forward pass of the HMC target's current point, so it stays
    finite where the frailties z = exp(w) underflow to 0.
    """

    c: float
    y: np.ndarray
    w: np.ndarray
    nu: np.ndarray = field(default_factory=_no_levels)
    rho: np.ndarray = field(default_factory=_no_levels)
    mu: np.ndarray = field(default_factory=_no_levels)
    tau: np.ndarray = field(default_factory=_no_levels)
    u: np.ndarray = field(default_factory=_no_levels)

    @property
    def l_star(self):
        return self.nu.size

    def level_counts(self):
        return np.bincount(self.y, minlength=self.l_star)

    @property
    def n_occupied(self):
        """Number of levels with at least one system allocated."""
        return int(np.count_nonzero(self.level_counts()))


def stick_break(nu):
    """Weights from stick fractions: rho_l = nu_l * prod_{o<l}(1 - nu_o)."""
    rho = np.array(nu, dtype=float)
    rho[1:] *= np.multiply.accumulate(1.0 - rho[:-1])
    return rho


def update_concentration(state: DpmState, m: int, hyper: DpmHyperparams, rng):
    """Escobar-West auxiliary-variable Gibbs pair for the DP concentration.

    xi | c ~ Beta(c + 1, m); c | xi is a two-gamma mixture with shapes
    ac0 + k and ac0 + k - 1, common rate bc0 - log(xi), and mixture odds
    (ac0 + k - 1) / (m * (bc0 - log xi)) on the larger shape, where k is
    the number of occupied mixture components.  Using the highest allocated
    level index instead of the occupied count is unstable: a single draw
    landing on a high empty level inflates c, which spawns more levels and
    feeds back.
    """
    k = state.n_occupied
    xi = rng.beta(state.c + 1.0, m)
    rate = hyper.bc0 - math.log(xi)
    shape_hi = hyper.ac0 + k
    odds = (hyper.ac0 + k - 1.0) / (m * rate)
    p_hi = odds / (1.0 + odds)
    shape = shape_hi if rng.random() < p_hi else shape_hi - 1.0
    state.c = rng.gamma(shape=shape, scale=1.0 / rate)
    return xi, state.c


def update_sticks(state: DpmState, rng):
    """Draw the sticks of levels 0..max(Y) afresh, replacing the last sweep's.

    nu_l | Y, c ~ Beta(1 + n_l, c + m - sum_{o<=l} n_o).  Levels above the
    top allocated one are left to extend_levels, which draws them from the
    prior Beta(1, c) only as far as the slices need.
    """
    counts = np.bincount(state.y)
    state.nu = rng.beta(1.0 + counts, state.c + state.y.size - np.cumsum(counts))
    state.rho = stick_break(state.nu)
    return state.nu


def update_slices(state: DpmState, rng):
    """u_j ~ Uniform(0, rho_{Y_j}]; keeps the admissible level set finite."""
    state.u = rng.random(state.y.size) * state.rho[state.y]
    return state.u


def extend_levels(state: DpmState, rng):
    """Append prior sticks Beta(1, c) until the remaining mass is below min(U).

    The remaining mass prod(1 - nu) is 1 minus the covered mass, so every
    level with rho_l > u_j for some j is then instantiated.  A new level's
    weight is its stick times the remaining mass before it, so the weights
    of the levels already there are extended, not recomputed.  Atoms are
    left to update_atoms, which draws all levels' atoms at once.
    """
    u_min = float(state.u.min())
    rem = float(np.prod(1.0 - state.nu))
    nu, rho = [], []
    while rem >= u_min and rem > 1e-300:
        nu.append(rng.beta(1.0, state.c))
        rho.append(nu[-1] * rem)
        rem *= 1.0 - nu[-1]
    if nu:
        state.nu = np.concatenate((state.nu, nu))
        state.rho = np.concatenate((state.rho, rho))
    return state.l_star


def update_atoms(state: DpmState, hyper: DpmHyperparams, rng):
    """Normal-gamma draws for all levels from the conjugate update

    m_l = (s0 m0 + n_l w_bar) / (s0 + n_l),  s_l = s0 + n_l,
    d_l = d0 + n_l,  d_l p_l = d0 p0 + sum (w - w_bar)^2
                               + s0 n_l / (s0 + n_l) * (m0 - w_bar)^2;
    with n_l = 0 these reduce to the prior, so empty levels are prior draws.
    Every instantiated level's atom is drawn afresh, replacing the last sweep's.
    """
    w = state.w
    counts = state.level_counts()
    sums = np.bincount(state.y, weights=w, minlength=state.l_star)
    w_bar = sums / np.maximum(counts, 1)
    sq_dev = np.bincount(state.y, weights=(w - w_bar[state.y]) ** 2, minlength=state.l_star)
    s_l = hyper.s0 + counts
    m_l = (hyper.s0 * hyper.m0 + sums) / s_l
    d_l = hyper.d0 + counts
    dp_l = hyper.d0 * hyper.p0 + sq_dev + hyper.s0 * counts / s_l * (hyper.m0 - w_bar) ** 2
    # the standard draws times the scale (plus the mean) are bit-identical to
    # the broadcasting gamma(shape, scale) and normal(loc, scale), and cheaper
    state.tau = rng.standard_gamma(d_l) * (1.0 / dp_l)
    state.mu = m_l + rng.standard_normal(d_l.size) * (1.0 / np.sqrt(s_l * state.tau))
    return state.mu, state.tau


def update_allocations(state: DpmState, rng):
    """Y_j ~ categorical over admissible levels, weighted by the normal density.

    All systems are drawn at once by an exponential race over the L x m
    log-weight matrix (level-major, so each numpy loop runs along the m
    systems): Y_j = argmax_l (log p_lj - log E_lj) with E_lj ~ Exp(1).  As
    -log E is Gumbel(0, 1), this is Gumbel-max, with one log per cell.
    Levels outside the slice set rho_l > u_j are masked out.
    """
    tau = state.tau[:, None]
    logw = 0.5 * np.log(tau) - 0.5 * tau * (state.mu[:, None] - state.w) ** 2
    logw = np.where(state.rho[:, None] > state.u, logw, -np.inf)
    if not np.isfinite(logw.max(axis=0)).all():
        raise FloatingPointError("a system has no admissible level with a finite weight")
    race = rng.standard_exponential(size=logw.shape)
    logw -= np.log(race, out=race)
    state.y = np.argmax(logw, axis=0)
    return state.y


@dataclass
class McmcTrace:
    """Iteration-indexed sampler output (includes burn-in; see burn_in index).

    mixture_var is each sweep's mixture variance from the log-normal moments
    of its atoms (inf beyond the float range).  Only its quantiles mean
    anything: exp(2 mu + 2 / tau) has no finite posterior mean when tau is
    gamma-distributed.  density is the frailty density on run_chain's grid,
    averaged over the post-burn-in states, or None when no grid was given.
    divergent flags the sweeps whose HMC move diverged, and step_size is the
    nominal step of the post-burn-in moves: the adapted one, or the
    configured one when adaptation is off.
    """

    z: np.ndarray
    var_z: np.ndarray
    mixture_var: np.ndarray
    c: np.ndarray
    accepted: np.ndarray
    density: np.ndarray | None
    burn_in: int
    divergent: np.ndarray
    step_size: float

    @property
    def iterations(self):
        return self.z.shape[0]

    def post_burn_in(self, series):
        return series[self.burn_in :]

    @property
    def z_hat(self):
        """Posterior-mean frailties from the post-burn-in draws."""
        return self.z[self.burn_in :].mean(axis=0)

    @property
    def divergences(self):
        return int(self.divergent.sum())

    @property
    def acceptance_rate(self):
        return float(self.accepted[self.burn_in :].mean())


def _init_state(w):
    """c = 1, every system on the first level, log-frailties w; no levels."""
    return DpmState(c=1.0, y=np.zeros(w.size, dtype=int), w=w)


def run_chain(
    summary: CountSummary,
    hyper: DpmHyperparams = DpmHyperparams(),
    hmc: HmcConfig | None = None,
    iterations: int = 10_000,
    burn_in: int = 5_000,
    seed: int = 0,
    grid=None,
) -> McmcTrace:
    """Run the hybrid Gibbs + HMC chain on the frailty posterior.

    Per sweep: concentration pair, allocated sticks, slices, lazy level
    extension, atoms, allocations, then one HMC move of the constrained Z.
    Only c, the allocations and Z carry between sweeps; the sticks, slices
    and atoms are redrawn from their conditionals in each.  Step size is
    dual-averaged toward the target acceptance during burn-in and frozen
    afterwards.  Each sweep records the mixture variance.  Given a grid,
    each post-burn-in sweep adds its frailty density on it to a running
    mean; without one, no density is evaluated and the trace's is None.

    The HMC move runs on one FrailtyTarget for the whole chain, started at
    the sum-zero point v = 0 (all frailties one): its forward pass gives the
    state its first log-frailties, and an accepted end point's forward pass
    the new ones.
    """
    if burn_in < 0:
        raise ValueError("burn_in must not be negative")
    if iterations <= burn_in:
        raise ValueError("iterations must exceed burn_in")
    m = summary.design.m
    if m < 2:
        raise ValueError("frailty estimation needs at least two systems")
    if grid is not None:
        grid = _positive_grid(grid)
        log_grid = np.log(grid)
        density = np.zeros_like(grid)
    n_j = summary.n_j.astype(float)
    hmc = hmc or HmcConfig()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))

    target = FrailtyTarget(np.zeros(m))
    state = _init_state(target.w)
    adapter = DualAveraging(hmc.step_size, target=hmc.target_accept) if hmc.adapt else None
    step = hmc.step_size

    z_draws = np.empty((iterations, m))
    var_z = np.empty(iterations)
    mixture_var = np.empty(iterations)
    c_draws = np.empty(iterations)
    accepted = np.zeros(iterations, dtype=bool)
    divergent = np.zeros(iterations, dtype=bool)

    for it in range(iterations):
        update_concentration(state, m, hyper, rng)
        update_sticks(state, rng)
        update_slices(state, rng)
        extend_levels(state, rng)
        update_atoms(state, hyper, rng)
        update_allocations(state, rng)

        target.set_atoms(n_j, state.mu[state.y], state.tau[state.y])
        _, acc, div, accept_prob = hmc_update(target, hmc, rng, step_size=step)
        if acc:
            state.w = target.w
        if adapter is not None:
            if it < burn_in:
                step = adapter.update(accept_prob)
            elif it == burn_in:
                step = adapter.adapted_step

        dev = np.exp(state.w, out=z_draws[it]) - 1.0
        var_z[it] = float(dev @ dev) / (m - 1)
        mixture_var[it] = _mixture_var(state.rho, state.mu, state.tau)
        c_draws[it] = state.c
        accepted[it] = acc
        divergent[it] = div
        if grid is not None and it >= burn_in:
            density += log_frailty_density(grid, state.rho, state.mu, state.tau, log_grid)

    return McmcTrace(
        z=z_draws,
        var_z=var_z,
        mixture_var=mixture_var,
        c=c_draws,
        accepted=accepted,
        density=None if grid is None else density / (iterations - burn_in),
        burn_in=burn_in,
        divergent=divergent,
        step_size=step,
    )


def _positive_grid(grid):
    grid = np.asarray(grid, dtype=float)
    if not (grid.size and grid.min() > 0):
        raise ValueError("grid must be non-empty and positive")
    return grid


def log_frailty_density(grid, rho, mu, tau, log_grid=None):
    """Mixture-of-log-normals density on a positive grid for one state.

    One (level, grid) matrix of unnormalised normal kernels in log z, level-major
    so that each numpy loop runs along the grid, weighted by rho with each
    level's normal constant folded in.  The weights are divided by their sum,
    the state's instantiated stick mass.  A caller that evaluates many states
    on one grid passes np.log(grid) as log_grid; the grid is then taken as
    already checked.
    """
    if log_grid is None:
        grid = _positive_grid(grid)
        log_grid = np.log(grid)
    rho, mu, tau = (np.asarray(a, dtype=float) for a in (rho, mu, tau))
    kernel = mu[:, None] - log_grid
    kernel *= kernel
    kernel *= -0.5 * tau[:, None]
    np.exp(kernel, out=kernel)
    return (rho * np.sqrt(tau / (2.0 * np.pi))) @ kernel / (grid * rho.sum())


def _mixture_var(rho, mu, tau):
    """Var(Z) of one mixture state from the log-normal moments of its atoms.

    A variance beyond the float range is inf: both moments overflow
    together, and inf - inf is nan.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = rho.sum()
        first = (rho * np.exp(mu + 0.5 / tau)).sum() / norm
        second = (rho * np.exp(2.0 * mu + 2.0 / tau)).sum() / norm
        var = float(second - first**2)
    return math.inf if math.isnan(var) else var


@dataclass(frozen=True)
class VarianceSummary:
    mean: float
    sd: float
    ci_low: float
    ci_high: float


def frailty_variance(draws) -> VarianceSummary:
    """Mean, sd and equal-tail 95% interval of a variance series:
    McmcTrace.var_z, the empirical frailty variance (1/(m-1)) sum (z-1)^2,
    or McmcTrace.mixture_var.

    Draws of mixture_var can be inf or so large that their squares overflow.
    Those make the mean and sd inf or nan, but leave the interval exact while
    fewer than 2.5% of the draws are inf; an interval end that falls between
    two inf draws, or between a finite and an inf one, is inf.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.size == 0:
        raise ValueError("empty trace")
    ordered = np.sort(draws)
    with np.errstate(over="ignore", invalid="ignore"):
        return VarianceSummary(
            mean=float(draws.mean()),
            sd=float(draws.std(ddof=1)) if draws.size > 1 else 0.0,
            ci_low=_quantile(ordered, 0.025),
            ci_high=_quantile(ordered, 0.975),
        )


def _quantile(ordered, q):
    """numpy's default (linear) quantile of sorted draws, without its inf - inf = nan."""
    pos = q * (ordered.size - 1)
    lo, hi = ordered[math.floor(pos)], ordered[math.ceil(pos)]
    return float(lo if lo == hi else lo + (hi - lo) * (pos % 1.0))
