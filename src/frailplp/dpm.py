"""Dirichlet-process-mixture sampler for the shared-frailty distribution.

The log-frailties W = log Z follow an infinite mixture of normals with
stick-breaking weights.  A slice sampler (auxiliary variables U, allocation
indices Y) keeps the active part of the mixture finite each sweep; the
concentration parameter gets the Escobar-West auxiliary-variable update;
atoms are normal-gamma; the constrained Z itself moves by HMC on its
unconstrained representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import CountSummary
from .hmc import HmcConfig, DualAveraging, _frailty_target, _sticks, hmc_update

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
    "prune_levels",
    "run_chain",
    "log_frailty_density",
    "frailty_variance",
]

# (lo, hi, points) of the frailty-density grid when none is given
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


@dataclass
class DpmState:
    """Mutable sampler state: mixture, latents and the constrained frailties.

    Levels are 0-based internally; y_star is the count of levels up to and
    including the highest allocated one, l_star the number instantiated.
    The frailties z and their logs w are derived from z_star once each time
    it is assigned; w comes from the log-space sticks, so it stays finite
    where z underflows to 0.
    """

    c: float
    nu: np.ndarray
    mu: np.ndarray
    tau: np.ndarray
    u: np.ndarray
    y: np.ndarray
    z_star: np.ndarray

    @property
    def rho(self):
        return stick_break(self.nu)

    @property
    def y_star(self):
        return int(self.y.max()) + 1

    @property
    def l_star(self):
        return self.nu.size

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        if name == "z_star":
            w = _sticks(value)[1]
            super().__setattr__("w", w)
            super().__setattr__("z", np.exp(w))

    def level_counts(self):
        return np.bincount(self.y, minlength=self.l_star)

    @property
    def n_occupied(self):
        """Number of levels with at least one system allocated."""
        return int(np.count_nonzero(self.level_counts()))


def stick_break(nu):
    """Weights from stick fractions: rho_l = nu_l * prod_{o<l}(1 - nu_o)."""
    nu = np.asarray(nu, dtype=float)
    if nu.size == 0:
        return np.empty(0)
    rem = np.concatenate(([1.0], np.cumprod(1.0 - nu[:-1])))
    return nu * rem


def _draw_atom(hyper: DpmHyperparams, rng, m_l=None, s_l=None, dp_l=None, d_l=None):
    if m_l is None:
        m_l, s_l, dp_l, d_l = hyper.m0, hyper.s0, hyper.d0 * hyper.p0, hyper.d0
    tau = rng.gamma(shape=d_l, scale=1.0 / dp_l)
    mu = rng.normal(loc=m_l, scale=1.0 / np.sqrt(s_l * tau))
    return mu, tau


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
    y_star = state.n_occupied
    xi = rng.beta(state.c + 1.0, m)
    rate = hyper.bc0 - math.log(xi)
    shape_hi = hyper.ac0 + y_star
    odds = (hyper.ac0 + y_star - 1.0) / (m * rate)
    p_hi = odds / (1.0 + odds)
    shape = shape_hi if rng.uniform() < p_hi else shape_hi - 1.0
    c = rng.gamma(shape=shape, scale=1.0 / rate)
    state.c = c
    return xi, c


def update_sticks(state: DpmState, rng):
    """Refresh every stick fraction in one draw.

    nu_l | Y, c ~ Beta(1 + n_l, c + m - sum_{o<=l} n_o).  Above the top
    allocated level n_l = 0 and the cumulative count is m, so the same
    formula gives the prior Beta(1, c).
    """
    counts = state.level_counts()
    state.nu = rng.beta(1.0 + counts, state.c + state.y.size - np.cumsum(counts))
    return state.nu


def update_slices(state: DpmState, rng):
    """u_j ~ Uniform(0, rho_{Y_j}]; keeps the admissible level set finite."""
    rho = state.rho
    state.u = rng.uniform(size=state.y.size) * rho[state.y]
    return state.u


def prune_levels(state: DpmState):
    """Drop instantiated levels above the highest allocated one.

    Unallocated sticks and atoms are exchangeable prior draws, so discarding
    them leaves the chain's law unchanged while keeping the state bounded;
    extend_levels regenerates whatever the next slice set needs.
    """
    keep = state.y_star
    state.nu = state.nu[:keep]
    state.mu = state.mu[:keep]
    state.tau = state.tau[:keep]
    return keep


def extend_levels(state: DpmState, hyper: DpmHyperparams, rng):
    """Instantiate levels until the covered stick mass exceeds 1 - min(U)."""
    target = 1.0 - float(state.u.min())
    rho = state.rho
    covered = float(rho.sum())
    rem = float(np.prod(1.0 - state.nu))
    nus = list(state.nu)
    mus = list(state.mu)
    taus = list(state.tau)
    while covered <= target and rem > 1e-300:
        nu_new = rng.beta(1.0, state.c)
        nus.append(nu_new)
        mu_new, tau_new = _draw_atom(hyper, rng)
        mus.append(mu_new)
        taus.append(tau_new)
        covered += rem * nu_new
        rem *= 1.0 - nu_new
    state.nu = np.array(nus)
    state.mu = np.array(mus)
    state.tau = np.array(taus)
    return state.l_star


def update_atoms(state: DpmState, hyper: DpmHyperparams, rng):
    """Normal-gamma draws for all levels from the conjugate update

    m_l = (s0 m0 + n_l w_bar) / (s0 + n_l),  s_l = s0 + n_l,
    d_l = d0 + n_l,  d_l p_l = d0 p0 + sum (w - w_bar)^2
                               + s0 n_l / (s0 + n_l) * (m0 - w_bar)^2;
    with n_l = 0 these reduce to the prior, so empty levels are prior draws.
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
    state.mu, state.tau = _draw_atom(hyper, rng, m_l, s_l, dp_l, d_l)
    return state.mu, state.tau


def update_allocations(state: DpmState, rng):
    """Y_j ~ categorical over admissible levels, weighted by the normal density.

    All systems are drawn at once by Gumbel-max over the m x L log-weight
    matrix, with levels outside the slice set rho_l > u_j masked out.
    """
    w = state.w
    logw = 0.5 * np.log(state.tau) - 0.5 * state.tau * (w[:, None] - state.mu) ** 2
    logw = np.where(state.rho > state.u[:, None], logw, -np.inf)
    if not np.all(np.isfinite(logw.max(axis=1))):
        raise FloatingPointError("a system has no admissible level with a finite weight")
    state.y = np.argmax(logw + rng.gumbel(size=logw.shape), axis=1)
    return state.y


@dataclass
class McmcTrace:
    """Iteration-indexed sampler output (includes burn-in; see burn_in index).

    mixture_var is each sweep's mixture variance from the log-normal moments
    of its atoms (inf beyond the float range).  Only its quantiles mean
    anything: exp(2 mu + 2 / tau) has no finite posterior mean when tau is
    gamma-distributed.  density is the frailty density on run_chain's grid,
    averaged over the post-burn-in states.
    """

    z: np.ndarray
    var_z: np.ndarray
    mixture_var: np.ndarray
    c: np.ndarray
    n_clusters: np.ndarray
    accepted: np.ndarray
    step_sizes: np.ndarray
    density: np.ndarray
    burn_in: int
    divergences: int = 0

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
    def acceptance_rate(self):
        return float(self.accepted[self.burn_in :].mean())


def _init_state(m, hyper, rng):
    """Three prior levels, every system on the first, all frailties one."""
    nu = rng.beta(1.0, np.ones(3))
    atoms = [_draw_atom(hyper, rng) for _ in range(nu.size)]
    return DpmState(
        c=1.0,
        nu=nu,
        mu=np.array([a[0] for a in atoms]),
        tau=np.array([a[1] for a in atoms]),
        u=np.full(m, 1e-3),
        y=np.zeros(m, dtype=int),
        z_star=np.zeros(m - 1),
    )


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
    Step size is dual-averaged toward the target acceptance during burn-in
    and frozen afterwards.  Each sweep records the mixture variance, and
    each post-burn-in sweep adds its frailty density on grid (by default
    np.linspace(*DEFAULT_GRID)) to the running mean.
    """
    if iterations <= burn_in:
        raise ValueError("iterations must exceed burn_in")
    m = summary.design.m
    if m < 2:
        raise ValueError("frailty estimation needs at least two systems")
    grid = _positive_grid(np.linspace(*DEFAULT_GRID) if grid is None else grid)
    n_j = summary.n_j.astype(float)
    hmc = hmc or HmcConfig()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(101,)))

    state = _init_state(m, hyper, rng)
    adapter = DualAveraging(hmc.step_size, target=hmc.target_accept) if hmc.adapt else None
    step = hmc.step_size

    z_draws = np.empty((iterations, m))
    var_z = np.empty(iterations)
    mixture_var = np.empty(iterations)
    density = np.zeros_like(grid)
    c_draws = np.empty(iterations)
    n_clusters = np.empty(iterations, dtype=int)
    accepted = np.zeros(iterations, dtype=bool)
    step_sizes = np.empty(iterations)
    divergences = 0

    for it in range(iterations):
        prune_levels(state)
        update_concentration(state, m, hyper, rng)
        update_sticks(state, rng)
        update_slices(state, rng)
        extend_levels(state, hyper, rng)
        update_atoms(state, hyper, rng)
        update_allocations(state, rng)

        logp_grad, grad = _frailty_target(n_j, state.mu[state.y], state.tau[state.y])
        state.z_star, acc, divergent, accept_prob = hmc_update(
            state.z_star, logp_grad, grad, hmc, rng, step_size=step
        )
        if divergent:
            divergences += 1
        if adapter is not None:
            if it < burn_in:
                step = adapter.update(accept_prob)
            elif it == burn_in:
                step = adapter.adapted_step

        z = state.z
        z_draws[it] = z
        var_z[it] = float(np.sum((z - 1.0) ** 2) / (m - 1))
        rho = state.rho
        mixture_var[it] = _mixture_var(rho, state.mu, state.tau)
        c_draws[it] = state.c
        n_clusters[it] = state.n_occupied
        accepted[it] = acc
        step_sizes[it] = step
        if it >= burn_in:
            density += log_frailty_density(grid, rho, state.mu, state.tau)

    return McmcTrace(
        z=z_draws,
        var_z=var_z,
        mixture_var=mixture_var,
        c=c_draws,
        n_clusters=n_clusters,
        accepted=accepted,
        step_sizes=step_sizes,
        density=density / (iterations - burn_in),
        burn_in=burn_in,
        divergences=divergences,
    )


def _positive_grid(grid):
    grid = np.asarray(grid, dtype=float)
    if not (grid.size and grid.min() > 0):
        raise ValueError("grid must be non-empty and positive")
    return grid


def log_frailty_density(grid, rho, mu, tau):
    """Mixture-of-log-normals density on a positive grid for one state.

    One (grid, level) matrix of unnormalised normal kernels in log z, times
    the weights rho with each level's normal constant folded in.  The weights
    are divided by their sum, the state's instantiated stick mass.
    """
    grid = _positive_grid(grid)
    rho, mu, tau = (np.asarray(a, dtype=float) for a in (rho, mu, tau))
    dev = np.log(grid)[..., None] - mu
    kernel = np.exp(-0.5 * tau * dev**2)
    return kernel @ (rho * np.sqrt(tau / (2.0 * np.pi))) / (grid * rho.sum())


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

    @classmethod
    def from_draws(cls, draws):
        """Mean, sd and equal-tail 95% interval of a set of draws.

        Draws of McmcTrace.mixture_var can be inf or so large that their
        squares overflow.  Those make the mean and sd inf or nan, but leave
        the interval exact while fewer than 2.5% of the draws are inf.
        """
        draws = np.asarray(draws, dtype=float)
        if draws.size == 0:
            raise ValueError("empty trace")
        with np.errstate(over="ignore", invalid="ignore"):
            lo, hi = np.quantile(draws, [0.025, 0.975])
            return cls(
                mean=float(draws.mean()),
                sd=float(draws.std(ddof=1)) if draws.size > 1 else 0.0,
                ci_low=float(lo),
                ci_high=float(hi),
            )


def frailty_variance(draws) -> VarianceSummary:
    """Posterior summary of a variance series: McmcTrace.var_z, the empirical
    frailty variance (1/(m-1)) sum (z-1)^2, or McmcTrace.mixture_var."""
    return VarianceSummary.from_draws(draws)
