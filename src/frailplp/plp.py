"""Power-law-process inference for cause-specific failure intensities.

Each cause q has intensity  lam_q(t | z) = z * beta_q * alpha_q * t^(beta_q-1)
* T^(-beta_q), where alpha_q is the expected number of cause-q failures per
system over (0, T] and beta_q the elasticity.  Under the prior
pi(alpha, beta) ~ prod alpha_q^-1 beta_q^-zeta the marginal posteriors are
independent gammas, so point estimates and credible intervals are closed-form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

from .data import FailureDataset, CountSummary, summarize

__all__ = [
    "PlpParams",
    "PriorConfig",
    "GammaMarginal",
    "PlpPosterior",
    "ParameterEstimate",
    "ImproperPosteriorError",
    "intensity",
    "mean_function",
    "log_likelihood",
    "mle",
    "classic_mle",
    "posterior",
    "bayes_estimates",
    "duane_points",
]


class ImproperPosteriorError(ValueError):
    """Raised when the data cannot support a proper posterior."""


@dataclass(frozen=True)
class PlpParams:
    """Per-cause (beta_q, alpha_q) pairs, all strictly positive."""

    beta: np.ndarray
    alpha: np.ndarray

    def __post_init__(self):
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        alpha = np.atleast_1d(np.asarray(self.alpha, dtype=float))
        if beta.shape != alpha.shape:
            raise ValueError("beta and alpha must have matching length")
        if not (np.all(beta > 0) and np.all(alpha > 0)):
            raise ValueError("PLP parameters must be strictly positive")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)

    @property
    def K(self):
        return self.beta.size

    def scale(self, T):
        """Legacy scale parameters psi_q = T / alpha_q^(1/beta_q)."""
        return T / self.alpha ** (1.0 / self.beta)


@dataclass(frozen=True)
class PriorConfig:
    """Exponent zeta in pi(alpha, beta) ~ prod alpha_q^-1 beta_q^-zeta.

    zeta = 2 makes the posterior-mean estimators unbiased; propriety needs
    n_q > zeta - 1 for every cause.
    """

    zeta: float = 2.0

    def __post_init__(self):
        if self.zeta < 0:
            raise ValueError("zeta must be nonnegative")


@dataclass(frozen=True)
class GammaMarginal:
    """Gamma(shape, rate) marginal with closed-form summaries."""

    shape: float
    rate: float

    @property
    def mean(self):
        return self.shape / self.rate

    @property
    def sd(self):
        return math.sqrt(self.shape) / self.rate

    def ppf(self, p):
        return gammaincinv(self.shape, p) / self.rate

    def interval(self, level=0.95):
        half = (1.0 - level) / 2.0
        return (float(self.ppf(half)), float(self.ppf(1.0 - half)))


@dataclass(frozen=True)
class PlpPosterior:
    """Independent gamma marginals per cause: beta_q and alpha_q."""

    beta_marginals: tuple[GammaMarginal, ...]
    alpha_marginals: tuple[GammaMarginal, ...]
    zeta: float

    @property
    def K(self):
        return len(self.beta_marginals)


def intensity(params: PlpParams, cause: int, t, T, z=1.0):
    """Cause-specific failure rate at time t, scaled by the frailty z."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise ValueError("intensity requires t > 0")
    if np.any(t > T):
        raise ValueError("intensity is defined on (0, T]")
    if z <= 0:
        raise ValueError("frailty must be positive")
    b = params.beta[cause - 1]
    a = params.alpha[cause - 1]
    return z * b * a * t ** (b - 1.0) * T ** (-b)


def mean_function(params: PlpParams, cause: int, z=1.0):
    """Expected number of cause-q failures per system on (0, T]: z * alpha_q."""
    if z <= 0:
        raise ValueError("frailty must be positive")
    return z * params.alpha[cause - 1]


def log_likelihood(params: PlpParams, z, data: FailureDataset):
    """Joint log-likelihood of all systems given frailties z (length m).

    Works entirely in log space; the per-event factor is
    log z_j + log beta_q + log alpha_q + (beta_q - 1) log t - beta_q log T
    and each system contributes the exposure term -z_j * sum_q alpha_q.
    """
    d = data.design
    z = np.asarray(z, dtype=float)
    if z.shape != (d.m,):
        raise ValueError(f"frailty vector must have length m={d.m}")
    if params.K != d.K:
        raise ValueError(f"params have K={params.K}, dataset has K={d.K}")
    if np.any(z <= 0):
        raise ValueError("frailties must be positive")
    exposure = float(z.sum() * params.alpha.sum())
    q = data.cause - 1
    beta = params.beta[q]
    per_event = (
        np.log(z)[data.system_id - 1]
        + np.log(params.beta)[q]
        + np.log(params.alpha)[q]
        + (beta - 1.0) * np.log(data.time)
        - beta * math.log(d.T)
    )
    return float(per_event.sum()) - exposure


def mle(data: FailureDataset | CountSummary) -> np.ndarray:
    """Per-cause MLE beta_hat_q = n_q / sum log(T / t) over cause-q failures."""
    s = data if isinstance(data, CountSummary) else summarize(data)
    if np.any(s.n_q == 0):
        bad = int(np.flatnonzero(s.n_q == 0)[0]) + 1
        raise ImproperPosteriorError(f"cause {bad} has no failures; its MLE is undefined")
    return s.n_q / s.log_ratio_sums


def classic_mle(data: FailureDataset):
    """Single-system, single-cause MLEs (beta_hat, mu_hat)."""
    d = data.design
    if not (d.m == 1 and d.K == 1):
        raise ValueError("classic MLEs apply only to m=1, K=1")
    beta_hat = float(mle(data)[0])
    n = len(data)
    mu_hat = d.T / n ** (1.0 / beta_hat)
    return beta_hat, mu_hat


def posterior(data: FailureDataset | CountSummary, prior: PriorConfig = PriorConfig()) -> PlpPosterior:
    """Closed-form marginal posteriors.

    beta_q ~ Gamma(n_q + 1 - zeta, rate n_q / beta_hat_q) and
    alpha_q ~ Gamma(n_q, rate m), independent across all 2K marginals.
    """
    s = data if isinstance(data, CountSummary) else summarize(data)
    m = s.design.m
    zeta = prior.zeta
    for q in range(s.design.K):
        if s.n_q[q] <= zeta - 1.0:
            raise ImproperPosteriorError(
                f"cause {q + 1}: n_q={s.n_q[q]} <= zeta-1={zeta - 1}; posterior improper"
            )
    beta_hat = s.n_q / s.log_ratio_sums
    betas = tuple(
        GammaMarginal(shape=float(nq + 1.0 - zeta), rate=float(nq / bh))
        for nq, bh in zip(s.n_q, beta_hat)
    )
    alphas = tuple(GammaMarginal(shape=float(nq), rate=float(m)) for nq in s.n_q)
    return PlpPosterior(beta_marginals=betas, alpha_marginals=alphas, zeta=zeta)


@dataclass(frozen=True)
class ParameterEstimate:
    name: str
    mean: float
    sd: float
    ci_low: float
    ci_high: float


def bayes_estimates(post: PlpPosterior, level=0.95) -> list[ParameterEstimate]:
    """Posterior means, SDs and equal-tail credible intervals per parameter."""
    out = []
    for q, g in enumerate(post.beta_marginals, start=1):
        lo, hi = g.interval(level)
        out.append(ParameterEstimate(f"beta_{q}", g.mean, g.sd, lo, hi))
    for q, g in enumerate(post.alpha_marginals, start=1):
        lo, hi = g.interval(level)
        out.append(ParameterEstimate(f"alpha_{q}", g.mean, g.sd, lo, hi))
    return out


def duane_points(data: FailureDataset, cause: int):
    """Duane-plot data for one cause, pooled over systems.

    Returns (log_times, log_counts, slope): cumulative cause-q failure counts
    at each ordered cause-q failure time on log-log axes, with the unweighted
    least-squares slope.  Near-linearity supports the power-law form; the
    slope estimates beta_q.
    """
    times = np.sort(data.time[data.cause == cause])
    if times.size < 2:
        raise ValueError(f"cause {cause} needs at least 2 failures for a Duane plot")
    log_t = np.log(times)
    log_n = np.log(np.arange(1, times.size + 1, dtype=float))
    slope = float(np.polyfit(log_t, log_n, 1)[0])
    return log_t, log_n, slope
