"""Chain diagnostics and the Monte Carlo evaluation harness."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import summarize
from .plp import GammaMarginal, ImproperPosteriorError, PriorConfig, parameter_names, posterior as plp_posterior
from .simulate import SimScenario, _seed_words, simulate
from . import dpm

__all__ = [
    "GewekeResult",
    "geweke",
    "autocorrelation",
    "ess",
    "HarnessRow",
    "run_harness",
]

GEWEKE_MIN_DRAWS = 100


@dataclass(frozen=True)
class GewekeResult:
    z_score: float

    @property
    def passed(self):
        return abs(self.z_score) < 1.96


def _autocovariance(x, max_lag):
    """(1/n) sum_t x_t x_(t+k) for k = 0..max_lag, for a centred chain x.

    One real FFT, zero-padded to at least 2n so that no lag wraps around:
    O(n log n) where the direct sum over all lags is O(n^2).
    """
    n = x.size
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(x, size)
    return np.fft.irfft(f.real**2 + f.imag**2, size)[: max_lag + 1] / n


def _spectral_variance_at_zero(x, lag_frac=0.04):
    """Zero-frequency spectral density estimate with a Bartlett lag window."""
    n = x.size
    x = x - x.mean()
    max_lag = max(1, int(lag_frac * n))
    acov = _autocovariance(x, max_lag)
    weights = 1.0 - np.arange(1, max_lag + 1) / (max_lag + 1.0)
    return float(acov[0] + 2.0 * np.sum(weights * acov[1:]))


def geweke(chain, first_frac=0.1, last_frac=0.5) -> GewekeResult:
    """Convergence z-test comparing early and late segment means.

    The segment variances use the zero-frequency spectral density, so the
    score is calibrated against autocorrelated chains.  A constant chain
    scores 0 by convention.  The first and last windows must be positive
    fractions that do not overlap, and each must hold at least 2 draws.
    """
    x = np.asarray(chain, dtype=float)
    if x.size < GEWEKE_MIN_DRAWS:
        raise ValueError(f"chain too short for the diagnostic (need >= {GEWEKE_MIN_DRAWS})")
    if not (0.0 < first_frac and 0.0 < last_frac and first_frac + last_frac <= 1.0):
        raise ValueError(
            f"geweke windows {first_frac} and {last_frac} must be positive and sum to at most 1"
        )
    n_a = int(first_frac * x.size)
    n_b = int(last_frac * x.size)
    if min(n_a, n_b) < 2:
        raise ValueError(f"geweke windows of {n_a} and {n_b} draws; each needs at least 2")
    a, b = x[:n_a], x[x.size - n_b :]
    s_a = _spectral_variance_at_zero(a)
    s_b = _spectral_variance_at_zero(b)
    denom = s_a / n_a + s_b / n_b
    if denom <= 0:
        return GewekeResult(0.0)
    z = (a.mean() - b.mean()) / math.sqrt(denom)
    return GewekeResult(float(z))


def autocorrelation(chain, max_lag):
    """ACF at lags 0..max_lag; a constant chain returns 1 followed by zeros."""
    x = np.asarray(chain, dtype=float)
    n = x.size
    if not 0 <= max_lag < n:
        raise ValueError("max_lag must be non-negative and below the chain length")
    x = x - x.mean()
    var = float(x @ x) / n
    if var == 0.0:
        return np.concatenate(([1.0], np.zeros(max_lag)))
    return _autocovariance(x, max_lag) / var


def ess(chain):
    """Effective sample size via the initial-positive-sequence truncation.

    ESS = n / (1 + 2 sum rho_k), summing lags while consecutive-pair sums of
    the ACF stay positive.  A constant chain has ESS 0 by convention.
    """
    x = np.asarray(chain, dtype=float)
    n = x.size
    if np.all(x == x[0]):
        return 0.0
    acf = autocorrelation(x, min(n - 1, max(10, n // 2)))
    tau = 1.0
    k = 1
    while k + 1 < acf.size:
        pair = acf[k] + acf[k + 1]
        if pair <= 0:
            break
        tau += 2.0 * pair
        k += 2
    return float(n / tau)


@dataclass(frozen=True)
class HarnessRow:
    """Per-parameter Monte Carlo summary over M replications."""

    name: str
    truth: float
    bias: float
    mse: float
    rmse: float
    cp95: float
    mc_se: float


def _summarize_param(name, truth, estimates, covered):
    est = np.asarray(estimates, dtype=float)
    err = est - truth
    mse = float(np.mean(err**2))
    return HarnessRow(
        name=name,
        truth=truth,
        bias=float(err.mean()),
        mse=mse,
        rmse=math.sqrt(mse),
        cp95=float(np.mean(covered)),
        mc_se=float(est.std(ddof=1) / math.sqrt(est.size)) if est.size > 1 else 0.0,
    )


def run_harness(
    scenario: SimScenario,
    prior: PriorConfig = PriorConfig(),
    M: int = 2000,
    with_mcmc: bool = False,
    mcmc_iterations: int = 1500,
    mcmc_burn_in: int = 500,
) -> dict[str, HarnessRow]:
    """Replicate simulate-then-estimate M times and score the estimators.

    Returns {name: HarnessRow} in `parameter_names` order: bias, MSE, RMSE,
    CP95 and the Monte Carlo standard error.  The posterior shapes and rates
    fill (2K, M) arrays, one contiguous row per parameter, and one
    incomplete-gamma call scores every interval.  Frailties are renormalized
    to sample mean 1 inside each replication, honoring the model constraint
    mean(Z) = 1 under which the closed-form intervals are calibrated.  With
    with_mcmc set, a short DPM chain per replication, at the default
    hyperpriors and HMC settings, scores the frailty variance as an "eta" row.
    Replication rep simulates with the seed
    SeedSequence(entropy=seed, spawn_key=(rep,)).generate_state(1)[0]; the
    seeds of all M come from one numpy pass.  An improper posterior's error,
    or a draw of frailties that cannot be rescaled to mean 1, names its
    replication and simulate seed.
    """
    if M < 1:
        raise ValueError("need at least one replication")
    params = scenario.true_params
    truth = np.concatenate([params.beta, params.alpha])
    shape = np.empty((truth.size, M))
    rate = np.empty((truth.size, M))
    eta_estimates, eta_covered = [], []

    seeds = _seed_words(scenario.seed, np.arange(M), 1)[:, 0].tolist()
    for rep, seed in enumerate(seeds):
        rep_scenario = replace(scenario, seed=seed, normalize_frailties=True)
        try:
            data, _ = simulate(rep_scenario)
            summary = summarize(data)
            post = plp_posterior(summary, prior)
        except (ImproperPosteriorError, FloatingPointError) as exc:
            raise type(exc)(f"replication {rep} (simulate seed {rep_scenario.seed}): {exc}") from None
        shape[:, rep] = post.shape
        rate[:, rep] = post.rate
        if with_mcmc:
            trace = dpm.run_chain(
                summary,
                iterations=mcmc_iterations,
                burn_in=mcmc_burn_in,
                seed=rep_scenario.seed,
            )
            vz = dpm.frailty_variance(trace.var_z[trace.burn_in :])
            eta_estimates.append(vz.mean)
            eta_covered.append(vz.ci_low <= scenario.eta <= vz.ci_high)

    covered = GammaMarginal(shape, rate).covers(truth[:, None])
    rows = zip(parameter_names(params.K), truth.tolist(), shape / rate, covered)
    report = {name: _summarize_param(name, t, est, cov) for name, t, est, cov in rows}
    if with_mcmc:
        report["eta"] = _summarize_param("eta", scenario.eta, eta_estimates, eta_covered)
    return report
