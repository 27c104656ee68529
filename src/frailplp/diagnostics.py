"""Chain diagnostics and the Monte Carlo evaluation harness."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import summarize
from .plp import PriorConfig, _gamma_pq, posterior as plp_posterior
from .simulate import SimScenario, simulate
from . import dpm

__all__ = [
    "GewekeResult",
    "geweke",
    "autocorrelation",
    "ess",
    "HarnessRow",
    "HarnessReport",
    "run_harness",
]

GEWEKE_MIN_DRAWS = 100


@dataclass(frozen=True)
class GewekeResult:
    z_score: float
    first_frac: float
    last_frac: float

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
        return GewekeResult(0.0, first_frac, last_frac)
    z = (a.mean() - b.mean()) / math.sqrt(denom)
    return GewekeResult(float(z), first_frac, last_frac)


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


@dataclass(frozen=True)
class HarnessReport:
    scenario: SimScenario
    M: int
    rows: list[HarnessRow]

    def row(self, name) -> HarnessRow:
        for r in self.rows:
            if r.name == name:
                return r
        raise KeyError(name)


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


def _interval_covers(shape, rate, truth):
    """Whether each equal-tail 95% Gamma(shape, rate) interval holds truth.

    lo <= truth <= hi exactly when neither tail beyond truth holds less than
    2.5%, so one incomplete-gamma call scores a whole array of marginals
    without computing a quantile.
    """
    lower, upper, _ = _gamma_pq(shape, rate * truth)
    half = (1.0 - 0.95) / 2.0
    return (lower >= half) & (upper >= half)


def run_harness(
    scenario: SimScenario,
    prior: PriorConfig = PriorConfig(),
    M: int = 2000,
    with_mcmc: bool = False,
    mcmc_iterations: int = 1500,
    mcmc_burn_in: int = 500,
) -> HarnessReport:
    """Replicate simulate-then-estimate M times and score the estimators.

    Reports bias, MSE, RMSE, CP95 and the Monte Carlo standard error per PLP
    parameter.  Frailties are renormalized to sample mean 1 inside each
    replication, honoring the model constraint mean(Z) = 1 under which the
    closed-form intervals are calibrated.  With with_mcmc set, the frailty
    variance is re-estimated per replication by a short DPM chain at the
    default hyperpriors and HMC settings.
    """
    if M < 1:
        raise ValueError("need at least one replication")
    K = scenario.design.K
    truths = [(f"beta_{q + 1}", float(scenario.true_params.beta[q])) for q in range(K)]
    truths += [(f"alpha_{q + 1}", float(scenario.true_params.alpha[q])) for q in range(K)]

    marginals = {name: [] for name, _ in truths}  # (shape, rate) per replication
    eta_estimates, eta_covered = [], []

    for rep in range(M):
        rep_scenario = SimScenario(
            design=scenario.design,
            true_params=scenario.true_params,
            eta=scenario.eta,
            frailty_family=scenario.frailty_family,
            seed=int(np.random.SeedSequence(entropy=scenario.seed, spawn_key=(rep,)).generate_state(1)[0]),
            normalize_frailties=True,
        )
        data, z = simulate(rep_scenario)
        summary = summarize(data)
        post = plp_posterior(summary, prior)
        for q in range(K):
            for kind, marg in (("beta", post.beta_marginals[q]), ("alpha", post.alpha_marginals[q])):
                marginals[f"{kind}_{q + 1}"].append((marg.shape, marg.rate))
        if with_mcmc:
            trace = dpm.run_chain(
                summary,
                iterations=mcmc_iterations,
                burn_in=mcmc_burn_in,
                seed=rep_scenario.seed,
            )
            vz = dpm.frailty_variance(trace.post_burn_in(trace.var_z))
            eta_estimates.append(vz.mean)
            eta_covered.append(vz.ci_low <= scenario.eta <= vz.ci_high)

    rows = []
    for name, truth in truths:
        shape, rate = np.array(marginals[name]).T
        rows.append(_summarize_param(name, truth, shape / rate, _interval_covers(shape, rate, truth)))
    if with_mcmc:
        rows.append(_summarize_param("eta", scenario.eta, eta_estimates, eta_covered))
    return HarnessReport(scenario=scenario, M=M, rows=rows)
