"""Synthetic failure histories from the shared-frailty competing-risks model.

Generation follows the conditional decomposition of the NHPP: draw a frailty
per system, then per (system, cause) a Poisson count with mean z_j * alpha_q,
then place the failure times as T * U^(1/beta_q) for uniform order statistics
U.  Per-system RNG substreams keyed by (seed, system_id) make generation
deterministic and embarrassingly parallel.

Substream (seed, 0) draws the frailty vector.  Substream (seed, j), for
system j = 1..m, is consumed cause by cause: one Poisson count n_jq, then
n_jq standard uniforms, for q = 1..K in turn, and nothing else.  So a
system's history depends only on the seed, its own frailty and the per-cause
parameters, and growing the fleet leaves the existing systems unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FailureDataset, ObservationDesign, _write_rows
from .plp import PlpParams

__all__ = [
    "SCENARIOS",
    "FrailtyMixture",
    "SimScenario",
    "draw_frailties",
    "simulate",
    "write_frailties",
]

# Named per-cause parameter scenarios for the Monte Carlo scorecards.
SCENARIOS = {
    "A": PlpParams(beta=[1.2, 0.7], alpha=[5.0, 13.33]),
    "B": PlpParams(beta=[0.75, 1.25], alpha=[9.46, 12.69]),
}


@dataclass(frozen=True)
class FrailtyMixture:
    """Finite log-normal mixture frailty, rescaled to unit mean.

    A mixture with a finite mean and variance is valid even when its unit-mean
    shift puts nearly every frailty near 0 (sigma 26 alone: median exp(-338));
    its fleet then has no failures.
    """

    weights: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if not (w.shape == mu.shape == sigma.shape):
            raise ValueError("mixture parameter arrays must share a shape")
        for name, values in (("weight", w), ("mu", mu), ("sigma", sigma)):
            if not np.isfinite(values).all():
                raise ValueError(f"mixture {name} must be finite, got {values[~np.isfinite(values)][0]}")
        if np.any(w <= 0) or np.any(sigma <= 0):
            raise ValueError("weights and sigmas must be positive")
        w = w / w.sum()
        # shift the log-means so the mixture mean is exactly 1
        with np.errstate(over="ignore", under="ignore"):
            mean = float(np.sum(w * np.exp(mu + 0.5 * sigma**2)))
        if not 0.0 < mean < np.inf:
            raise ValueError(f"mixture mean {mean} is not finite and positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "mu", mu - np.log(mean))
        object.__setattr__(self, "sigma", sigma)
        # the variance, exp(sigma**2) - 1 for one component, must be a float
        # too (sigma above about 26.6 overflows it)
        with np.errstate(over="ignore"):
            variance = self.variance
        if not variance < np.inf:
            raise ValueError(f"mixture variance {variance} is not finite")

    def sample(self, m, rng):
        comp = rng.choice(self.weights.size, size=m, p=self.weights)
        return np.exp(self.mu[comp] + self.sigma[comp] * rng.standard_normal(m))

    @property
    def variance(self):
        second = float(np.sum(self.weights * np.exp(2 * self.mu + 2 * self.sigma**2)))
        return second - 1.0


@dataclass(frozen=True)
class SimScenario:
    """One synthetic fleet; frailties from `frailty_family`, else gamma with variance eta."""

    design: ObservationDesign
    true_params: PlpParams
    eta: float = 0.0
    frailty_family: FrailtyMixture | None = None
    seed: int = 0
    normalize_frailties: bool = False

    def __post_init__(self):
        if not 0.0 <= self.eta < np.inf:  # also rejects nan
            raise ValueError(f"frailty variance eta must be finite and nonnegative, got {self.eta}")
        if self.true_params.K != self.design.K:
            raise ValueError("true_params must have one (beta, alpha) pair per cause")


def _stream(seed, key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def draw_frailties(scenario: SimScenario) -> np.ndarray:
    """Draw the frailty vector Z (population mean 1, variance eta).

    The gamma family uses shape 1/eta, rate 1/eta; eta = 0 yields Z
    identically 1.  With normalize_frailties set, the draw is rescaled to
    sample mean exactly 1, matching the model constraint.
    """
    m = scenario.design.m
    rng = _stream(scenario.seed, 0)
    fam = scenario.frailty_family
    if fam is not None:
        z = fam.sample(m, rng)
    elif scenario.eta == 0.0:
        z = np.ones(m)
    else:
        shape = 1.0 / scenario.eta
        z = rng.gamma(shape=shape, scale=scenario.eta, size=m)
    if scenario.normalize_frailties:
        z = z / z.mean()
    return z


def simulate(scenario: SimScenario):
    """Generate a fleet; returns (FailureDataset, true frailty vector).

    Each system's uniforms go, in stream order, into one fleet-wide buffer
    sized from the expected event count and grown only when a fleet exceeds
    it; the times are then formed in that buffer with one power per cause.
    The system ids come out in order, so sorting the fleet by (system_id,
    time) only reorders the causes and times; the sorted columns are handed
    to the dataset without a copy, so each event is held once.
    """
    d = scenario.design
    params = scenario.true_params
    z = draw_frailties(scenario)
    rates = np.multiply.outer(z, params.alpha)
    buf = np.empty(_first_capacity(rates.sum()))
    end = 0
    counts = []
    for j, rates_j in enumerate(rates.tolist(), start=1):
        rng = _stream(scenario.seed, j)
        for rate in rates_j:
            n = rng.poisson(rate)
            counts.append(n)
            if n:
                if end + n > buf.size:
                    buf = _grow(buf, end, end + n)
                rng.random(out=buf[end : end + n])
                end += n
    counts = np.array(counts).reshape(d.m, d.K)
    system_id = np.repeat(np.arange(1, d.m + 1), counts.sum(axis=1))
    cause = np.repeat(np.tile(np.arange(1, d.K + 1), d.m), counts.ravel())
    time = buf[:end]
    del buf  # so that the buffer is freed once the sorted times replace it
    for q in range(d.K):
        of_q = cause == q + 1
        time[of_q] = d.T * time[of_q] ** (1.0 / params.beta[q])
    order = np.lexsort((time, system_id))
    cause = cause[order]
    time = time[order]
    return FailureDataset._adopt(d, system_id, cause, time), z


def _first_capacity(mean):
    """Buffer length for a Poisson(mean) event count: the mean plus four sd."""
    return int(mean + 4.0 * mean**0.5) + 16


def _grow(buf, used, need):
    """A larger buffer holding buf[:used]; at least `need` long."""
    grown = np.empty(max(need, used + used // 2))
    grown[:used] = buf[:used]
    return grown


def write_frailties(path, z) -> None:
    """Sidecar file with the true frailty per system."""
    z = np.asarray(z, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("system_id,z\n")
        _write_rows(fh, np.arange(1, z.size + 1), z)

