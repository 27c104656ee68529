"""Synthetic failure histories from the shared-frailty competing-risks model.

Generation follows the conditional decomposition of the NHPP: draw a frailty
per system, then per (system, cause) a Poisson count with mean z_j * alpha_q,
then place the failure times as T * U^(1/beta_q) for uniform order statistics
U.  Per-system RNG substreams keyed by (seed, system_id) make generation
deterministic and embarrassingly parallel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FailureDataset, ObservationDesign, _read_rows
from .plp import PlpParams

__all__ = [
    "SCENARIOS",
    "FrailtyMixture",
    "SimScenario",
    "draw_frailties",
    "simulate",
    "write_frailties",
    "read_frailties",
]

# Named per-cause parameter scenarios for the Monte Carlo scorecards.
SCENARIOS = {
    "A": PlpParams(beta=[1.2, 0.7], alpha=[5.0, 13.33]),
    "B": PlpParams(beta=[0.75, 1.25], alpha=[9.46, 12.69]),
}


@dataclass(frozen=True)
class FrailtyMixture:
    """Finite log-normal mixture frailty, rescaled to unit mean."""

    weights: np.ndarray
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.mu, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if not (w.shape == mu.shape == sigma.shape):
            raise ValueError("mixture parameter arrays must share a shape")
        if np.any(w <= 0) or np.any(sigma <= 0):
            raise ValueError("weights and sigmas must be positive")
        w = w / w.sum()
        # shift the log-means so the mixture mean is exactly 1
        mean = float(np.sum(w * np.exp(mu + 0.5 * sigma**2)))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "mu", mu - np.log(mean))
        object.__setattr__(self, "sigma", sigma)

    def sample(self, m, rng):
        comp = rng.choice(self.weights.size, size=m, p=self.weights)
        return np.exp(self.mu[comp] + self.sigma[comp] * rng.standard_normal(m))

    @property
    def variance(self):
        second = float(np.sum(self.weights * np.exp(2 * self.mu + 2 * self.sigma**2)))
        return second - 1.0


@dataclass(frozen=True)
class SimScenario:
    """Everything needed to generate one synthetic fleet."""

    design: ObservationDesign
    true_params: PlpParams
    eta: float = 0.0
    frailty_family: str | FrailtyMixture = "gamma"
    seed: int = 0
    normalize_frailties: bool = False

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("frailty variance must be nonnegative")
        if self.true_params.K != self.design.K:
            raise ValueError("true_params must have one (beta, alpha) pair per cause")
        if isinstance(self.frailty_family, str) and self.frailty_family not in (
            "gamma",
            "degenerate",
        ):
            raise ValueError(f"unknown frailty family {self.frailty_family!r}")


def _stream(seed, key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))


def draw_frailties(scenario: SimScenario) -> np.ndarray:
    """Draw the frailty vector Z (population mean 1, variance eta).

    The gamma family uses shape 1/eta, rate 1/eta; eta = 0 (or the degenerate
    family) yields Z identically 1.  With normalize_frailties set, the draw is
    rescaled to sample mean exactly 1, matching the model constraint.
    """
    m = scenario.design.m
    rng = _stream(scenario.seed, 0)
    fam = scenario.frailty_family
    if isinstance(fam, FrailtyMixture):
        z = fam.sample(m, rng)
    elif fam == "degenerate" or scenario.eta == 0.0:
        z = np.ones(m)
    else:
        shape = 1.0 / scenario.eta
        z = rng.gamma(shape=shape, scale=scenario.eta, size=m)
    if scenario.normalize_frailties:
        z = z / z.mean()
    return z


def _simulate_system(rng, z_j, params: PlpParams, T):
    """Per cause in turn: a Poisson count, then that many conditional-uniform times.

    Returns the per-cause counts and the times grouped by cause, unsorted.
    """
    counts = np.empty(params.K, dtype=int)
    times = []
    for q in range(params.K):
        counts[q] = rng.poisson(z_j * params.alpha[q])
        times.append(T * rng.uniform(size=counts[q]) ** (1.0 / params.beta[q]))
    return counts, np.concatenate(times)


def simulate(scenario: SimScenario):
    """Generate a fleet; returns (FailureDataset, true frailty vector)."""
    d = scenario.design
    z = draw_frailties(scenario)
    counts = np.empty((d.m, d.K), dtype=int)
    times = []
    for j in range(d.m):
        rng = _stream(scenario.seed, j + 1)
        counts[j], t = _simulate_system(rng, z[j], scenario.true_params, d.T)
        times.append(t)
    system_id = np.repeat(np.arange(1, d.m + 1), counts.sum(axis=1))
    cause = np.repeat(np.tile(np.arange(1, d.K + 1), d.m), counts.ravel())
    return FailureDataset(d, system_id, cause, np.concatenate(times)), z


def write_frailties(path, z) -> None:
    """Sidecar file with the true frailty per system."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("system_id,z\n")
        for j, zj in enumerate(np.asarray(z, dtype=float), start=1):
            fh.write(f"{j},{float(zj)!r}\n")


_FRAILTY_ROW = np.dtype([("system_id", np.int64), ("z", np.float64)])


def read_frailties(path) -> np.ndarray:
    """The frailty column of a `write_frailties` sidecar (its first line is the header)."""
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        return _read_rows(fh, _FRAILTY_ROW, 2)["z"].copy()
