"""Effective sample size owned by the benchmark.

The sampler metrics are defined here rather than through
``frailplp.diagnostics.ess`` so that an edit to the package estimator cannot
change what the benchmark measures.  The autocovariance comes from one FFT
(O(n log n)), and the sum of autocorrelations is truncated by Geyer's
initial positive sequence: pairs Gamma_k = rho_2k + rho_2k+1 are summed while
they stay positive (Geyer, Statistical Science 1992).
"""

from __future__ import annotations

import numpy as np


def ess(chain) -> float:
    """ESS of one chain; a constant chain has ESS 0."""
    x = np.asarray(chain, dtype=float)
    n = x.size
    x = x - x.mean()
    spec = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(spec * np.conj(spec), 2 * n)[:n]
    if acov[0] <= 0.0:
        return 0.0
    rho = acov / acov[0]
    pairs = rho[: n - n % 2].reshape(-1, 2).sum(axis=1)
    stop = np.flatnonzero(pairs <= 0.0)
    kept = pairs[: stop[0]] if stop.size else pairs
    # antithetic chains can drive tau below 1; the floor caps ESS at
    # n log10(n), as in Stan
    tau = max(-1.0 + 2.0 * float(kept.sum()), 1.0 / np.log10(n))
    return n / tau


def ess_columns(draws) -> np.ndarray:
    """ESS of every column of a draws-by-parameters array."""
    draws = np.asarray(draws, dtype=float)
    return np.array([ess(draws[:, j]) for j in range(draws.shape[1])])


def ar1(phi, n, seed):
    """AR(1) series with unit innovations; its ESS is n (1 - phi) / (1 + phi)."""
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0] / np.sqrt(1.0 - phi * phi)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    return x
