"""Synthetic failure histories from the shared-frailty competing-risks model.

Generation follows the conditional decomposition of the NHPP: draw a frailty
per system, then per (system, cause) a Poisson count with mean z_j * alpha_q,
then place the failure times as T * U^(1/beta_q) for uniform order statistics
U.  Per-system RNG substreams keyed by (seed, system_id) make generation
deterministic and embarrassingly parallel.

Substream (seed, k) is numpy's default_rng(SeedSequence(entropy=seed,
spawn_key=(k,))), bit for bit, but no SeedSequence is built per key: the seed
words of up to 256 keys come from one numpy pass, and one reused Generator's
PCG64 state is set to each key's state in turn.

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
        if self.frailty_family is None and self.eta > 0.0 and 1.0 / float(self.eta) == np.inf:
            raise ValueError(f"frailty variance eta {self.eta} is too small: the gamma shape 1/eta overflows")
        if self.true_params.K != self.design.K:
            raise ValueError("true_params must have one (beta, alpha) pair per cause")


# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# keys whose seed words and states are held at once: a few kB at any fleet size
_STREAM_CHUNK = 256


def _seed_words(seed, keys, n):
    """SeedSequence(entropy=seed, spawn_key=(k,)).generate_state(n) for each k
    of `keys` (below 2**32), as one (len(keys), n) uint32 array.

    Every key's pool starts as SeedSequence(seed).pool, which also rejects a
    negative seed.  The key word is then mixed into each of the 4 pool words
    with the next hash constant; by then the constant has stepped 4 times to
    fill the pool, 12 times to mix it and 4 times per run-entropy word past
    the fourth.  The pool is hashed out as generate_state does.
    """
    pool = np.random.SeedSequence(seed).pool
    steps = 16 + 4 * max(0, (int(seed).bit_length() + 31) // 32 - 4)
    a = _powers(_INIT_A * pow(_MULT_A, steps, 1 << 32) % (1 << 32), _MULT_A, 4)
    b = _powers(_INIT_B, _MULT_B, n)
    mixed = np.asarray(keys, dtype=np.uint32)[:, None] ^ a[:4]
    mixed *= a[1:]
    mixed ^= mixed >> 16
    mixed *= np.uint32(_MIX_MULT_R)
    pool = np.subtract(pool * np.uint32(_MIX_MULT_L), mixed, out=mixed)
    pool ^= pool >> 16
    words = pool.take(np.arange(n) % 4, axis=1)
    words ^= b[:n]
    words *= b[1:]
    words ^= words >> 16
    return words


def _powers(first, mult, n):
    """first * mult**i mod 2**32 for i = 0..n, as uint32."""
    return np.multiply.accumulate(np.array([first] + [mult] * n, dtype=np.uint32), dtype=np.uint32)


def _streams(seed, start, stop):
    """Substreams (seed, start) .. (seed, stop - 1), handed out in turn as one
    reused Generator, so each is valid only until the next is handed out.

    PCG64 seeds from the 4 little-endian uint64 words w of generate_state(8)
    as pcg64_srandom_r does: with s = w0 * 2**64 + w1 and t = w2 * 2**64 + w3,
    inc = 2t + 1 and state = (s + inc) * MULT + inc, both mod 2**128.
    """
    bit_generator = np.random.PCG64(0)  # its state is replaced before each use
    rng = np.random.Generator(bit_generator)
    mask = (1 << 128) - 1
    for first in range(start, stop, _STREAM_CHUNK):
        keys = np.arange(first, min(first + _STREAM_CHUNK, stop), dtype=np.uint32)
        words = _seed_words(seed, keys, 8).astype("<u4", copy=False).view("<u8")
        for s_hi, s_lo, i_hi, i_lo in words.tolist():
            inc = (i_hi << 65 | i_lo << 1 | 1) & mask
            state = ((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & mask
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng


def draw_frailties(scenario: SimScenario) -> np.ndarray:
    """Draw the frailty vector Z (population mean 1, variance eta).

    The gamma family uses shape 1/eta, rate 1/eta; eta = 0 yields Z
    identically 1.  With normalize_frailties set, the draw is rescaled to
    sample mean exactly 1, matching the model constraint; a draw that is all
    0 (every gamma draw underflows when eta is large, and so can a degenerate
    mixture's) cannot be, and raises FloatingPointError.
    """
    m = scenario.design.m
    rng = next(_streams(scenario.seed, 0, 1))
    fam = scenario.frailty_family
    if fam is not None:
        z = fam.sample(m, rng)
    elif scenario.eta == 0.0:
        z = np.ones(m)
    else:
        shape = 1.0 / scenario.eta
        z = rng.gamma(shape=shape, scale=scenario.eta, size=m)
    if scenario.normalize_frailties:
        if not z.any():
            law = "the frailty mixture" if fam is not None else f"eta {scenario.eta}"
            raise FloatingPointError(
                f"all {m} frailties drawn with {law} and seed {scenario.seed} "
                "underflowed to 0, so they cannot be rescaled to mean 1"
            )
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
    for rates_j, rng in zip(rates.tolist(), _streams(scenario.seed, 1, d.m + 1)):
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
    order = _fleet_order(system_id, time)
    cause = cause[order]
    time = time[order]
    return FailureDataset._adopt(d, system_id, cause, time), z


def _fleet_order(system_id, time):
    """np.lexsort((time, system_id)) for nondecreasing ids, in a quarter of its
    time at 90k events: one argsort of id * n + (rank of time).  Equal times
    within a system, which continuous draws do not give, come in any order."""
    n = time.size
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(time)] = np.arange(n)
    rank += system_id * n
    return np.argsort(rank)


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

