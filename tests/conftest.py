"""Shared fixtures: canonical scenarios and dataset builders."""

import numpy as np
import pytest

from frailplp.data import (
    ObservationDesign,
    FailureDataset,
    CountSummary,
)
from frailplp.hmc import FrailtyTarget
from frailplp.plp import PlpParams
from frailplp.simulate import SimScenario


@pytest.fixture
def two_cause_params():
    return PlpParams(beta=np.array([1.2, 0.7]), alpha=np.array([5.0, 13.33]))


@pytest.fixture
def fleet_scenario(two_cause_params):
    """Mid-sized fleet with gamma frailties, the workhorse synthetic setting."""
    return SimScenario(
        design=ObservationDesign(T=20.0, m=50, K=2),
        true_params=two_cause_params,
        eta=1.0,
        seed=3,
        normalize_frailties=True,
    )


@pytest.fixture
def warranty_summary():
    """Count summary shaped like a large warranty-claims fleet.

    439 systems, three causes with totals (76, 87, 111).  Only the counts
    drive the alpha marginals, so the per-cause log-ratio sums are arbitrary
    fixed positives.
    """
    m, counts = 439, (76, 87, 111)
    n_jq = np.zeros((m, 3), dtype=int)
    rng = np.random.default_rng(0)
    for q, n in enumerate(counts):
        systems = rng.choice(m, size=n, replace=True)
        for j in systems:
            n_jq[j, q] += 1
    return CountSummary(
        n_jq=n_jq,
        log_ratio_sums=np.array([150.0, 160.0, 200.0]),
        design=ObservationDesign(T=3000.0, m=m, K=3),
    )


def make_dataset(T=20.0, m=2, K=1, events=()):
    """Small literal dataset: events are (system_id, cause, time) triples."""
    design = ObservationDesign(T=T, m=m, K=K)
    system_id, cause, time = zip(*events) if events else ((), (), ())
    return FailureDataset(design, system_id, cause, time)


COLUMNS = ("system_id", "cause", "time")

# floats at repr's format switches: exponent form from 1e16 up and below 1e-4,
# the smallest subnormal, and the largest float below each switch; then the
# writer's own edges.  Only fixed-form floats with fraction bits (biased
# exponents 1009..1074, 2.0**-14 up to 2.0**52) are laid out from Ryu's
# digits, and `repr` writes every other float: the zeros, integral floats
# (1.0, 3.0, -3.0, 123.0, 2.0**52 + 1 at the first exponent past that range,
# 2.0**53, 2.0**54) and short binary fractions, Ryu's exact case (0.5, and
# 2.0**-14 and 2.0**-13, the powers of two on either side of 1e-4)
REPR_EDGES = [
    1e16, 9999999999999998.0, 1e-5, 1e-4, 9.999999999999999e-05, 5e-324, 0.1, 3.0,
    2.0**53, 2.0**54, 1.0, 0.5, 123.0, 0.0, -0.0, -3.0, 2.0**52 + 1, 2.0**-14, 2.0**-13,
]


def same_events(a, b):
    """True when two datasets hold exactly equal columns, dtypes included."""
    return all(
        getattr(a, c).dtype == getattr(b, c).dtype and np.array_equal(getattr(a, c), getattr(b, c))
        for c in COLUMNS
    )


class UniformDraws:
    """A generator whose random() draws through uniform(0, 1), the call the
    sampler used before; every other method is the wrapped generator's."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def random(self, size=None):
        return self.rng.uniform(size=size)


def log_target_z(v, n_j, mu_y, tau_y):
    """FrailtyTarget's log density at the sum-zero point v with its gradient,
    from set_atoms and start."""
    target = FrailtyTarget(v)
    target.set_atoms(n_j, mu_y, tau_y)
    half_grad = np.zeros(target.z_star.size)
    # with eps = 1 the start kick adds half the gradient, and halving is exact
    logp = target.start(1.0, half_grad)
    return logp, 2.0 * half_grad
