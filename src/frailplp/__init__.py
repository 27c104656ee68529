"""Reliability inference for multiple repairable systems under dependent
competing risks: closed-form power-law-process estimation plus a
nonparametric shared-frailty posterior sampler."""

from .data import (
    ObservationDesign,
    FailureDataset,
    CountSummary,
    DatasetError,
    ingest,
    summarize,
    write_dataset,
)
from .plp import (
    PlpParams,
    PriorConfig,
    mle,
    posterior,
    bayes_estimates,
    duane_points,
)
from .simulate import SCENARIOS, SimScenario, FrailtyMixture, draw_frailties, simulate
from .dpm import DpmHyperparams, McmcTrace, run_chain, frailty_variance
from .hmc import HmcConfig
from .diagnostics import geweke, autocorrelation, ess, run_harness

__version__ = "0.1.0"
