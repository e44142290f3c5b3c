"""Bayesian random-effects logistic regression for panel binary data.

Library surface: the observation model (`model`), prior handling and
posterior-to-prior conversion (`priors`), the adaptive Metropolis-within-
Gibbs sampler (`sampler`), synthetic panel generation (`datagen`), the
replicated two-stage study (`experiment`) and the yearly-index application
(`spindex`). The `panelbayes` console script exposes all of it.
"""

from .datagen import Quadrants, SimConfig, gen_panel, gen_x2_path, partition
from .errors import ConfigError, SamplerError
from .experiment import (RUNS, RunSpec, StudyResult, SummaryRow, execute_run, mse,
                         replicate_ci, run_study, stage_dataset, write_tables)
from .model import PanelDataset, ParameterState, concat_panels, log_likelihood, log_posterior
from .priors import (InverseGammaPrior, NormalPrior, PriorSet, default_uninformative,
                     fit_invgamma, fit_normal, load_priors, log_density_invgamma,
                     log_density_normal, posterior_to_priorset, save_priors)
from .sampler import (ChainConfig, PosteriorSamples, SummaryStats, adapt_scale,
                      draws_to_csv, effective_sample_size, gibbs_sigma2,
                      initial_state, metropolis_sweep, run_chain, summarize)
from .seeding import derive_seed, mix64
from .spindex import (ReturnSeries, binarize, build_design, load_returns,
                      make_surrogate, series_to_panel, surrogate_path,
                      two_stage_fit, write_comparison_csv)

__version__ = "0.1.0"

__all__ = [
    "ChainConfig", "ConfigError", "InverseGammaPrior", "NormalPrior", "PanelDataset",
    "ParameterState", "PosteriorSamples", "PriorSet", "Quadrants", "ReturnSeries",
    "RunSpec", "RUNS", "SamplerError", "SimConfig", "StudyResult", "SummaryRow",
    "SummaryStats", "adapt_scale", "binarize", "build_design", "concat_panels",
    "default_uninformative", "derive_seed", "draws_to_csv", "effective_sample_size",
    "execute_run", "fit_invgamma", "fit_normal", "gen_panel", "gen_x2_path",
    "gibbs_sigma2", "initial_state", "load_priors", "load_returns",
    "log_density_invgamma", "log_density_normal", "log_likelihood", "log_posterior",
    "make_surrogate", "metropolis_sweep", "mix64", "mse", "partition",
    "posterior_to_priorset", "replicate_ci", "run_chain", "run_study", "save_priors",
    "series_to_panel", "stage_dataset", "summarize",
    "surrogate_path", "two_stage_fit", "write_comparison_csv", "write_tables",
]
