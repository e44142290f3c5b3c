"""Bayesian random-effects logistic regression for panel binary data.

Library surface, imported by module: the observation model (`model`), prior
handling and posterior-to-prior conversion (`priors`), the adaptive
Metropolis-within-Gibbs sampler (`sampler`), synthetic panel generation
(`datagen`), the replicated two-stage study (`experiment`), the
yearly-index application (`spindex`) and the worker pool that the CLI opens
and passes to the fits (`workers`). The `panelbayes` console script exposes
all of it.
"""

# importing the package loads every layer module
from . import datagen, experiment, model, priors, sampler, spindex, workers  # noqa: F401

__version__ = "0.1.0"
