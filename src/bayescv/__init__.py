"""Bayesian comparison of systems scored by repeated k-fold cross-validation.

The package covers the whole pipeline: splitting a corpus into repeated
k-fold plans, running external systems and scoring their predictions,
pooling paired score differences across data sets with a hierarchical
model (or an analytic t posterior for a single data set), and turning the
posterior into left / practically-equivalent / right probabilities against
a region of practical equivalence.
"""

__version__ = "0.1.0"

from .decision import DecisionTriple, RopeInterval, rank, region_probs, tally
from .metrics import TaggedCorpus, oov_accuracy, sentence_accuracy, token_accuracy
from .model import ModelConfig, PosteriorChains, correlated_ttest, fit, generate
from .scores import DifferenceSeries, ScoreMatrix, assemble_differences
from .splits import SplitPlan, fold_roles, make_splits
from .statcore import StudentT, rng_fork, t_sample

__all__ = [
    "DecisionTriple",
    "DifferenceSeries",
    "ModelConfig",
    "PosteriorChains",
    "RopeInterval",
    "ScoreMatrix",
    "SplitPlan",
    "StudentT",
    "TaggedCorpus",
    "assemble_differences",
    "correlated_ttest",
    "fit",
    "fold_roles",
    "generate",
    "make_splits",
    "oov_accuracy",
    "rank",
    "region_probs",
    "rng_fork",
    "sentence_accuracy",
    "t_sample",
    "tally",
    "token_accuracy",
]
