"""Bayesian comparison of systems scored by repeated k-fold cross-validation.

The package covers the whole pipeline: splitting a corpus into repeated
k-fold plans, running external systems and scoring their predictions,
pooling paired score differences across data sets with a hierarchical
model (or an analytic t posterior for a single data set), and turning the
posterior into left / practically-equivalent / right probabilities against
a region of practical equivalence.
"""

__version__ = "0.1.0"
