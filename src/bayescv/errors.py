"""Exception types shared across the toolkit.

Everything raised on purpose derives from :class:`BayescvError`, so callers
(notably the command line front end) can tell expected failures apart from
genuine bugs.
"""


class BayescvError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(BayescvError):
    """Two corpora disagree in sentence count or sentence lengths."""


class TokenMismatch(BayescvError):
    """Aligned corpora carry different tokens at the same position."""


class NoOovTokens(BayescvError):
    """Out-of-vocabulary accuracy is undefined: every token is in-vocabulary."""


class TooFewItems(BayescvError):
    """Fewer items than folds requested."""


class IndexOutOfRange(BayescvError):
    """Repetition or fold index outside the plan."""


class CommandFailed(BayescvError):
    """An external command exited with a nonzero status."""

    def __init__(self, message: str, returncode: int | None = None, stderr: str = ""):
        super().__init__(message)
        self.returncode = returncode
        self.stderr = stderr


class OutputUnreadable(BayescvError):
    """A prediction file is missing, malformed, or misaligned with the gold."""


class DuplicateScoreKey(BayescvError):
    """The same (dataset, system, metric, repetition, fold) appears twice."""


class NoSharedKeys(BayescvError):
    """Two systems have no overlapping scores to pair up."""


class TooFewDatasets(BayescvError):
    """The hierarchical model needs at least two data sets."""


class MissingPair(BayescvError):
    """A ranking was requested but some pair was never compared."""
