"""Exception types shared across the toolkit.

Invalid input raises ValueError. The types here are the failures that a
caller tells apart: corpora that do not align, an undefined
out-of-vocabulary accuracy, and external work that failed or left
unreadable output. All derive from :class:`BayescvError`.
"""


class BayescvError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(BayescvError):
    """Two corpora disagree in sentence count or sentence lengths."""


class TokenMismatch(BayescvError):
    """Aligned corpora carry different tokens at the same position."""


class NoOovTokens(BayescvError):
    """Out-of-vocabulary accuracy is undefined: every token is in-vocabulary."""


class CommandFailed(BayescvError):
    """An external command exited with a nonzero status."""

    def __init__(self, message: str, returncode: int | None = None, stderr: str = ""):
        super().__init__(message)
        self.returncode = returncode
        self.stderr = stderr


class OutputUnreadable(BayescvError):
    """A prediction file is missing, malformed, or misaligned with the gold."""
