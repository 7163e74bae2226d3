"""Exception types shared across the package.

Every error raised by library code derives from MagnormError so callers
can catch the whole family with one clause.  The CLI maps these onto
process exit codes.
"""


class MagnormError(Exception):
    """Base class for all library errors."""


class ZeroMagnitude(MagnormError):
    """A vector with zero Euclidean norm reached an operation that
    normalizes it or raises it to a power; the angular geometry is
    undefined at the origin."""


class DimensionMismatch(MagnormError):
    """Vector or matrix shapes are inconsistent."""


class DegenerateBatch(MagnormError):
    """An in-batch contrastive batch cannot be formed: it has fewer than
    two queries, so its pool of positives holds no negative for some
    query, or a train query has no relevant document to draw as its
    positive."""


class StateMismatch(MagnormError, ValueError):
    """A training state's sizes or step do not fit the run asked to continue it."""


class NonFiniteEvaluation(MagnormError):
    """A value that must be finite is NaN or Inf: a finite-difference
    probe, or a score in a ranking."""


class NonFiniteLoss(MagnormError):
    """Training produced a NaN/Inf loss or gradient norm; carries the
    offending step, the value, and which of the two it was."""

    def __init__(self, step: int, value: float, what: str = "loss"):
        super().__init__(f"non-finite {what} {value!r} at step {step}")
        self.step = step
        self.value = value
        self.what = what


class InfeasibleSpec(MagnormError):
    """A task specification demands more structure than it can hold."""


class UnknownQuery(MagnormError):
    """A query id is absent from the relevance judgments."""


class DegenerateInput(MagnormError):
    """A statistic is undefined on this input (constant or too short)."""


class DegenerateVariance(MagnormError):
    """The pooled standard deviation is zero; the effect size is undefined."""


class TooFewSamples(MagnormError):
    """A statistic needs more observations per group than were given."""


class EmptyInput(MagnormError):
    """An aggregate over an empty collection was requested."""


class ConfigError(MagnormError):
    """A configuration file failed to parse or contained unknown keys."""


class CorruptArtifact(MagnormError):
    """An artifact file does not parse, or lacks a key or has one of the wrong type."""
