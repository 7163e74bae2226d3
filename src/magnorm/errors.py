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
    """A contrastive batch cannot supply a positive and at least the
    required candidates for some query."""


class NonFiniteEvaluation(MagnormError):
    """A value that must be finite is NaN or Inf: a finite-difference
    probe, or a score in a ranking."""


class NonFiniteLoss(MagnormError):
    """Training produced a NaN/Inf loss; carries the offending step."""

    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite loss {value!r} at step {step}")
        self.step = step
        self.value = value


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
