"""Exception types shared across the toolkit."""


class VoicemaskError(Exception):
    """Base class for all toolkit errors."""


class IoFailure(VoicemaskError):
    """A file could not be read or written."""


class MalformedWav(VoicemaskError):
    """WAV header is damaged or the data chunk is truncated."""


class UnsupportedEncoding(VoicemaskError):
    """WAV encoding other than integer PCM or 32-bit float."""


class InvalidConfig(VoicemaskError, ValueError):
    """A configuration or call argument violates its constraints."""


class NonFiniteSignal(VoicemaskError, ValueError):
    """Samples that are not finite, or too large to transform without overflow."""


class EmptyPeakSet(VoicemaskError):
    """Region partitioning was asked to run on a frame with no peaks."""


class InvalidPeakSet(VoicemaskError, ValueError):
    """Peaks that are out of range, unsorted, repeated or adjacent."""


class InvalidAlpha(VoicemaskError):
    """Warping parameter outside the valid range of its family."""


class NotInvertible(VoicemaskError):
    """Warping function has no unique preimage at the requested point."""


class TooShort(VoicemaskError):
    """Signal shorter than one analysis frame."""


class TooFewFrames(VoicemaskError):
    """Not enough feature frames to estimate a covariance model."""


class DimensionMismatch(VoicemaskError):
    """Matrices or feature vectors of incompatible dimension."""


class NotPositiveDefinite(VoicemaskError):
    """Covariance matrix could not be factorized."""


class InvalidModel(VoicemaskError, ValueError):
    """Covariance that is not finite or not symmetric, or an unknown gender label."""


class EmptyEnrollment(VoicemaskError):
    """Identification requested against an empty model set."""


class MissingGender(VoicemaskError):
    """Training corpus lacks data for one of the two genders."""


class ParseError(VoicemaskError):
    """A text input file failed to parse.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InvariantViolation(VoicemaskError):
    """Parsed data violates a structural invariant."""


class NoCrossover(VoicemaskError):
    """A success curve never falls below 0.5."""


class EmptyInput(VoicemaskError):
    """An input file contains no usable rows."""
