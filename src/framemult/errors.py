"""Exception types shared across the package."""


class FrameMultError(Exception):
    """Base class for every package-specific error."""


class InvalidArgument(FrameMultError, ValueError):
    """An argument is out of range or malformed; a ValueError too, for callers that catch one."""


class DimensionMismatch(FrameMultError):
    """Operand shapes are incompatible."""


class NotHermitian(FrameMultError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class Singular(FrameMultError):
    """A matrix required to be invertible is numerically singular."""


class NotAFrame(FrameMultError):
    """A column family fails to span C^d to numerical rank."""


class ZeroEntry(FrameMultError):
    """A symbol entry is zero where a reciprocal is required."""


class HypothesisViolated(FrameMultError):
    """Inputs do not satisfy the hypothesis a construction requires."""


class NumericalOverflow(FrameMultError):
    """A quantity derived from finite inputs leaves the floating-point range."""


class InvalidDual(FrameMultError):
    """A claimed dual frame fails the reconstruction identity."""


class GenerationFailed(FrameMultError):
    """A seeded generator exhausted its retry budget."""


class ConfigInvalid(FrameMultError):
    """An experiment configuration is malformed."""


class IoError(FrameMultError):
    """A file could not be read or written."""


class ParseError(FrameMultError):
    """A document is malformed; carries line/offset when available."""

    def __init__(self, message: str, line: int | None = None, offset: int | None = None):
        super().__init__(message)
        self.line = line
        self.offset = offset


__all__ = [
    name
    for name, value in list(globals().items())
    if isinstance(value, type) and issubclass(value, FrameMultError)
]
