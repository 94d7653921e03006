"""Exception types shared across the package."""


class FockoptError(Exception):
    """Base class for all package-specific errors."""


class InvalidOccupation(FockoptError):
    """Occupation numbers incompatible with the particle statistics."""


class ShapeMismatch(FockoptError):
    """Operands disagree on particle number, mode count, or matrix shape."""


class ZeroState(FockoptError):
    """A superposition cancelled to (numerically) the zero vector."""


class NotUnitary(FockoptError):
    """Matrix fails the unitarity check beyond tolerance."""


class ZeroOutcome(FockoptError):
    """A heralding condition that fires with (numerically) zero probability."""


class InvalidCircuit(FockoptError):
    """Circuit structure violates the gate/detector ordering rules."""


class InvalidParameter(FockoptError):
    """Parameter outside its documented range."""


class DegenerateAmplitude(FockoptError):
    """Hidden-variable beam splitter hit vanishing amplitudes with particles present."""


class InvalidFile(FockoptError):
    """Malformed state, circuit, unitary or witness file.

    ``line`` and ``column`` are set when the underlying JSON parse failed.
    """

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column
