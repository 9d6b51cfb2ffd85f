"""Exception types shared across the laboratory: each one raised is a
``DomainError`` (bad input, exit code 2) or a ``ConvergenceError`` (3)."""


class LaneEmdenError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LaneEmdenError):
    """Inputs outside the mathematical domain of an operation."""


class ConfigError(DomainError):
    """Bad configuration file or option value."""


class ConvergenceError(LaneEmdenError):
    """An iteration exhausted its budget without meeting its tolerance."""


class BracketError(ConvergenceError):
    """A shooting bracket does not exhibit the two required failure modes."""


class StepUnderflow(ConvergenceError):
    """The adaptive step size collapsed below the floor 16 eps r."""


class MisclassifiedProfile(DomainError):
    """Operation requires a profile classification the input does not have."""
