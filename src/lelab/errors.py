"""Exception types shared across the laboratory."""


class LaneEmdenError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(LaneEmdenError):
    """Inputs outside the mathematical domain of an operation."""


class ConfigError(DomainError):
    """Bad configuration file or option value."""


class InvalidOptions(DomainError):
    """Solver options fail validation (nonpositive tolerances etc.)."""


class ConvergenceError(LaneEmdenError):
    """An iteration exhausted its budget without meeting its tolerance."""


class BracketError(LaneEmdenError):
    """A shooting bracket does not exhibit the two required failure modes."""


class StepUnderflow(LaneEmdenError):
    """The adaptive step size collapsed below the floor 16 eps r."""


class GridTooCoarse(LaneEmdenError):
    """Sign structure inside one grid cell could not be resolved."""


class MisclassifiedProfile(LaneEmdenError):
    """Operation requires a profile classification the input does not have."""
