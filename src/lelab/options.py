"""The solvers' plain-value inputs, without numpy.

``SolverOptions``, ``GRID_NODES`` and ``V0_TOL`` (radial solver and
shooting), ``Annulus``, ``ladder_rung`` and ``default_ladder`` (eigen
ladder), ``DEFAULT_BAND`` (profile comparison).  The command line builds
its cache payloads and parser defaults from these, so a cache hit needs no
numerical layer; ``lelab.radial``, ``lelab.eigen`` and ``lelab.profiles``
re-export them.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .errors import ConfigError, DomainError

__all__ = ["SolverOptions", "Annulus", "ladder_rung", "default_ladder",
           "DEFAULT_BAND", "GRID_NODES", "LADDER_KMAX", "LADDER_M_PER_K",
           "MAX_NODES", "V0_TOL"]

# relative width of the final v0 bracket of a shot without ``polish``
V0_TOL = 1e-13

# log-spaced output nodes of every radial profile
GRID_NODES = 2048

# floor of the relative dead band of ``profiles.compare``, the profile's rtol
DEFAULT_BAND = 1e-12

# the default ladder: rungs k = 1..LADDER_KMAX (``ladder_rung``), with
# LADDER_M_PER_K * k interior nodes each, as the eigen ladder's extension
LADDER_KMAX, LADDER_M_PER_K = 5, 1024

# the most interior nodes of an annulus: the eigen solve allocates a few
# arrays of M doubles, 32 MiB each at the cap; the widest ladder rung,
# k = 14, has 14,336
MAX_NODES = 2 ** 22


def _is_finite(v) -> bool:
    """Whether ``v`` is a real number that a finite double holds, and not a
    bool: bool is an Integral, and so a Real, and True would pass as 1.  The
    comparison is exact, where ``math.isfinite`` raises OverflowError on an
    int past the double range; float and int skip the slower ABC test."""
    return (isinstance(v, (float, int, numbers.Real)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


@dataclass(frozen=True)
class SolverOptions:
    rtol: float = 1e-10
    atol: float = 1e-12
    r_target: float = 1e6

    def validate(self) -> None:
        for name in ("rtol", "atol", "r_target"):
            v = getattr(self, name)
            if not (_is_finite(v) and v > 0.0):
                raise ConfigError(f"{name} must be positive and finite, got {v!r:.40}")
        if not self.rtol < 1.0:
            raise ConfigError(f"rtol must be below 1, got {self.rtol!r}")


@dataclass(frozen=True)
class Annulus:
    r_inner: float
    r_outer: float
    M: int

    def __post_init__(self):
        if not (_is_finite(self.r_inner) and _is_finite(self.r_outer)
                and 0.0 < self.r_inner < self.r_outer):
            raise DomainError("need 0 < r_inner < r_outer < inf")
        if not isinstance(self.M, numbers.Integral):
            raise DomainError(f"the node count must be an integer, got {self.M!r}")
        if not 16 <= self.M <= MAX_NODES:
            raise DomainError(f"need 16 to {MAX_NODES} interior nodes")

    @property
    def log_width(self) -> float:
        return math.log(self.r_outer / self.r_inner)


def ladder_rung(k: int) -> Annulus:
    """The annulus [10^-k, 10^k] with M = LADDER_M_PER_K * k interior nodes."""
    return Annulus(10.0 ** (-k), 10.0 ** k, LADDER_M_PER_K * k)


def default_ladder() -> list[Annulus]:
    """The rungs k = 1..LADDER_KMAX (``ladder_rung``), the ladder of every
    verdict that is not given one; the verdict appends wider rungs while a
    wider annulus could still flip it."""
    return [ladder_rung(k) for k in range(1, LADDER_KMAX + 1)]
