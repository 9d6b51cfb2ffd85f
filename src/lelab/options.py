"""The solvers' plain-value inputs, without numpy.

``SolverOptions`` (radial solver and shooting), ``EigOptions`` and
``Annulus`` (eigen ladder), ``default_ladder`` and ``DEFAULT_BAND``
(the dead band of profile comparison).  The command line builds its cache
payloads and parser defaults from these, so a cache hit needs no numerical
layer; ``lelab.radial``, ``lelab.eigen`` and ``lelab.profiles`` re-export
them.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

from .errors import DomainError, InvalidOptions

__all__ = ["SolverOptions", "EigOptions", "Annulus", "default_ladder",
           "DEFAULT_BAND"]

# relative dead band of ``profiles.compare``, floored at the profile's rtol
DEFAULT_BAND = 1e-12


@dataclass(frozen=True)
class SolverOptions:
    rtol: float = 1e-10
    atol: float = 1e-12
    event_tol: float = 1e-12
    min_step: float = 0.0
    max_steps: int = 2_000_000
    r_target: float = 1e6
    decay_threshold: float = 0.05     # relative to max(u0, v0)
    grid_nodes: int = 2048
    v0_tol: float = 1e-13
    shoot_max_iter: int = 200
    polish_probe: float | None = None  # default min(r_target, 1e4)

    def validate(self) -> None:
        for name in ("rtol", "atol", "event_tol", "r_target", "decay_threshold",
                     "v0_tol"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise InvalidOptions(f"{name} must be positive and finite, got {v!r}")
        if not self.rtol < 1.0:
            raise InvalidOptions(f"rtol must be below 1, got {self.rtol!r}")
        if self.min_step < 0.0:
            raise InvalidOptions("min_step must be nonnegative")
        if self.grid_nodes < 16:
            raise InvalidOptions("grid_nodes must be at least 16")
        if self.shoot_max_iter < 1:
            raise InvalidOptions("shoot_max_iter must be at least 1")
        if self.max_steps < 1:
            raise InvalidOptions("max_steps must be at least 1")
        if self.polish_probe is not None and not (
                self.polish_probe > 0.0 and math.isfinite(self.polish_probe)):
            raise InvalidOptions(f"polish_probe must be positive and finite, "
                                 f"got {self.polish_probe!r}")


@dataclass(frozen=True)
class Annulus:
    r_inner: float
    r_outer: float
    M: int

    def __post_init__(self):
        if not (0.0 < self.r_inner < self.r_outer and math.isfinite(self.r_outer)):
            raise DomainError("need 0 < r_inner < r_outer < inf")
        if not isinstance(self.M, numbers.Integral):
            raise DomainError(f"the node count must be an integer, got {self.M!r}")
        if self.M < 16:
            raise DomainError("need at least 16 interior nodes")

    @property
    def log_width(self) -> float:
        return math.log(self.r_outer / self.r_inner)


@dataclass(frozen=True)
class EigOptions:
    tol: float = 1e-11
    max_iter: int = 10_000

    def validate(self):
        if not (0.0 < self.tol < 1.0):
            raise InvalidOptions(f"eigensolver tol must lie in (0, 1), got {self.tol!r}")
        if self.max_iter < 1:
            raise InvalidOptions("eigensolver max_iter must be at least 1")


def default_ladder(k_max: int = 5, m_per_k: int = 1024) -> list[Annulus]:
    """Annuli [10^-k, 10^k] with M = m_per_k * k interior nodes, for
    k = 1..k_max; DomainError when 10^k_max overflows a double."""
    if k_max > sys.float_info.max_10_exp:
        raise DomainError(f"ladder rung k = {k_max} is past the double range: "
                          f"need k <= {sys.float_info.max_10_exp}")
    return [Annulus(10.0 ** (-k), 10.0 ** k, m_per_k * k)
            for k in range(1, k_max + 1)]
