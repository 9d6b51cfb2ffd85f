"""Numerical laboratory for stable radial solutions of the Lane-Emden system.

The package evaluates the closed-form singular solution of

    -Delta u = v^p,   -Delta v = u^q   on R^N,

classifies exponent pairs against the Sobolev hyperbola and the
Joseph-Lundgren critical curve, integrates radial profiles from the origin,
counts intersections with the singular solution, and computes the weighted
Hardy-Rellich principal eigenvalue on annuli that decides stability of the
singular pair.
"""

__version__ = "0.1.0"

from .errors import (
    BracketError,
    ConfigError,
    ConvergenceError,
    DomainError,
    LaneEmdenError,
    MisclassifiedProfile,
    StepUnderflow,
)
from .exponents import (
    CurvePosition,
    ParameterTriple,
    RegionVerdict,
    ScalingData,
    SobolevClass,
    classify,
    curve_margins,
    derive_scaling,
    hardy_rellich_constant,
    jl_curve_q,
    jl_diagonal,
)

__all__ = [
    "__version__",
    "LaneEmdenError", "DomainError", "ConfigError", "MisclassifiedProfile",
    "ConvergenceError", "BracketError", "StepUnderflow",
    "ParameterTriple", "ScalingData", "RegionVerdict",
    "SobolevClass", "CurvePosition",
    "derive_scaling", "curve_margins", "classify",
    "hardy_rellich_constant", "jl_curve_q", "jl_diagonal",
]
