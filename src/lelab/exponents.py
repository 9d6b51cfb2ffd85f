"""Closed-form exponent algebra for the radial Lane-Emden system.

Everything in this module is pure algebra on the exponent pair (p, q) and the
dimension N: the scaling exponents alpha, beta of the singular solution
(a r^-alpha, b r^-beta), the coefficients S, T, a, b, the linearization
weights K1, K2, the weighted Hardy-Rellich constant C_gamma, and the position
of (p, q) relative to the Sobolev hyperbola

    1/(p+1) + 1/(q+1) = 1 - 2/N

and the Joseph-Lundgren critical curve

    [((N-2)^2 - gamma^2)/4]^2 = p q S T,        gamma = alpha - beta.

Sign convention for the weights (fixed by direct computation, see
``derive_scaling``): the factor p v_s^{p-1} decays like r^{-(2+gamma)} and
carries K1; the factor q u_s^{q-1} decays like r^{-(2-gamma)} and carries K2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConvergenceError, DomainError

__all__ = [
    "ParameterTriple",
    "ScalingData",
    "SobolevClass",
    "CurvePosition",
    "RegionVerdict",
    "derive_scaling",
    "sobolev_margin",
    "jl_margin",
    "classify",
    "hardy_rellich_constant",
    "jl_curve_q",
    "jl_diagonal",
]


@dataclass(frozen=True)
class ParameterTriple:
    """Exponents (p, q) and dimension N; the independent input everywhere.

    The constructor enforces only p >= q > 0 and integer N >= 1; the
    stronger hypotheses needed by the critical-curve machinery (p >= q >= 1,
    pq > 1, N >= 3) are checked by the operations that require them.
    """

    p: float
    q: float
    N: int

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "q", float(self.q))
        if not (math.isfinite(self.p) and math.isfinite(self.q)):
            raise DomainError("exponents must be finite")
        if int(self.N) != self.N or self.N < 1:
            raise DomainError(f"dimension must be an integer >= 1, got {self.N}")
        object.__setattr__(self, "N", int(self.N))
        if not (self.p >= self.q > 0.0):
            raise DomainError(
                f"exponents must satisfy p >= q > 0, got p={self.p}, q={self.q}"
            )


def _require_curve_hypotheses(params: ParameterTriple) -> None:
    if params.q < 1.0:
        raise DomainError(f"q >= 1 required, got q={params.q}")
    if params.p * params.q <= 1.0:
        raise DomainError(f"pq > 1 required, got pq={params.p * params.q}")


@dataclass(frozen=True)
class ScalingData:
    """Derived scaling quantities of the singular solution pair.

    alpha, beta are the decay rates, gamma = alpha - beta in [0, 2] (the
    value 2 occurs exactly at q = 1), S = alpha(N-2-alpha),
    T = beta(N-2-beta), a = (S T^p)^{1/(pq-1)}, b = (S^q T)^{1/(pq-1)}.
    K1 = p b^{p-1} with weight exponent ``weight_exp_K1`` = beta(p-1) = 2+gamma
    and K2 = q a^{q-1} with ``weight_exp_K2`` = alpha(q-1) = 2-gamma.
    """

    p: float
    q: float
    N: int
    alpha: float
    beta: float
    gamma: float
    S: float
    T: float
    a: float
    b: float
    K1: float
    K2: float
    C_gamma: float
    weight_exp_K1: float
    weight_exp_K2: float

    @property
    def K1K2(self) -> float:
        return self.K1 * self.K2

    def as_dict(self) -> dict:
        return {
            "p": self.p, "q": self.q, "N": self.N,
            "alpha": self.alpha, "beta": self.beta, "gamma": self.gamma,
            "S": self.S, "T": self.T, "a": self.a, "b": self.b,
            "K1": self.K1, "K2": self.K2, "K1K2": self.K1K2,
            "C_gamma": self.C_gamma,
            "weight_exp_K1": self.weight_exp_K1,
            "weight_exp_K2": self.weight_exp_K2,
        }


def hardy_rellich_constant(N: int, gamma: float) -> float:
    """Optimal radial constant [((N-2)^2 - gamma^2)/4]^2 of the weighted
    Hardy-Rellich inequality; requires N >= 3 and 0 <= gamma < N-2."""
    if int(N) != N or N < 3:
        raise DomainError(f"integer N >= 3 required, got {N}")
    if not (0.0 <= gamma < N - 2.0):
        raise DomainError(f"0 <= gamma < N-2 required, got gamma={gamma}, N={N}")
    return (((N - 2.0) ** 2 - gamma * gamma) / 4.0) ** 2


def derive_scaling(params: ParameterTriple) -> ScalingData:
    """Compute the singular-solution scaling data for a parameter triple.

    Requires p >= q >= 1, pq > 1, N >= 3 and alpha < N-2 (the singular
    solution ceases to exist at alpha = N-2, where S vanishes); raises
    DomainError otherwise.

    The weight exponents are recomputed from first principles here rather
    than assigned by symbol: the scaling identities alpha + 2 = beta p and
    beta + 2 = alpha q force beta(p-1) = 2+gamma and alpha(q-1) = 2-gamma,
    so the faster-decaying weight r^{-(2+gamma)} belongs to p v_s^{p-1}.
    """
    _require_curve_hypotheses(params)
    p, q, N = params.p, params.q, params.N
    if N < 3:
        raise DomainError(f"N >= 3 required for scaling data, got N={N}")
    pq1 = p * q - 1.0
    alpha = 2.0 * (p + 1.0) / pq1
    beta = 2.0 * (q + 1.0) / pq1
    if alpha >= N - 2.0:
        raise DomainError(
            f"no singular solution: alpha={alpha:.6g} >= N-2={N - 2}"
        )
    gamma = alpha - beta
    S = alpha * (N - 2.0 - alpha)
    T = beta * (N - 2.0 - beta)
    log_S = math.log(S)
    log_T = math.log(T)
    a = math.exp((log_S + p * log_T) / pq1)
    b = math.exp((q * log_S + log_T) / pq1)
    K1 = p * math.exp((p - 1.0) * (q * log_S + log_T) / pq1)  # p * b**(p-1)
    K2 = q * math.exp((q - 1.0) * (log_S + p * log_T) / pq1)  # q * a**(q-1)
    e1 = beta * (p - 1.0)
    e2 = alpha * (q - 1.0)
    # scaling identities; a violation here is a bug, not bad input
    if (abs(e1 + e2 - 4.0) > 4e-8
            or abs(e1 - (2.0 + gamma)) > 4e-8
            or abs(e2 - (2.0 - gamma)) > 4e-8):
        raise ArithmeticError(
            f"scaling identities violated at (p={p}, q={q}, N={N}): "
            f"beta(p-1)={e1}, alpha(q-1)={e2}, gamma={gamma}"
        )
    return ScalingData(
        p=p, q=q, N=N, alpha=alpha, beta=beta, gamma=gamma, S=S, T=T,
        a=a, b=b, K1=K1, K2=K2,
        C_gamma=hardy_rellich_constant(N, gamma),
        weight_exp_K1=e1, weight_exp_K2=e2,
    )


class SobolevClass(Enum):
    SUBCRITICAL = "Subcritical"
    CRITICAL = "Critical"
    SUPERCRITICAL = "Supercritical"


class CurvePosition(Enum):
    BELOW = "BelowCurve"
    ON = "OnCurve"
    ABOVE = "AboveCurve"
    UNDEFINED = "Undefined"


@dataclass(frozen=True)
class RegionVerdict:
    """Position of (p, q) relative to the hyperbola and the critical curve.

    ``sobolev_margin`` = (1 - 2/N) - 1/(p+1) - 1/(q+1), positive strictly
    above the hyperbola. ``jl_margin`` = C_gamma - K1 K2, positive strictly
    above the Joseph-Lundgren curve; NaN when the scaling data does not
    exist (then ``jl`` is UNDEFINED).
    """

    sobolev: SobolevClass
    jl: CurvePosition
    sobolev_margin: float
    jl_margin: float

    def as_dict(self) -> dict:
        return {
            "sobolev": self.sobolev.value,
            "jl": self.jl.value,
            "sobolev_margin": self.sobolev_margin,
            "jl_margin": self.jl_margin,
        }


def sobolev_margin(params: ParameterTriple) -> float:
    p, q, N = params.p, params.q, params.N
    return (1.0 - 2.0 / N) - 1.0 / (p + 1.0) - 1.0 / (q + 1.0)


def jl_margin(params: ParameterTriple) -> float:
    """Signed residual C_gamma - K1 K2 of the critical-curve inequality.

    Raises DomainError where the scaling data is undefined.
    """
    sc = derive_scaling(params)
    return sc.C_gamma - sc.K1K2


def classify(params: ParameterTriple, tol_curve: float = 1e-9) -> RegionVerdict:
    """Classify (p, q, N) against both critical curves.

    Total for p >= q >= 1: where the scaling data does not exist (pq <= 1,
    N < 3, or alpha >= N-2) the curve position is UNDEFINED while the
    Sobolev classification is still reported. OnCurve (and Critical) are
    declared inside a band of half-width tol_curve, measured relative to
    max(1, K1K2) for the curve margin.
    """
    if params.q < 1.0:
        raise DomainError(f"classify requires p >= q >= 1, got q={params.q}")
    if tol_curve <= 0.0:
        raise DomainError("tol_curve must be positive")
    sm = sobolev_margin(params)
    if abs(sm) <= tol_curve:
        sob = SobolevClass.CRITICAL
    elif sm > 0.0:
        sob = SobolevClass.SUPERCRITICAL
    else:
        sob = SobolevClass.SUBCRITICAL
    try:
        sc = derive_scaling(params)
    except DomainError:
        return RegionVerdict(sob, CurvePosition.UNDEFINED, sm, math.nan)
    jm = sc.C_gamma - sc.K1K2
    band = tol_curve * max(1.0, sc.K1K2)
    if abs(jm) <= band:
        jl = CurvePosition.ON
    elif jm > 0.0:
        jl = CurvePosition.ABOVE
    else:
        jl = CurvePosition.BELOW
    return RegionVerdict(sob, jl, sm, jm)


def _sobolev_q_lower(N: int, p: float) -> float:
    """Smallest q >= 1 with (p, q) on or above the Sobolev hyperbola.

    The curve-margin zero set is searched only on the existence region at
    and above the hyperbola: below it the margin has a spurious positive
    sliver near alpha = N-2 (where K1 K2 -> 0) that does not belong to the
    critical curve.  On the hyperbola itself S T = (alpha beta)^2 and the
    margin equals (alpha beta)^2 (1 - pq) < 0, so the search bracket always
    starts on the negative side.
    """
    s = (N - 2.0) / N - 1.0 / (p + 1.0)
    if s <= 0.0:
        return math.inf  # entire slice is below the hyperbola
    return max(1.0, 1.0 / s - 1.0)


def _margin_at(N: int, p: float, q: float) -> float:
    return jl_margin(ParameterTriple(p, q, N))


def jl_curve_q(
    N: int,
    p: float,
    tol: float = 1e-12,
    *,
    tol_curve: float = 1e-9,
    prescan: int = 64,
    max_iter: int = 200,
) -> float | None:
    """Solve the critical-curve equality for q on the slice [1, p] at fixed p.

    Returns the root q* of C_gamma - K1 K2 = 0 located by bisection on a
    sign-changing bracket found by a pre-scan (which also verifies the
    margin changes sign exactly once), or None when the margin has constant
    sign on the admissible part of [1, p] (the curve does not cross this
    slice; in particular for every p when N <= 10).  ``tol`` is the bracket
    width in q at which bisection stops.

    The scan is restricted to q on or above the Sobolev hyperbola; see
    ``_sobolev_q_lower``.
    """
    if int(N) != N or N < 3:
        raise DomainError(f"integer N >= 3 required, got {N}")
    if p < 1.0:
        raise DomainError(f"p >= 1 required, got {p}")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    q_lo = _sobolev_q_lower(N, p)
    if not (q_lo <= p):
        return None
    # nudge off the exact hyperbola so rounding cannot push alpha past N-2
    q_lo = min(p, q_lo * (1.0 + 1e-14) + 1e-300)
    qs = [q_lo + (p - q_lo) * i / (prescan - 1) for i in range(prescan)]
    qs[-1] = p  # the formula can round 1 ulp past p, off the admissible slice
    ms = [_margin_at(N, p, q) for q in qs]

    band_end = tol_curve * max(1.0, abs(ms[-1]) + 1.0)
    flips = [i for i in range(len(ms) - 1)
             if (ms[i] > 0.0) != (ms[i + 1] > 0.0)]
    if not flips:
        if abs(ms[-1]) <= band_end:
            return qs[-1]  # tangency at the diagonal endpoint
        return None
    if len(flips) > 1:
        raise ConvergenceError(
            f"curve margin changes sign {len(flips)} times on the slice "
            f"p={p}, N={N}; bisection bracket is ambiguous"
        )
    lo, hi = qs[flips[0]], qs[flips[0] + 1]
    m_lo = ms[flips[0]]
    for _ in range(max_iter):
        if hi - lo <= tol * max(1.0, hi):
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        m_mid = _margin_at(N, p, mid)
        if (m_mid > 0.0) == (m_lo > 0.0):
            lo, m_lo = mid, m_mid
        else:
            hi = mid
    raise ConvergenceError(
        f"bisection did not shrink the bracket below {tol} in {max_iter} steps"
    )


def jl_diagonal(
    N: int,
    tol: float = 1e-12,
    *,
    p_hi: float = 1e4,
    prescan: int = 256,
    max_iter: int = 200,
) -> float | None:
    """Intersection of the critical curve with the diagonal p = q.

    On the diagonal gamma = 0 and the margin reduces to
    ((N-2)^2/4)^2 - (p S)^2; its zero is the classical critical exponent
    of the single equation. Returns None when the diagonal margin never
    changes sign (N <= 10: the margin tends to (N-2)^2[(N-2)^2/16 - 4] <= 0).
    """
    if int(N) != N or N < 3:
        raise DomainError(f"integer N >= 3 required, got {N}")
    p_lo = (N + 2.0) / (N - 2.0) * (1.0 + 1e-12)  # diagonal Sobolev exponent
    if p_lo >= p_hi:
        return None

    def margin(p: float) -> float:
        return _margin_at(N, p, p)

    # geometric pre-scan: the root can sit far out for N barely above 10
    qs = [p_lo * (p_hi / p_lo) ** (i / (prescan - 1)) for i in range(prescan)]
    ms = [margin(p) for p in qs]
    flips = [i for i in range(len(ms) - 1)
             if (ms[i] > 0.0) != (ms[i + 1] > 0.0)]
    if not flips:
        return None
    lo, hi = qs[flips[0]], qs[flips[0] + 1]
    m_lo = ms[flips[0]]
    for _ in range(max_iter):
        if hi - lo <= tol * max(1.0, hi):
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        m_mid = margin(mid)
        if (m_mid > 0.0) == (m_lo > 0.0):
            lo, m_lo = mid, m_mid
        else:
            hi = mid
    raise ConvergenceError(
        f"bisection did not shrink the bracket below {tol} in {max_iter} steps"
    )
