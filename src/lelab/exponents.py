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
from dataclasses import dataclass, fields
from enum import Enum

from .errors import ConvergenceError, DomainError
from .options import _is_finite

__all__ = [
    "ParameterTriple",
    "check_dimension",
    "ScalingData",
    "SobolevClass",
    "CurvePosition",
    "RegionVerdict",
    "derive_scaling",
    "curve_margins",
    "classify",
    "hardy_rellich_constant",
    "jl_curve_q",
    "jl_diagonal",
]

_ROOT_TOL = 1e-12  # bracket width at which ``jl_curve_q`` and ``jl_diagonal`` stop
_TOL_CURVE = 1e-9  # half-width of the Critical and OnCurve bands (_curve_floor)


@dataclass(frozen=True)
class ParameterTriple:
    """Exponents (p, q) and dimension N; the independent input everywhere.

    The constructor enforces only p >= q > 0 with p q finite and integer
    N >= 1; the stronger hypotheses needed by the critical-curve machinery
    (p >= q >= 1, pq > 1, N >= 3) are checked by the operations that
    require them.
    """

    p: float
    q: float
    N: int

    def __post_init__(self):
        if not (_is_finite(self.p) and _is_finite(self.q)):
            raise DomainError("exponents must be finite real numbers")
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "N", check_dimension(self.N, 1))
        if not (self.p >= self.q > 0.0):
            raise DomainError(
                f"exponents must satisfy p >= q > 0, got p={self.p}, q={self.q}"
            )
        if not math.isfinite(self.p * self.q):
            raise DomainError(f"p q overflows: p={self.p}, q={self.q}")


def check_dimension(N, least: int) -> int:
    """N as an int, refused unless it is an integer >= least that a double
    can hold (not a bool): every formula downstream works on float(N)."""
    if not (_is_finite(N) and int(N) == N and N >= least):
        raise DomainError(f"integer N >= {least} within double range required, "
                          f"got {N!r:.40}")
    return int(N)


def _require_curve_hypotheses(params: ParameterTriple) -> None:
    if params.q < 1.0:
        raise DomainError(f"q >= 1 required, got q={params.q}")
    if params.p * params.q <= 1.0:
        raise DomainError(f"pq > 1 required, got pq={params.p * params.q}")
    if params.N < 3:
        raise DomainError(f"N >= 3 required for scaling data, got N={params.N}")


def _require_singular_solution(alpha: float, N: int) -> None:
    # the singular solution ceases to exist at alpha = N-2, where S vanishes
    if alpha >= N - 2.0:
        raise DomainError(
            f"no singular solution: alpha={alpha:.6g} >= N-2={N - 2}"
        )


@dataclass(frozen=True)
class ScalingData:
    """Derived scaling quantities of the singular solution pair.

    alpha, beta are the decay rates, gamma = alpha - beta in [0, 2] (the
    value 2 occurs exactly at q = 1), S = alpha(N-2-alpha),
    T = beta(N-2-beta), a = (S T^p)^{1/(pq-1)}, b = (S^q T)^{1/(pq-1)}.
    K1 = p b^{p-1} with weight exponent ``weight_exp_K1`` = beta(p-1) = 2+gamma
    and K2 = q a^{q-1} with ``weight_exp_K2`` = alpha(q-1) = 2-gamma.
    ``K1K2`` is the kernel's p q S T, which equals K1 K2 up to rounding.
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
    K1K2: float
    C_gamma: float
    weight_exp_K1: float
    weight_exp_K2: float

    def as_dict(self) -> dict:
        # not dataclasses.asdict, which deep-copies each field: 27 us a
        # call against 4 on a 2-core x86-64 host, and classify calls this
        # once per triple
        return {f.name: getattr(self, f.name) for f in fields(self)}


def hardy_rellich_constant(N: int, gamma: float) -> float:
    """Optimal radial constant [((N-2)^2 - gamma^2)/4]^2 of the weighted
    Hardy-Rellich inequality; requires N >= 3 and 0 <= gamma < N-2."""
    N = check_dimension(N, 3)
    if not (_is_finite(gamma) and 0.0 <= gamma < N - 2.0):
        raise DomainError(f"0 <= gamma < N-2 required, got gamma={gamma!r:.40}, N={N}")
    return _c_gamma(N, gamma)


def _c_gamma(N, gamma):
    c = ((N - 2.0) * (N - 2.0) - gamma * gamma) / 4.0
    return c * c


def _sobolev_margin(p, q, N):
    return (1.0 - 2.0 / N) - 1.0 / (p + 1.0) - 1.0 / (q + 1.0)


def _curve_algebra(p, q, N):
    """alpha, beta, gamma, S, T, C_gamma and K1K2 = p q S T, in plain
    arithmetic that runs on floats and numpy arrays alike.  Unchecked: the
    values mean nothing unless pq > 1 and alpha < N-2."""
    pq1 = p * q - 1.0
    alpha = 2.0 * (p + 1.0) / pq1
    beta = 2.0 * (q + 1.0) / pq1
    gamma = alpha - beta
    S = alpha * (N - 2.0 - alpha)
    T = beta * (N - 2.0 - beta)
    return alpha, beta, gamma, S, T, _c_gamma(N, gamma), p * q * S * T


def curve_margins(p, q, N):
    """The critical-curve kernel on floats or broadcast numpy arrays:
    (Sobolev margin, C_gamma - K1K2, K1K2, alpha) with K1K2 = p q S T.
    The caller checks pq > 1 and alpha < N-2 (see ``_curve_algebra``)."""
    alpha, _, _, _, _, c_gamma, k1k2 = _curve_algebra(p, q, N)
    return _sobolev_margin(p, q, N), c_gamma - k1k2, k1k2, alpha


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
    alpha, beta, gamma, S, T, C_gamma, K1K2 = _curve_algebra(p, q, N)
    _require_singular_solution(alpha, N)
    pq1 = p * q - 1.0
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
        a=a, b=b, K1=K1, K2=K2, K1K2=K1K2, C_gamma=C_gamma,
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


def _curve_floor(k1k2, maximum=max):
    """-_TOL_CURVE max(1, K1K2): a curve margin is OnCurve within this of
    0, and on or above the curve from it on (a Sobolev margin is Critical
    within _TOL_CURVE of 0).  The one band rule of ``classify``,
    ``scan.region_codes`` and ``jl_curve_q``; ``np.maximum`` on arrays."""
    return -_TOL_CURVE * maximum(1.0, k1k2)


def classify(params: ParameterTriple) -> RegionVerdict:
    """Classify (p, q, N) against both critical curves.

    Total for p >= q >= 1: where the scaling data does not exist (pq <= 1,
    N < 3, or alpha >= N-2) the curve position is UNDEFINED while the
    Sobolev classification is still reported. Critical and OnCurve are
    declared inside the bands of ``_curve_floor``: |Sobolev margin| <= 1e-9,
    and |curve margin| <= 1e-9 max(1, K1K2).
    """
    if params.q < 1.0:
        raise DomainError(f"classify requires p >= q >= 1, got q={params.q}")
    p, q, N = params.p, params.q, params.N
    if p * q > 1.0:
        sm, jm, k1k2, alpha = curve_margins(p, q, N)
    else:
        sm, alpha = _sobolev_margin(p, q, N), math.inf
    if abs(sm) <= _TOL_CURVE:
        sob = SobolevClass.CRITICAL
    elif sm > 0.0:
        sob = SobolevClass.SUPERCRITICAL
    else:
        sob = SobolevClass.SUBCRITICAL
    if not alpha < N - 2.0:  # also every N < 3, where N-2 <= 0 < alpha
        return RegionVerdict(sob, CurvePosition.UNDEFINED, sm, math.nan)
    if abs(jm) <= -_curve_floor(k1k2):
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


def _bisect(f, a: float, b: float, tol: float, max_iter: int,
            fa: float = 1.0, fb: float = -1.0, geometric: bool = False):
    """Shrink the bracket between a and b (either order) around a root of f.

    ``f(x)`` is positive on a's side of the root, negative on b's side and
    0 at a root, which ends the search with (x, x); ``fa`` and ``fb`` are
    its values at a and b.  A caller that knows only the side returns +-1
    and keeps the default ends.

    Each step interpolates the inverse of f through the latest iterates
    (Dekker-Brent; Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4).  The first candidate is the secant through the
    two latest iterates on the newest iterate's side of the root, when
    their values differ: on a function made of branches that are each
    about linear and meet at the root with different slopes, those two lie
    on one branch.  The next is the quadratic through the last three
    iterates when their values differ, else the secant through the last
    two.  The step is the first candidate inside the bracket; a point
    within half the stopping width of an end moves to that distance, so
    that a point next to the root closes the bracket.  The step is the
    midpoint instead when no candidate is inside the bracket, when the
    last two steps together did not halve the bracket, or when the
    evaluations so far reach 2 log2(w0 / w) + 2 for the initial and
    current widths w0 and w; so a search takes at most about twice the
    evaluations of bisection.  With ``geometric``, a bracket 0 < lo < hi
    with hi > 2 lo takes the geometric midpoint sqrt(lo hi) and no
    interpolation: a value that spans decades across it says little
    about where the root is.  On +-1 values every step is a midpoint, bit
    for bit: a secant is tried only through values of different
    magnitude, and quadratic interpolation only through three distinct
    values.

    Stops when |b - a| <= tol * max(1, |b|) or when no double lies between
    a and b, and returns the bracket (a, b) in the given orientation;
    raises ConvergenceError when max_iter evaluations of f do not get
    there.  The one bracketed root finder of the package."""
    # the last three iterates, newest first (the ends count as iterates),
    # the iterate before the newest on its side of the root, and the
    # widths before the last two steps
    x1, f1, x2, f2, x3, f3 = b, fb, a, fa, None, None
    x0 = f0 = None
    w0 = abs(b - a)
    w1 = w2 = math.inf
    n = 0
    while True:
        w = abs(b - a)
        if w <= tol * max(1.0, abs(b)):
            break
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        if n == max_iter:
            raise ConvergenceError(f"the bracket did not shrink below {tol} "
                                   f"in {max_iter} evaluations")
        x = m
        lo, hi = (a, b) if a < b else (b, a)
        if geometric and 0.0 < 2.0 * lo < hi:
            x = math.sqrt(lo) * math.sqrt(hi)
        # the candidates' value tests first: on +-1 values they fail, and a
        # halving step costs no more than it did before there were candidates
        elif ((f0 != f1 or f1 != f2 and f1 != -f2) and w < 0.5 * w2
              and n < 2.0 * math.log2(w0 / w) + 2.0):
            for y in _candidates(x0, f0, x1, f1, x2, f2, x3, f3):
                if lo <= y <= hi:
                    d = 0.5 * tol * max(1.0, abs(b))
                    y = min(max(y, lo + d), hi - d)
                    if lo < y < hi:
                        x = y
                    break
        n += 1
        fx = f(x)
        if fx == 0:
            return x, x
        if fx > 0:
            x0, f0 = a, fa
            a, fa = x, fx
        else:
            x0, f0 = b, fb
            b, fb = x, fx
        x3, f3 = x2, f2
        x2, f2 = x1, f1
        x1, f1 = x, fx
        w2, w1 = w1, w
    return a, b


def _candidates(x0, f0, x1, f1, x2, f2, x3, f3):
    """``_bisect``'s interpolated points, in its order of preference; x0 is
    the iterate before the newest, x1, on x1's side of the root."""
    try:
        if f0 is not None and f0 != f1:
            yield x1 - f1 * (x1 - x0) / (f1 - f0)
        if f1 != f2 and f1 != -f2:
            if f3 is not None and f3 != f1 and f3 != f2:
                yield (x1 * f2 * f3 / ((f1 - f2) * (f1 - f3))
                       + x2 * f1 * f3 / ((f2 - f1) * (f2 - f3))
                       + x3 * f1 * f2 / ((f3 - f1) * (f3 - f2)))
            else:
                yield x1 - f1 * (x1 - x2) / (f1 - f2)
    except ZeroDivisionError:  # a product of tiny differences
        return


def _prescan_bisect(f, xs):
    """Prescan f on the nodes xs and search its first sign change.

    Returns (root, number of sign changes); the root is None when f keeps
    one sign, a node where f is exactly 0 at that change, or else the
    midpoint of a bracket no wider than _ROOT_TOL * max(1, hi).  The search
    reads f's values, oriented positive on xs[i]'s side, from the prescan's
    values at the ends on, and may take 200 evaluations of f."""
    ms = [f(x) for x in xs]
    flips = [i for i in range(len(ms) - 1)
             if (ms[i] > 0.0) != (ms[i + 1] > 0.0)]
    if not flips:
        return None, 0
    i = flips[0]
    for j in (i, i + 1):
        if ms[j] == 0.0:
            return xs[j], len(flips)
    sign = 1.0 if ms[i] > 0.0 else -1.0
    lo, hi = _bisect(lambda x: sign * f(x), xs[i], xs[i + 1], _ROOT_TOL, 200,
                     sign * ms[i], sign * ms[i + 1])
    return 0.5 * (lo + hi), len(flips)


def jl_curve_q(N: int, p: float) -> float | None:
    """Solve the critical-curve equality for q on the slice [1, p] at fixed p.

    Returns the root q* of C_gamma - K1 K2 = 0 located by ``_bisect`` on a
    sign-changing bracket found by a pre-scan of 64 nodes (which also
    verifies the margin changes sign exactly once).  Where the margin keeps
    one sign on the admissible part of [1, p], returns p when ``classify``
    puts (p, p) OnCurve (its band, ``_curve_floor``), and None otherwise:
    the curve does not cross this slice, in particular for every p when
    N <= 10.  The search stops at a bracket width in q of ``_ROOT_TOL``.

    The scan is restricted to q on or above the Sobolev hyperbola; see
    ``_sobolev_q_lower``.
    """
    N = check_dimension(N, 3)
    if not (_is_finite(p) and p >= 1.0):
        raise DomainError(f"a finite p >= 1 required, got {p!r:.40}")
    if not math.isfinite(p * p):
        raise DomainError(f"p q overflows on the slice p={p}")
    q_lo = _sobolev_q_lower(N, p)
    if not (q_lo <= p):
        return None
    # nudge off the exact hyperbola so rounding cannot push alpha past N-2
    q_lo = min(p, q_lo * (1.0 + 1e-14) + 1e-300)
    qs = [q_lo + (p - q_lo) * i / 63 for i in range(64)]
    qs[-1] = p  # the formula can round 1 ulp past p, off the admissible slice
    root, flips = _prescan_bisect(lambda q: curve_margins(p, q, N)[1], qs)
    if flips > 1:
        raise ConvergenceError(
            f"curve margin changes sign {flips} times on the slice "
            f"p={p}, N={N}; bisection bracket is ambiguous"
        )
    if root is None:
        _, jm, k1k2, _ = curve_margins(p, p, N)
        if abs(jm) <= -_curve_floor(k1k2):
            return p  # the diagonal endpoint lies on the curve
    return root


def jl_diagonal(N: int) -> float | None:
    """Intersection of the critical curve with the diagonal p = q.

    On the diagonal gamma = 0 and the margin reduces to
    ((N-2)^2/4)^2 - (p S)^2; its zero is the classical critical exponent
    of the single equation, searched on [p_S, 1e4] above the diagonal
    Sobolev exponent p_S = (N+2)/(N-2). Returns None when the diagonal
    margin never changes sign there (N <= 10: the margin tends to
    (N-2)^2[(N-2)^2/16 - 4] <= 0).
    """
    N = check_dimension(N, 3)
    p_lo = (N + 2.0) / (N - 2.0) * (1.0 + 1e-12)  # diagonal Sobolev exponent
    # geometric pre-scan: the root can sit far out for N barely above 10
    ps = [p_lo * (1e4 / p_lo) ** (i / 255) for i in range(256)]
    return _prescan_bisect(lambda p: curve_margins(p, p, N)[1], ps)[0]
