"""Weighted Hardy-Rellich principal eigenvalue on annuli.

Computes

    lambda(A) = min  int_A r^{2-gamma} (Delta phi)^2 dx / int_A r^{-2-gamma} phi^2 dx

over radial phi vanishing (together with psi = r^{2-gamma}(-Delta phi)) on
the boundary of the annulus A.  The minimizer solves the cooperative system

    -Delta phi = r^{gamma-2} psi,    -Delta psi = lambda r^{-gamma-2} phi.

In log-radius coordinates rho = log r the Laplacian is
r^{-2}(d_rho^2 + (N-2) d_rho); it is discretized in conservative (flux)
form on a uniform rho grid of M interior nodes and step h, which is
second-order accurate.  In ground-state variables the discrete problem is
T T^T y = lambda y with

    h^2 T = tridiag(lo, 2 cosh((N-2)h/2), up),   lo = -e^{gamma h/2},
                                                  up = -e^{-gamma h/2},

constant coefficients: no power of r is ever formed, so nothing overflows
however large N log(r_outer/r_inner) is.

The sine basis.  With K = tridiag(1, 0, 1),

    h^4 T T^T = g(K) + (1 - lo^2) e_1 e_1^T + (1 - up^2) e_M e_M^T,

    g(2 cos theta) = 16 (A + sin^2(theta/2))(B + sin^2(theta/2)),
    A = sinh^2((N-2+gamma)h/4),   B = sinh^2((N-2-gamma)h/4),

so the discrete sine transform, which diagonalizes K, turns h^4 T T^T
into a diagonal plus a rank-2 term.  At theta_j = j pi/(M+1) and
s_j = sin^2(theta_j/2) the diagonal is D_j = 16 (A + s_j)(B + s_j),
smallest at j = 1, and D_j - D_1 = 16 sin((theta_j-theta_1)/2)
sin((theta_j+theta_1)/2) (A + B + s_j + s_1).  The corner weights
1 - e^{gamma h} and 1 - e^{-gamma h} have sum and product -eps, with
eps = 4 sinh^2(gamma h/2).  The e_1 and e_M rows split the modes by the
parity of j, and the determinant of the rank-2 capacitance matrix gives
the secular equation (Golub, SIAM Rev. 15, 1973; Bunch, Nielsen and
Sorensen, Numer. Math. 31, 1978)

    F(delta) = eps (S_o + S_e + 4 S_o S_e) - 1 = 0,
    S_o, S_e = sum over odd, even j of w_j / (D_j - D_1 - delta),
    w_j = (2/(M+1)) sin^2 theta_j,

with lambda = (D_1 + delta)/h^4.  F increases on delta < 0 from -1 to
+inf, so its root there is unique, and it is the smallest eigenvalue: the
corner term has one negative weight, so at most one eigenvalue lies below
D_1.  At gamma = 0 the corner term vanishes and lambda = D_1/h^4.  Every
quantity above is a sum or product of positive terms: the naive forms,
2 cosh - 2 cos and D_j - D_1 as a difference, lose up to 8 digits.

lambda(A) decreases to the optimal constant C_gamma = [((N-2)^2-gamma^2)/4]^2
as the annulus grows, and exceeds it on every finite annulus (the infimum
is not attained).  Comparing lambda against K1 K2 on a ladder of annuli
decides stability of the singular solution: an annulus with
lambda < K1 K2 witnesses instability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .exponents import (CurvePosition, ParameterTriple, _bisect,
                        check_dimension, classify, derive_scaling)
from .options import Annulus, _is_finite, default_ladder, ladder_rung

__all__ = [
    "Annulus",
    "EigReport",
    "StabilityReport",
    "principal_eigenvalue",
    "default_ladder",
    "singular_stability_verdict",
    "richardson_limit",
]

_U = 2.0 ** -53  # unit roundoff


@dataclass(frozen=True)
class EigReport:
    annulus: Annulus
    lam: float
    iterations: int
    lambda_err: float


def principal_eigenvalue(annulus: Annulus, N: int, gamma: float) -> EigReport:
    """lambda on one annulus: D_1 and the secular root of the module docstring.

    delta is the root of the secular equation of the module docstring,
    found by ``exponents._bisect`` on H(delta) = -delta F(delta), which has
    the sign of F but not its pole at delta = 0.  The bracket is
    [-expm1(gamma h), -eps w_1/2]: D_1 - expm1(gamma h) is Weyl's lower
    bound (the corner term's negative weight is 1 - e^{gamma h}), and at
    the right end the j = 1 term alone makes F >= 1.  The search runs to a
    zero of the computed H or to adjacent doubles; ``iterations`` counts
    its evaluations of H, the two ends included.  When expm1(gamma h) is
    below the rounding of D_1 (gamma = 0 among them) no search runs, and
    lambda = D_1/h^4 with ``iterations`` 0.

    ``lambda_err`` bounds the rounding error of ``lam`` to first order in
    the unit roundoff u.  With x = (N-2+gamma)h/4, each sinh^2 carries at
    most (11 + 6x)u and s_1 11u, so D_1 carries (32 + 16x)u.  A term
    w_j/(D_j - D_1 - delta) of the sums adds and multiplies positive
    factors only, within (52 + 6x)u; numpy's pairwise summation adds
    (log2 M + 12)u, and eps and the secular combination bring the
    computed F to within eta = (160 + 20x + 2 log2 M)u of F.  Since F
    increases with F' >= eps w_1 (1 + 4 S_e)/delta^2 (its j = 1 term), a
    sign read off the computed H moves the root by at most
    eta delta^2 / (eps w_1 (1 + 4 S_e)).  That, the final bracket width
    (or expm1(gamma h) when no search runs) and D_1's share, over h^4,
    plus 8u lambda for forming lambda itself, make ``lambda_err``.

    DomainError when gamma is outside [0, N-2) or when lambda h^4
    overflows a double on this grid.
    """
    N = check_dimension(N, 3)
    if not (_is_finite(gamma) and 0.0 <= gamma < N - 2.0):
        raise DomainError(f"0 <= gamma < N-2 required, got gamma={gamma!r:.40}")
    M = annulus.M
    start, stop = math.log(annulus.r_inner), math.log(annulus.r_outer)
    # rho[1] - rho[0] of np.linspace(start, stop, M + 2), formed as
    # (start + step) - start, bit for bit
    h = (start + (stop - start) / (M + 1)) - start
    x = (N - 2.0 + gamma) * h / 4.0
    c = 0.5 * math.pi / (M + 1)  # theta_1 / 2
    s1 = math.sin(c) ** 2
    # below x = 350, A, B, eps and expm1(gamma h) are finite; past it
    # sinh(x)^2, and lambda h^4 with it, leave the doubles
    if x < 350.0:
        A = math.sinh(x) ** 2
        B = math.sinh((N - 2.0 - gamma) * h / 4.0) ** 2
        D1 = 16.0 * (A + s1) * (B + s1)
    if not (x < 350.0 and math.isfinite(D1)):
        raise DomainError(f"lambda h^4 overflows a double on this grid "
                          f"(h = {h:.3g}); use more nodes")
    eps = 4.0 * math.sinh(gamma * h / 2.0) ** 2
    left = -math.expm1(gamma * h)
    err = (32.0 + 16.0 * x) * _U * D1
    delta = 0.0
    n = 0
    if -left <= _U * D1:
        # delta lies in (left, 0], below D_1's rounding: at gamma = 0, or
        # with a corner term too small to move lambda
        err -= left
    else:
        w1 = 2.0 / (M + 1) * math.sin(2.0 * c) ** 2
        # sin(k c) for k = 0..M+1 gives, for j = 2..M, sin(theta_j) =
        # 2 sin(j c) sin((M+1-j) c) and sin((theta_j -+ theta_1)/2) =
        # sin((j -+ 1) c)
        sn = np.sin(np.arange(M + 2) * c)
        gap = 16.0 * sn[1:M] * sn[3:] * (A + B + sn[2:M + 1] ** 2 + s1)
        w = (8.0 / (M + 1)) * (sn[2:M + 1] * sn[M - 1:0:-1]) ** 2
        gap_o, w_o = gap[1::2], w[1::2]  # j = 3, 5, ...
        gap_e, w_e = gap[::2], w[::2]    # j = 2, 4, ...

        def sums(d: float) -> tuple[float, float]:
            # S_o without its j = 1 term, and S_e; numpy sums rather than
            # BLAS dots, which OpenBLAS threads past 10^4 entries
            return (float(np.sum(w_o / (gap_o - d))),
                    float(np.sum(w_e / (gap_e - d))))

        def H(d: float) -> float:
            nonlocal n
            n += 1
            so, se = sums(d)
            return eps * (w1 * (1.0 + 4.0 * se)
                          - d * (so * (1.0 + 4.0 * se) + se)) + d

        right = -0.5 * eps * w1
        h_right, h_left = H(right), H(left)
        # a cap no search reaches: _bisect halves the bracket at least every
        # other evaluation, and under 2100 halvings take any double width
        # down to adjacent doubles
        a, b = _bisect(H, right, left, 0.0, 4400, fa=h_right, fb=h_left)
        delta = 0.5 * (a + b)
        se = sums(delta)[1]
        eta = (160.0 + 20.0 * x + 2.0 * math.log2(M)) * _U
        err += eta * delta * delta / (eps * w1 * (1.0 + 4.0 * se)) + abs(b - a)
    lam = (D1 + delta) / h**4
    return EigReport(annulus=annulus, lam=lam, iterations=n,
                     lambda_err=err / h**4 + 8.0 * _U * lam)


def richardson_limit(reports: list[EigReport]) -> float:
    """Extrapolated infinite-annulus limit from the last ladder rungs.

    The leading finite-width correction is O(1/L^2) in the log width L;
    a two-point Richardson step on the last two rungs removes it.
    """
    if len(reports) < 2:
        raise DomainError("need at least two ladder rungs to extrapolate")
    r1, r2 = reports[-2], reports[-1]
    x1 = 1.0 / r1.annulus.log_width ** 2
    x2 = 1.0 / r2.annulus.log_width ** 2
    return (x1 * r2.lam - x2 * r1.lam) / (x1 - x2)


# rungs appended while the verdict is undecided: ``ladder_rung(k)`` up to
# k = 14
_EXTEND_MAX_K = 14
# |lambda - K1K2| within this share of max(1, K1K2) at the top rung is marginal
_VERDICT_BAND = 1e-6


# closed-form gap model 2 sqrt(C_gamma) (pi/L)^2: used only to decide when a
# wider annulus could still flip the verdict near the critical curve
def _gap_estimate(c_gamma: float, L: float) -> float:
    return 2.0 * math.sqrt(c_gamma) * (math.pi / L) ** 2


@dataclass(frozen=True)
class StabilityReport:
    k1k2: float
    gamma: float
    reports: list
    verdict: str
    marginal: bool
    lecv_consistent: bool
    extended: int


def singular_stability_verdict(
    params: ParameterTriple,
    ladder: list[Annulus] | None = None,
) -> StabilityReport:
    """Stability of the singular solution via the annulus eigenvalue test.

    An annulus with lambda < K1 K2 certifies instability; if every tested
    annulus has lambda >= K1 K2 the verdict is stable.  The rungs are
    ``ladder`` (``default_ladder()`` when None; an empty one is a
    DomainError).  Because lambda -> C_gamma with a known O(1/L^2) gap,
    rungs ``ladder_rung(k)``, whatever the given rungs have, are appended
    (up to k = 14) while the top-rung margin lambda - K1K2 is positive but
    smaller than twice the gap estimate, i.e. while a wider annulus could
    still flip the comparison.  ``marginal`` is set when the
    comparison remains inside the verdict band (1e-6 relative to
    max(1, K1K2)) at the final rung, or undecided at the extension cap.
    The first appended k is one past max(round(log10 r_outer),
    round(-log10 r_inner)) of the last given rung, so that every appended
    rung contains it.

    The closed-form inequality C_gamma >= K1K2 is evaluated independently
    and recorded in ``lecv_consistent`` as a cross-check; it never feeds
    the verdict.
    """
    N = params.N
    sc = derive_scaling(params)
    k1k2 = sc.K1K2
    ladder = default_ladder() if ladder is None else ladder
    if not ladder:
        raise DomainError("an empty ladder has no rung to test")
    reports = [principal_eigenvalue(ann, N, sc.gamma) for ann in ladder]
    last = reports[-1].annulus
    k = max(round(math.log10(last.r_outer)), round(-math.log10(last.r_inner)))
    extended = 0
    while True:
        top = reports[-1]
        close = (top.lam >= k1k2 and top.lam - k1k2 < 2.0 * _gap_estimate(
            sc.C_gamma, top.annulus.log_width))
        if not close or k >= _EXTEND_MAX_K:
            break
        k += 1
        reports.append(principal_eigenvalue(ladder_rung(k), N, sc.gamma))
        extended += 1
    unstable = min(rep.lam for rep in reports) < k1k2
    verdict = "SingularUnstable" if unstable else "SingularStable"
    band = _VERDICT_BAND * max(1.0, k1k2)
    # still close at the cap, on a ladder none of whose rungs is unstable
    undecided = close and not unstable
    marginal = bool(abs(top.lam - k1k2) <= band or undecided)
    side = classify(params).jl
    lecv_holds = side in (CurvePosition.ABOVE, CurvePosition.ON)
    consistent = (verdict == "SingularStable") == lecv_holds
    return StabilityReport(
        k1k2=k1k2, gamma=sc.gamma, reports=reports, verdict=verdict,
        marginal=marginal, lecv_consistent=consistent, extended=extended,
    )
