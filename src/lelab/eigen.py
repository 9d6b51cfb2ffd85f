"""Weighted Hardy-Rellich principal eigenvalue on annuli.

Computes

    lambda(A) = min  int_A r^{2-gamma} (Delta phi)^2 dx / int_A r^{-2-gamma} phi^2 dx

over radial phi vanishing (together with psi = r^{2-gamma}(-Delta phi)) on
the boundary of the annulus A.  The minimizer solves the cooperative system

    -Delta phi = r^{gamma-2} psi,    -Delta psi = lambda r^{-gamma-2} phi.

In log-radius coordinates rho = log r the Laplacian is
r^{-2}(d_rho^2 + (N-2) d_rho); it is discretized in conservative (flux)
form on a uniform rho grid of step h, which is second-order accurate.  With
K the flux-form matrix, R = diag(r^{N+gamma-2}) and Q = diag(r^{N-gamma-2})
the discrete problem is K R^{-1} K phi = lambda Q phi.  In the ground-state
variables y = Q^{1/2} phi it becomes T T^T y = lambda y, where

    T = Q^{-1/2} K R^{-1/2}
      = h^{-2} tridiag(-e^{gamma h/2}, 2 cosh((N-2)h/2), -e^{-gamma h/2})

has constant coefficients: no power of r is ever formed, so nothing
overflows however large N log(r_outer/r_inner) is, and lambda is the
squared smallest singular value of T.  The symmetric part of T exceeds

    s_h = 4 sinh((N-2+gamma)h/4) sinh((N-2-gamma)h/4) / h^2 >= C_gamma^{1/2},

the infimum of the symbol of T, so T T^T - s_h^2 is positive definite.
s_h^2 is the discrete counterpart of C_gamma and tends to it as h -> 0.
Since T is an irreducible M-matrix, the inverse of the shifted matrix is
entrywise positive: inverse iteration at the shift s_h^2 keeps the iterate
positive and converges in a few steps on any grid.

lambda(A) decreases to the optimal constant C_gamma = [((N-2)^2-gamma^2)/4]^2
as the annulus grows, and exceeds it on every finite annulus (the infimum
is not attained).  Comparing lambda against K1 K2 on a ladder of annuli
decides stability of the singular solution: an annulus with
lambda < K1 K2 witnesses instability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError, DiscretizationError, DomainError
from .exponents import (CurvePosition, ParameterTriple, check_dimension,
                        classify, derive_scaling, hardy_rellich_constant)
from .options import LADDER_M_PER_K, Annulus, EigOptions, default_ladder

__all__ = [
    "Annulus",
    "EigOptions",
    "EigReport",
    "StabilityReport",
    "principal_eigenvalue",
    "eig_ladder",
    "default_ladder",
    "singular_stability_verdict",
    "richardson_limit",
]


@dataclass(frozen=True)
class EigReport:
    annulus: Annulus
    N: int
    gamma: float
    lam: float
    iterations: int
    residual: float
    phi: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    r: np.ndarray = field(repr=False)
    verdict: str | None = None
    k1k2: float | None = None
    marginal: bool | None = None

    def as_dict(self) -> dict:
        return {
            "r_inner": self.annulus.r_inner,
            "r_outer": self.annulus.r_outer,
            "M": self.annulus.M,
            "N": self.N,
            "gamma": self.gamma,
            "lambda": self.lam,
            "iterations": self.iterations,
            "residual": self.residual,
            "verdict": self.verdict,
            "K1K2": self.k1k2,
            "marginal": self.marginal,
        }


def principal_eigenvalue(annulus: Annulus, N: int, gamma: float,
                         opts: EigOptions | None = None) -> EigReport:
    """Shifted inverse iteration for the smallest weighted quotient.

    Each step solves (T T^T - s_h^2) y' = y with a banded Cholesky factor of
    the pentadiagonal shifted matrix and normalizes y' (see the module
    docstring for T and s_h).  The eigenvalue is the Rayleigh quotient
    ||T^T y||^2, applied through the tridiagonal T: the formed pentadiagonal
    matrix would limit its accuracy to about 1e-8.  The loop stops when
    lambda moves by less than ``tol`` relatively, or raises
    ConvergenceError at the iteration cap.  The start vector is the
    analytic leading mode sin(pi rho/L), exact at gamma = 0.

    ``phi`` and ``psi = r^{2-gamma}(-Delta phi)`` are returned with one
    common scale, formed in log space, so that the larger of the two peaks
    at 1; ``residual`` is ||T T^T y - lambda y|| / lambda at ||y|| = 1.
    """
    from scipy.linalg import cho_solve_banded, cholesky_banded

    opts = EigOptions() if opts is None else opts
    opts.validate()
    N = check_dimension(N, 3)
    if not (0.0 <= gamma < N - 2.0):
        raise DomainError(f"0 <= gamma < N-2 required, got gamma={gamma}")
    M = annulus.M
    start, stop = math.log(annulus.r_inner), math.log(annulus.r_outer)
    # rho[1] - rho[0] of the grid allocated below, which np.linspace forms
    # as (start + step) - start: known before a grid of M nodes is allocated
    h = (start + (stop - start) / (M + 1)) - start
    # h^2 T has diagonal d, T[i+1, i] = lo and T[i, i+1] = up, with lo up = 1
    d = 2.0 * math.cosh((N - 2.0) * h / 2.0)
    lo = -math.exp(gamma * h / 2.0)
    up = -math.exp(-gamma * h / 2.0)
    h2_s = (4.0 * math.sinh((N - 2.0 + gamma) * h / 4.0)
            * math.sinh((N - 2.0 - gamma) * h / 4.0))

    def band(y: np.ndarray, sub: float, sup: float) -> np.ndarray:
        z = d * y
        z[1:] += sub * y[:-1]
        z[:-1] += sup * y[1:]
        return z

    # Cholesky's backward error on the formed matrix, about 16 eps, has to
    # stay inside its smallest eigenvalue, which exceeds gap below; on finer
    # grids the factor stops resolving the principal mode and lambda drifts
    # up (1e-9 at 16 eps = 0.7 gap, 4e-7 at 2.8 gap)
    q = 4.0 * math.cosh(gamma * h / 2.0) * math.sin(math.pi / (2.0 * (M + 1))) ** 2
    gap = q * (2.0 * h2_s + q)
    if 16.0 * np.finfo(float).eps > gap:
        raise DiscretizationError(
            f"grid too fine for the shifted factorization (h = {h:.3g}); "
            "use fewer nodes per unit of log-radius"
        )
    rho = np.linspace(start, stop, M + 2)[1:-1]
    # h^4 (T T^T - s_h^2) in upper banded storage
    ab = np.empty((3, M))
    ab[0, :] = 1.0
    ab[1, :] = d * (lo + up)
    ab[2, :] = d * d + lo * lo + up * up - h2_s * h2_s
    ab[2, 0] -= lo * lo
    ab[2, -1] -= up * up
    try:
        cb = cholesky_banded(ab, lower=False)
    except np.linalg.LinAlgError as exc:
        raise DiscretizationError(
            "shifted operator is not positive definite; refine the grid"
        ) from exc

    y = np.sin(math.pi * np.arange(1, M + 1) / (M + 1))
    lam = math.nan
    for iterations in range(1, opts.max_iter + 1):
        y = cho_solve_banded((cb, False), y)
        # numpy sums rather than BLAS dots: OpenBLAS threads a dot product
        # past 10^4 entries, and the thread hand-off costs more than the sum
        ny = math.sqrt(float(np.sum(y * y)))
        if ny <= 0.0 or not math.isfinite(ny):
            raise DiscretizationError("iterate collapsed; refine the grid")
        y /= ny
        w = band(y, up, lo)  # h^2 T^T y
        lam_prev, lam = lam, float(np.sum(w * w)) / h**4
        if abs(lam - lam_prev) <= opts.tol * lam:
            break
    else:
        raise ConvergenceError(
            f"eigenvalue iteration did not converge in {opts.max_iter} steps "
            f"(last lambda ~ {lam:.12g})"
        )

    if np.any(y <= 0.0) or np.any(w <= 0.0):
        raise DiscretizationError(
            "principal eigenvector lost positivity; refine the grid"
        )
    h4_lam = lam * h**4
    res = band(w, lo, up) - h4_lam * y
    residual = math.sqrt(float(np.sum(res * res))) / h4_lam
    # phi = Q^{-1/2} y and psi = R^{-1/2} T^T y, scaled together in log space
    log_phi = np.log(y) - 0.5 * (N - gamma - 2.0) * rho
    log_psi = np.log(w / h**2) - 0.5 * (N + gamma - 2.0) * rho
    top = max(float(np.max(log_phi)), float(np.max(log_psi)))
    return EigReport(
        annulus=annulus, N=N, gamma=float(gamma), lam=lam,
        iterations=iterations, residual=residual,
        phi=np.exp(log_phi - top), psi=np.exp(log_psi - top), r=np.exp(rho),
    )


def eig_ladder(N: int, gamma: float, ladder: list[Annulus] | None = None,
               opts: EigOptions | None = None) -> list[EigReport]:
    """Eigenvalues along a nested-annulus ladder, each rung solved on its own."""
    ladder = default_ladder() if ladder is None else ladder
    return [principal_eigenvalue(ann, N, gamma, opts) for ann in ladder]


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


# rungs appended while the verdict is undecided: [10^-k, 10^k] up to k = 14,
# with the default ladder's LADDER_M_PER_K * k interior nodes
_EXTEND_MAX_K = 14
# |lambda - K1K2| within this share of max(1, K1K2) at the top rung is marginal
_VERDICT_BAND = 1e-6


# closed-form gap model 2 sqrt(C_gamma) (pi/L)^2: used only to decide when a
# wider annulus could still flip the verdict near the critical curve
def _gap_estimate(N: int, gamma: float, L: float) -> float:
    return 2.0 * math.sqrt(hardy_rellich_constant(N, gamma)) * (math.pi / L) ** 2


@dataclass(frozen=True)
class StabilityReport:
    params: ParameterTriple
    k1k2: float
    gamma: float
    reports: list
    verdict: str
    marginal: bool
    lecv_consistent: bool
    extended: int

    @property
    def lam_top(self) -> float:
        return self.reports[-1].lam


def singular_stability_verdict(
    params: ParameterTriple,
    ladder: list[Annulus] | None = None,
    opts: EigOptions | None = None,
) -> StabilityReport:
    """Stability of the singular solution via the annulus eigenvalue test.

    An annulus with lambda < K1 K2 certifies instability; if every tested
    annulus has lambda >= K1 K2 the verdict is stable.  The rungs are
    ``ladder`` (``default_ladder()`` when None).  Because lambda -> C_gamma
    with a known O(1/L^2) gap, rungs [10^-k, 10^k] with the default
    ladder's 1024 k nodes, whatever the given rungs have, are
    appended (up to k = 14) while the top-rung margin lambda - K1K2 is
    positive but smaller than twice the gap estimate, i.e. while a wider
    annulus could still flip the comparison.  ``marginal`` is set when the
    comparison remains inside the verdict band (1e-6 relative to
    max(1, K1K2)) at the final rung, or undecided at the extension cap.
    The first appended k is one past max(round(log10 r_outer),
    round(-log10 r_inner)) of the last given rung, so that every appended
    rung contains it.

    The closed-form inequality C_gamma >= K1K2 is evaluated independently
    and recorded in ``lecv_consistent`` as a cross-check; it never feeds
    the verdict.
    """
    opts = EigOptions() if opts is None else opts
    N = params.N
    sc = derive_scaling(params)
    k1k2 = sc.K1K2
    reports = eig_ladder(N, sc.gamma, ladder, opts)
    last = reports[-1].annulus
    k = max(round(math.log10(last.r_outer)), round(-math.log10(last.r_inner)))
    extended = 0
    while True:
        top = reports[-1]
        close = (top.lam >= k1k2 and top.lam - k1k2 < 2.0 * _gap_estimate(
            N, sc.gamma, top.annulus.log_width))
        if not close or k >= _EXTEND_MAX_K:
            break
        k += 1
        ann = Annulus(10.0 ** (-k), 10.0 ** k, LADDER_M_PER_K * k)
        reports.append(principal_eigenvalue(ann, N, sc.gamma, opts))
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
        params=params, k1k2=k1k2, gamma=sc.gamma,
        reports=[replace(rep, verdict=verdict, k1k2=k1k2, marginal=marginal)
                 for rep in reports],
        verdict=verdict, marginal=marginal, lecv_consistent=consistent,
        extended=extended,
    )
