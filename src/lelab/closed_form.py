"""Exact evaluation of the singular solution and the linearization pair.

The singular solution is (u_s, v_s) = (a r^-alpha, b r^-beta).  The radial
Laplacian of a pure power is closed form,

    -Delta r^-m = m (N-2-m) r^-(m+2),

so every identity in this module can be checked pointwise to rounding.

The explicit supersolution pair for the linearized system is

    phi(r) = (K1 / sqrt(C_gamma)) r^-m_phi,   psi(r) = r^-m_psi,

with m_phi = (N-2+gamma)/2 and m_psi = (N-2-gamma)/2.  The exponent
assignment follows from power balance in -Delta phi = p v_s^{p-1} psi, since
p v_s^{p-1} = K1 r^{-(2+gamma)}: the first equation then holds with equality
and the second holds with a one-signed residual whose sign equals the sign
of C_gamma - K1 K2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .exponents import ScalingData

__all__ = [
    "SingularSolution",
    "SupersolutionPair",
    "SupersolutionReport",
    "eval_singular",
    "singular_residuals",
    "supersolution_residuals",
    "default_sample_radii",
    "indicial_exponents",
    "transverse_covector",
]


def _check_positive_radii(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.size == 0 or np.any(~np.isfinite(r)) or np.any(r <= 0.0):
        raise DomainError("radii must be positive and finite")
    return r


@dataclass(frozen=True)
class SingularSolution:
    """Callable wrapper around u_s(r) = a r^-alpha, v_s(r) = b r^-beta."""

    scaling: ScalingData

    def u(self, r):
        r = _check_positive_radii(r)
        return self.scaling.a * r ** (-self.scaling.alpha)

    def v(self, r):
        r = _check_positive_radii(r)
        return self.scaling.b * r ** (-self.scaling.beta)

    def du(self, r):
        r = _check_positive_radii(r)
        s = self.scaling
        return -s.a * s.alpha * r ** (-s.alpha - 1.0)

    def dv(self, r):
        r = _check_positive_radii(r)
        s = self.scaling
        return -s.b * s.beta * r ** (-s.beta - 1.0)


def eval_singular(scaling: ScalingData, r):
    """Values and first derivatives (u_s, v_s, u_s', v_s') at radius r > 0."""
    sol = SingularSolution(scaling)
    return sol.u(r), sol.v(r), sol.du(r), sol.dv(r)


def _neg_laplacian_power(coeff: float, m: float, N: int, r: np.ndarray):
    """-Delta of coeff * r^-m for the radial Laplacian in dimension N."""
    return coeff * m * (N - 2.0 - m) * r ** (-m - 2.0)


def singular_residuals(scaling: ScalingData, r):
    """Relative pointwise residuals of -Delta u_s = v_s^p, -Delta v_s = u_s^q."""
    r = _check_positive_radii(r)
    s = scaling
    lhs_u = _neg_laplacian_power(s.a, s.alpha, s.N, r)
    rhs_u = (s.b * r ** (-s.beta)) ** s.p
    lhs_v = _neg_laplacian_power(s.b, s.beta, s.N, r)
    rhs_v = (s.a * r ** (-s.alpha)) ** s.q
    res_u = np.abs(lhs_u - rhs_u) / np.abs(rhs_u)
    res_v = np.abs(lhs_v - rhs_v) / np.abs(rhs_v)
    return res_u, res_v


def default_sample_radii(n: int = 64):
    """n logarithmically spaced radii on [1e-3, 1e3] for the residual checks."""
    return np.geomspace(1e-3, 1e3, n)


@dataclass(frozen=True)
class SupersolutionPair:
    """The explicit positive pair (phi, psi) solving the linearized system."""

    scaling: ScalingData

    @property
    def m_phi(self) -> float:
        s = self.scaling
        return 0.5 * (s.N - 2.0 + s.gamma)

    @property
    def m_psi(self) -> float:
        s = self.scaling
        return 0.5 * (s.N - 2.0 - s.gamma)

    @property
    def phi_coefficient(self) -> float:
        s = self.scaling
        return 4.0 * s.K1 / ((s.N - 2.0 - s.gamma) * (s.N - 2.0 + s.gamma))

    def phi(self, r):
        r = _check_positive_radii(r)
        return self.phi_coefficient * r ** (-self.m_phi)

    def psi(self, r):
        r = _check_positive_radii(r)
        return r ** (-self.m_psi)


@dataclass(frozen=True)
class SupersolutionReport:
    """Residuals of the two linearized inequalities at the sample radii.

    ``res_linear`` is the relative residual of -Delta phi = p v_s^{p-1} psi
    (zero to rounding).  ``res_coupling`` is the signed raw residual of
    -Delta psi - q u_s^{q-1} phi, one-signed in r; ``res_coupling_rel`` is
    its constant relative value (C_gamma - K1K2)/C_gamma.  The witness flag
    is True when the residual is nonnegative everywhere, i.e. the pair is a
    genuine supersolution and the singular solution is stable.
    """

    r: np.ndarray
    res_linear: np.ndarray
    res_coupling: np.ndarray
    res_coupling_rel: float
    sign_constant: bool
    stability_witness: bool


def supersolution_residuals(scaling: ScalingData, r_samples=None) -> SupersolutionReport:
    r = default_sample_radii() if r_samples is None else _check_positive_radii(r_samples)
    s = scaling
    pair = SupersolutionPair(s)
    sing = SingularSolution(s)

    lhs1 = _neg_laplacian_power(pair.phi_coefficient, pair.m_phi, s.N, r)
    rhs1 = s.p * sing.v(r) ** (s.p - 1.0) * pair.psi(r)
    res1 = np.abs(lhs1 - rhs1) / np.abs(rhs1)

    lhs2 = _neg_laplacian_power(1.0, pair.m_psi, s.N, r)
    rhs2 = s.q * sing.u(r) ** (s.q - 1.0) * pair.phi(r)
    res2 = lhs2 - rhs2

    scale2 = np.abs(lhs2) + np.abs(rhs2)
    normalized = res2 / scale2
    sign_constant = bool(np.all(normalized >= -1e-13) or np.all(normalized <= 1e-13))
    witness = bool(np.all(normalized >= -1e-13))
    rel = (s.C_gamma - s.K1K2) / s.C_gamma
    return SupersolutionReport(
        r=r, res_linear=res1, res_coupling=res2,
        res_coupling_rel=rel, sign_constant=sign_constant,
        stability_witness=witness,
    )


def indicial_exponents(scaling: ScalingData) -> np.ndarray:
    """Exponents kappa of power-law modes of the linearization around
    (u_s, v_s).

    Perturbations (delta u, delta v) = (A r^{-(alpha+kappa)}, B r^{-(beta+kappa)})
    solve the linearized system iff

        (kappa^2 - A1 kappa - S)(kappa^2 - A2 kappa - T) = K1 K2,

    with A1 = N-2-2 alpha, A2 = N-2-2 beta.  The quartic is even about
    m = (N-2-alpha-beta)/2: with n = N-2 and kappa = m + t it reads
    (t^2 - h)^2 = d^2, h = (n^2 + gamma^2)/4, d^2 = (n gamma/2)^2 + K1 K2,
    and h^2 - d^2 = C_gamma - K1 K2.  So the outer pair m +- sqrt(h + d)
    is real for every triple, and kappa_min = m - sqrt(h + d) < 0 because
    h > m^2; the inner pair m +- sqrt(h - d) is real on and above the
    critical curve and complex below it.  Roots with positive real part
    decay relative to the singular solution; kappa_min is the transverse
    growth rate that makes shooting onto the entire-solution manifold ill
    conditioned.  Returns the four roots sorted by real part.
    """
    s = scaling
    n = s.N - 2.0
    m = 0.5 * (n - s.alpha - s.beta)
    h = 0.25 * (n * n + s.gamma * s.gamma)
    d = math.sqrt(0.25 * (n * s.gamma) ** 2 + s.K1K2)
    outer = math.sqrt(h + d)
    inner = cmath.sqrt(h - d)
    return np.array([m - outer, m - inner, m + inner, m + outer])


def transverse_covector(scaling: ScalingData) -> tuple:
    """kappa_min and the left eigenvector l of the linearization at the
    singular pair that reads its transverse mode.

    With t = log r and Y = (U, U_t, V, V_t), U = r^alpha u, V = r^beta v,
    the system is autonomous with the fixed point P = (a, 0, b, 0), and

        dY/dt = J (Y - P) + O(|Y - P|^2),
        J = [[0, 1, 0, 0], [S, -A1, -K1, 0], [0, 0, 0, 1], [-K2, 0, T, -A2]],

    whose eigenvalues are -kappa for the roots kappa of
    ``indicial_exponents``.  l J = -kappa_min l gives l1 = (A1 - kappa) l2,
    l3 = (A2 - kappa) l4 and l4 = -(kappa^2 - A1 kappa - S) l2 / K2, and l
    annihilates the other three modes.  l2 is chosen so that on the
    transverse mode l.(Y - P) equals dU/a - dV/b, the first-order value of
    log(U/a) - log(V/b).  Returns (kappa_min, (l1, l2, l3, l4)).
    """
    s = scaling
    kappa = float(indicial_exponents(s)[0].real)
    n = s.N - 2.0
    A1, A2 = n - 2.0 * s.alpha, n - 2.0 * s.beta
    e = kappa * kappa - A1 * kappa - s.S
    # the right eigenvector is (1, -kappa, rho, -kappa rho), rho = -e/K1;
    # with l2 = 1, l4 = -e/K2
    rho, l4 = -e / s.K1, -e / s.K2
    c = (1.0 / s.a - rho / s.b) / ((A1 - 2.0 * kappa)
                                     + (A2 - 2.0 * kappa) * l4 * rho)
    return kappa, ((A1 - kappa) * c, c, (A2 - kappa) * l4 * c, l4 * c)
