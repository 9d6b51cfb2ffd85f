"""Exact evaluation of the singular solution and of its linearization.

The singular solution is (u_s, v_s) = (a r^-alpha, b r^-beta).  Its
linearization has power-law modes whose exponents solve a quartic in closed
form (``indicial_exponents``); ``transverse_covector`` reads the one
growing mode, on which ``radial.shoot`` matches.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .exponents import ScalingData

__all__ = ["SingularSolution", "indicial_exponents", "transverse_covector"]


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
