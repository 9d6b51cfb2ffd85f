"""Independent references that only the tests read.

Pointwise residuals of the singular solution: the radial Laplacian of a
pure power is closed form,

    -Delta r^-m = m (N-2-m) r^-(m+2),

so the singular pair's equations can be checked pointwise to rounding.

The explicit supersolution pair for the linearized system is

    phi(r) = (K1 / sqrt(C_gamma)) r^-m_phi,   psi(r) = r^-m_psi,

with m_phi = (N-2+gamma)/2 and m_psi = (N-2-gamma)/2.  The exponent
assignment follows from power balance in -Delta phi = p v_s^{p-1} psi, since
p v_s^{p-1} = K1 r^{-(2+gamma)}: the first equation then holds with equality
and the second holds with a one-signed residual whose sign equals the sign
of C_gamma - K1 K2.

A classical fixed-step RK4 integrator over the same output nodes (10
substeps per node interval) serves as the independent reference
for solver verification; it shares only the closed-form series start.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from lelab.closed_form import SingularSolution, _check_positive_radii
from lelab.errors import DomainError
from lelab.exponents import ParameterTriple, ScalingData
from lelab.radial import InitialData, SolverOptions, _TaylorStart


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


def _make_rhs(params: ParameterTriple):
    p, q, N = params.p, params.q, params.N
    nm1 = N - 1.0

    def rhs(r: float, y: tuple) -> tuple:
        u, du, v, dv = y
        vp = v ** p if v > 0.0 else 0.0
        uq = u ** q if u > 0.0 else 0.0
        inv = nm1 / r
        return (du, -vp - inv * du, dv, -uq - inv * dv)

    return rhs


def reference_integrate(params: ParameterTriple, init: InitialData,
                        r_nodes) -> np.ndarray:
    """Classical fixed-step RK4 across the given nodes (independent oracle).

    Starts from the same closed-form series state at r_nodes[0] and takes
    10 equal steps per node interval; returns a (4, len(nodes)) array of
    (u, du, v, dv).
    """
    r_nodes = np.asarray(r_nodes, dtype=float)
    if r_nodes.ndim != 1 or r_nodes.size < 2 or np.any(np.diff(r_nodes) <= 0):
        raise DomainError("r_nodes must be strictly increasing")
    # only the series is read here, not the radii the options size
    taylor = _TaylorStart(params, init, SolverOptions())
    rhs = _make_rhs(params)
    r = float(r_nodes[0])
    y = taylor.eval(r)
    out = np.empty((4, r_nodes.size))
    out[:, 0] = y
    for k in range(1, r_nodes.size):
        rb = float(r_nodes[k])
        hh = (rb - r) / 10
        for _ in range(10):
            k1 = rhs(r, y)
            y2 = tuple(y[d] + 0.5 * hh * k1[d] for d in range(4))
            k2 = rhs(r + 0.5 * hh, y2)
            y3 = tuple(y[d] + 0.5 * hh * k2[d] for d in range(4))
            k3 = rhs(r + 0.5 * hh, y3)
            y4 = tuple(y[d] + hh * k3[d] for d in range(4))
            k4 = rhs(r + hh, y4)
            y = tuple(
                y[d] + hh / 6.0 * (k1[d] + 2.0 * k2[d] + 2.0 * k3[d] + k4[d])
                for d in range(4)
            )
            r += hh
        r = rb
        out[:, k] = y
    return out
