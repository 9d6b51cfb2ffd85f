"""Radial initial-value solver for the Lane-Emden system.

Integrates

    u'' + (N-1)/r u' = -v^p,    v'' + (N-1)/r v' = -u^q,
    u(0) = u0 > 0, v(0) = v0 > 0, u'(0) = v'(0) = 0,

with a Dormand-Prince 5(4) embedded pair, PI step-size control and quartic
dense output.  The removable singularity of the (N-1)/r term is handled by
a series start on [0, r_start]: the even Taylor expansion

    u(r) = u0 - v0^p r^2/(2N) + p v0^{p-1} u0^q r^4 / (8N(N+2)) + O(r^6)

(and symmetrically for v) seeds the stepper at an r_start chosen so the
neglected r^4-remainder is below the local error tolerance.

Trajectories halt at the first zero crossing of u or v (located by
bisection on the dense interpolant) or at r_max.  ``integrate`` is one
march (``_march``, which records the accepted steps) plus the profile
builder (dense output, event, output grid).  A profile that stays positive
and decreasing through ``r_target`` with both fields below the decay
threshold is classified entire-positive; true entirety is not decidable
numerically and is certified separately by the decay identity
u(0) = (N-2)^{-1} int_0^inf t v(t)^p dt.

``shoot`` finds the v0 of an entire profile with the package's one
bracketed root finder (``exponents._bisect``, Dekker-Brent) on the value of
a matching functional at a probe radius; the transverse mode of the
linearization makes that value about linear in v0 - v0*, with a different
slope on each of its three branches (v hits zero, the probe reaches the
radius, u hits zero), so the finder's secants run through two probes on
one side of the root.  A shot searches in two phases: a coarse one whose
probes march at loose tolerances (rtol 1e-6, atol 1e-8, or the caller's
if looser) to a bracket of relative width 1e-5, and a full-accuracy one
from that bracket once both its ends have been probed at the caller's
tolerances (again, unless those are the coarse ones) and kept their signs
(else from the original ends).
A shot takes about 22-23 probes, 14-15 of them coarse ones of about 70
steps each, where a full-accuracy probe near the root takes about 750.
A probe only marches to the probe radius and reads g from its last step,
with the builder's event location and interpolation, so it reads the
profile's float.  ``polish`` only narrows the final bracket from v0_tol
to 4 ulp.  Its ``iterations`` counts the probes of both phases and
``bracket_width`` is the final bracket (0 for the exact diagonal shot).

A classical fixed-step RK4 integrator over the same output nodes (10
substeps per node interval) serves as the independent reference
for solver verification; it shares only the closed-form series start.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    BracketError,
    ConvergenceError,
    DomainError,
    MisclassifiedProfile,
    StepUnderflow,
)
from .closed_form import indicial_exponents
from .exponents import ParameterTriple, ScalingData, _bisect, derive_scaling
from .options import SolverOptions
# unused here: kept because bench/tracing.py wraps it under this module too
from .serialize import to_csv  # noqa: F401

__all__ = [
    "InitialData",
    "SolverOptions",
    "IntegratorStats",
    "ProfileClass",
    "RadialProfile",
    "integrate",
    "reference_integrate",
    "ShootResult",
    "shoot",
    "rescale",
    "DecayReport",
    "decay_identity_check",
    "ode_residual",
    "profile_to_csv",
    "profile_metadata",
    "profile_from_text",
]

_EPS = float(np.finfo(float).eps)

# ``shoot``'s coarse phase: probe tolerances (floors on the caller's) and the
# relative bracket width at which it hands over to the full-accuracy search
_COARSE_RTOL, _COARSE_ATOL, _COARSE_WIDTH = 1e-6, 1e-8, 1e-5

# quartic dense-output matrix (Shampine's interpolant for this pair): row j
# weights stage j, column c the power theta^(c+1) of the step fraction
_PD = np.array([
    (1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799),
    (0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072),
    (0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632),
    (0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844),
    (0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423),
])


@dataclass(frozen=True)
class InitialData:
    """Values at the origin; radial regularity forces zero slope there."""

    u0: float
    v0: float

    def __post_init__(self):
        if not (self.u0 > 0.0 and self.v0 > 0.0
                and math.isfinite(self.u0) and math.isfinite(self.v0)):
            raise DomainError("initial values must be positive and finite")


@dataclass(frozen=True)
class IntegratorStats:
    steps: int
    rejected: int
    min_step: float
    max_step: float
    nfev: int


class ProfileClass(Enum):
    ENTIRE_POSITIVE = "EntirePositive"
    U_HITS_ZERO = "UHitsZero"
    V_HITS_ZERO = "VHitsZero"
    TRUNCATED = "Truncated"


@dataclass
class RadialProfile:
    """Sampled radial trajectory on a logarithmic output grid.

    The grid covers [r_start, r_max]; values below r_start come from the
    series start (available through ``dense``).  ``dense`` is an in-memory
    interpolant and is not serialized.
    """

    p: float
    q: float
    N: int
    u0: float
    v0: float
    r: np.ndarray
    u: np.ndarray
    v: np.ndarray
    du: np.ndarray
    dv: np.ndarray
    classification: ProfileClass
    r_event: float | None
    r_max: float
    rtol: float
    atol: float
    stats: IntegratorStats
    dense: Callable[[float], tuple] | None = field(default=None, repr=False)

    @property
    def params(self) -> ParameterTriple:
        return ParameterTriple(self.p, self.q, self.N)


class _TaylorStart:
    """Even series of the regular solution about r = 0, through r^4."""

    def __init__(self, params: ParameterTriple, init: InitialData,
                 opts: SolverOptions):
        p, q, N = params.p, params.q, params.N
        u0, v0 = init.u0, init.v0
        try:
            v0p = v0 ** p
            u0q = u0 ** q
            c4u = p * v0 ** (p - 1.0) * u0q / (8.0 * N * (N + 2.0))
            c4v = q * u0 ** (q - 1.0) * v0p / (8.0 * N * (N + 2.0))
        except OverflowError as exc:
            raise DomainError("initial data too extreme for double precision") from exc
        if not all(map(math.isfinite, (v0p, u0q, c4u, c4v))):
            raise DomainError("initial data too extreme for double precision")
        self.u0, self.v0 = u0, v0
        self.c2u = -v0p / (2.0 * N)
        self.c2v = -u0q / (2.0 * N)
        self.c4u, self.c4v = c4u, c4v
        # r_start: keep the r^4 term below the local tolerance and stay well
        # inside the positivity region r_char where the r^2 term is small
        tol_u = opts.atol + opts.rtol * u0
        tol_v = opts.atol + opts.rtol * v0
        r4u = (tol_u / max(c4u, 1e-290)) ** 0.25
        r4v = (tol_v / max(c4v, 1e-290)) ** 0.25
        r_char = math.sqrt(2.0 * N * min(u0 / v0p, v0 / u0q))
        self.r_start = max(min(r4u, r4v, 0.05 * r_char), 1e-290)

    def eval(self, r: float) -> tuple:
        r2 = r * r
        u = self.u0 + self.c2u * r2 + self.c4u * r2 * r2
        v = self.v0 + self.c2v * r2 + self.c4v * r2 * r2
        du = 2.0 * self.c2u * r + 4.0 * self.c4u * r2 * r
        dv = 2.0 * self.c2v * r + 4.0 * self.c4v * r2 * r
        return (u, du, v, dv)


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


def _horner(y0, h, th, c):
    """Shampine's quartic on one step, y0 + h th (c0 + th (c1 + th (c2 + th c3)));
    the one interpolation formula, on floats and on broadcast arrays alike."""
    return y0 + h * th * (c[0] + th * (c[1] + th * (c[2] + th * c[3])))


class _Dense:
    """Piecewise interpolant: series on [0, r_start], step quartics beyond.

    Built from the stored stages of the accepted steps: ``stages`` holds
    4 x 7 slopes per step (component-major), flat.  The quartic coefficients
    of all steps come from one (4n, 7) x (7, 4) product.
    """

    def __init__(self, taylor: _TaylorStart, starts: list, steps: list,
                 y0s: list, stages: list):
        n = len(starts)
        self.taylor = taylor
        self.starts = np.array(starts)     # step left endpoints
        self.steps = np.array(steps)       # step sizes
        self.y0s = np.fromiter(y0s, float, 4 * n).reshape(n, 4)
        # coef[i, d, c]: component d, power theta^(c+1), of step i
        self.coef = (np.fromiter(stages, float, 28 * n).reshape(4 * n, 7)
                     @ _PD).reshape(n, 4, 4)
        self.r_end = starts[-1] + steps[-1]

    def grid(self, rs: np.ndarray) -> np.ndarray:
        """(u, du, v, dv) at radii rs >= r_start as a (4, len(rs)) array."""
        i = np.clip(np.searchsorted(self.starts, rs, side="right") - 1,
                    0, self.starts.size - 1)
        h = self.steps[i]
        th = np.clip((rs - self.starts[i]) / h, 0.0, 1.0)[:, None]
        c = self.coef[i].transpose(2, 0, 1)
        return _horner(self.y0s[i], h[:, None], th, c).T

    def __call__(self, r: float) -> tuple:
        if r < self.taylor.r_start:
            if r < 0.0:
                raise DomainError("negative radius")
            return self.taylor.eval(r)
        if r > self.r_end * (1.0 + 4.0 * _EPS):
            raise DomainError(f"radius {r} beyond integrated range {self.r_end}")
        return tuple(self.grid(np.array([float(r)]))[:, 0].tolist())


# the raw record of one march: ``end`` is (u, du, v, dv) at the right end
# of the last step; the lists hold, per accepted step, its left end, size,
# start state (4 floats) and stages (28, as ``_Dense`` reads them)
_March = namedtuple("_March", "taylor hit_zero end starts steps y0s stages "
                              "naccept nreject nfev")


def _march(params: ParameterTriple, init: InitialData, r_max: float,
           opts: SolverOptions) -> _March:
    """The adaptive march from the series start to r_max, or through the
    first step in which u or v reaches zero.  Each step is float arithmetic
    without builtin calls: the seven stages unrolled on (u, u', v, v') with
    the right-hand side inlined, every min and max a conditional expression
    of the same semantics, and a state update that carries its rounding
    error to the next step (compensated summation)."""
    opts.validate()
    if not (r_max > 0.0 and math.isfinite(r_max)):
        raise DomainError("r_max must be positive and finite")
    taylor = _TaylorStart(params, init, opts)
    if taylor.r_start >= r_max:
        raise DomainError(f"r_max={r_max} is inside the series-start region")
    # Dormand-Prince 5(4) tableau (Hairer-Norsett-Wanner, Solving ODEs I,
    # II.5), as locals.  Nodes C2..C5 (C1 = 0, C6 = C7 = 1); stage
    # coefficients Aij; the 5th-order weights B (B2 = 0) are also the last
    # stage row (FSAL); E = B - B_hat is the embedded error estimator (E2 = 0).
    C2, C3, C4, C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
    A21 = 1 / 5
    A31, A32 = 3 / 40, 9 / 40
    A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
    A51, A52, A53, A54 = (19372 / 6561, -25360 / 2187, 64448 / 6561,
                          -212 / 729)
    A61, A62, A63, A64, A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                               -5103 / 18656)
    B1, B3, B4, B5, B6 = (35 / 384, 500 / 1113, 125 / 192, -2187 / 6784,
                          11 / 84)
    E1, E3, E4, E5, E6, E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                              -17253 / 339200, 22 / 525, -1 / 40)
    p, q, nm1 = params.p, params.q, params.N - 1.0
    rtol, atol = opts.rtol, opts.atol
    min_step, max_steps, sqrt = opts.min_step, opts.max_steps, math.sqrt
    eps16 = 16.0 * _EPS

    r = taylor.r_start
    u, du, v, dv = taylor.eval(r)
    # stage slopes are (u', u'', v', v''); the u' and v' slopes are the
    # stage values of du and dv themselves, and x, y below are the stage
    # values of u and v
    inv = nm1 / r
    k1du = -(v ** p if v > 0.0 else 0.0) - inv * du
    k1dv = -(u ** q if u > 0.0 else 0.0) - inv * dv
    k1u, k1v = du, dv
    # compensation carries: the rounding error of the last state update
    cu = cdu = cv = cdv = 0.0
    nfev = 1
    h = 0.1 * r
    facold = 1e-4
    naccept = nreject = 0
    starts: list[float] = []
    steps: list[float] = []
    y0s: list[float] = []
    stages: list[float] = []
    hit_zero = False

    while r < r_max:
        x = r_max - r
        if x < h:
            h = x
        x = eps16 * r
        if h < (x if x > min_step else min_step):
            raise StepUnderflow(
                f"step {h:.3e} below floor at r={r:.6e} "
                f"(min_step={min_step})"
            )
        if naccept + nreject >= max_steps:
            raise ConvergenceError(f"more than {max_steps} steps")
        x = u + h * (A21 * k1u)
        y = v + h * (A21 * k1v)
        k2u = du + h * (A21 * k1du)
        k2v = dv + h * (A21 * k1dv)
        inv = nm1 / (r + C2 * h)
        k2du = -(y ** p if y > 0.0 else 0.0) - inv * k2u
        k2dv = -(x ** q if x > 0.0 else 0.0) - inv * k2v

        x = u + h * (A31 * k1u + A32 * k2u)
        y = v + h * (A31 * k1v + A32 * k2v)
        k3u = du + h * (A31 * k1du + A32 * k2du)
        k3v = dv + h * (A31 * k1dv + A32 * k2dv)
        inv = nm1 / (r + C3 * h)
        k3du = -(y ** p if y > 0.0 else 0.0) - inv * k3u
        k3dv = -(x ** q if x > 0.0 else 0.0) - inv * k3v

        x = u + h * (A41 * k1u + A42 * k2u + A43 * k3u)
        y = v + h * (A41 * k1v + A42 * k2v + A43 * k3v)
        k4u = du + h * (A41 * k1du + A42 * k2du + A43 * k3du)
        k4v = dv + h * (A41 * k1dv + A42 * k2dv + A43 * k3dv)
        inv = nm1 / (r + C4 * h)
        k4du = -(y ** p if y > 0.0 else 0.0) - inv * k4u
        k4dv = -(x ** q if x > 0.0 else 0.0) - inv * k4v

        x = u + h * (A51 * k1u + A52 * k2u + A53 * k3u + A54 * k4u)
        y = v + h * (A51 * k1v + A52 * k2v + A53 * k3v + A54 * k4v)
        k5u = du + h * (A51 * k1du + A52 * k2du + A53 * k3du + A54 * k4du)
        k5v = dv + h * (A51 * k1dv + A52 * k2dv + A53 * k3dv + A54 * k4dv)
        inv = nm1 / (r + C5 * h)
        k5du = -(y ** p if y > 0.0 else 0.0) - inv * k5u
        k5dv = -(x ** q if x > 0.0 else 0.0) - inv * k5v

        x = u + h * (A61 * k1u + A62 * k2u + A63 * k3u + A64 * k4u + A65 * k5u)
        y = v + h * (A61 * k1v + A62 * k2v + A63 * k3v + A64 * k4v + A65 * k5v)
        k6u = du + h * (A61 * k1du + A62 * k2du + A63 * k3du + A64 * k4du
                        + A65 * k5du)
        k6v = dv + h * (A61 * k1dv + A62 * k2dv + A63 * k3dv + A64 * k4dv
                        + A65 * k5dv)
        inv = nm1 / (r + h)
        k6du = -(y ** p if y > 0.0 else 0.0) - inv * k6u
        k6dv = -(x ** q if x > 0.0 else 0.0) - inv * k6v

        # 5th-order update plus the carry; stage 7 is its slope (FSAL)
        iu = h * (B1 * k1u + B3 * k3u + B4 * k4u + B5 * k5u + B6 * k6u) + cu
        iv = h * (B1 * k1v + B3 * k3v + B4 * k4v + B5 * k5v + B6 * k6v) + cv
        idu = h * (B1 * k1du + B3 * k3du + B4 * k4du + B5 * k5du
                   + B6 * k6du) + cdu
        idv = h * (B1 * k1dv + B3 * k3dv + B4 * k4dv + B5 * k5dv
                   + B6 * k6dv) + cdv
        u1, v1 = u + iu, v + iv
        k7u, k7v = du + idu, dv + idv
        k7du = -(v1 ** p if v1 > 0.0 else 0.0) - inv * k7u
        k7dv = -(u1 ** q if u1 > 0.0 else 0.0) - inv * k7v
        nfev += 6

        # error norm; each scale is max(|y|, |y1|), and a -0.0 where abs
        # gives 0.0 leaves atol + rtol * scale unchanged
        a0, a1 = (-u if u < 0.0 else u), (-u1 if u1 < 0.0 else u1)
        e = h * (E1 * k1u + E3 * k3u + E4 * k4u + E5 * k5u + E6 * k6u
                 + E7 * k7u) / (atol + rtol * (a1 if a1 > a0 else a0))
        err = e * e
        a0, a1 = (-du if du < 0.0 else du), (-k7u if k7u < 0.0 else k7u)
        e = h * (E1 * k1du + E3 * k3du + E4 * k4du + E5 * k5du + E6 * k6du
                 + E7 * k7du) / (atol + rtol * (a1 if a1 > a0 else a0))
        err += e * e
        a0, a1 = (-v if v < 0.0 else v), (-v1 if v1 < 0.0 else v1)
        e = h * (E1 * k1v + E3 * k3v + E4 * k4v + E5 * k5v + E6 * k6v
                 + E7 * k7v) / (atol + rtol * (a1 if a1 > a0 else a0))
        err += e * e
        a0, a1 = (-dv if dv < 0.0 else dv), (-k7v if k7v < 0.0 else k7v)
        e = h * (E1 * k1dv + E3 * k3dv + E4 * k4dv + E5 * k5dv + E6 * k6dv
                 + E7 * k7dv) / (atol + rtol * (a1 if a1 > a0 else a0))
        err = sqrt((err + e * e) / 4.0)

        if err <= 1.0:
            starts.append(r)
            steps.append(h)
            y0s += (u, du, v, dv)
            stages += (k1u, k2u, k3u, k4u, k5u, k6u, k7u,
                       k1du, k2du, k3du, k4du, k5du, k6du, k7du,
                       k1v, k2v, k3v, k4v, k5v, k6v, k7v,
                       k1dv, k2dv, k3dv, k4dv, k5dv, k6dv, k7dv)
            naccept += 1
            if (u > 0.0 and u1 <= 0.0) or (v > 0.0 and v1 <= 0.0):
                hit_zero = True  # located on the interpolant by the reader
                break
            cu, cdu = iu - (u1 - u), idu - (k7u - du)
            cv, cdv = iv - (v1 - v), idv - (k7v - dv)
            r += h
            u, du, v, dv = u1, k7u, v1, k7v
            k1u, k1du, k1v, k1dv = k7u, k7du, k7v, k7dv
            # PI control: the previous step's error damps the new step
            fac11 = err ** 0.17 if err > 0.0 else 1e-20
            fac = fac11 / facold ** 0.04 / 0.9
            facold = 1e-4 if 1e-4 > err else err
            fac = fac if fac < 5.0 else 5.0
            h = h / (fac if fac > 0.1 else 0.1)
        else:
            nreject += 1
            fac11 = err ** 0.17 / 0.9
            h = h / (fac11 if fac11 < 5.0 else 5.0)

    return _March(taylor, hit_zero, (u1, k7u, v1, k7v), starts, steps, y0s,
                  stages, naccept, nreject, nfev)


def _event(rec: _March, coef, event_tol: float) -> tuple:
    """(class, r_event) of the first zero crossing of u or v inside the last
    step of a march that hit zero, by bisection on that step's (4, 4)
    quartic ``coef`` down to a radius width of event_tol."""
    r, h = rec.starts[-1], rec.steps[-1]
    hit = None
    for comp, kind in ((0, ProfileClass.U_HITS_ZERO),
                       (2, ProfileClass.V_HITS_ZERO)):
        y0, c = rec.y0s[comp - 4], coef[comp].tolist()
        if y0 > 0.0 and rec.end[comp] <= 0.0:
            th = _bisect(lambda t: 1 if _horner(y0, h, t, c) > 0.0 else -1,
                         0.0, 1.0, event_tol / h, 200)[1]
            if hit is None or th < hit[0]:
                hit = (th, kind)
    th_star, kind = hit
    return kind, r + th_star * h


def integrate(params: ParameterTriple, init: InitialData, r_max: float,
              opts: SolverOptions | None = None) -> RadialProfile:
    """Adaptive integration from the origin; see module docstring.

    ``_march`` plus the profile builder: the dense output of all accepted
    steps, the event on the last one (``_event``) and the output grid.
    """
    opts = SolverOptions() if opts is None else opts
    rec = _march(params, init, r_max, opts)
    taylor, steps = rec.taylor, rec.steps
    stats = IntegratorStats(
        steps=rec.naccept, rejected=rec.nreject,
        min_step=min(steps), max_step=max(steps), nfev=rec.nfev,
    )
    dense = _Dense(taylor, rec.starts, steps, rec.y0s, rec.stages)
    r_event: float | None = None
    r_end = dense.r_end
    if rec.hit_zero:
        classification, r_event = _event(rec, dense.coef[-1], opts.event_tol)
        r_end = r_event
    else:
        u, du, v, dv = rec.end
        thr = opts.decay_threshold * max(init.u0, init.v0)
        decayed = u < thr and v < thr and du < 0.0 and dv < 0.0
        if r_end >= min(r_max, opts.r_target) and r_max >= opts.r_target and decayed:
            classification = ProfileClass.ENTIRE_POSITIVE
        else:
            classification = ProfileClass.TRUNCATED
    grid = np.geomspace(taylor.r_start, r_end, opts.grid_nodes)
    grid[0] = taylor.r_start
    grid[-1] = r_end
    vals = dense.grid(grid)
    return RadialProfile(
        p=params.p, q=params.q, N=params.N, u0=init.u0, v0=init.v0,
        r=grid, u=vals[0], v=vals[2], du=vals[1], dv=vals[3],
        classification=classification, r_event=r_event, r_max=r_end,
        rtol=opts.rtol, atol=opts.atol, stats=stats, dense=dense,
    )


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
    # only the series is read here, not the r_start the options size
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


@dataclass(frozen=True)
class ShootResult:
    v0: float
    profile: RadialProfile
    iterations: int
    bracket_width: float
    polished: bool


def shoot(params: ParameterTriple, u0: float, v0_bracket: tuple,
          opts: SolverOptions | None = None, *, polish: bool = False) -> ShootResult:
    """Find v0 whose trajectory stays positive through r_target.

    Needs the singular pair (``derive_scaling``), else DomainError before
    any integration.  The bracket endpoints must fail in opposite ways at
    r_target (one u-zero, one v-zero), else BracketError.  On the diagonal
    p = q with u0 inside the bracket, v0 = u0 is exact (u equals v bit for
    bit); that profile is returned with ``iterations`` 0 and
    ``bracket_width`` 0.

    Otherwise the root finder searches the whole bracket for the zero of
    a matching functional g(v0), read from a probe integrated to the probe
    radius R, and the midpoint of the final bracket is integrated once to
    r_target.  Off the entire-solution manifold by d = v0 - v0*, a
    trajectory deviates like |d| (r/R)^-kappa, with kappa = kappa_min the
    transverse root of ``closed_form.indicial_exponents``, real and
    negative for every triple.  So g is log(u/u_s) - log(v/v_s) at R on a
    probe that reaches R, and +-(r_ev/R)^kappa on one that hits zero at
    r_ev, positive where v falls first; both are about proportional to d.
    The two endpoint runs give g at the ends without a probe.

    The search has two phases.  The coarse one marches its probes at
    rtol = max(rtol, 1e-6) and atol = max(atol, 1e-8), since far from the
    root only the sign and rough size of g matter, and stops at a relative
    bracket width of max(tol, 1e-5).  Each end of its bracket is probed
    again at the caller's tolerances, unless those are the coarse ones and
    g is known there already; if both keep their signs, the
    full-accuracy phase narrows that bracket, else it searches the whole
    original bracket.  So both ends of the final bracket were integrated
    at the caller's tolerances.  While the bracket spans more than a factor
    of 2, either phase halves it in log v0.  ``polish`` only sets where
    the search stops: at 4 ulp, which places v0 on the entire-solution
    manifold to a few ulp, or at v0_tol.  ``iterations`` counts the probes
    to R of both phases and ``bracket_width`` is the final bracket.
    """
    opts = SolverOptions() if opts is None else opts
    opts.validate()
    scaling = derive_scaling(params)
    lo, hi = float(v0_bracket[0]), float(v0_bracket[1])
    if not (0.0 < lo < hi):
        raise DomainError("need 0 < lo < hi in the v0 bracket")
    if u0 <= 0.0:
        raise DomainError("u0 must be positive")

    def run(v0: float) -> RadialProfile:
        return integrate(params, InitialData(u0, v0), opts.r_target, opts)

    prof_lo, prof_hi = run(lo), run(hi)
    kind_lo, kind_hi = prof_lo.classification, prof_hi.classification
    if {kind_lo, kind_hi} != {ProfileClass.U_HITS_ZERO, ProfileClass.V_HITS_ZERO}:
        raise BracketError(
            f"bracket endpoints must fail in opposite ways, got "
            f"{kind_lo.value} at {lo} and {kind_hi.value} at {hi}"
        )

    if params.p == params.q and lo < u0 < hi:
        # the diagonal is invariant: v0 = u0 gives u identical to v
        prof = run(u0)
        if prof.r_event is None:
            return ShootResult(u0, prof, 0, 0.0, polish)

    R = (min(opts.r_target, 1e4) if opts.polish_probe is None
         else opts.polish_probe)
    probes = 0

    def counted(read):
        def probe(v0: float) -> float:
            nonlocal probes
            probes += 1
            return read(v0)
        return probe

    pa, pb = ((prof_lo, prof_hi) if kind_lo == ProfileClass.V_HITS_ZERO
              else (prof_hi, prof_lo))
    match, read = _matching(params, scaling, u0, R, opts)
    fpa, fpb = match(pa), match(pb)
    known = {pa.v0: fpa, pb.v0: fpb}  # g at the caller's tolerances

    def fine_read(v0: float) -> float:
        known[v0] = g = read(v0)
        return g

    fine_probe = counted(fine_read)
    coarse = replace(opts, rtol=max(opts.rtol, _COARSE_RTOL),
                     atol=max(opts.atol, _COARSE_ATOL))
    # at or above the coarse floors the coarse probes are full-accuracy ones
    coarse_probe = (fine_probe if coarse == opts else
                    counted(_matching(params, scaling, u0, R, coarse)[1]))
    tol = 4.0 * _EPS if polish else opts.v0_tol
    a, b = _bisect(coarse_probe, pa.v0, pb.v0, max(tol, _COARSE_WIDTH),
                   opts.shoot_max_iter, fpa, fpb, geometric=True)
    # the coarse ends at the caller's tolerances, probed again unless
    # known; the fine phase starts from the coarse bracket only if both
    # signs hold there
    fa = known[a] if a in known else fine_probe(a)
    fb = known[b] if b in known else fine_probe(b)
    if not fa >= 0.0 >= fb:
        a, b, fa, fb = pa.v0, pb.v0, fpa, fpb
    a, b = _bisect(fine_probe, a, b, tol, max(opts.shoot_max_iter - probes, 0),
                   fa, fb, geometric=True)
    v0_star = 0.5 * (a + b)
    return ShootResult(v0_star, run(v0_star), probes, abs(b - a), polish)


def _matching(params: ParameterTriple, scaling: ScalingData, u0: float,
              R: float, opts: SolverOptions) -> tuple:
    """``shoot``'s g at probe radius R, read by ``match(profile)`` from a
    profile and by ``probe(v0)`` from the last step of a bare march to R;
    one event location and one interpolation make both the same float."""
    lg_a, lg_b = math.log(scaling.a), math.log(scaling.b)
    kappa = float(indicial_exponents(scaling)[0].real)

    def at_event(kind: ProfileClass, r_ev: float) -> float:
        # positive where v falls first (small v0)
        side = 1.0 if kind == ProfileClass.V_HITS_ZERO else -1.0
        # capped: an event near the origin must not overflow
        return side * math.exp(min(700.0, kappa * math.log(r_ev / R)))

    def at_end(rr: float, u: float, v: float) -> float:
        uh = math.log(u) + scaling.alpha * math.log(rr) - lg_a
        vh = math.log(v) + scaling.beta * math.log(rr) - lg_b
        return uh - vh

    def match(prof: RadialProfile) -> float:
        if prof.r_event is not None:
            return at_event(prof.classification, prof.r_event)
        return at_end(float(prof.r[-1]), prof.u[-1], prof.v[-1])

    def probe(v0: float) -> float:
        rec = _march(params, InitialData(u0, v0), R, opts)
        coef = np.array(rec.stages[-28:]).reshape(4, 7) @ _PD
        if rec.hit_zero:
            return at_event(*_event(rec, coef, opts.event_tol))
        # the last grid node of the profile: np.clip's theta, as _Dense.grid
        start, h = rec.starts[-1], rec.steps[-1]
        rr = start + h
        th = (rr - start) / h
        th = 0.0 if th < 0.0 else 1.0 if th > 1.0 else th
        return at_end(rr, _horner(rec.y0s[-4], h, th, coef[0].tolist()),
                      _horner(rec.y0s[-2], h, th, coef[2].tolist()))

    return match, probe


def rescale(profile: RadialProfile, scaling: ScalingData, R: float) -> RadialProfile:
    """Scale-invariance map (u, v)(r) -> (R^alpha u(R r), R^beta v(R r)).

    The rescaled grid is r_i / R so every sample reuses an existing node
    exactly; derivatives pick up one extra power of R.  The result solves
    the same system because alpha + 2 = beta p and beta + 2 = alpha q.
    """
    if not (R > 0.0 and math.isfinite(R)):
        raise DomainError("R must be positive and finite")
    cu = R ** scaling.alpha
    cv = R ** scaling.beta
    dense = profile.dense
    wrapped = None
    if dense is not None:
        def wrapped(rr: float, _d=dense, _cu=cu, _cv=cv, _R=R):
            u, du, v, dv = _d(rr * _R)
            return (u * _cu, du * _cu * _R, v * _cv, dv * _cv * _R)
    return RadialProfile(
        p=profile.p, q=profile.q, N=profile.N,
        u0=profile.u0 * cu, v0=profile.v0 * cv,
        r=profile.r / R,
        u=profile.u * cu, v=profile.v * cv,
        du=profile.du * (cu * R), dv=profile.dv * (cv * R),
        classification=profile.classification,
        r_event=None if profile.r_event is None else profile.r_event / R,
        r_max=profile.r_max / R,
        rtol=profile.rtol, atol=profile.atol,
        stats=profile.stats, dense=wrapped,
    )


@dataclass(frozen=True)
class DecayReport:
    residual: float
    tail_share: float
    fitted_slope: float


def decay_identity_check(profile: RadialProfile) -> DecayReport:
    """Certify global positivity and decay through the potential identity

        u(0) = (N-2)^{-1} int_0^inf t v(t)^p dt.

    The integral is a trapezoid sum over the profile grid plus a closed-form
    head on [0, r_1] and a power-law tail fitted over the last decade.  A
    small residual certifies an entire-positive profile; on a truncated
    (but positive) profile the residual is dominated by the missing tail
    and ``tail_share`` tells the caller how much of the estimate came from
    extrapolation.  Event-terminated profiles are rejected.
    """
    p, N = profile.p, profile.N
    if N < 3:
        raise DomainError("the potential identity needs N >= 3")
    if not math.isfinite(profile.u0):
        raise MisclassifiedProfile("profile has no finite value at the origin")
    if profile.classification in (ProfileClass.U_HITS_ZERO,
                                  ProfileClass.V_HITS_ZERO):
        raise MisclassifiedProfile(
            f"decay identity needs a positive profile, got "
            f"{profile.classification.value}"
        )
    # truncated-but-positive profiles are allowed: the residual is then
    # dominated by the missing tail and the reported tail share tells the
    # caller to extend r_max
    r = profile.r
    fv = r * profile.v ** p
    body = float(np.sum(0.5 * (fv[1:] + fv[:-1]) * np.diff(r)))
    head = profile.v0 ** p * r[0] ** 2 / 2.0
    # tail: fit log v against log r over the last decade of the grid
    mask = r >= profile.r_max / 10.0
    lr = np.log(r[mask])
    lv = np.log(profile.v[mask])
    slope, intercept = np.polyfit(lr, lv, 1)
    beta_hat = -float(slope)
    C = math.exp(float(intercept))
    if beta_hat * p <= 2.0:
        tail = math.inf
    else:
        tail = C ** p * profile.r_max ** (2.0 - beta_hat * p) / (beta_hat * p - 2.0)
    total = head + body + tail
    residual = abs(profile.u0 - total / (N - 2.0)) / profile.u0
    share = tail / total if math.isfinite(tail) else 1.0
    return DecayReport(residual=residual, tail_share=share, fitted_slope=-beta_hat)


def ode_residual(profile: RadialProfile) -> float:
    """Max relative residual of (r^{N-1} u')' = -r^{N-1} v^p (and the v
    equation) by 4th-order finite differences on the log grid."""
    r = profile.r
    if r.size < 7:
        raise DomainError("profile grid too small for the residual stencil")
    lr = np.log(r)
    h = np.diff(lr)
    if np.max(np.abs(h - h[0])) > 1e-8 * h[0]:
        raise DomainError("residual stencil requires a uniform log grid")
    h0 = float(h[0])
    worst = 0.0
    for (w, src) in ((profile.du, profile.v ** profile.p),
                     (profile.dv, profile.u ** profile.q)):
        F = r ** (profile.N - 1.0) * w
        dF = (-F[4:] + 8.0 * F[3:-1] - 8.0 * F[1:-3] + F[:-4]) / (12.0 * h0)
        dFdr = dF / r[2:-2]
        rhs = -(r ** (profile.N - 1.0) * src)[2:-2]
        scale = (r ** (profile.N - 1.0) * (np.abs(src) + np.abs(w) / r))[2:-2]
        worst = max(worst, float(np.max(np.abs(dFdr - rhs) / scale)))
    return worst


# ----------------------------------------------------------------------
# serialization

_SCHEMA_VERSION = 1


def profile_metadata(profile: RadialProfile) -> dict:
    return {
        "schema_version": _SCHEMA_VERSION,
        "kind": "radial_profile",
        "params": {"p": profile.p, "q": profile.q, "N": profile.N},
        "u0": profile.u0,
        "v0": profile.v0,
        "classification": profile.classification.value,
        "r_event": profile.r_event,
        "r_start": float(profile.r[0]),
        "r_max": profile.r_max,
        "rtol": profile.rtol,
        "atol": profile.atol,
        "grid_nodes": int(profile.r.size),
        "stats": asdict(profile.stats),
    }


def profile_to_csv(profile: RadialProfile) -> str:
    """The profile's nodes as ``r,u,v,du,dv`` CSV rows.  One ``%.17g``
    format per row writes the bytes ``serialize.to_csv`` would, without
    its type test per cell."""
    columns = (profile.r, profile.u, profile.v, profile.du, profile.dv)
    return "r,u,v,du,dv\n" + "".join(
        "%.17g,%.17g,%.17g,%.17g,%.17g\n" % row
        for row in zip(*(a.tolist() for a in columns)))


def profile_from_text(csv_text: str, json_text: str) -> RadialProfile:
    """The profile that ``profile_to_csv`` and ``profile_metadata`` stored;
    DomainError for a document that is not one (cut short, non-numeric,
    keys missing)."""
    import json as _json

    try:
        meta = _json.loads(json_text)
        if not isinstance(meta, dict) or meta.get("kind") != "radial_profile":
            raise DomainError("not a radial-profile metadata document")
        lines = csv_text.strip().split("\n")
        if lines[0] != "r,u,v,du,dv":
            raise DomainError("unexpected CSV header for a radial profile")
        # one conversion for all cells; rows of unequal width raise
        data = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
        if data.ndim != 2 or data.shape[1] != 5:
            raise DomainError("a radial-profile CSV needs rows of 5 numbers")
        stats = meta["stats"]
        return RadialProfile(
            p=float(meta["params"]["p"]), q=float(meta["params"]["q"]),
            N=int(meta["params"]["N"]),
            u0=float(meta["u0"]), v0=float(meta["v0"]),
            r=data[:, 0], u=data[:, 1], v=data[:, 2], du=data[:, 3],
            dv=data[:, 4],
            classification=ProfileClass(meta["classification"]),
            r_event=None if meta["r_event"] is None else float(meta["r_event"]),
            r_max=float(meta["r_max"]),
            rtol=float(meta["rtol"]), atol=float(meta["atol"]),
            stats=IntegratorStats(
                steps=int(stats["steps"]), rejected=int(stats["rejected"]),
                min_step=float(stats["min_step"]),
                max_step=float(stats["max_step"]), nfev=int(stats["nfev"]),
            ),
            dense=None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed stored profile: {exc!r}") from exc
