"""Radial initial-value solver for the Lane-Emden system.

Integrates

    u'' + (N-1)/r u' = -v^p,    v'' + (N-1)/r v' = -u^q,
    u(0) = u0 > 0, v(0) = v0 > 0, u'(0) = v'(0) = 0,

with a Dormand-Prince 5(4) embedded pair, PI step-size control and quartic
dense output.  The removable singularity of the (N-1)/r term is handled by
a series start on [0, r_start]: the even expansion of degree 12 in
x = (r/r_char)^2, r_char = sqrt(2N min(u0/v0^p, v0/u0^q)),

    u(r) = u0 - v0^p r^2/(2N) + p v0^{p-1} u0^q r^4 / (8N(N+2)) + ...

(and symmetrically for v; ``_TaylorStart``) seeds the stepper at the
r_start where its last two terms are below 1e-3 of the local error
tolerance, at most r_char / 2: r = 0.5-1 on the documented shots.  The
output grid starts at ``r_first``, where the r^4 term reaches the local
tolerance (near r = 0.01); its nodes below r_start are series values.

Trajectories halt at the first zero crossing of u or v (located by
bisection on the last step's quartic) or at r_max.  ``integrate`` is one
march (``_march``, a generator that can pause after a given radius and go
on, recording the accepted steps), how it ended (``_end``) and the profile
builder (``_profile``: dense output, output grid).  A profile
that reaches ``r_target`` without a zero of u or v is classified
entire-positive, and one stopped before ``r_target`` truncated.  Nothing
else is tested there: on a positive regular solution
u' = -r^{1-N} int_0^r s^{N-1} v^p ds < 0, and v' < 0 alike, while u and v
may decay as slowly as the singular pair's r^-alpha and r^-beta.  True
entirety is not decidable numerically and is certified separately by the
decay identity u(0) = (N-2)^{-1} int_0^inf t v(t)^p dt.

``shoot`` finds the v0 of an entire profile with the package's one
bracketed root finder (``exponents._bisect``, Dekker-Brent) on the value of
a matching functional g at the probe radius R = min(r_target, 1e2).  With
t = log r and Y = (r^alpha u, r^alpha (alpha u + r u'), r^beta v,
r^beta (beta v + r v')), the system is autonomous and the singular pair is
its fixed point P = (a, 0, b, 0); entire solutions enter P's stable
manifold, and g on a probe that reaches R is the coefficient l.(Y - P) of
the one transverse mode (a projection boundary condition: Lentini and
Keller, SIAM J. Numer. Anal. 17, 1980; Beyn, IMA J. Numer. Anal. 10, 1990),
with l from ``closed_form.transverse_covector``.  It is smooth and about
linear in v0 - v0*; a probe that hits zero reads +-(r_ev/R)^kappa_min, with
a different slope on each side, so the finder's secants run through two
probes on one side of the root.  A shot searches in two phases: a coarse
one whose probes march at loose tolerances (rtol 1e-6, atol 1e-8, or the
caller's if looser) to a bracket of relative width 1e-7, and a
full-accuracy one from that bracket once both its ends have been probed at
the caller's tolerances (again, unless those are the coarse ones) and kept
their signs (else from the original ends).  A shot takes about 22-24
probes, 17-19 of them coarse ones of about 50 steps each, and 4-5 at full
accuracy of about 420 steps each.  Every probe marches toward r_target and
pauses after the step that passes R; g is read at R from that step's
quartic (the bracket ends: at r_target), without dense output or grid,
through ``_end`` and the builder's interpolation: the profile's float.
The shot keeps only the march of the full-accuracy read of smallest |g|,
returns its v0, an end of the final bracket, and runs that march on to
r_target for the profile, instead of integrating from the origin again.
``polish`` only narrows the final bracket from a relative width of
``V0_TOL`` = 1e-13 to 4 ulp.
``iterations`` counts the probes of both phases and ``bracket_width`` is
the final bracket (0 for the exact diagonal shot).
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
from .closed_form import transverse_covector
from .exponents import ParameterTriple, ScalingData, _bisect, derive_scaling
from .options import GRID_NODES, V0_TOL, SolverOptions, _is_finite
from .serialize import to_csv

__all__ = [
    "InitialData",
    "SolverOptions",
    "IntegratorStats",
    "ProfileClass",
    "RadialProfile",
    "integrate",
    "ShootResult",
    "shoot",
    "rescale",
    "DecayReport",
    "decay_identity_check",
    "profile_to_csv",
    "profile_metadata",
    "profile_from_text",
]

_EPS = float(np.finfo(float).eps)

# ``shoot``'s probe radius (capped at r_target), where the deviation from the
# singular pair is about 1e-7 and so its quadratic remainder about 1e-14
_PROBE_RADIUS = 1e2
# ``shoot``'s coarse phase: probe tolerances (floors on the caller's) and the
# relative bracket width at which it hands over to the full-accuracy search
_COARSE_RTOL, _COARSE_ATOL, _COARSE_WIDTH = 1e-6, 1e-8, 1e-7
# degree K of the series start in x = (r / r_char)^2: through x^12 = r^24
_SERIES_DEGREE = 12
# budgets: steps (accepted and rejected) of one march, probes of one shot
_MAX_STEPS, _SHOOT_MAX_ITER = 2_000_000, 200
# radius width to which ``_end`` locates the zero of u or v
_EVENT_TOL = 1e-12

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
        if not all(_is_finite(x) and x > 0.0 for x in (self.u0, self.v0)):
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

    The grid covers [r_first, r[-1]]: its first node is the series start's
    r_first, which the stored metadata writes as ``r_start``, and its last
    is where the march ended.  Values below r_first come from the series
    (available through ``dense``).  ``dense`` is an in-memory interpolant
    and is not serialized.
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
    rtol: float
    atol: float
    stats: IntegratorStats
    dense: Callable[[float], tuple] | None = field(default=None, repr=False)


class _TaylorStart:
    """Even series of the regular solution about r = 0, in x = (r/r_char)^2.

    With u = sum a_k x^k and v = sum b_k x^k, -Delta r^2k =
    -2k(2k+N-2) r^(2k-2) gives a_k = -r_char^2 [v^p]_(k-1) / (2k(2k+N-2)),
    where [v^p]_j is the x^j coefficient of v^p, and b_k alike from u^q.
    The powers come from J.C.P. Miller's recurrence (Knuth, TAOCP 2, 4.7)
    on v / v0 and u / u0, whose leading coefficient is 1; with
    r_char = sqrt(2N min(u0/v0^p, v0/u0^q)), the size of the positivity
    region, r_char^2 v0^p <= 2N u0 and r_char^2 u0^q <= 2N v0, so every
    coefficient is O(u0) or O(v0).

    ``r_first`` is where the r^4 term reaches the local tolerance, capped
    at 0.05 r_char: the first node of every profile grid.  ``r_start``,
    where the march starts, is where the last two terms reach 1e-3 of the
    local tolerance, capped at x = 1/4 (r_char / 2) and at r_max / 2, and
    never below r_first.
    """

    def __init__(self, params: ParameterTriple, init: InitialData,
                 opts: SolverOptions, r_max: float = math.inf):
        p, q, N = params.p, params.q, params.N
        u0, v0 = init.u0, init.v0
        try:
            v0p = v0 ** p
            u0q = u0 ** q
            c4u = p * v0 ** (p - 1.0) * u0q / (8.0 * N * (N + 2.0))
            c4v = q * u0 ** (q - 1.0) * v0p / (8.0 * N * (N + 2.0))
        except OverflowError as exc:
            raise DomainError("initial data too extreme for double precision") from exc
        # v0^p or u0^q underflowing to 0 would divide by zero in r_char
        if not (all(map(math.isfinite, (v0p, u0q, c4u, c4v)))
                and v0p > 0.0 and u0q > 0.0):
            raise DomainError("initial data too extreme for double precision")
        tol_u = opts.atol + opts.rtol * u0
        tol_v = opts.atol + opts.rtol * v0
        m = min(u0 / v0p, v0 / u0q)
        self.r_char = r_char = math.sqrt(2.0 * N * m)
        r4u = (tol_u / max(c4u, 1e-290)) ** 0.25
        r4v = (tol_v / max(c4v, 1e-290)) ** 0.25
        self.r_first = max(min(r4u, r4v, 0.05 * r_char), 1e-290)

        # a, b: the coefficients in x; pu, pv: those of (v/v0)^p, (u/u0)^q
        a, b, pu, pv = [u0], [v0], [1.0], [1.0]
        su, sv = 2.0 * N * (m * v0p), 2.0 * N * (m * u0q)
        for k in range(1, _SERIES_DEGREE + 1):
            n = k - 1
            if n:
                wu = wv = 0.0
                for j in range(1, k):
                    wu += ((p + 1.0) * j - n) * (b[j] / v0) * pu[n - j]
                    wv += ((q + 1.0) * j - n) * (a[j] / u0) * pv[n - j]
                pu.append(wu / n)
                pv.append(wv / n)
            d = 2.0 * k * (2.0 * k + N - 2.0)
            a.append(-su * pu[n] / d)
            b.append(-sv * pv[n] / d)
        if not all(map(math.isfinite, a + b)):
            raise DomainError("initial data too extreme for double precision")
        self.a, self.b = a, b
        x = 0.25
        for c, tol in ((a, tol_u), (b, tol_v)):
            for k in (_SERIES_DEGREE - 1, _SERIES_DEGREE):
                if c[k] != 0.0:
                    x = min(x, (1e-3 * tol / abs(c[k])) ** (1.0 / k))
        cap = max(self.r_first, 0.5 * r_max)
        self.r_start = max(self.r_first, min(r_char * math.sqrt(x), cap))

    def eval(self, r) -> tuple:
        """(u, du, v, dv) at r, a radius or an array of radii, by Horner's
        rule in x."""
        t = r / self.r_char
        x = t * t
        dx = 2.0 * t / self.r_char
        out = []
        for c in (self.a, self.b):
            y = c[-1]
            dy = (len(c) - 1) * c[-1]
            for k in range(len(c) - 2, 0, -1):
                y = c[k] + x * y
                dy = k * c[k] + x * dy
            out += (c[0] + x * y, dx * dy)
        return tuple(out)


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
        """(u, du, v, dv) at increasing radii rs >= 0 as a (4, len(rs))
        array: the series below r_start, the step quartics from there."""
        k = int(np.searchsorted(rs, self.taylor.r_start))
        head, rs = rs[:k], rs[k:]
        i = np.clip(np.searchsorted(self.starts, rs, side="right") - 1,
                    0, self.starts.size - 1)
        h = self.steps[i]
        th = np.clip((rs - self.starts[i]) / h, 0.0, 1.0)[:, None]
        c = self.coef[i].transpose(2, 0, 1)
        tail = _horner(self.y0s[i], h[:, None], th, c).T
        if not k:
            return tail
        return np.concatenate((np.array(self.taylor.eval(head)), tail), axis=1)

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
                              "naccept nreject")


def _march(params: ParameterTriple, init: InitialData, r_max: float,
           opts: SolverOptions, pause: float = math.inf):
    """The adaptive march from the series start to r_max, or through the
    first step in which u or v reaches zero, as a generator of its record.
    It yields the record once after the first accepted step that ends at or
    past ``pause`` without a zero of u or v, and once at its end; the lists
    of a record yielded at the pause grow when the march goes on, so read
    it before resuming.  Each step is float arithmetic without builtin
    calls: the seven stages unrolled on (u, u', v, v') with the right-hand
    side inlined, every min and max a conditional expression of the same
    semantics, and a state update that carries its rounding error to the
    next step (compensated summation).  Where the march pauses does not
    change a bit of it.  ``opts`` must be valid: ``integrate`` and
    ``shoot`` check them."""
    if not (_is_finite(r_max) and r_max > 0.0):
        raise DomainError("r_max must be positive and finite")
    taylor = _TaylorStart(params, init, opts, r_max)
    if taylor.r_first >= r_max:
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
    sqrt, eps16, step_budget = math.sqrt, 16.0 * _EPS, _MAX_STEPS

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
        if h < eps16 * r:
            raise StepUnderflow(f"step {h:.3e} below the floor 16 eps r "
                                f"at r={r:.6e}")
        if naccept + nreject >= step_budget:
            raise ConvergenceError(f"more than {step_budget} steps")
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
            if r >= pause:
                pause = math.inf
                yield _March(taylor, False, (u, du, v, dv), starts, steps,
                             y0s, stages, naccept, nreject)
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

    yield _March(taylor, hit_zero, (u1, k7u, v1, k7v), starts, steps, y0s,
                 stages, naccept, nreject)


def _end(rec: _March) -> tuple:
    """How a march ended: (class, r_end, coef).  The class is that of the
    first zero crossing of u or v inside the last step, located by
    bisection on that step's quartic down to a radius width of _EVENT_TOL,
    and r_end that zero; or None and the right end of the last step, when
    no field reached zero.  ``coef`` is the last step's (4, 4) quartic."""
    coef = np.array(rec.stages[-28:]).reshape(4, 7) @ _PD
    r, h = rec.starts[-1], rec.steps[-1]
    if not rec.hit_zero:
        return None, r + h, coef
    hit = None
    for comp, kind in ((0, ProfileClass.U_HITS_ZERO),
                       (2, ProfileClass.V_HITS_ZERO)):
        y0, c = rec.y0s[comp - 4], coef[comp].tolist()
        if y0 > 0.0 and rec.end[comp] <= 0.0:
            th = _bisect(lambda t: 1 if _horner(y0, h, t, c) > 0.0 else -1,
                         0.0, 1.0, _EVENT_TOL / h, 200)[1]
            if hit is None or th < hit[0]:
                hit = (th, kind)
    th_star, kind = hit
    return kind, r + th_star * h, coef


def integrate(params: ParameterTriple, init: InitialData, r_max: float,
              opts: SolverOptions | None = None) -> RadialProfile:
    """Adaptive integration from the origin; see module docstring.

    ``_march`` plus the profile builder (``_profile``).
    """
    opts = SolverOptions() if opts is None else opts
    opts.validate()
    return _profile(params, init, opts, _finish(_march(params, init, r_max, opts)))


def _finish(march, rec: _March | None = None) -> _March:
    """The record at the end of a march, run on from where it stands; rec
    is the last record it yielded, if any."""
    for rec in march:
        pass
    return rec


def _profile(params: ParameterTriple, init: InitialData, opts: SolverOptions,
             rec: _March) -> RadialProfile:
    """The profile of a finished march: how it ended (``_end``), the dense
    output of all accepted steps and the output grid from r_first."""
    taylor, steps = rec.taylor, rec.steps
    # one evaluation at the series start, then six per attempted step (FSAL)
    stats = IntegratorStats(
        steps=rec.naccept, rejected=rec.nreject,
        min_step=min(steps), max_step=max(steps),
        nfev=1 + 6 * (rec.naccept + rec.nreject),
    )
    dense = _Dense(taylor, rec.starts, steps, rec.y0s, rec.stages)
    kind, r_end, _ = _end(rec)
    r_event = None if kind is None else r_end
    classification = kind or (ProfileClass.ENTIRE_POSITIVE
                              if r_end >= opts.r_target else ProfileClass.TRUNCATED)
    grid = np.geomspace(taylor.r_first, r_end, GRID_NODES)
    grid[0] = taylor.r_first
    grid[-1] = r_end
    vals = dense.grid(grid)
    return RadialProfile(
        p=params.p, q=params.q, N=params.N, u0=init.u0, v0=init.v0,
        r=grid, u=vals[0], v=vals[2], du=vals[1], dv=vals[3],
        classification=classification, r_event=r_event,
        rtol=opts.rtol, atol=opts.atol, stats=stats, dense=dense,
    )


@dataclass(frozen=True)
class ShootResult:
    v0: float
    profile: RadialProfile
    iterations: int
    bracket_width: float


def shoot(params: ParameterTriple, u0: float, v0_bracket: tuple,
          opts: SolverOptions | None = None, *, polish: bool = False) -> ShootResult:
    """Find v0 whose trajectory stays positive through r_target.

    Needs the singular pair (``derive_scaling``), else DomainError before
    any integration.  The bracket endpoints, each read by a bare march to
    r_target, must fail in opposite ways there (one u-zero, one v-zero),
    else BracketError.  On the diagonal p = q with u0 inside the bracket,
    v0 = u0 is exact (u equals v bit for bit); that profile is returned
    with ``iterations`` 0 and ``bracket_width`` 0.

    Otherwise the root finder searches the whole bracket for the zero of
    a matching functional g(v0), read at the probe radius
    R = min(r_target, 1e2) from a probe marched toward r_target and paused
    just past R.  The shot returns the full-accuracy read of smallest |g|
    (the bracket ends among them), which is an end of the final bracket
    since g is monotone there, and its profile is that read's march run on
    to r_target: bit for bit the profile ``integrate`` gives at that v0.
    Off the entire-solution manifold by d = v0 - v0*, a trajectory deviates like |d| (r/R)^-kappa, with
    kappa = kappa_min the transverse root of
    ``closed_form.indicial_exponents``, real and negative for every triple.
    So g is the transverse coefficient l.(Y - P) at R (``_reader``) on a
    probe that reaches R, which equals log(u/u_s) - log(v/v_s) to first
    order on that mode and is blind to the three decaying ones, and
    +-(r_ev/R)^kappa on one that hits zero at r_ev (the ends among them),
    positive where v falls first; both are about proportional to d.  At
    R = 1e2 the deviation from P is about 1e-7, so the quadratic
    remainder that l neglects is about 1e-14.

    The search has two phases.  The coarse one marches its probes at
    rtol = max(rtol, 1e-6) and atol = max(atol, 1e-8), since far from the
    root only the sign and rough size of g matter, and stops at a relative
    bracket width of 1e-7.  Each end of its bracket is probed
    again at the caller's tolerances, unless g is known there at those
    already (no v0 is marched twice at one set of tolerances); if both keep
    their signs, the full-accuracy phase narrows that bracket, else it
    searches the whole original bracket.  So both ends of the final bracket
    were integrated at the caller's tolerances, and a plain shot returns a
    v0 as good as its best probe, often within a few ulp of the polished
    one.  While the bracket spans more than a factor of 2, either phase
    halves it in log v0.  ``polish`` only sets where the search stops: at
    4 ulp, which places v0 on the entire-solution manifold to a few ulp,
    or at a relative width of ``V0_TOL`` = 1e-13.  ``iterations`` counts
    the probes to R of both phases and ``bracket_width`` is the final
    bracket.
    """
    opts = SolverOptions() if opts is None else opts
    opts.validate()
    scaling = derive_scaling(params)
    lo, hi = v0_bracket
    if not (_is_finite(lo) and _is_finite(hi) and 0.0 < lo < hi):
        raise DomainError("need 0 < lo < hi < inf in the v0 bracket")
    lo, hi = float(lo), float(hi)
    if not (_is_finite(u0) and u0 > 0.0):
        raise DomainError("u0 must be positive and finite")

    R = min(opts.r_target, _PROBE_RADIUS)
    read = _reader(params, scaling, u0, R, opts)
    ends = [read(lo, opts.r_target), read(hi, opts.r_target)]
    (kind_lo, g_lo), (kind_hi, g_hi) = ((e.kind, e.g) for e in ends)
    if {kind_lo, kind_hi} != {ProfileClass.U_HITS_ZERO, ProfileClass.V_HITS_ZERO}:
        # an end without a zero stayed positive through r_target
        lo_name, hi_name = ((k or ProfileClass.ENTIRE_POSITIVE).value
                            for k in (kind_lo, kind_hi))
        raise BracketError(
            f"bracket endpoints must fail in opposite ways, got "
            f"{lo_name} at {lo} and {hi_name} at {hi}"
        )
    # the full-accuracy read of smallest |g| so far: of all the marches of
    # a shot, only its march is kept
    best = min(ends, key=lambda e: abs(e.g))
    del ends

    if params.p == params.q and lo < u0 < hi:
        # the diagonal is invariant: v0 = u0 gives u identical to v
        prof = integrate(params, InitialData(u0, u0), opts.r_target, opts)
        if prof.r_event is None:
            return ShootResult(u0, prof, 0, 0.0)

    # g by (options, v0), seeded with the ends; each miss is one probe
    memo = {(opts, lo): g_lo, (opts, hi): g_hi}

    def probe(o: SolverOptions):
        full = o == opts
        read_o = read if full else _reader(params, scaling, u0, R, o)

        def g(v0: float) -> float:
            nonlocal best
            if (o, v0) not in memo:
                got = read_o(v0)
                memo[o, v0] = got.g
                if full and abs(got.g) < abs(best.g):
                    best = got
            return memo[o, v0]
        return g

    # positive on pa's side, where v falls first
    pa, pb, fpa, fpb = ((lo, hi, g_lo, g_hi)
                        if kind_lo == ProfileClass.V_HITS_ZERO
                        else (hi, lo, g_hi, g_lo))
    coarse = replace(opts, rtol=max(opts.rtol, _COARSE_RTOL),
                     atol=max(opts.atol, _COARSE_ATOL))
    fine = probe(opts)
    tol = 4.0 * _EPS if polish else V0_TOL
    a, b = _bisect(probe(coarse), pa, pb, _COARSE_WIDTH,
                   _SHOOT_MAX_ITER, fpa, fpb, geometric=True)
    # the fine phase starts from the coarse bracket only if both its ends
    # keep their signs at the caller's tolerances
    fa, fb = fine(a), fine(b)
    if not fa >= 0.0 >= fb:
        a, b, fa, fb = pa, pb, fpa, fpb
    spent = len(memo) - 2
    a, b = _bisect(fine, a, b, tol, max(_SHOOT_MAX_ITER - spent, 0),
                   fa, fb, geometric=True)
    # g is monotone across the final bracket, so the best read is its end
    # of smaller |g|; that march goes on to r_target
    profile = _profile(params, InitialData(u0, best.v0), opts,
                       _finish(best.march, best.rec))
    return ShootResult(best.v0, profile, len(memo) - 2, abs(b - a))


# one read of g: the class of the first zero of u or v before the read
# radius (None if none), g, v0, and the march with its last record
_Read = namedtuple("_Read", "kind g v0 march rec")


def _reader(params: ParameterTriple, scaling: ScalingData, u0: float,
            R: float, opts: SolverOptions):
    """``shoot``'s reader of g at probe radius R: ``read(v0, r=R)`` marches
    from (u0, v0) toward r_target at opts and pauses it after the step that
    passes r (``_march``), without dense output or grid, and returns a
    ``_Read``.  On a march that reached r with u and v positive through the
    end of that step, g is the transverse coefficient l.(Y - P) of
    ``closed_form.transverse_covector``, with Y = (r^alpha u,
    r^alpha (alpha u + r u'), r^beta v, r^beta (beta v + r v')) read at r
    from that step's quartic, as ``integrate``'s dense output reads it, and
    P = (a, 0, b, 0).  On one that hit zero at r_ev, in that step or
    before, g is +-(r_ev/R)^kappa_min, positive where v falls first."""
    kappa, (l1, l2, l3, l4) = transverse_covector(scaling)
    a, b, alpha, beta = scaling.a, scaling.b, scaling.alpha, scaling.beta

    def read(v0: float, r: float = R) -> _Read:
        march = _march(params, InitialData(u0, v0), opts.r_target, opts, r)
        rec = next(march)
        kind, rr, coef = _end(rec)
        if kind is not None:
            # positive where v falls first (small v0); capped: an event
            # near the origin must not overflow
            side = 1.0 if kind == ProfileClass.V_HITS_ZERO else -1.0
            g = side * math.exp(min(700.0, kappa * math.log(rr / R)))
            return _Read(kind, g, v0, march, rec)
        # np.clip's theta, as _Dense.grid
        rr = r if r < rr else rr
        start, h = rec.starts[-1], rec.steps[-1]
        th = (rr - start) / h
        th = 0.0 if th < 0.0 else 1.0 if th > 1.0 else th
        u, du, v, dv = (_horner(y0, h, th, c)
                        for y0, c in zip(rec.y0s[-4:], coef.tolist()))
        ra, rb = rr ** alpha, rr ** beta
        g = (l1 * (ra * u - a) + l2 * (ra * (alpha * u + rr * du))
             + l3 * (rb * v - b) + l4 * (rb * (beta * v + rr * dv)))
        return _Read(None, g, v0, march, rec)

    return read


def rescale(profile: RadialProfile, scaling: ScalingData, R: float) -> RadialProfile:
    """Scale-invariance map (u, v)(r) -> (R^alpha u(R r), R^beta v(R r)).

    The rescaled grid is r_i / R so every sample reuses an existing node
    exactly; derivatives pick up one extra power of R.  The result solves
    the same system because alpha + 2 = beta p and beta + 2 = alpha q.
    """
    if not (_is_finite(R) and R > 0.0):
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
    r_end = float(r[-1])
    mask = r >= r_end / 10.0
    lr = np.log(r[mask])
    lv = np.log(profile.v[mask])
    slope, intercept = np.polyfit(lr, lv, 1)
    beta_hat = -float(slope)
    C = math.exp(float(intercept))
    if beta_hat * p <= 2.0:
        tail = math.inf
    else:
        tail = C ** p * r_end ** (2.0 - beta_hat * p) / (beta_hat * p - 2.0)
    total = head + body + tail
    residual = abs(profile.u0 - total / (N - 2.0)) / profile.u0
    share = tail / total if math.isfinite(tail) else 1.0
    return DecayReport(residual=residual, tail_share=share, fitted_slope=-beta_hat)


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
        "r_max": float(profile.r[-1]),
        "rtol": profile.rtol,
        "atol": profile.atol,
        "grid_nodes": int(profile.r.size),
        "stats": asdict(profile.stats),
    }


def profile_to_csv(profile: RadialProfile) -> str:
    """The profile's nodes as ``r,u,v,du,dv`` CSV rows."""
    columns = (profile.r, profile.u, profile.v, profile.du, profile.dv)
    return to_csv(["r", "u", "v", "du", "dv"],
                  zip(*(a.tolist() for a in columns)))


def profile_from_text(csv_text: str, json_text: str) -> RadialProfile:
    """The profile that ``profile_to_csv`` and ``profile_metadata`` stored;
    DomainError for a document that is not one (cut short, non-numeric or
    non-finite cells, radii that decrease, keys missing, a (p, q, N) or
    tolerances that ``ParameterTriple`` or ``SolverOptions`` refuse)."""
    import json as _json

    try:
        meta = _json.loads(json_text)
        if not isinstance(meta, dict) or meta.get("kind") != "radial_profile":
            raise DomainError("not a radial-profile metadata document")
        header, _, body = csv_text.strip().partition("\n")
        if header != "r,u,v,du,dv":
            raise DomainError("unexpected CSV header for a radial profile")
        if any(ln.count(",") != 4 for ln in body.split("\n")):
            raise ValueError("a radial-profile CSV needs rows of 5 numbers")
        # one split and one conversion for all cells
        data = np.array(body.replace("\n", ",").split(","),
                        dtype=float).reshape(-1, 5)
        if not np.isfinite(data).all():  # float() reads "nan" and "inf"
            raise ValueError("a radial-profile CSV cell is not finite")
        if np.any(np.diff(data[:, 0]) < 0.0):
            raise ValueError("the radii of a radial-profile CSV decrease")
        stats = meta["stats"]
        params = ParameterTriple(**meta["params"])
        SolverOptions(rtol=meta["rtol"], atol=meta["atol"]).validate()
        return RadialProfile(
            p=params.p, q=params.q, N=params.N,
            u0=float(meta["u0"]), v0=float(meta["v0"]),
            r=data[:, 0], u=data[:, 1], v=data[:, 2], du=data[:, 3],
            dv=data[:, 4],
            classification=ProfileClass(meta["classification"]),
            r_event=None if meta["r_event"] is None else float(meta["r_event"]),
            rtol=float(meta["rtol"]), atol=float(meta["atol"]),
            stats=IntegratorStats(
                steps=int(stats["steps"]), rejected=int(stats["rejected"]),
                min_step=float(stats["min_step"]),
                max_step=float(stats["max_step"]), nfev=int(stats["nfev"]),
            ),
            dense=None,
        )
    except (KeyError, TypeError, ValueError, DomainError) as exc:
        raise DomainError(f"malformed stored profile: {exc!r}") from exc
