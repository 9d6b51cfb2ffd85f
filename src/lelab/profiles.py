"""Comparison of regular radial profiles with the singular solution.

Locates sign changes of u - u_s and v - v_s, computes the suprema
M1 = sup u/u_s and M2 = sup v/v_s over the profile grid, and reports the
deficits of the Newtonian-potential chain M1 <= M2^p, M2 <= M1^q for
ordered profiles.

Sign changes are counted with a dead band relative to |u_s| so that
rounding-level oscillations of a trajectory that has locked onto the
singular asymptote are not reported as crossings.  The band is never
narrower than the relative tolerance the profile was integrated to.
Suprema over the unbounded domain are necessarily truncated at the
profile's outer radius; profiles that are not entire-positive are flagged
interior-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .closed_form import SingularSolution
from .errors import DomainError, GridTooCoarse
from .exponents import ScalingData, _bisect
from .options import DEFAULT_BAND, _is_finite
from .radial import ProfileClass, RadialProfile

__all__ = ["ComparisonReport", "compare", "truncate_profile"]


@dataclass(frozen=True)
class ComparisonReport:
    crossings_u: list
    crossings_v: list
    m1: float
    m2: float
    r_m1: float
    r_m2: float
    ordered: bool
    degenerate: bool
    interior_only: bool
    band_rel: float
    # M1 - M2^p and M2 - M1^q when ordered, else None; not in as_dict
    chain_deficit_p: float | None
    chain_deficit_q: float | None

    def as_dict(self) -> dict:
        return {
            "crossings_u": list(self.crossings_u),
            "crossings_v": list(self.crossings_v),
            "M1": self.m1, "M2": self.m2,
            "r_M1": self.r_m1, "r_M2": self.r_m2,
            "ordered": self.ordered,
            "degenerate": self.degenerate,
            "interior_only": self.interior_only,
            "band_rel": self.band_rel,
        }


def truncate_profile(profile: RadialProfile, r_cut: float) -> RadialProfile:
    """Restrict a profile to grid radii <= r_cut (dense output kept)."""
    if not (_is_finite(r_cut) and r_cut > profile.r[0]):
        raise DomainError(f"truncation radius must be a finite number above "
                          f"the first grid node, got {r_cut!r:.40}")
    n = int(np.searchsorted(profile.r, r_cut, side="right"))
    cls = profile.classification
    if cls is ProfileClass.ENTIRE_POSITIVE and n < profile.r.size:
        cls = ProfileClass.TRUNCATED
    return replace(
        profile,
        r=profile.r[:n], u=profile.u[:n], v=profile.v[:n],
        du=profile.du[:n], dv=profile.dv[:n],
        classification=cls,
    )


def _field_dense(profile: RadialProfile, comp_idx: int):
    dense = profile.dense
    if dense is None:
        return None

    def f(r: float) -> float:
        return dense(r)[comp_idx]

    return f


def _refine_crossing(f, sing_val, a: float, b: float) -> float:
    """Bisect f(r) - sing_val(r) = 0 on [a, b] using the dense output."""
    pos_a = f(a) - sing_val(a) > 0.0
    a, b = _bisect(lambda r: 1 if (f(r) - sing_val(r) > 0.0) == pos_a else -1,
                   a, b, 1e-10, 200)
    return 0.5 * (a + b)


def _loglinear_root(r0, r1, d0, d1) -> float:
    # no dense output: secant in log r on the relative difference
    t = d0 / (d0 - d1)
    return math.exp(math.log(r0) + t * (math.log(r1) - math.log(r0)))


def _crossings_one_field(r, rel_diff, band, f_dense, sing_val):
    """Crossing radii of one field from its dead-band-quantized sign states."""
    state = np.zeros(r.size, dtype=int)
    state[rel_diff > band] = 1
    state[rel_diff < -band] = -1
    idx = np.nonzero(state)[0]
    # consecutive nonzero states of opposite sign: one comparison for all
    flips = np.nonzero(state[idx[1:]] != state[idx[:-1]])[0]
    crossings = []
    for i, j in zip(idx[flips].tolist(), idx[flips + 1].tolist()):
        if f_dense is None:
            crossings.append(_loglinear_root(float(r[i]), float(r[j]),
                                             float(rel_diff[i]), float(rel_diff[j])))
            continue
        root = _refine_crossing(f_dense, sing_val, float(r[i]), float(r[j]))
        if j - i <= 1:
            # adjacent nodes: make sure the cell hides no extra alternations
            sub = np.geomspace(r[i], r[j], 17)
            sgn = []
            for s in sub:
                sv = sing_val(float(s))
                d = (f_dense(float(s)) - sv) / sv
                sgn.append(1 if d > band else (-1 if d < -band else 0))
            nz = [s for s in sgn if s != 0]
            flips = sum(1 for a, b2 in zip(nz, nz[1:]) if a != b2)
            if flips > 1:
                raise GridTooCoarse(
                    f"{flips} sign alternations inside one grid cell near "
                    f"r={root:.6g}"
                )
        crossings.append(root)
    return crossings


def _refine_max(ratio, r, i, f_dense, sing_val):
    """Parabolic refinement (in log r) of a grid maximum of the ratio."""
    if i == 0 or i == r.size - 1 or f_dense is None:
        return float(ratio[i]), float(r[i])
    x0, x1, x2 = math.log(r[i - 1]), math.log(r[i]), math.log(r[i + 1])
    y0, y1, y2 = float(ratio[i - 1]), float(ratio[i]), float(ratio[i + 1])
    den = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
    if den == 0.0 or not math.isfinite(den):
        return y1, float(r[i])
    xv = x1 - 0.5 * ((x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)) / den
    if not (x0 < xv < x2) or not math.isfinite(xv):
        return y1, float(r[i])
    rv = math.exp(xv)
    val = f_dense(rv) / sing_val(rv)
    if val > y1:
        return float(val), rv
    return y1, float(r[i])


def compare(profile: RadialProfile, scaling: ScalingData,
            band_rel: float = DEFAULT_BAND) -> ComparisonReport:
    """Sign-change count and ratio suprema of a profile against (u_s, v_s).

    The profile must belong to the scaling's triple (p, q, N).  The dead
    band is band_rel (positive and finite) floored at the profile's own
    rtol: below it a sign of u/u_s - 1 is the solver's error, not the
    solution's; the report carries the band used.

    On an ordered profile the chain M1 <= M2^p and M2 <= M1^q holds for the
    true suprema over (0, inf); the report carries the signed deficits
    M1 - M2^p and M2 - M1^q of the grid's suprema, which a truncated
    (``interior_only``) profile can leave positive."""
    if (profile.p, profile.q, profile.N) != (scaling.p, scaling.q, scaling.N):
        raise DomainError(
            f"profile of (p, q, N) = ({profile.p:g}, {profile.q:g}, "
            f"{profile.N}) compared against the singular pair of "
            f"({scaling.p:g}, {scaling.q:g}, {scaling.N})")
    if not (_is_finite(band_rel) and band_rel > 0.0):
        raise DomainError(f"band_rel must be positive and finite, got {band_rel!r:.40}")
    band_rel = max(band_rel, profile.rtol)
    r = profile.r
    if np.any(r <= 0.0):
        raise DomainError("profile grid must be positive")
    sing = SingularSolution(scaling)
    us, vs = sing.u(r), sing.v(r)
    rel_u = profile.u / us - 1.0
    rel_v = profile.v / vs - 1.0

    degenerate = bool(np.all(np.abs(rel_u) <= band_rel)
                      and np.all(np.abs(rel_v) <= band_rel))
    cross_u: list = []
    cross_v: list = []
    if not degenerate:
        cross_u = _crossings_one_field(r, rel_u, band_rel,
                                       _field_dense(profile, 0), sing.u)
        cross_v = _crossings_one_field(r, rel_v, band_rel,
                                       _field_dense(profile, 2), sing.v)

    ratio_u = rel_u + 1.0
    ratio_v = rel_v + 1.0
    i1 = int(np.argmax(ratio_u))
    i2 = int(np.argmax(ratio_v))
    m1, rm1 = _refine_max(ratio_u, r, i1, _field_dense(profile, 0), sing.u)
    m2, rm2 = _refine_max(ratio_v, r, i2, _field_dense(profile, 2), sing.v)

    ordered = bool(
        not degenerate
        and not cross_u and not cross_v
        and np.all(rel_u <= band_rel) and np.all(rel_v <= band_rel)
    )
    interior_only = profile.classification is not ProfileClass.ENTIRE_POSITIVE
    deficit_p = deficit_q = None
    if ordered:
        deficit_p = m1 - m2 ** profile.p
        deficit_q = m2 - m1 ** profile.q
    return ComparisonReport(
        crossings_u=cross_u, crossings_v=cross_v,
        m1=m1, m2=m2, r_m1=rm1, r_m2=rm2,
        ordered=ordered, degenerate=degenerate,
        interior_only=interior_only, band_rel=band_rel,
        chain_deficit_p=deficit_p, chain_deficit_q=deficit_q,
    )
