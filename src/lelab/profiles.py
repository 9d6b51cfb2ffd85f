"""Comparison of regular radial profiles with the singular solution.

Locates sign changes of u - u_s and v - v_s, computes the suprema
M1 = sup u/u_s and M2 = sup v/v_s over the profile grid, and reports the
deficits of the Newtonian-potential chain M1 <= M2^p, M2 <= M1^q for
ordered profiles.

Sign changes are counted with a dead band relative to |u_s| so that
rounding-level oscillations of a trajectory that has locked onto the
singular asymptote are not reported as crossings.  The band is never
narrower than the relative tolerance the profile was integrated to.
Everything is read off the profile grid: a crossing is a log-linear
secant between grid nodes, and the suprema are grid maxima.  A live
profile and the same profile stored and read back (``lelab compare``)
therefore give the same report; the dense output is not read.
Suprema over the unbounded domain are necessarily truncated at the
profile's outer radius; profiles that are not entire-positive are flagged
interior-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .closed_form import SingularSolution
from .errors import DomainError
from .exponents import ScalingData
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


def _loglinear_root(r0, r1, d0, d1) -> float:
    """Secant in log r on the relative difference between two grid nodes."""
    t = d0 / (d0 - d1)
    return math.exp(math.log(r0) + t * (math.log(r1) - math.log(r0)))


def _crossings_one_field(r, rel_diff, band):
    """Crossing radii of one field from its dead-band-quantized sign states:
    a log-linear secant between the last node outside the band on one side
    and the first on the other."""
    state = np.zeros(r.size, dtype=int)
    state[rel_diff > band] = 1
    state[rel_diff < -band] = -1
    idx = np.nonzero(state)[0]
    # consecutive nonzero states of opposite sign: one comparison for all
    flips = np.nonzero(state[idx[1:]] != state[idx[:-1]])[0]
    return [_loglinear_root(float(r[i]), float(r[j]),
                            float(rel_diff[i]), float(rel_diff[j]))
            for i, j in zip(idx[flips].tolist(), idx[flips + 1].tolist())]


def compare(profile: RadialProfile, scaling: ScalingData) -> ComparisonReport:
    """Sign-change count and ratio suprema of a profile against (u_s, v_s).

    The profile must belong to the scaling's triple (p, q, N).  The dead
    band is the profile's own rtol, floored at ``DEFAULT_BAND``: below it a
    sign of u/u_s - 1 is the solver's error, not the solution's; the report
    carries the band used.  Each crossing is the log-linear secant between
    the last grid node outside the band on one side and the first on the
    other; M1 and M2 are the grid maxima of u/u_s and v/v_s.

    On an ordered profile the chain M1 <= M2^p and M2 <= M1^q holds for the
    true suprema over (0, inf); the report carries the signed deficits
    M1 - M2^p and M2 - M1^q of the grid's suprema, which a truncated
    (``interior_only``) profile can leave positive."""
    if (profile.p, profile.q, profile.N) != (scaling.p, scaling.q, scaling.N):
        raise DomainError(
            f"profile of (p, q, N) = ({profile.p:g}, {profile.q:g}, "
            f"{profile.N}) compared against the singular pair of "
            f"({scaling.p:g}, {scaling.q:g}, {scaling.N})")
    band_rel = max(DEFAULT_BAND, profile.rtol)
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
        cross_u = _crossings_one_field(r, rel_u, band_rel)
        cross_v = _crossings_one_field(r, rel_v, band_rel)

    ratio_u = rel_u + 1.0
    ratio_v = rel_v + 1.0
    i1 = int(np.argmax(ratio_u))
    i2 = int(np.argmax(ratio_v))
    m1, rm1 = float(ratio_u[i1]), float(r[i1])
    m2, rm2 = float(ratio_v[i2]), float(r[i2])

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
