#!/usr/bin/env python3
"""Ordering vs intersection of shot profiles against the singular solution.

Shoots the symmetric triples (3,3,11) (below the critical curve) and
(8,8,11) (above it), compares each entire profile with (u_s, v_s), and
writes the crossing radii to data/.  Below the curve the profile
oscillates around the singular solution; above it the profile stays
strictly ordered underneath.
"""

from pathlib import Path

from lelab.exponents import ParameterTriple, derive_scaling
from lelab.profiles import compare, truncate_profile
from lelab.radial import SolverOptions, shoot
from lelab.serialize import to_csv

OUT = Path(__file__).resolve().parent.parent / "data"


def run() -> None:
    OUT.mkdir(exist_ok=True)
    opts = SolverOptions(r_target=1e4)
    for p, q, N, r_trust in ((3, 3, 11, 1e4), (8, 8, 11, 1e3)):
        params = ParameterTriple(p, q, N)
        scaling = derive_scaling(params)
        res = shoot(params, 1.0, (0.5, 2.0), opts)
        prof = truncate_profile(res.profile, r_trust) \
            if r_trust < res.profile.r[-1] else res.profile
        rep = compare(prof, scaling)
        print(f"({p},{q},{N}): ordered={rep.ordered} "
              f"crossings_u={len(rep.crossings_u)} M1={rep.m1:.9f}")
        rows = [("u", r) for r in rep.crossings_u] + \
               [("v", r) for r in rep.crossings_v]
        path = OUT / f"crossings_p{p}_q{q}_N{N}.csv"
        path.write_text(to_csv(["field", "r"], rows))


if __name__ == "__main__":
    run()
