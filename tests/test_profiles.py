import math

import numpy as np
import pytest

from lelab import DomainError, ParameterTriple, derive_scaling
from lelab.closed_form import SingularSolution
from lelab.options import DEFAULT_BAND
from lelab.profiles import compare, truncate_profile
from lelab.radial import (InitialData, IntegratorStats, ProfileClass,
                          RadialProfile, SolverOptions, integrate,
                          profile_from_text, profile_metadata, profile_to_csv,
                          rescale, shoot)
from lelab.serialize import to_json

P33 = ParameterTriple(3, 3, 11)


@pytest.fixture(scope="module")
def below_curve_profile():
    return integrate(P33, InitialData(1.0, 1.0), 1e5)


def pseudo_profile(sc, u, v, r, cls=ProfileClass.TRUNCATED):
    return RadialProfile(
        p=sc.p, q=sc.q, N=sc.N, u0=math.inf, v0=math.inf,
        r=r, u=u, v=v, du=np.gradient(u, r), dv=np.gradient(v, r),
        classification=cls, r_event=None,
        rtol=1e-10, atol=1e-12, stats=IntegratorStats(0, 0, 0.0, 0.0, 0),
        dense=None,
    )


# the shoot benchmark's five profiles, at the default options: the plain
# (3,3,11) solve and its four shots
WORKLOAD_PROFILES = {
    "solve_3_3_11": lambda: integrate(P33, InitialData(1.0, 1.0), 1e6),
    "shot_8_8_11": lambda: shoot(ParameterTriple(8, 8, 11), 1.0,
                                 (0.5, 2.0)).profile,
    "polished_9_6_11": lambda: shoot(ParameterTriple(9, 6, 11), 1.0,
                                     (0.2, 5.0), polish=True).profile,
    "polished_12_7_11": lambda: shoot(ParameterTriple(12, 7, 11), 1.0,
                                      (0.2, 5.0), polish=True).profile,
    "plain_6_4_11": lambda: shoot(ParameterTriple(6, 4, 11), 1.0,
                                  (0.2, 5.0)).profile,
}


class TestCompare:
    def test_below_curve_oscillation(self, below_curve_profile):
        sc = derive_scaling(P33)
        rep = compare(below_curve_profile, sc)
        assert len(rep.crossings_u) >= 1
        assert rep.crossings_u == rep.crossings_v  # symmetric trajectory
        assert not rep.ordered
        assert rep.chain_deficit_p is None and rep.chain_deficit_q is None
        # each crossing lies strictly between the two out-of-band nodes that
        # bracket it, and the dense output's u - u_s changes sign there
        prof = below_curve_profile
        sol = SingularSolution(sc)
        outside = np.nonzero(np.abs(prof.u / sol.u(prof.r) - 1.0)
                             > rep.band_rel)[0]
        for r_star in rep.crossings_u[:3]:
            k = int(np.searchsorted(prof.r[outside], r_star))
            a, b = (float(prof.r[outside[k - 1]]), float(prof.r[outside[k]]))
            assert a < r_star < b
            du_a = prof.dense(a)[0] - sol.u(a)
            du_b = prof.dense(b)[0] - sol.u(b)
            assert du_a * du_b < 0.0

    def test_refuses_profile_of_another_triple(self, below_curve_profile):
        with pytest.raises(DomainError, match="compared against"):
            compare(below_curve_profile,
                    derive_scaling(ParameterTriple(9, 6, 11)))

    def test_band_is_rtol_floored(self, below_curve_profile):
        # the band is the profile's rtol, and DEFAULT_BAND = 1e-12 below it
        sc = derive_scaling(P33)
        assert compare(below_curve_profile, sc).band_rel == 1e-10
        fine = integrate(P33, InitialData(1.0, 1.0), 100.0,
                         SolverOptions(rtol=1e-13))
        assert compare(fine, sc).band_rel == DEFAULT_BAND == 1e-12

    @pytest.mark.parametrize("make", WORKLOAD_PROFILES.values(),
                             ids=WORKLOAD_PROFILES.keys())
    def test_stored_profile_compares_as_live(self, make):
        # lelab compare reads the stored CSV and JSON, without dense output;
        # compare reads only the grid, so the library gives the same report,
        # crossing radii and suprema included
        live = make()
        stored = profile_from_text(profile_to_csv(live),
                                   to_json(profile_metadata(live)))
        sc = derive_scaling(ParameterTriple(live.p, live.q, live.N))
        assert compare(stored, sc) == compare(live, sc)

    def test_degenerate_self_comparison(self):
        sc = derive_scaling(P33)
        sol = SingularSolution(sc)
        r = np.geomspace(0.1, 100.0, 256)
        prof = pseudo_profile(sc, sol.u(r), sol.v(r), r)
        rep = compare(prof, sc)
        assert rep.degenerate
        assert rep.m1 == 1.0
        assert rep.crossings_u == [] and rep.crossings_v == []
        assert not rep.ordered

    def test_constant_ratio_suprema_exact(self):
        sc = derive_scaling(P33)
        sol = SingularSolution(sc)
        r = np.geomspace(0.1, 100.0, 256)
        c = 0.5
        prof = pseudo_profile(sc, c * sol.u(r), c ** (1 / 3) * sol.v(r), r)
        rep = compare(prof, sc)
        assert rep.m1 == 0.5
        assert rep.m2 == pytest.approx(c ** (1 / 3), rel=1e-15)
        assert rep.ordered
        assert rep.interior_only

    def test_crossings_invariant_under_rescale(self, below_curve_profile):
        sc = derive_scaling(P33)
        rep = compare(below_curve_profile, sc)
        R = 4.0
        rep2 = compare(rescale(below_curve_profile, sc, R), sc)
        assert len(rep.crossings_u) == len(rep2.crossings_u)
        ratios = np.array(rep.crossings_u) / (R * np.array(rep2.crossings_u))
        assert np.allclose(ratios, 1.0, rtol=1e-9)

    def test_grid_crossings_match_the_node_loop(self, rng):
        # the sign flips are found by one array comparison; the reference
        # walks the consecutive nodes outside the dead band one by one
        from lelab.profiles import _crossings_one_field, _loglinear_root

        band = 1e-6
        r = np.geomspace(1e-2, 1e6, 2048)
        for _ in range(20):
            rel = rng.choice([-1.0, 0.0, 1.0], r.size, p=[0.3, 0.4, 0.3]) \
                * rng.uniform(0.5, 3.0, r.size) * band
            outside = [k for k in range(r.size) if abs(rel[k]) > band]
            expected = [
                _loglinear_root(float(r[i]), float(r[j]), float(rel[i]),
                                float(rel[j]))
                for i, j in zip(outside, outside[1:])
                if (rel[i] > 0.0) != (rel[j] > 0.0)]
            assert expected
            assert _crossings_one_field(r, rel, band) == expected


class TestRatioSuprema:
    def test_ordered_profile_chain(self):
        params = ParameterTriple(9, 6, 11)
        sc = derive_scaling(params)
        opts = SolverOptions(r_target=1e5, rtol=1e-12, atol=1e-14)
        res = shoot(params, 1.0, (0.2, 5.0), opts, polish=True)
        prof = truncate_profile(res.profile, 380.0)
        rep = compare(prof, sc)
        assert rep.ordered
        m1, m2 = rep.m1, rep.m2
        assert 0.0 < m1 < 1.0 and 0.0 < m2 < 1.0
        assert rep.chain_deficit_p == m1 - m2 ** params.p
        assert rep.chain_deficit_q == m2 - m1 ** params.q
        assert rep.chain_deficit_p < 1e-8
        assert rep.chain_deficit_q < 1e-8

    def test_truncation_flags(self, below_curve_profile):
        sc = derive_scaling(P33)
        trunc = truncate_profile(below_curve_profile, 50.0)
        assert trunc.classification is ProfileClass.TRUNCATED
        rep = compare(trunc, sc)
        assert rep.interior_only

    @pytest.mark.parametrize("r_cut", [math.nan, True, 0.0,
                                       pytest.param(10**400, id="10**400")])
    def test_truncation_radius_refused(self, below_curve_profile, r_cut):
        # nan once returned the whole profile unchanged, and 10**400 ended
        # in an OverflowError
        with pytest.raises(DomainError, match="truncation radius"):
            truncate_profile(below_curve_profile, r_cut)

    def test_chain_violation_reported_for_small_window(self, below_curve_profile):
        # far below its supremum the truncated chain must fail; the report
        # carries the positive deficit instead of asserting
        sc = derive_scaling(P33)
        trunc = truncate_profile(below_curve_profile, 2.0)
        rep = compare(trunc, sc)
        if rep.ordered:
            assert rep.chain_deficit_p > 0.0
