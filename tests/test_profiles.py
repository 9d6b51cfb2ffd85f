import math

import numpy as np
import pytest

from lelab import DomainError, GridTooCoarse, ParameterTriple, derive_scaling
from lelab.closed_form import SingularSolution
from lelab.profiles import compare, truncate_profile
from lelab.radial import (InitialData, IntegratorStats, ProfileClass,
                          RadialProfile, SolverOptions, integrate, rescale,
                          shoot)

P33 = ParameterTriple(3, 3, 11)


@pytest.fixture(scope="module")
def below_curve_profile():
    return integrate(P33, InitialData(1.0, 1.0), 1e5)


def pseudo_profile(sc, u, v, r, dense=None, cls=ProfileClass.TRUNCATED):
    return RadialProfile(
        p=sc.p, q=sc.q, N=sc.N, u0=math.inf, v0=math.inf,
        r=r, u=u, v=v, du=np.gradient(u, r), dv=np.gradient(v, r),
        classification=cls, r_event=None,
        rtol=1e-10, atol=1e-12, stats=IntegratorStats(0, 0, 0.0, 0.0, 0),
        dense=dense,
    )


class TestCompare:
    def test_below_curve_oscillation(self, below_curve_profile):
        sc = derive_scaling(P33)
        rep = compare(below_curve_profile, sc)
        assert len(rep.crossings_u) >= 1
        assert rep.crossings_u == rep.crossings_v  # symmetric trajectory
        assert not rep.ordered
        assert rep.chain_deficit_p is None and rep.chain_deficit_q is None
        # refined crossing radii satisfy u = u_s via dense re-evaluation
        sol = SingularSolution(sc)
        for r_star in rep.crossings_u[:3]:
            u_val = below_curve_profile.dense(r_star)[0]
            assert u_val == pytest.approx(sol.u(r_star), rel=1e-7)

    def test_refuses_profile_of_another_triple(self, below_curve_profile):
        with pytest.raises(DomainError, match="compared against"):
            compare(below_curve_profile,
                    derive_scaling(ParameterTriple(9, 6, 11)))

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
            assert _crossings_one_field(r, rel, band, None, None) == expected

    def test_grid_too_coarse_detection(self):
        sc = derive_scaling(P33)
        sol = SingularSolution(sc)
        # several alternations hidden inside one coarse cell: u wobbles
        # around u_s at a frequency the 24-node grid cannot represent
        r = np.geomspace(1.0, 10.0, 24)

        def dense(rr):
            wob = 1.0 + 1e-3 * math.sin(200.0 * math.log(rr))
            uu = sol.u(rr) * wob
            return (uu, 0.0, float(sol.v(rr)), 0.0)

        u = np.array([dense(float(x))[0] for x in r])
        prof = pseudo_profile(sc, u, sol.v(r) * 0.999, r, dense=dense)
        with pytest.raises(GridTooCoarse):
            compare(prof, sc)


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

    def test_chain_violation_reported_for_small_window(self, below_curve_profile):
        # far below its supremum the truncated chain must fail; the report
        # carries the positive deficit instead of asserting
        sc = derive_scaling(P33)
        trunc = truncate_profile(below_curve_profile, 2.0)
        rep = compare(trunc, sc)
        if rep.ordered:
            assert rep.chain_deficit_p > 0.0
