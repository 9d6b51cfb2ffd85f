import dataclasses
import json
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lelab import BracketError, DomainError, InvalidOptions, ParameterTriple, \
    StepUnderflow, derive_scaling
from lelab.closed_form import SingularSolution
from lelab.errors import MisclassifiedProfile
from lelab.radial import (InitialData, IntegratorStats, ProfileClass,
                          RadialProfile, SolverOptions, _horner,
                          decay_identity_check, integrate, ode_residual,
                          profile_from_text, profile_metadata, profile_to_csv,
                          reference_integrate, rescale, shoot)
from lelab.serialize import to_csv, to_json

P33 = ParameterTriple(3, 3, 11)
P32 = ParameterTriple(3, 2, 11)


@pytest.fixture(scope="module")
def symmetric_entire():
    return integrate(P33, InitialData(1.0, 1.0), 1e6)


def singular_pseudo_profile(sc, r_lo=0.1, r_hi=100.0, n=512, u0=math.inf):
    sol = SingularSolution(sc)
    r = np.geomspace(r_lo, r_hi, n)
    return RadialProfile(
        p=sc.p, q=sc.q, N=sc.N, u0=u0, v0=u0,
        r=r, u=sol.u(r), v=sol.v(r), du=sol.du(r), dv=sol.dv(r),
        classification=ProfileClass.ENTIRE_POSITIVE, r_event=None,
        r_max=r_hi, rtol=1e-10, atol=1e-12,
        stats=IntegratorStats(0, 0, 0.0, 0.0, 0), dense=None,
    )


class TestIntegrate:
    def test_symmetric_initial_data_gives_identical_fields(self, symmetric_entire):
        prof = symmetric_entire
        assert prof.classification is ProfileClass.ENTIRE_POSITIVE
        assert np.array_equal(prof.u, prof.v)
        assert np.array_equal(prof.du, prof.dv)

    def test_monotone_decrease_and_flux(self, symmetric_entire):
        prof = symmetric_entire
        assert np.all(np.diff(prof.u) < 0.0)
        assert np.all(np.diff(prof.v) < 0.0)
        flux = prof.r ** (prof.N - 1) * prof.du
        assert np.all(np.diff(flux) <= 1e-12 * np.abs(flux[:-1]))

    def test_large_v0_forces_u_to_zero(self):
        prof = integrate(P33, InitialData(1.0, 1000.0), 10.0)
        assert prof.classification is ProfileClass.U_HITS_ZERO
        # concavity estimate of the first zero: u ~ u0 - v0^p r^2 / (2N)
        r_est = math.sqrt(2 * 11 * 1.0 / 1000.0 ** 3)
        assert prof.r_event == pytest.approx(r_est, rel=0.05)
        assert prof.r_max == prof.r_event

    def test_adaptive_agrees_with_fixed_step_reference(self):
        cases = [
            (P33, InitialData(1.0, 1.0), 1e3),
            (P33, InitialData(1.0, 1000.0), 10.0),
            (P32, InitialData(1.0, 0.9), 100.0),
        ]
        for params, init, r_max in cases:
            prof = integrate(params, init, r_max,
                             SolverOptions(grid_nodes=512))
            ref = reference_integrate(params, init, prof.r)
            for got, want in ((prof.u, ref[0]), (prof.v, ref[2])):
                sup = np.max(np.abs(got - want)) / np.max(np.abs(want))
                assert sup < 1e-6

    def test_dense_output_matches_grid(self, symmetric_entire):
        # the vectorized grid and the scalar interpolant agree to 1 ulp
        prof = symmetric_entire
        scalar = np.array([prof.dense(float(r)) for r in prof.r]).T
        for got, want in zip((prof.u, prof.du, prof.v, prof.dv), scalar):
            assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))

    @pytest.mark.parametrize("v0", [1.0, 1000.0])
    def test_stats_step_extremes(self, v0):
        # min_step and max_step are read from the accepted steps after the
        # march, on a profile that reaches r_max and on one that hits zero
        prof = integrate(P33, InitialData(1.0, v0), 1e4)
        assert prof.stats.min_step == prof.dense.steps.min()
        assert prof.stats.max_step == prof.dense.steps.max()

    def test_truncated_when_target_not_reached(self):
        prof = integrate(P33, InitialData(1.0, 1.0), 100.0)
        assert prof.classification is ProfileClass.TRUNCATED

    def test_validation(self):
        with pytest.raises(DomainError):
            integrate(P33, InitialData(1.0, 1.0), -1.0)
        with pytest.raises(InvalidOptions):
            integrate(P33, InitialData(1.0, 1.0), 1.0, SolverOptions(rtol=-1))

    @pytest.mark.parametrize("field, value", [
        ("rtol", 2.0), ("rtol", 1.0), ("rtol", math.inf), ("atol", math.inf),
        ("event_tol", math.nan), ("r_target", math.inf),
        ("decay_threshold", math.inf), ("v0_tol", math.inf),
        # a bad probe radius once ended in a math domain error, 0 probed at
        # the default, and max_steps < 1 failed every integration later
        ("polish_probe", -5.0), ("polish_probe", math.inf),
        ("polish_probe", 0.0), ("max_steps", 0), ("max_steps", -1)])
    def test_options_refused(self, field, value):
        # rtol 2 once ended (3,3,11) in UHitsZero after 36 steps, and an
        # infinite tolerance in an OverflowError
        opts = SolverOptions(**{field: value})
        with pytest.raises(InvalidOptions, match=field):
            integrate(ParameterTriple(3, 3, 11), InitialData(1.0, 1.0), 1e6,
                      opts)
        with pytest.raises(InvalidOptions, match=field):
            shoot(ParameterTriple(8, 8, 11), 1.0, (0.5, 2.0), opts)
        with pytest.raises(DomainError):
            InitialData(0.0, 1.0)

    def test_step_underflow(self):
        with pytest.raises(StepUnderflow):
            integrate(P33, InitialData(1.0, 1.0), 10.0,
                      SolverOptions(min_step=0.5))


class TestStepper:
    def test_agrees_with_scipy_dop853(self, symmetric_entire):
        # independent oracle: scipy's DOP853 in t = log r from the same start
        from scipy.integrate import solve_ivp

        prof = symmetric_entire
        p, q, nm1 = prof.p, prof.q, prof.N - 1.0

        def rhs(t, y):
            r = math.exp(t)
            u, du, v, dv = y
            return [r * du, -r * max(v, 0.0) ** p - nm1 * du,
                    r * dv, -r * max(u, 0.0) ** q - nm1 * dv]

        lr = np.log(prof.r)
        y0 = [prof.u[0], prof.du[0], prof.v[0], prof.dv[0]]
        sol = solve_ivp(rhs, (lr[0], lr[-1]), y0, method="DOP853",
                        rtol=1e-12, atol=0.0, t_eval=lr)
        assert sol.success
        for got, want in zip((prof.u, prof.du, prof.v, prof.dv), sol.y):
            assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-9

    def test_quartics_join_at_step_ends(self, symmetric_entire):
        # each step's quartic at theta = 1 is the 5th-order update, which
        # the next step starts from up to the compensation carry
        dense = symmetric_entire.dense
        ends = _horner(dense.y0s[:-1], dense.steps[:-1, None], 1.0,
                       dense.coef[:-1].transpose(2, 0, 1))
        starts = dense.y0s[1:]
        assert np.all(np.abs(ends - starts) <= 8.0 * np.spacing(np.abs(starts)))

    @pytest.mark.parametrize("u0,v0,kind", [
        (1.0, 1000.0, ProfileClass.U_HITS_ZERO),
        (1000.0, 1.0, ProfileClass.V_HITS_ZERO),
        (1.0, 1.2, ProfileClass.U_HITS_ZERO),
        (1.0, 0.8, ProfileClass.V_HITS_ZERO),
    ])
    def test_event_radius_at_a_sign_change(self, u0, v0, kind):
        opts = SolverOptions()
        prof = integrate(P32, InitialData(u0, v0), 1e3, opts)
        assert prof.classification is kind
        comp = 0 if kind is ProfileClass.U_HITS_ZERO else 2
        r_ev = prof.r_event
        assert prof.r[-1] == r_ev
        assert prof.dense(r_ev)[comp] <= 0.0 < prof.dense(r_ev - opts.event_tol)[comp]
        # the other field is still positive there
        assert prof.dense(r_ev)[2 - comp] > 0.0


class TestShoot:
    def test_symmetric_shortcut(self):
        res = shoot(P33, 1.0, (0.5, 2.0), SolverOptions(r_target=1e4))
        assert res.v0 == 1.0
        assert res.iterations == 0
        assert res.profile.classification is ProfileClass.ENTIRE_POSITIVE
        # the diagonal shot is symmetric bit for bit
        assert np.array_equal(res.profile.u, res.profile.v)
        assert np.array_equal(res.profile.du, res.profile.dv)

    def test_asymmetric_below_curve(self):
        opts = SolverOptions(r_target=1000.0)
        res = shoot(P32, 1.0, (0.05, 5.0), opts)
        assert res.profile.r_event is None
        assert res.profile.r_max >= 1000.0
        # independently scanned transition: between 1.05 (v hits zero)
        # and 1.10 (u hits zero)
        assert 1.05 < res.v0 < 1.10

    def test_bracket_already_narrow(self):
        # a bracket inside v0_tol needs no probe: its midpoint is integrated
        # once, to r_target
        opts = SolverOptions(r_target=1000.0, v0_tol=10.0)
        res = shoot(P32, 1.0, (0.05, 5.0), opts)
        assert (res.v0, res.iterations, res.bracket_width) == (2.525, 0, 4.95)
        assert res.profile.v0 == 2.525
        assert res.profile.r_max == 1000.0 or res.profile.r_event is not None

    def test_bracket_error(self):
        opts = SolverOptions(r_target=1000.0)
        with pytest.raises(BracketError):
            shoot(P32, 1.0, (2.0, 5.0), opts)  # both sides crash in u

    def test_polish_reaches_machine_width(self):
        opts = SolverOptions(r_target=1e5)
        res = shoot(ParameterTriple(9, 6, 11), 1.0, (0.2, 5.0), opts,
                    polish=True)
        assert res.polished
        assert res.bracket_width < 1e-13


    def test_polished_probe_count(self, monkeypatch):
        # the search reads the matching functional's value: about half the
        # ceil(log2(width / (4 ulp v0))) = 53 probes of bisection over the
        # whole bracket down to 4 ulp, after the two endpoint checks; then
        # one run to r_target
        from lelab import radial

        # every integration, profile or bare probe, is one march
        radii = []
        real = radial._march

        def counted(params, init, r_max, opts):
            radii.append(r_max)
            return real(params, init, r_max, opts)

        monkeypatch.setattr(radial, "_march", counted)
        lo, hi = 0.2, 5.0
        res = shoot(ParameterTriple(9, 6, 11), 1.0, (lo, hi), SolverOptions(),
                    polish=True)
        probes = len(radii) - 1
        assert probes - 2 <= 26
        assert res.iterations == probes - 2
        assert radii[-1] == 1e6 and set(radii[2:-1]) == {1e4}
        assert res.bracket_width <= 4 * np.finfo(float).eps * res.v0
        assert res.profile.classification is ProfileClass.ENTIRE_POSITIVE

    def test_plain_probe_count_below_curve(self):
        # below the curve too the transverse mode is real (kappa_min =
        # -2.47 on (6,4,11)), and the search reads values: bisection to
        # v0_tol takes 46 probes
        res = shoot(ParameterTriple(6, 4, 11), 1.0, (0.2, 5.0))
        assert res.iterations <= 24
        assert res.bracket_width <= SolverOptions().v0_tol * res.v0

    def test_bracket_end_near_blowup(self):
        # at v0 = 1e33 u hits zero at r = 1.9e-148, whose value
        # (r_ev / R)^kappa_min would overflow a double
        res = shoot(ParameterTriple(9, 6, 11), 1.0, (0.2, 1e33),
                    SolverOptions(v0_tol=1e-6))
        assert res.v0 == pytest.approx(1.0357844085, abs=1e-5)
        # the wide bracket is halved in log v0: 185 probes when it was
        # halved in v0
        assert res.iterations <= 80

    def test_polish_sets_only_the_stopping_width(self, monkeypatch):
        # with and without polish the shot searches the same functional at
        # the same probe radius; only the final bracket differs
        from lelab import radial

        real = radial._march
        radii = []

        def counted(params, init, r_max, opts):
            radii.append(r_max)
            return real(params, init, r_max, opts)

        monkeypatch.setattr(radial, "_march", counted)
        shots = {}
        for polish in (False, True):
            radii.clear()
            res = shots[polish] = shoot(ParameterTriple(9, 6, 11), 1.0,
                                        (0.2, 5.0), polish=polish)
            assert res.polished is polish
            # two endpoint runs, the probes, one run to r_target
            assert res.iterations == len(radii) - 3
            assert radii[:2] == [1e6, 1e6] and radii[-1] == 1e6
            assert set(radii[2:-1]) == {1e4}
        plain, polished = shots[False], shots[True]
        assert abs(plain.v0 - polished.v0) <= \
            SolverOptions().v0_tol * max(1.0, polished.v0)
        assert plain.bracket_width > polished.bracket_width
        assert plain.iterations < polished.iterations

    def test_no_singular_pair_refused_before_integrating(self, monkeypatch):
        # alpha = 13.75 >= N - 2: no singular pair to match, so no shot
        from lelab import radial

        radii = []
        monkeypatch.setattr(radial, "integrate",
                            lambda *a, **k: radii.append(a[2]))
        with pytest.raises(DomainError):
            shoot(ParameterTriple(1.2, 1.1, 5), 1.0, (0.05, 5.0))
        assert radii == []

    def test_polished_diagonal_is_exact(self):
        res = shoot(ParameterTriple(8, 8, 11), 1.0, (0.5, 2.0), SolverOptions(),
                    polish=True)
        assert res.v0 == 1.0
        assert res.polished and res.iterations == 0
        assert np.array_equal(res.profile.u, res.profile.v)
        assert np.array_equal(res.profile.du, res.profile.dv)


@pytest.fixture
def marches(monkeypatch):
    """``runs``: every march, at the ``_march`` seam, as (r_max, v0, rtol,
    atol, accepted + rejected steps); ``brackets``: the start and end
    brackets of each of a shot's searches."""
    from lelab import radial

    log = SimpleNamespace(runs=[], brackets=[])
    march, bisect = radial._march, radial._bisect

    def counted(params, init, r_max, opts):
        rec = march(params, init, r_max, opts)
        log.runs.append((r_max, init.v0, opts.rtol, opts.atol,
                         rec.naccept + rec.nreject))
        return rec

    def searched(f, a, b, *args, **kwargs):
        ends = bisect(f, a, b, *args, **kwargs)
        if kwargs.get("geometric"):  # the shot's, not the event's
            log.brackets.append(((a, b), ends))
        return ends

    monkeypatch.setattr(radial, "_march", counted)
    monkeypatch.setattr(radial, "_bisect", searched)
    return log


# the shots of the benchmark's shoot workload: (triple, polish)
WORKLOAD_SHOTS = [((9, 6, 11), True), ((12, 7, 11), True), ((6, 4, 11), False)]


class TestTwoPhaseShot:
    # a coarse search at loose tolerances, a check of its ends at the
    # caller's, and a full-accuracy search from there

    def test_probe_steps_of_the_workload_shots(self, marches):
        # 35,108 accepted and rejected probe steps when every probe ran at
        # the caller's tolerances
        for triple, polish in WORKLOAD_SHOTS:
            shoot(ParameterTriple(*triple), 1.0, (0.2, 5.0), polish=polish)
        assert sum(m[4] for m in marches.runs if m[0] == 1e4) <= 26_000

    @pytest.mark.parametrize("triple, polish, rtol", [
        *((t, p, 1e-10) for t, p in WORKLOAD_SHOTS), ((9, 6, 11), True, 1e-12)])
    def test_bracket_ends_marched_at_the_callers_options(self, marches, triple,
                                                         polish, rtol):
        opts = SolverOptions(rtol=rtol)
        res = shoot(ParameterTriple(*triple), 1.0, (0.2, 5.0), opts,
                    polish=polish)
        (_, coarse), (start, (a, b)) = marches.brackets
        assert abs(b - a) == res.bracket_width and 0.5 * (a + b) == res.v0
        assert start == coarse  # the coarse signs held
        # the ends of both the coarse and the final bracket
        full = {m[1] for m in marches.runs
                if (m[2], m[3]) == (rtol, opts.atol)}
        assert {a, b, *coarse} <= full
        # the coarse phase did run, at its own tolerances
        assert {(m[2], m[3]) for m in marches.runs} == {
            (rtol, opts.atol), (1e-6, 1e-8)}

    @pytest.mark.parametrize("polish", [False, True])
    @pytest.mark.parametrize("rtol, atol", [
        (1e-10, 1e-12), (1e-6, 1e-8), (1e-5, 1e-7)])
    def test_no_v0_marched_twice_with_the_same_options(self, marches, rtol,
                                                       atol, polish):
        # at or above the coarse floors the coarse probes already ran at
        # the caller's tolerances: the ends of their bracket are read, not
        # marched again
        res = shoot(ParameterTriple(9, 6, 11), 1.0, (0.2, 5.0),
                    SolverOptions(rtol=rtol, atol=atol), polish=polish)
        runs = Counter(m[:4] for m in marches.runs)
        assert max(runs.values()) == 1
        # two endpoint runs and one to r_target besides the probes
        assert res.iterations == len(marches.runs) - 3

    def test_reused_coarse_ends_keep_the_shot(self):
        # reading the coarse ends instead of marching them again leaves v0*
        # of the (9,6,11) shot at the coarse tolerances bit for bit, with
        # two probes fewer than the 22 of marching them again
        res = shoot(ParameterTriple(9, 6, 11), 1.0, (0.2, 5.0),
                    SolverOptions(rtol=1e-6, atol=1e-8))
        assert res.v0 == 1.0357844087958794
        assert res.iterations == 20

    def test_coarse_sign_disagreement_restarts_from_the_ends(self, marches,
                                                             monkeypatch):
        # coarse probes that see the root 1% too high: their bracket fails
        # the check at full accuracy, and the fine search starts again
        # from the original ends
        from lelab import radial

        params = ParameterTriple(9, 6, 11)
        plain = shoot(params, 1.0, (0.2, 5.0))
        real = radial._matching

        def skewed(params, scaling, u0, R, opts):
            match, probe = real(params, scaling, u0, R, opts)
            if opts.rtol == SolverOptions().rtol:
                return match, probe
            return match, lambda v0: probe(v0 / 1.01)

        monkeypatch.setattr(radial, "_matching", skewed)
        marches.brackets.clear()
        res = shoot(params, 1.0, (0.2, 5.0))
        (coarse_start, coarse_ends), (fine_start, fine_ends) = marches.brackets
        assert coarse_start == fine_start == (0.2, 5.0)
        assert min(coarse_ends) > 1.005 * plain.v0
        assert abs(res.v0 - plain.v0) <= SolverOptions().v0_tol * plain.v0
        assert res.profile.classification is not ProfileClass.TRUNCATED


class TestProbeReader:
    # shot probes march to the probe radius without building a profile and
    # read g from the last step alone; they must give the float that
    # ``match`` reads from the full profile.  Offsets 1e-1 to 1e-6 from v0*
    # hit zero (u above v0*, v below), 1e-9 and 1e-12 reach R (except 1e-9
    # on (6,4,11) at 1e4); R is the default probe radius and an arbitrary one.
    @pytest.mark.parametrize("R", [1e4, 2718.2818])
    @pytest.mark.parametrize("triple, v0_star", [
        ((9, 6, 11), 1.0357844085), ((12, 7, 11), 1.0376085531),
        ((6, 4, 11), 1.0481601140)])
    def test_probe_equals_match_of_profile(self, triple, v0_star, R):
        from lelab.radial import _matching

        params = ParameterTriple(*triple)
        opts = SolverOptions()
        match, probe = _matching(params, derive_scaling(params), 1.0, R, opts)
        kinds = set()
        for k in (1, 3, 6, 9, 12):
            for sign in (-1.0, 1.0):
                v0 = v0_star * (1.0 + sign * 10.0 ** -k)
                prof = integrate(params, InitialData(1.0, v0), R, opts)
                kinds.add(prof.classification)
                assert probe(v0) == match(prof), (v0, prof.classification)
        assert kinds == {ProfileClass.U_HITS_ZERO, ProfileClass.V_HITS_ZERO,
                         ProfileClass.TRUNCATED}


class TestTransverseModel:
    def test_event_radius_scales_with_the_indicial_exponent(self):
        # the shot's value model: off the manifold by d = v0 - v0*, a
        # trajectory deviates like |d| r^-kappa_min and hits zero where that
        # is O(1), so log r_ev against log |d| has slope 1/kappa_min on
        # each side of v0*; kappa_min comes from the closed-form quartic
        from lelab.closed_form import indicial_exponents

        params = ParameterTriple(9, 6, 11)
        v0_star = 1.0357844085117758  # bisected to 4 ulp at default options
        kappa = indicial_exponents(derive_scaling(params))[0]
        assert kappa.imag == 0.0 and kappa.real < 0.0
        d = np.logspace(-4, -8, 5)
        for sign, kind in ((1.0, ProfileClass.U_HITS_ZERO),
                           (-1.0, ProfileClass.V_HITS_ZERO)):
            r_ev = []
            for dd in d:
                prof = integrate(params, InitialData(1.0, v0_star + sign * dd),
                                 1e4)
                assert prof.classification is kind
                r_ev.append(prof.r_event)
            slope = np.polyfit(np.log(d), np.log(r_ev), 1)[0]
            assert slope * kappa.real == pytest.approx(1.0, abs=0.05)


class TestRescale:
    def test_identity_at_unit_scale(self, symmetric_entire):
        sc = derive_scaling(P33)
        resc = rescale(symmetric_entire, sc, 1.0)
        assert np.array_equal(resc.u, symmetric_entire.u)
        assert np.array_equal(resc.r, symmetric_entire.r)

    def test_singular_solution_is_fixed_point(self):
        sc = derive_scaling(P32)
        pseudo = singular_pseudo_profile(sc)
        resc = rescale(pseudo, sc, 8.0)
        sol = SingularSolution(sc)
        assert np.allclose(resc.u, sol.u(resc.r), rtol=1e-13)
        assert np.allclose(resc.v, sol.v(resc.r), rtol=1e-13)

    def test_rescaled_profile_keeps_small_residual(self, symmetric_entire):
        sc = derive_scaling(P33)
        base = ode_residual(symmetric_entire)
        resc = rescale(symmetric_entire, sc, 16.0)
        assert ode_residual(resc) <= 10.0 * base

    def test_rejects_bad_scale(self, symmetric_entire):
        sc = derive_scaling(P33)
        with pytest.raises(DomainError):
            rescale(symmetric_entire, sc, 0.0)


class TestDecayIdentity:
    def test_entire_profile_residual(self, symmetric_entire):
        rep = decay_identity_check(symmetric_entire)
        assert rep.residual < 1e-4
        assert rep.tail_share < 1e-3
        assert rep.fitted_slope == pytest.approx(-1.0, rel=0.01)

    def test_truncated_profile_reports_tail_share(self):
        prof = integrate(P33, InitialData(1.0, 1.0), 20.0)
        rep = decay_identity_check(prof)
        assert rep.residual > 0.1          # dominated by the missing tail
        assert rep.tail_share > 0.1        # caller is told to extend r_max

    def test_event_profile_rejected(self):
        prof = integrate(P33, InitialData(1.0, 1000.0), 10.0)
        with pytest.raises(MisclassifiedProfile):
            decay_identity_check(prof)

    def test_singular_pseudo_profile_rejected(self):
        sc = derive_scaling(P33)
        with pytest.raises(MisclassifiedProfile):
            decay_identity_check(singular_pseudo_profile(sc))


class TestSerialization:
    def test_round_trip_bit_exact(self, symmetric_entire):
        csv_text = profile_to_csv(symmetric_entire)
        json_text = to_json(profile_metadata(symmetric_entire))
        prof2 = profile_from_text(csv_text, json_text)
        assert profile_to_csv(prof2) == csv_text
        assert to_json(profile_metadata(prof2)) == json_text
        assert np.array_equal(prof2.u, symmetric_entire.u)
        assert prof2.classification is symmetric_entire.classification

    def test_csv_matches_row_path(self, symmetric_entire):
        # one %.17g format per row; the oracle is to_csv cell by cell,
        # non-finite values and a negative zero included
        u = symmetric_entire.u.copy()
        u[:4] = [math.nan, math.inf, -math.inf, -0.0]
        prof = dataclasses.replace(symmetric_entire, u=u)
        rows = zip(prof.r, prof.u, prof.v, prof.du, prof.dv)
        assert profile_to_csv(prof) == to_csv(["r", "u", "v", "du", "dv"],
                                              rows)

    def test_parse_matches_row_path(self, symmetric_entire):
        # one numpy conversion for all cells; the oracle is float() per
        # cell, on non-finite, signed-zero and subnormal cells too
        u = symmetric_entire.u.copy()
        u[:7] = [math.nan, math.inf, -math.inf, -0.0, 5e-324,
                 2.2250738585072009e-308, -1e-310]
        prof = dataclasses.replace(symmetric_entire, u=u)
        csv_text = profile_to_csv(prof)
        parsed = profile_from_text(csv_text, to_json(profile_metadata(prof)))
        rows = np.array([[float(c) for c in ln.split(",")]
                         for ln in csv_text.strip().split("\n")[1:]])
        for k, col in enumerate((parsed.r, parsed.u, parsed.v, parsed.du,
                                 parsed.dv)):
            assert np.array_equal(col.view(np.int64), rows[:, k].view(np.int64))

    @pytest.mark.parametrize("widths", [(6, 4), (4, 6), (5, 6), (4, 4)])
    def test_rows_of_unequal_width_refused(self, symmetric_entire, widths):
        # (6, 4) and (4, 6) hold ten cells, two rows' worth of five
        json_text = to_json(profile_metadata(symmetric_entire))
        body = "".join(",".join(["1.5"] * w) + "\n" for w in widths)
        with pytest.raises(DomainError):
            profile_from_text("r,u,v,du,dv\n" + body, json_text)

    def test_metadata_fields(self, symmetric_entire):
        meta = profile_metadata(symmetric_entire)
        assert meta["classification"] == "EntirePositive"
        assert meta["params"] == {"p": 3.0, "q": 3.0, "N": 11}
        parsed = json.loads(to_json(meta))
        assert parsed["stats"]["steps"] == symmetric_entire.stats.steps


class TestSolverProperties:
    @settings(max_examples=12, deadline=None)
    @given(
        p=st.floats(min_value=1.5, max_value=12.0),
        s=st.floats(min_value=0.0, max_value=1.0),
        N=st.integers(min_value=3, max_value=15),
        v0=st.floats(min_value=0.25, max_value=4.0),
    )
    def test_monotone_and_flux_invariants(self, p, s, N, v0):
        q = 1.0 + (p - 1.0) * s
        params = ParameterTriple(p, q, N)
        prof = integrate(params, InitialData(1.0, v0), 20.0,
                         SolverOptions(grid_nodes=128))
        assert np.all(np.diff(prof.u) < 0.0)
        assert np.all(np.diff(prof.v) < 0.0)
        for w in (prof.du, prof.dv):
            flux = prof.r ** (N - 1) * w
            # non-increasing up to the sampling noise of the interpolated
            # derivative, which scales like r^(N-1) (atol + rtol |w|)
            noise = prof.r ** (N - 1) * (1e-12 + 1e-10 * np.abs(w))
            assert np.all(np.diff(flux) <= 10.0 * noise[:-1])
