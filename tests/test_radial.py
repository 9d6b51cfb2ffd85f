import dataclasses
import json
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lelab import BracketError, ConfigError, DomainError, ParameterTriple, \
    StepUnderflow, derive_scaling
from lelab.closed_form import SingularSolution
from lelab.errors import MisclassifiedProfile
from lelab.options import V0_TOL
from lelab.radial import (_EVENT_TOL, InitialData, IntegratorStats,
                          ProfileClass, RadialProfile, SolverOptions, _horner,
                          _TaylorStart, decay_identity_check, integrate,
                          profile_from_text, profile_metadata, profile_to_csv,
                          rescale, shoot)
from lelab.serialize import fmt_float, to_json

from references import ode_residual, reference_integrate

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
        rtol=1e-10, atol=1e-12,
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
        assert prof.r[-1] == prof.r_event

    def test_adaptive_agrees_with_fixed_step_reference(self):
        cases = [
            (P33, InitialData(1.0, 1.0), 1e3),
            (P33, InitialData(1.0, 1000.0), 10.0),
            (P32, InitialData(1.0, 0.9), 100.0),
        ]
        for params, init, r_max in cases:
            prof = integrate(params, init, r_max)
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

    def test_evaluation_count(self, symmetric_entire):
        # nfev is derived from the step counts, 1 + 6 (accepted + rejected):
        # one evaluation at the series start and six per attempted step
        # (FSAL).  The counts are those of an explicit per-step counter, on
        # a profile from the origin and on a shot's resumed probe march
        shot = shoot(ParameterTriple(9, 6, 11), 1.0, (0.2, 5.0), polish=True)
        for prof, counts in ((symmetric_entire, (558, 2, 3361)),
                             (shot.profile, (809, 2, 4867))):
            s = prof.stats
            assert (s.steps, s.rejected, s.nfev) == counts
            assert s.nfev == 1 + 6 * (s.steps + s.rejected)

    @pytest.mark.xfail(
        strict=True,
        reason="past r ~ 1e12 u falls to atol (u_s ~ 1e-13 at 2.8e13) and "
               "the march ends at a zero of u that the entire, positive "
               "(3,3,11) profile does not have: u/u_s is 1.0019 at 1e12 "
               "and 1.092 at 1e13; where a profile stops being trustworthy "
               "is still open")
    def test_no_false_zero_far_out(self):
        prof = integrate(P33, InitialData(1.0, 1.0), 1e14)
        assert prof.classification not in (ProfileClass.U_HITS_ZERO,
                                            ProfileClass.V_HITS_ZERO)

    def test_truncated_when_target_not_reached(self):
        prof = integrate(P33, InitialData(1.0, 1.0), 100.0)
        assert prof.classification is ProfileClass.TRUNCATED

    def test_entire_when_target_reached_before_decay(self):
        # positive through r_target = r_max = 10, where u is still about
        # 0.28 u0: once Truncated, while EntirePositive also asked for both
        # fields below 0.05 max(u0, v0)
        prof = integrate(P33, InitialData(1.0, 1.0), 10.0,
                         SolverOptions(r_target=10.0))
        assert prof.u[-1] > 0.05
        assert prof.classification is ProfileClass.ENTIRE_POSITIVE

    def test_validation(self):
        # r_max True once marched to r = 1 and returned Truncated
        for r_max in (-1.0, True):
            with pytest.raises(DomainError, match="r_max"):
                integrate(P33, InitialData(1.0, 1.0), r_max)
        with pytest.raises(ConfigError):
            integrate(P33, InitialData(1.0, 1.0), 1.0, SolverOptions(rtol=-1))

    @pytest.mark.parametrize("field, value", [
        ("rtol", 2.0), ("rtol", 1.0), ("rtol", math.inf), ("atol", math.inf),
        ("r_target", math.inf), ("r_target", True),
        pytest.param("r_target", 10**400, id="r_target-10**400")])
    def test_options_refused(self, field, value):
        # rtol 2 once ended (3,3,11) in UHitsZero after 36 steps, an
        # infinite tolerance in an OverflowError, r_target True (read as 1)
        # in an EntirePositive profile, and an int past the doubles in an
        # OverflowError
        opts = SolverOptions(**{field: value})
        with pytest.raises(ConfigError, match=field):
            integrate(ParameterTriple(3, 3, 11), InitialData(1.0, 1.0), 1e6,
                      opts)
        with pytest.raises(ConfigError, match=field):
            shoot(ParameterTriple(8, 8, 11), 1.0, (0.5, 2.0), opts)
        with pytest.raises(DomainError):
            InitialData(0.0, 1.0)

    @pytest.mark.parametrize("u0, v0", [(True, 1.0), (1.0, True),
                                        (math.nan, 1.0), (1.0, math.inf),
                                        pytest.param(10**400, 1.0,
                                                     id="10**400-1.0")])
    def test_initial_data_refused(self, u0, v0):
        # True once integrated as 1 and was written as "u0": true; an int
        # past the doubles ended in an OverflowError
        with pytest.raises(DomainError, match="initial values"):
            InitialData(u0, v0)

    @pytest.mark.parametrize("u0, v0", [(1e-300, 1.0), (1.0, 1e-200)])
    def test_underflowing_initial_data_refused(self, u0, v0):
        # u0^q or v0^p underflows to 0: the series start once divided by it
        # and ended in a ZeroDivisionError
        with pytest.raises(DomainError, match="too extreme"):
            integrate(P33, InitialData(u0, v0), 10.0)

    def test_step_underflow(self):
        # no step meets these tolerances: h falls below the floor 16 eps r
        # right after the series start
        with pytest.raises(StepUnderflow, match="16 eps r"):
            integrate(P33, InitialData(1.0, 1.0), 10.0,
                      SolverOptions(rtol=1e-300, atol=1e-300))


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
        prof = integrate(P32, InitialData(u0, v0), 1e3)
        assert prof.classification is kind
        comp = 0 if kind is ProfileClass.U_HITS_ZERO else 2
        r_ev = prof.r_event
        assert prof.r[-1] == r_ev
        assert prof.dense(r_ev)[comp] <= 0.0 < prof.dense(r_ev - _EVENT_TOL)[comp]
        # the other field is still positive there
        assert prof.dense(r_ev)[2 - comp] > 0.0


def mp_regular_solution(params, init, r, terms=40):
    """(u, du, v, dv) at r from the regular solution's power series in r^2,
    summed by mpmath at 40 digits through r^(2 terms - 2).  The powers
    v^p and u^q are exp(p log v) and exp(q log u), by the recurrences of
    the log and exp series; each coefficient follows from the integral
    form u = u0 - int_0^r t^(1-N) int_0^t s^(N-1) v^p ds dt.  The series is
    checked against the ODE at r: its residual u'' + (N-1)/r u' + v^p,
    from exact polynomial derivatives, is below 1e-16 of v^p."""
    import mpmath as mp

    with mp.workdps(40):
        p, q, N = mp.mpf(params.p), mp.mpf(params.q), params.N
        r = mp.mpf(r)
        fields = [[mp.mpf(init.u0)], [mp.mpf(init.v0)]]   # u, v
        logs = [[mp.log(c[0])] for c in fields]
        pows = [[mp.exp(q * logs[0][0])], [mp.exp(p * logs[1][0])]]  # u^q, v^p
        for k in range(1, terms):
            # the x^(k-1) coefficients of log and of the power
            n = k - 1
            for c, lg, pw, e in zip(fields, logs, pows, (q, p)):
                if n:
                    lg.append((c[n] - mp.fsum(j * lg[j] * c[n - j]
                                              for j in range(1, n)) / n) / c[0])
                    pw.append(mp.fsum(j * e * lg[j] * pw[n - j]
                                      for j in range(1, n + 1)) / n)
            fields[0].append(-pows[1][n] / (2 * k * (2 * k + N - 2)))
            fields[1].append(-pows[0][n] / (2 * k * (2 * k + N - 2)))
        out = []
        for c, other, e in ((fields[0], fields[1], p), (fields[1], fields[0], q)):
            y = mp.fsum(a * r ** (2 * k) for k, a in enumerate(c))
            dy = mp.fsum(2 * k * a * r ** (2 * k - 1) for k, a in enumerate(c))
            d2y = mp.fsum(2 * k * (2 * k - 1) * a * r ** (2 * k - 2)
                          for k, a in enumerate(c))
            src = mp.fsum(a * r ** (2 * k) for k, a in enumerate(other)) ** e
            assert abs(d2y + (N - 1) / r * dy + src) <= mp.mpf(1e-16) * abs(src)
            out += (float(y), float(dy))
        return out[0], out[1], out[2], out[3]


class TestSeriesStart:
    # the march starts from a degree-12 series in x = (r / r_char)^2 at
    # the radius where its last two terms fall below 1e-3 of the local
    # tolerance (at most r_char / 2); the grid keeps the r^4 radius

    @settings(max_examples=25, deadline=None)
    @given(p=st.floats(min_value=1.1, max_value=30.0),
           s=st.floats(min_value=0.0, max_value=1.0),
           N=st.integers(min_value=3, max_value=20),
           u0=st.floats(min_value=0.2, max_value=5.0),
           v0=st.floats(min_value=0.2, max_value=5.0))
    @example(p=30.0, s=0.0, N=13, u0=1.0, v0=5.0)
    def test_start_state_against_mpmath(self, p, s, N, u0, v0):
        # the (30, 1, 13) end v0 = 5 once overflowed r-coefficients to inf
        # and NaN, and the march then skipped its loop without a word
        params = ParameterTriple(p, 1.0 + (p - 1.0) * s, N)
        init, opts = InitialData(u0, v0), SolverOptions()
        taylor = _TaylorStart(params, init, opts)
        assert all(map(math.isfinite, taylor.a + taylor.b))
        assert taylor.r_first <= taylor.r_start <= 0.5 * taylor.r_char
        r = taylor.r_start
        u, du, v, dv = taylor.eval(r)
        mu, mdu, mv, mdv = mp_regular_solution(params, init, r)
        # the values to 1e-2 of the local tolerance; the slopes so that
        # their error moves the values across the start radius by less than
        # it (an error d in u' excites the singular mode r^(2-N), which
        # shifts u by r d / (N - 2) as r grows)
        for got, want, slope, mslope in ((u, mu, du, mdu), (v, mv, dv, mdv)):
            tol = opts.atol + opts.rtol * abs(want)
            assert abs(got - want) <= 1e-2 * tol
            assert r * abs(slope - mslope) <= tol

    @pytest.mark.parametrize("factor", [1.0 + 1e-9, 1.5, 2.0, 10.0])
    def test_every_r_max_past_the_r4_radius_integrates(self, factor):
        # the march starts at most at r_max / 2 (at r_first if that is
        # larger), so each r_max the r^4 start accepted still integrates;
        # only one inside r_first is refused
        taylor = _TaylorStart(P33, InitialData(1.0, 1.0), SolverOptions())
        r_max = factor * taylor.r_first
        prof = integrate(P33, InitialData(1.0, 1.0), r_max)
        assert prof.r[0] == taylor.r_first and prof.r[-1] == r_max
        assert prof.classification is ProfileClass.TRUNCATED
        with pytest.raises(DomainError, match="series-start"):
            integrate(P33, InitialData(1.0, 1.0), taylor.r_first)

    def test_grid_nodes_inside_the_series_radius(self, symmetric_entire):
        # the first node is the r^4 radius; the nodes before the march's
        # start are the series' values
        prof = symmetric_entire
        taylor = prof.dense.taylor
        head = prof.r < taylor.r_start
        assert 100 < head.sum() < prof.r.size // 2
        want = np.array(taylor.eval(prof.r[head]))
        assert np.array_equal(want, np.array([prof.u, prof.du, prof.v,
                                              prof.dv])[:, head])

    def test_large_v0_still_hits_zero_in_u(self):
        prof = integrate(ParameterTriple(12, 7, 11), InitialData(1.0, 5.0), 1e6)
        assert prof.classification is ProfileClass.U_HITS_ZERO

    @pytest.mark.parametrize("triple, w0", [((8, 8, 11), 1.3), ((30, 30, 13), 0.7),
                                            ((2.5, 2.5, 3), 4.0)])
    def test_diagonal_keeps_u_equal_to_v(self, triple, w0):
        prof = integrate(ParameterTriple(*triple), InitialData(w0, w0), 1e4)
        assert np.array_equal(prof.u, prof.v)
        assert np.array_equal(prof.du, prof.dv)


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
        assert res.profile.r[-1] >= 1000.0
        # independently scanned transition: between 1.05 (v hits zero)
        # and 1.10 (u hits zero)
        assert 1.05 < res.v0 < 1.10

    def test_bracket_already_narrow(self, marches, monkeypatch):
        # a bracket inside both stopping widths needs no probe: the end of
        # smaller |g| is returned, with the march that read it (which hit
        # zero, as an end must); no v0 is marched again
        from lelab import radial

        monkeypatch.setattr(radial, "V0_TOL", 10.0)
        monkeypatch.setattr(radial, "_COARSE_WIDTH", 10.0)
        opts = SolverOptions(r_target=1000.0)
        res = shoot(P32, 1.0, (0.05, 5.0), opts)
        assert (res.v0, res.iterations, res.bracket_width) == (0.05, 0, 4.95)
        assert res.profile.v0 == 0.05
        assert res.profile.classification is ProfileClass.V_HITS_ZERO
        assert [m[1] for m in marches.runs] == [0.05, 5.0]

    def test_bracket_error(self):
        opts = SolverOptions(r_target=1000.0)
        with pytest.raises(BracketError):
            shoot(P32, 1.0, (2.0, 5.0), opts)  # both sides crash in u

    def test_polish_reaches_machine_width(self):
        opts = SolverOptions(r_target=1e5)
        res = shoot(ParameterTriple(9, 6, 11), 1.0, (0.2, 5.0), opts,
                    polish=True)
        assert res.bracket_width < 1e-13


    def test_polished_probe_count(self, marches):
        # the search reads the matching functional's value: about half the
        # ceil(log2(width / (4 ulp v0))) = 53 probes of bisection over the
        # whole bracket down to 4 ulp, after the two endpoint reads; the
        # best probe's march then goes on to r_target
        lo, hi = 0.2, 5.0
        res = shoot(ParameterTriple(9, 6, 11), 1.0, (lo, hi), SolverOptions(),
                    polish=True)
        # every march, end or probe, pauses at its read radius
        radii = [m[0] for m in marches.runs]
        assert res.iterations == len(radii) - 2 <= 26
        assert radii[:2] == [1e6, 1e6] and set(radii[2:]) == {1e2}
        assert res.bracket_width <= 4 * np.finfo(float).eps * res.v0
        assert res.profile.classification is ProfileClass.ENTIRE_POSITIVE

    def test_plain_probe_count_below_curve(self):
        # below the curve too the transverse mode is real (kappa_min =
        # -2.47 on (6,4,11)), and the search reads values: bisection to
        # V0_TOL takes 46 probes
        res = shoot(ParameterTriple(6, 4, 11), 1.0, (0.2, 5.0))
        assert res.iterations <= 24
        assert res.bracket_width <= V0_TOL * res.v0

    def test_bracket_end_near_blowup(self):
        # at v0 = 1e33 u hits zero at r = 1.9e-148, whose value
        # (r_ev / R)^kappa_min would overflow a double
        res = shoot(ParameterTriple(9, 6, 11), 1.0, (0.2, 1e33))
        assert res.v0 == pytest.approx(1.0357844085, abs=1e-5)
        # the wide bracket is halved in log v0: 26 probes, where halving
        # it in v0 took 185
        assert res.iterations <= 80

    def test_polish_sets_only_the_stopping_width(self, marches):
        # with and without polish the shot searches the same functional at
        # the same probe radius; only the final bracket differs
        runs, shots = {}, {}
        for polish in (False, True):
            marches.runs.clear()
            marches.steps.clear()
            res = shots[polish] = shoot(ParameterTriple(9, 6, 11), 1.0,
                                        (0.2, 5.0), polish=polish)
            marched = runs[polish] = [m[:2] for m in marches.runs]
            # two endpoint runs and the probes; the last run is a probe's
            assert res.iterations == len(marched) - 2
            assert [r for r, _ in marched[:2]] == [1e6, 1e6]
            assert {r for r, _ in marched[2:]} == {1e2}
        plain, polished = shots[False], shots[True]
        assert abs(plain.v0 - polished.v0) <= V0_TOL * max(1.0, polished.v0)
        assert plain.bracket_width > polished.bracket_width
        # the same v0 are marched up to the plain search's last probe, which
        # closes its bracket at V0_TOL; the polished search's secants reach
        # 4 ulp in no more probes (22 each)
        n = 2 + plain.iterations - 1
        assert runs[False][:n] == runs[True][:n]
        assert plain.iterations <= polished.iterations

    def test_no_singular_pair_refused_before_integrating(self, monkeypatch):
        # alpha = 13.75 >= N - 2: no singular pair to match, so no shot
        from lelab import radial

        radii = []
        monkeypatch.setattr(radial, "_march",
                            lambda *a, **k: radii.append(a[2]))
        with pytest.raises(DomainError):
            shoot(ParameterTriple(1.2, 1.1, 5), 1.0, (0.05, 5.0))
        assert radii == []

    @pytest.mark.parametrize("u0, bracket", [
        pytest.param(10**400, (0.2, 5.0), id="u0-10**400"),
        pytest.param(True, (0.2, 5.0), id="u0-True"),
        pytest.param(1.0, (True, 5.0), id="lo-True"),
        pytest.param(1.0, (0.2, 10**400), id="hi-10**400"),
        pytest.param(1.0, (0.2, math.inf), id="hi-inf")])
    def test_bools_and_ints_past_the_doubles_refused(self, u0, bracket):
        # u0 = 10**400 ended in an OverflowError, and a bracket end True
        # was read as 1
        with pytest.raises(DomainError):
            shoot(ParameterTriple(9, 6, 11), u0, bracket)

    def test_polished_diagonal_is_exact(self):
        res = shoot(ParameterTriple(8, 8, 11), 1.0, (0.5, 2.0), SolverOptions(),
                    polish=True)
        assert res.v0 == 1.0
        assert res.iterations == 0
        assert np.array_equal(res.profile.u, res.profile.v)
        assert np.array_equal(res.profile.du, res.profile.dv)


@pytest.fixture
def marches(monkeypatch):
    """``runs``: every march, at the ``_march`` seam, as (pause radius, v0,
    rtol, atol); ``steps``: its accepted + rejected steps so far, index by
    index; ``brackets``: the start and end brackets of each of a shot's
    searches."""
    from lelab import radial

    log = SimpleNamespace(runs=[], steps=[], brackets=[])
    march, bisect = radial._march, radial._bisect

    def counted(params, init, r_max, opts, pause=math.inf):
        log.runs.append((pause, init.v0, opts.rtol, opts.atol))
        log.steps.append(0)
        i = len(log.steps) - 1
        for rec in march(params, init, r_max, opts, pause):
            log.steps[i] = rec.naccept + rec.nreject
            yield rec

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
        # accepted and rejected steps of all marches, bracket ends and the
        # resumed best probes included: 15,078 with an r^4 series start and
        # a final run from the origin, 21,399 with probes to 1e4 on top
        for triple, polish in WORKLOAD_SHOTS:
            shoot(ParameterTriple(*triple), 1.0, (0.2, 5.0), polish=polish)
        assert sum(marches.steps) <= 12_000

    @pytest.mark.parametrize("triple, polish, rtol", [
        *((t, p, 1e-10) for t, p in WORKLOAD_SHOTS), ((9, 6, 11), True, 1e-12)])
    def test_bracket_ends_marched_at_the_callers_options(self, marches, triple,
                                                         polish, rtol):
        from lelab.radial import _reader

        params, opts = ParameterTriple(*triple), SolverOptions(rtol=rtol)
        res = shoot(params, 1.0, (0.2, 5.0), opts, polish=polish)
        (_, coarse), (start, (a, b)) = marches.brackets
        assert start == coarse  # the coarse signs held
        # the ends of both the coarse and the final bracket
        full = {m[1] for m in marches.runs
                if (m[2], m[3]) == (rtol, opts.atol)}
        assert {a, b, *coarse} <= full
        # the coarse phase did run, at its own tolerances
        assert {(m[2], m[3]) for m in marches.runs} == {
            (rtol, opts.atol), (1e-6, 1e-8)}
        # the shot returns the end of the final bracket with smaller |g|
        read = _reader(params, derive_scaling(params), 1.0, 1e2, opts)
        ga, gb = read(a).g, read(b).g
        assert abs(b - a) == res.bracket_width
        assert res.v0 == (a if abs(ga) < abs(gb) else b)
        assert ga >= 0.0 >= gb or gb >= 0.0 >= ga

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
        runs = Counter(marches.runs)
        assert max(runs.values()) == 1
        # two endpoint runs besides the probes, one of which goes on to
        # r_target
        assert res.iterations == len(marches.runs) - 2

    def test_reused_coarse_ends_keep_the_shot(self):
        # reading the coarse ends instead of marching them again leaves v0*
        # of the (9,6,11) shot at the coarse tolerances bit for bit, with
        # two probes fewer than marching them again.  The value is the end
        # of the final bracket with |g| = 1.6e-12 (the other reads 6.6e-10),
        # since the shot returns its best probe; the bracket midpoint it
        # returned with probes that stopped at 1e2 was ...7954975
        res = shoot(ParameterTriple(9, 6, 11), 1.0, (0.2, 5.0),
                    SolverOptions(rtol=1e-6, atol=1e-8))
        assert res.v0 == 1.0357844086257557
        assert res.iterations == 20

    @pytest.mark.parametrize("triple, v0_log_ratio", [
        ((9, 6, 11), 1.0357844085117758), ((12, 7, 11), 1.037608553089328)])
    def test_projected_shot_keeps_the_polished_root(self, marches, triple,
                                                    v0_log_ratio):
        # the transverse coefficient at 1e2 moves polished v0* by a few ulp
        # from the log ratio at 1e4 (8 fine probes each there), and the
        # profile stays on the singular pair through 1e4
        params, opts = ParameterTriple(*triple), SolverOptions()
        res = shoot(params, 1.0, (0.2, 5.0), opts, polish=True)
        assert abs(res.v0 - v0_log_ratio) <= 8 * math.ulp(v0_log_ratio)
        fine = [m for m in marches.runs
                if m[0] == 1e2 and (m[2], m[3]) == (opts.rtol, opts.atol)]
        assert 0 < len(fine) <= 5
        sc = derive_scaling(params)
        u, _, v, _ = res.profile.dense(1e4)
        assert abs(1.0 - u / (sc.a * 1e4 ** -sc.alpha)) <= 1e-6
        assert abs(1.0 - v / (sc.b * 1e4 ** -sc.beta)) <= 1e-6

    def test_coarse_sign_disagreement_restarts_from_the_ends(self, marches,
                                                             monkeypatch):
        # coarse probes that see the root 1% too high: their bracket fails
        # the check at full accuracy, and the fine search starts again
        # from the original ends
        from lelab import radial

        params = ParameterTriple(9, 6, 11)
        plain = shoot(params, 1.0, (0.2, 5.0))
        real = radial._reader

        def skewed(params, scaling, u0, R, opts):
            read = real(params, scaling, u0, R, opts)
            if opts.rtol == SolverOptions().rtol:
                return read
            return lambda v0, r=R: read(v0 / 1.01, r)

        monkeypatch.setattr(radial, "_reader", skewed)
        marches.brackets.clear()
        res = shoot(params, 1.0, (0.2, 5.0))
        (coarse_start, coarse_ends), (fine_start, fine_ends) = marches.brackets
        assert coarse_start == fine_start == (0.2, 5.0)
        assert min(coarse_ends) > 1.005 * plain.v0
        assert abs(res.v0 - plain.v0) <= V0_TOL * plain.v0
        assert res.profile.classification is not ProfileClass.TRUNCATED


def match(prof, scaling, R, r=None):
    """The matching functional read at radius r (default R) from a full
    profile to r_target (the shot's reader builds none): +-(r_ev/R)^kappa_min
    if the profile hits zero at r_ev in the step that passes r or before,
    positive where v falls first, else the transverse coefficient l.(Y - P)
    at r from the dense output, Y = (r^alpha u, r^alpha (alpha u + r u'),
    r^beta v, r^beta (beta v + r v')) and P = (a, 0, b, 0)."""
    from lelab.closed_form import transverse_covector

    r = R if r is None else r
    kappa, (l1, l2, l3, l4) = transverse_covector(scaling)
    if prof.r_event is not None and prof.dense.starts[-1] < r:
        side = 1.0 if prof.classification is ProfileClass.V_HITS_ZERO else -1.0
        return side * math.exp(min(700.0, kappa * math.log(prof.r_event / R)))
    u, du, v, dv = prof.dense(r)
    al, be = scaling.alpha, scaling.beta
    ra, rb = r ** al, r ** be
    return (l1 * (ra * u - scaling.a) + l2 * (ra * (al * u + r * du))
            + l3 * (rb * v - scaling.b) + l4 * (rb * (be * v + r * dv)))


class TestResumedShot:
    # a shot returns its best full-accuracy probe and runs that probe's
    # march on to r_target instead of integrating from the origin again

    @pytest.mark.parametrize("triple, bracket, opts, polish", [
        ((8, 8, 11), (0.5, 2.0), SolverOptions(), False),
        ((9, 6, 11), (0.2, 5.0), SolverOptions(), True),
        ((12, 7, 11), (0.2, 5.0), SolverOptions(), True),
        ((6, 4, 11), (0.2, 5.0), SolverOptions(), False),
        # no pause: the probes march to r_target = R
        ((9, 6, 11), (0.2, 5.0), SolverOptions(r_target=50.0), False),
    ])
    def test_profile_is_a_fresh_integration(self, marches, triple, bracket,
                                            opts, polish):
        params = ParameterTriple(*triple)
        res = shoot(params, 1.0, bracket, opts, polish=polish)
        fresh = integrate(params, InitialData(1.0, res.v0), opts.r_target, opts)
        got = res.profile
        for name in ("r", "u", "v", "du", "dv"):
            assert np.array_equal(getattr(got, name), getattr(fresh, name))
        assert profile_to_csv(got) == profile_to_csv(fresh)
        assert to_json(profile_metadata(got)) == to_json(profile_metadata(fresh))

    def test_one_probe_march_alive_at_a_time(self, monkeypatch):
        # a probe's march is dropped unless it is the best one so far, so
        # at most one earlier march is alive when a new one starts
        import gc
        import weakref

        from lelab import radial

        real, alive, refs = radial._march, [], []

        def tracked(*args):
            gen = real(*args)
            alive.append(sum(r() is not None for r in refs))
            refs.append(weakref.ref(gen))
            return gen

        monkeypatch.setattr(radial, "_march", tracked)
        gc.disable()  # only reference counts may free a march
        try:
            shoot(ParameterTriple(9, 6, 11), 1.0, (0.2, 5.0), polish=True)
        finally:
            gc.enable()
        assert len(alive) > 20 and max(alive) == 1

    def test_plain_shot_keeps_the_polished_accuracy(self):
        # the plain shot returned its bracket midpoint, 116 ulp from the
        # polished root, with |1 - u/u_s| = 4.5e-6 at 1e4
        params = ParameterTriple(9, 6, 11)
        plain = shoot(params, 1.0, (0.2, 5.0))
        polished = shoot(params, 1.0, (0.2, 5.0), polish=True)
        assert abs(plain.v0 - polished.v0) <= 4 * math.ulp(polished.v0)
        sc = derive_scaling(params)
        u, _, v, _ = plain.profile.dense(1e4)
        assert abs(1.0 - u / (sc.a * 1e4 ** -sc.alpha)) <= 1e-7
        assert abs(1.0 - v / (sc.b * 1e4 ** -sc.beta)) <= 1e-7


class TestProbeReader:
    # the shot's reader marches toward r_target, pauses after the step that
    # passes the probe radius and reads g from that step alone, without
    # building a profile; it must give the float that ``match`` reads from
    # the full profile.  Offsets 1e-1 and 1e-3 from v0* hit zero before the
    # probe radius (u above v0*, v below), 1e-6 too except at R = 1e2, and
    # 1e-9 and 1e-12 reach it (except 1e-9 on (6,4,11) at 1e4); R is the
    # default probe radius 1e2 and two others.
    TRIPLES = [((9, 6, 11), 1.0357844085), ((12, 7, 11), 1.0376085531),
               ((6, 4, 11), 1.0481601140)]

    @pytest.mark.parametrize("R", [1e2, 1e4, 2718.2818])
    @pytest.mark.parametrize("triple, v0_star", TRIPLES)
    def test_probe_equals_match_of_profile(self, triple, v0_star, R):
        from lelab.radial import _reader

        params = ParameterTriple(*triple)
        scaling = derive_scaling(params)
        opts = SolverOptions()
        read = _reader(params, scaling, 1.0, R, opts)
        kinds = set()
        for k in (1, 3, 6, 9, 12):
            for sign in (-1.0, 1.0):
                v0 = v0_star * (1.0 + sign * 10.0 ** -k)
                prof = integrate(params, InitialData(1.0, v0), opts.r_target,
                                 opts)
                got = read(v0)
                kinds.add(got.kind)
                assert got.g == match(prof, scaling, R), (v0, got.kind)
                assert got.kind == (prof.classification
                                    if prof.dense.starts[-1] < R else None)
        assert kinds == {ProfileClass.U_HITS_ZERO, ProfileClass.V_HITS_ZERO,
                         None}

    @pytest.mark.parametrize("triple, v0_star", TRIPLES)
    def test_end_read_gives_the_profile_class(self, triple, v0_star):
        # the bracket ends are read at r_target: the class and g of the
        # profile a full run to r_target builds (all four v0 hit zero, as a
        # bracket end must)
        from lelab.radial import _reader

        params = ParameterTriple(*triple)
        scaling = derive_scaling(params)
        opts = SolverOptions()
        read = _reader(params, scaling, 1.0, 1e4, opts)
        for v0 in (0.2, 0.9 * v0_star, 1.1 * v0_star, 5.0):
            prof = integrate(params, InitialData(1.0, v0), opts.r_target, opts)
            got = read(v0, opts.r_target)
            assert got.kind is prof.classification
            assert got.g == match(prof, scaling, 1e4, opts.r_target)


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
        # True once rescaled by 1, and 10**400 ended in an OverflowError
        for R in (0.0, True, 10**400):
            with pytest.raises(DomainError):
                rescale(symmetric_entire, sc, R)


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
        # one %.17g format per row; the oracle is fmt_float cell by cell,
        # non-finite values and a negative zero included
        u = symmetric_entire.u.copy()
        u[:4] = [math.nan, math.inf, -math.inf, -0.0]
        prof = dataclasses.replace(symmetric_entire, u=u)
        rows = zip(prof.r, prof.u, prof.v, prof.du, prof.dv)
        expected = "".join(",".join(map(fmt_float, row)) + "\n" for row in rows)
        assert profile_to_csv(prof) == "r,u,v,du,dv\n" + expected

    def test_parse_matches_row_path(self, symmetric_entire):
        # one numpy conversion for all cells; the oracle is float() per
        # cell, on signed-zero and subnormal cells too.  A non-finite cell
        # is refused
        u = symmetric_entire.u.copy()
        u[:4] = [-0.0, 5e-324, 2.2250738585072009e-308, -1e-310]
        prof = dataclasses.replace(symmetric_entire, u=u)
        csv_text = profile_to_csv(prof)
        json_text = to_json(profile_metadata(prof))
        parsed = profile_from_text(csv_text, json_text)
        rows = np.array([[float(c) for c in ln.split(",")]
                         for ln in csv_text.strip().split("\n")[1:]])
        for k, col in enumerate((parsed.r, parsed.u, parsed.v, parsed.du,
                                 parsed.dv)):
            assert np.array_equal(col.view(np.int64), rows[:, k].view(np.int64))
        for cell in (math.nan, math.inf, -math.inf):
            u[4] = cell
            bad = profile_to_csv(dataclasses.replace(symmetric_entire, u=u))
            with pytest.raises(DomainError, match="not finite"):
                profile_from_text(bad, json_text)

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
        prof = integrate(params, InitialData(1.0, v0), 20.0)
        assert np.all(np.diff(prof.u) < 0.0)
        assert np.all(np.diff(prof.v) < 0.0)
        for w in (prof.du, prof.dv):
            flux = prof.r ** (N - 1) * w
            # non-increasing up to the sampling noise of the interpolated
            # derivative, which scales like r^(N-1) (atol + rtol |w|)
            noise = prof.r ** (N - 1) * (1e-12 + 1e-10 * np.abs(w))
            assert np.all(np.diff(flux) <= 10.0 * noise[:-1])
