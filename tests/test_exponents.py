import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lelab import (CurvePosition, DomainError, ParameterTriple, SobolevClass,
                   classify, curve_margins, derive_scaling,
                   hardy_rellich_constant, jl_curve_q, jl_diagonal, jl_margin,
                   sobolev_margin)
from lelab.errors import ConvergenceError
from lelab.exponents import _bisect, _prescan_bisect

from conftest import valid_triples


def classical_diagonal_exponent(N: int) -> float:
    # closed form for the diagonal crossing, used as an independent oracle
    return ((N - 2.0) ** 2 - 4.0 * N + 8.0 * math.sqrt(N - 1.0)) / \
        ((N - 2.0) * (N - 10.0))


def triple_strategy():
    return st.tuples(
        st.floats(min_value=1.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=3, max_value=30),
    ).map(lambda t: (t[0], 1.0 + (t[0] - 1.0) * t[1], t[2]))


class TestDeriveScaling:
    def test_worked_example(self):
        sc = derive_scaling(ParameterTriple(3, 2, 11))
        assert sc.alpha == pytest.approx(1.6, abs=1e-15)
        assert sc.beta == pytest.approx(1.2, abs=1e-15)
        assert sc.gamma == pytest.approx(0.4, abs=1e-14)
        assert sc.S == pytest.approx(11.84, rel=1e-14)
        assert sc.T == pytest.approx(9.36, rel=1e-14)
        assert sc.K1K2 == pytest.approx(664.9344, rel=1e-12)
        # the faster-decaying weight belongs to p v_s^{p-1}
        assert sc.weight_exp_K1 == pytest.approx(2.0 + sc.gamma, rel=1e-12)
        assert sc.weight_exp_K2 == pytest.approx(2.0 - sc.gamma, rel=1e-12)

    def test_symmetric_case(self):
        sc = derive_scaling(ParameterTriple(3, 3, 11))
        assert sc.alpha == sc.beta == pytest.approx(1.0, abs=1e-15)
        assert sc.gamma == 0.0
        assert sc.S == sc.T == pytest.approx(8.0, rel=1e-15)
        assert sc.a == sc.b == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)

    def test_existence_boundary(self):
        derive_scaling(ParameterTriple(2, 2, 5))  # alpha = 2 < 3
        with pytest.raises(DomainError):
            derive_scaling(ParameterTriple(2, 2, 4))  # alpha = 2 = N-2

    def test_preconditions(self):
        with pytest.raises(DomainError):
            derive_scaling(ParameterTriple(1.0, 1.0, 11))  # pq = 1
        with pytest.raises(DomainError):
            derive_scaling(ParameterTriple(3.0, 0.5, 11))  # q < 1
        with pytest.raises(DomainError):
            derive_scaling(ParameterTriple(8.0, 8.0, 2))  # N < 3
        with pytest.raises(DomainError):
            ParameterTriple(2.0, 3.0, 11)  # p < q

    @settings(max_examples=200, deadline=None)
    @given(triple_strategy())
    def test_algebraic_identities(self, t):
        p, q, N = t
        assume(p * q > 1.0 + 1e-9)
        assume(2.0 * (p + 1.0) / (p * q - 1.0) < N - 2.0 - 1e-12)
        sc = derive_scaling(ParameterTriple(p, q, N))
        assert sc.K1 * sc.K2 == pytest.approx(p * q * sc.S * sc.T, rel=1e-12)
        assert sc.alpha + 2.0 == pytest.approx(sc.beta * p, rel=1e-12)
        assert sc.beta + 2.0 == pytest.approx(sc.alpha * q, rel=1e-12)
        assert sc.beta * (p - 1.0) + sc.alpha * (q - 1.0) == \
            pytest.approx(4.0, rel=1e-12)
        # gamma in [0, 2], the endpoint only in the biharmonic case q = 1
        assert -1e-15 <= sc.gamma <= 2.0 + 1e-12
        if sc.gamma > 2.0 - 1e-9:
            assert q == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(triple_strategy())
    def test_margin_symmetric_under_exchange(self, t):
        p, q, N = t
        assume(p * q > 1.0 + 1e-9)
        assume(2.0 * (p + 1.0) / (p * q - 1.0) < N - 2.0 - 1e-12)
        sc = derive_scaling(ParameterTriple(p, q, N))
        # exchange p <-> q directly in the raw formulas: alpha', beta' swap,
        # gamma flips sign, C_gamma and pq S T are invariant
        pq1 = p * q - 1.0
        alpha2 = 2.0 * (q + 1.0) / pq1
        beta2 = 2.0 * (p + 1.0) / pq1
        g2 = alpha2 - beta2
        c2 = (((N - 2.0) ** 2 - g2 * g2) / 4.0) ** 2
        k2 = p * q * alpha2 * (N - 2.0 - alpha2) * beta2 * (N - 2.0 - beta2)
        assert c2 - k2 == pytest.approx(sc.C_gamma - sc.K1K2,
                                        rel=1e-10, abs=1e-10)


class TestClassify:
    def test_sobolev_critical_case(self):
        v = classify(ParameterTriple(5, 5, 3))
        assert v.sobolev is SobolevClass.CRITICAL
        assert abs(v.sobolev_margin) < 1e-15

    def test_below_curve_example(self):
        v = classify(ParameterTriple(3, 2, 11))
        assert v.jl is CurvePosition.BELOW
        assert v.jl_margin == pytest.approx(408.4441 - 664.9344, rel=1e-10)

    def test_above_curve_diagonal(self):
        # oracle: the classical diagonal exponent at N=11 is below 8
        assert classical_diagonal_exponent(11) < 8.0
        v = classify(ParameterTriple(8, 8, 11))
        assert v.jl is CurvePosition.ABOVE

    def test_undefined_when_no_scaling(self):
        v = classify(ParameterTriple(2, 2, 4))
        assert v.jl is CurvePosition.UNDEFINED
        assert math.isnan(v.jl_margin)
        v2 = classify(ParameterTriple(1, 1, 11))
        assert v2.jl is CurvePosition.UNDEFINED

    def test_on_curve_band(self):
        q_star = jl_curve_q(11, 8.0)
        v = classify(ParameterTriple(8.0, q_star, 11), tol_curve=1e-6)
        assert v.jl is CurvePosition.ON

    def test_diagonal_margin_strictly_monotone(self, rng):
        # strict monotonicity of the diagonal margin above the Sobolev
        # exponent justifies bisection for the diagonal crossing; with the
        # sign convention margin = C_gamma - K1K2 it increases with p
        # (below-curve pairs are the small-p ones)
        ps = np.linspace(2.0, 30.0, 120)
        ms = [jl_margin(ParameterTriple(p, p, 11)) for p in ps]
        assert all(m2 > m1 for m1, m2 in zip(ms, ms[1:]))
        assert ms[0] < 0.0 < ms[-1]

    def test_no_stable_region_for_low_dimensions(self):
        # super-Sobolev cells never reach the curve when N <= 10
        for N in (3, 6, 10):
            ps = np.linspace(1.0, 20.0, 60)
            for p in ps:
                for q in np.linspace(1.0, p, 24):
                    v = classify(ParameterTriple(p, float(q), N))
                    if v.sobolev is SobolevClass.SUBCRITICAL:
                        continue
                    assert v.jl in (CurvePosition.BELOW, CurvePosition.UNDEFINED)


class TestHardyRellichConstant:
    def test_values(self):
        assert hardy_rellich_constant(11, 0.0) == pytest.approx(410.0625, rel=1e-15)
        assert hardy_rellich_constant(11, 0.4) == pytest.approx(408.4441, rel=1e-12)
        assert hardy_rellich_constant(3, 0.0) == pytest.approx(0.0625, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            hardy_rellich_constant(2, 0.0)
        with pytest.raises(DomainError):
            hardy_rellich_constant(11, 9.0)
        with pytest.raises(DomainError):
            hardy_rellich_constant(11, -0.1)


class TestCurveRootFinding:
    def test_diagonal_matches_classical_form(self):
        for N in range(11, 21):
            p_star = jl_diagonal(N)
            assert p_star == pytest.approx(classical_diagonal_exponent(N),
                                           abs=1e-9)

    def test_no_diagonal_crossing_low_dimension(self):
        for N in (3, 7, 10):
            assert jl_diagonal(N) is None

    def test_slice_root_against_margin_scan(self):
        # oracle: dense margin scan brackets the root independently
        q_star = jl_curve_q(11, 8.0)
        qs = np.linspace(1.0, 8.0, 4001)
        ms = np.array([jl_margin(ParameterTriple(8.0, float(q), 11))
                       for q in qs])
        flip = np.nonzero(np.sign(ms[:-1]) != np.sign(ms[1:]))[0]
        assert flip.size == 1
        assert qs[flip[0]] <= q_star <= qs[flip[0] + 1]
        assert abs(jl_margin(ParameterTriple(8.0, q_star, 11))) < 1e-6

    def test_no_root_when_slice_below_curve(self):
        assert jl_curve_q(11, 3.0) is None      # p below the diagonal entry
        for p in (1.2, 1.5, 3.0, 8.0, 30.0):
            assert jl_curve_q(10, p) is None    # empty region for N <= 10

    def test_diagonal_fixed_point(self):
        p_star = jl_diagonal(11)
        assert jl_curve_q(11, p_star) == pytest.approx(p_star, rel=1e-9)

    def test_dense_slices_stay_admissible(self):
        # the prescan's last node must be p itself: a node 1 ulp above p
        # left the slice and raised DomainError for about 1 in 150 slices
        for N in (11, 12, 13, 15, 20):
            for p in np.linspace(1.0, 40.0, 400):
                q_star = jl_curve_q(N, float(p))
                assert q_star is None or q_star <= p

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            jl_curve_q(11, 0.5)
        with pytest.raises(DomainError):
            jl_curve_q(2, 3.0)

    @pytest.mark.parametrize("N, p_min, p_max, most", [(13, 4.0, 12.0, 4514),
                                                       (11, 7.0, 12.0, 4469)])
    def test_trace_reads_margin_values(self, monkeypatch, N, p_min, p_max,
                                       most):
        # the two curve traces of the benchmark's map workload: the search
        # starts from the prescan's margins, where sign-only halving took
        # 6429 and 6335 margin evaluations (64 of them per slice in the
        # prescan)
        from lelab import exponents
        calls = []
        kernel = exponents.curve_margins
        monkeypatch.setattr(exponents, "curve_margins",
                            lambda *a: calls.append(a) or kernel(*a))
        roots = [jl_curve_q(N, p_min + (p_max - p_min) * i / 63)
                 for i in range(64)]
        assert len(calls) <= most
        assert sum(q is not None for q in roots) > 32

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_prescan_zero_node_is_the_root(self, sign):
        # a node where f is exactly 0 at the first sign change is returned
        # as it is, with no search and no 0 handed to _bisect as an end
        calls = []

        def f(x):
            calls.append(x)
            return sign * (x - 2.0)

        xs = [0.0, 1.0, 2.0, 3.0]
        assert _prescan_bisect(f, xs, 1e-12) == (
            2.0, [sign * (x - 2.0) for x in xs], 1)
        assert calls == xs

    def test_prescan_search_reads_values(self):
        # on a linear margin the first secant from the prescan values is
        # the root
        calls = []

        def f(x):
            calls.append(x)
            return 0.5 - x

        root, _, flips = _prescan_bisect(f, [0.0, 0.25, 0.75, 1.0], 1e-12)
        assert (root, flips) == (0.5, 1)
        assert len(calls) == 5


class TestBisect:
    ROOT = math.sqrt(2.0)

    def side(self, x):
        # +1 below the root, -1 above it
        return 1 if x * x < 2.0 else -1

    def test_both_orientations(self):
        a, b = _bisect(self.side, 1.0, 2.0, 1e-12, 100)
        assert a < b and b - a <= 1e-12 * b
        assert a <= self.ROOT <= b
        # the same search with the ends swapped: a keeps its side
        a2, b2 = _bisect(lambda x: -self.side(x), 2.0, 1.0, 1e-12, 100)
        assert (a2, b2) == (b, a)

    def test_zero_ends_the_search(self):
        seen = []

        def side(x):
            seen.append(x)
            return 0 if x == 0.75 else (1 if x < 0.75 else -1)

        assert _bisect(side, 0.0, 1.0, 1e-15, 100) == (0.75, 0.75)
        assert seen == [0.5, 0.75]

    def test_adjacent_doubles_stop_without_evaluation(self):
        a = 1.0
        b = math.nextafter(a, 2.0)
        calls = []
        # tol 0 can never be met: only the no-progress stop ends the search
        assert _bisect(lambda x: calls.append(x) or 1, a, b, 0.0, 5) == (a, b)
        assert calls == []
        lo, hi = _bisect(self.side, 1.0, 2.0, 0.0, 100)
        assert hi == math.nextafter(lo, 2.0) and lo <= self.ROOT <= hi

    def test_cap_raises(self):
        calls = []

        def side(x):
            calls.append(x)
            return self.side(x)

        with pytest.raises(ConvergenceError):
            _bisect(side, 1.0, 2.0, 1e-12, 10)
        assert len(calls) == 10


def halving_probes(side, a, b, tol, max_iter):
    """The probes of plain bisection on the sign of side, written out
    apart from the package: the reference for callers that pass +-1."""
    probes = []
    while abs(b - a) > tol * max(1.0, abs(b)) and len(probes) < max_iter:
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        probes.append(m)
        s = side(m)
        if s == 0:
            break
        if s > 0:
            a = m
        else:
            b = m
    return probes


class TestValueSearch:
    EPS = np.finfo(float).eps

    def counted(self, f):
        calls = []

        def g(x):
            calls.append(x)
            return f(x)

        return g, calls

    @pytest.mark.parametrize("a,b,tol", [
        (1.0, 2.0, 1e-12), (2.0, 1.0, 1e-12), (0.2, 5.0, 4 * 2.0 ** -52),
        (-3.0, 7.5, 0.0), (1e3, 1e-3, 1e-9),
        # where b - (b - a) / 2 rounds away from the midpoint
        (-952627.2616173717, 376.51990783147744, 1e-9)])
    def test_sign_callers_keep_the_halving_sequence(self, a, b, tol):
        root = 1.2345678901234567

        def side(x):
            return 1 if (x < root) == (a < b) else -1

        g, calls = self.counted(side)
        _bisect(g, a, b, tol, 200)
        assert calls == halving_probes(side, a, b, tol, 200)
        assert len(calls) > 10

    def test_smooth_function_in_few_evaluations(self):
        root = 2.0 ** (1.0 / 3.0)
        f = lambda x: 2.0 - x ** 3  # noqa: E731
        g, calls = self.counted(f)
        lo, hi = _bisect(g, 1.0, 2.0, 4 * self.EPS, 100, f(1.0), f(2.0))
        assert lo <= root <= hi and hi - lo <= 4 * self.EPS * hi
        assert len(calls) <= 12  # bisection takes 51

    @pytest.mark.parametrize("name,f,a,b", [
        # flat at the root: secants creep from one side
        ("ninth power", lambda x: math.copysign(abs(1.3 - x) ** 9, 1.3 - x),
         1.0, 2.0),
        # a jump of 600 decades across the root
        ("step", lambda x: 1e-300 if x < 1.3 else -1e300, 1.0, 2.0),
        # slopes 1e24 apart on the two sides
        ("kink", lambda x: (1.3 - x) * (1e-12 if x < 1.3 else 1e12),
         1.0, 2.0),
        ("saturated", lambda x: math.atan(1e6 * (1.3 - x)), -50.0, 100.0),
        # products of value differences underflow to 0
        ("tiny", lambda x: 1e-170 * math.copysign(abs(1.3 - x) ** 3, 1.3 - x),
         1.0, 2.0),
    ])
    @pytest.mark.parametrize("tol", [4 * 2.0 ** -52, 1e-13, 1e-6])
    def test_badly_scaled_function_within_twice_bisection(self, name, f, a,
                                                         b, tol):
        g, calls = self.counted(f)
        lo, hi = _bisect(g, a, b, tol, 400, f(a), f(b))
        assert lo <= 1.3 <= hi
        assert len(calls) <= 2 * math.ceil(math.log2((b - a) / tol)) + 2, name

    @pytest.mark.parametrize("slope", [0.3, 3.0, 10.0])
    def test_two_linear_branches_in_two_evaluations(self, slope):
        # slopes that differ across the root, as the shot functional's
        # branches do: the first secant spans both, and the next one,
        # through two iterates on one side, lands on the root
        f = lambda x: (1.3 - x) * (1.0 if x < 1.3 else slope)  # noqa: E731
        g, calls = self.counted(f)
        lo, hi = _bisect(g, 1.0, 2.0, 4 * self.EPS, 100, f(1.0), f(2.0))
        assert lo <= 1.3 <= hi
        assert len(calls) <= 3  # 10 to 12 without the one-sided secant

    def test_geometric_midpoint_while_the_bracket_is_wide(self):
        # the halving of a wide bracket is in log x, until hi <= 2 lo
        root = 5.0

        def side(x):
            return 1 if x < root else -1

        g, calls = self.counted(side)
        _bisect(g, 1e-3, 1e3, 1e-6, 100, geometric=True)
        a, b, expected = 1e-3, 1e3, []
        while b - a > 1e-6 * b:
            x = math.sqrt(a) * math.sqrt(b) if b > 2 * a else 0.5 * (a + b)
            expected.append(x)
            a, b = (x, b) if side(x) > 0 else (a, x)
        assert calls == expected
        assert calls[0] == pytest.approx(1.0) and len(calls) < 30

    def test_exact_root_ends_the_search(self):
        # the secant through (0, 0.75) and (1, -0.25) lands on 0.75
        g, calls = self.counted(lambda x: 0.75 - x)
        assert _bisect(g, 0.0, 1.0, 1e-15, 100, 0.75, -0.25) == (0.75, 0.75)
        assert calls == [0.75]

    def test_cap_raises_on_values(self):
        g, calls = self.counted(
            lambda x: math.copysign(abs(1.3 - x) ** 9, 1.3 - x))
        with pytest.raises(ConvergenceError):
            _bisect(g, 1.0, 2.0, 1e-15, 10, 0.3 ** 9, -0.7 ** 9)
        assert len(calls) == 10


def test_sobolev_margin_formula():
    t = ParameterTriple(5, 5, 3)
    assert sobolev_margin(t) == pytest.approx((1 - 2 / 3) - 2 / 6, abs=1e-15)


def test_random_triples_all_identities(rng):
    for p, q, N in valid_triples(rng, 300):
        sc = derive_scaling(ParameterTriple(p, q, N))
        assert abs(sc.K1 * sc.K2 / (p * q * sc.S * sc.T) - 1.0) < 1e-12


def test_kernel_floats_match_arrays():
    # scalar callers and the scan run the same kernel code: on floats and
    # on 1-element arrays it must give the same bits
    rng = np.random.default_rng(7)
    for _ in range(500):
        p = float(rng.uniform(1.0, 50.0))
        q = float(rng.uniform(1.0, p))
        N = int(rng.integers(3, 41))
        if p * q <= 1.0:
            continue
        scalar = curve_margins(p, q, N)
        vector = curve_margins(np.array([p]), np.array([q]), N)
        for s, v in zip(scalar, vector):
            assert isinstance(s, float)
            assert np.float64(s).tobytes() == v[0].tobytes(), (p, q, N)


@pytest.mark.parametrize("resolution", [1, 2, 20, 21, 41, 400])
@pytest.mark.parametrize("window", [(1.0, 12.0, 1.0, 12.0),
                                    (1.0, 1e308, 1.0, 1e308)],
                         ids=["default", "wide"])
def test_blocked_scan_matches_whole_lattice(resolution, window):
    # scan_codes evaluates blocks of 8192 // resolution rows (20 at 400^2);
    # the codes and counts equal one region_codes call on the whole lattice
    from lelab.scan import region_codes, scan_codes

    for N in (10, 11, 13):
        res = scan_codes(N, window, resolution)
        whole = region_codes(res.p[:, None], res.q[None, :], N)
        assert res.codes.dtype == whole.dtype
        assert res.codes.tobytes() == whole.tobytes()
        assert res.counts == tuple(np.bincount(whole.ravel(),
                                               minlength=3).tolist())


def test_region_codes_match_classify(rng):
    from lelab.scan import region_codes

    ps = rng.uniform(1.0, 14.0, size=300)
    qs = rng.uniform(1.0, 14.0, size=300)
    for N in (10, 11, 13):
        codes = region_codes(ps, qs, N)
        for p, q, code in zip(ps, qs, codes):
            v = classify(ParameterTriple(max(p, q), min(p, q), N))
            if v.sobolev is SobolevClass.SUBCRITICAL:
                want = 0
            elif v.jl in (CurvePosition.ABOVE, CurvePosition.ON):
                want = 2
            else:
                want = 1
            assert code == want, (N, p, q, code, want)
