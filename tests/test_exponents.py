import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lelab import (CurvePosition, DomainError, ParameterTriple, SobolevClass,
                   classify, curve_margins, derive_scaling,
                   hardy_rellich_constant, jl_curve_q, jl_diagonal, jl_margin,
                   sobolev_margin)

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
            p_star = jl_diagonal(N, tol=1e-12)
            assert p_star == pytest.approx(classical_diagonal_exponent(N),
                                           abs=1e-9)

    def test_no_diagonal_crossing_low_dimension(self):
        for N in (3, 7, 10):
            assert jl_diagonal(N) is None

    def test_slice_root_against_margin_scan(self):
        # oracle: dense margin scan brackets the root independently
        q_star = jl_curve_q(11, 8.0, tol=1e-12)
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
