import math

import numpy as np
import pytest

from lelab import CurvePosition, DomainError, ParameterTriple, classify, derive_scaling
from lelab.closed_form import (SingularSolution, indicial_exponents,
                               transverse_covector)

from conftest import valid_triples
from references import (SupersolutionPair, default_sample_radii,
                        eval_singular, singular_residuals,
                        supersolution_residuals)


class TestSingularSolution:
    def test_symmetric_values(self):
        sc = derive_scaling(ParameterTriple(3, 3, 11))
        u, v, du, dv = eval_singular(sc, 1.0)
        assert u == v == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
        u4, v4, _, _ = eval_singular(sc, 4.0)
        assert u4 == pytest.approx(2.0 * math.sqrt(2.0) / 4.0, rel=1e-14)

    def test_rejects_nonpositive_radius(self):
        sc = derive_scaling(ParameterTriple(3, 3, 11))
        with pytest.raises(DomainError):
            eval_singular(sc, 0.0)
        with pytest.raises(DomainError):
            eval_singular(sc, -1.0)

    def test_residuals_vanish(self):
        sc = derive_scaling(ParameterTriple(3, 2, 11))
        ru, rv = singular_residuals(sc, default_sample_radii())
        assert float(np.max(ru)) < 1e-12
        assert float(np.max(rv)) < 1e-12

    def test_residuals_random_triples(self, rng):
        for p, q, N in valid_triples(rng, 60):
            sc = derive_scaling(ParameterTriple(p, q, N))
            ru, rv = singular_residuals(sc, default_sample_radii())
            assert float(np.max(ru)) < 1e-10
            assert float(np.max(rv)) < 1e-10

    def test_scale_covariance(self, rng):
        sc = derive_scaling(ParameterTriple(4, 2.5, 12))
        sol = SingularSolution(sc)
        r = default_sample_radii(32)
        for lam in (2.0, 10.0, 0.125):
            left = sol.u(lam * r)
            right = lam ** (-sc.alpha) * sol.u(r)
            assert np.allclose(left, right, rtol=1e-13)

    def test_derivatives(self):
        sc = derive_scaling(ParameterTriple(3, 2, 11))
        sol = SingularSolution(sc)
        r = 1.7
        h = 1e-6
        fd = (sol.u(r + h) - sol.u(r - h)) / (2 * h)
        assert sol.du(r) == pytest.approx(fd, rel=1e-8)


class TestSupersolutionPair:
    def test_exponent_assignment(self):
        # power balance in -Delta phi = p v_s^{p-1} psi forces phi to carry
        # the larger exponent (N-2+gamma)/2
        sc = derive_scaling(ParameterTriple(3, 2, 11))
        pair = SupersolutionPair(sc)
        assert pair.m_phi == pytest.approx((11 - 2 + sc.gamma) / 2, rel=1e-14)
        assert pair.m_psi == pytest.approx((11 - 2 - sc.gamma) / 2, rel=1e-14)
        expected = 4.0 * sc.K1 / ((9 - sc.gamma) * (9 + sc.gamma))
        assert pair.phi_coefficient == pytest.approx(expected, rel=1e-14)

    def test_first_equation_exact(self, rng):
        for p, q, N in valid_triples(rng, 40):
            sc = derive_scaling(ParameterTriple(p, q, N))
            rep = supersolution_residuals(sc)
            assert float(np.max(rep.res_linear)) < 1e-12

    def test_second_residual_sign_matches_curve_side(self):
        for (p, q, N) in ((3, 2, 11), (8, 8, 11), (5, 5, 11), (30, 1, 13),
                          (10, 6, 11), (4, 4, 13)):
            params = ParameterTriple(p, q, N)
            sc = derive_scaling(params)
            rep = supersolution_residuals(sc)
            assert rep.sign_constant
            side = classify(params).jl
            assert rep.stability_witness == (side in (CurvePosition.ABOVE,
                                                      CurvePosition.ON))
            expected_rel = (sc.C_gamma - sc.K1K2) / sc.C_gamma
            assert rep.res_coupling_rel == pytest.approx(expected_rel, rel=1e-12)

    def test_diagonal_reduction(self):
        # gamma = 0: -Delta psi = ((N-2)^2/4) r^-2 psi exactly
        sc = derive_scaling(ParameterTriple(8, 8, 11))
        pair = SupersolutionPair(sc)
        r = default_sample_radii(16)
        lhs = pair.m_psi * (11 - 2 - pair.m_psi) * r ** (-pair.m_psi - 2.0)
        target = ((11 - 2) ** 2 / 4.0) * r ** (-2.0) * pair.psi(r)
        assert np.allclose(lhs, target, rtol=1e-13)

    def test_witness_agrees_with_classify_random(self, rng):
        for p, q, N in valid_triples(rng, 60):
            params = ParameterTriple(p, q, N)
            sc = derive_scaling(params)
            rep = supersolution_residuals(sc)
            side = classify(params).jl
            if side is CurvePosition.ON:
                continue
            assert rep.stability_witness == (side is CurvePosition.ABOVE)


class TestIndicialExponents:
    def test_roots_satisfy_quartic(self, rng):
        for p, q, N in valid_triples(rng, 30):
            sc = derive_scaling(ParameterTriple(p, q, N))
            A1 = N - 2.0 - 2.0 * sc.alpha
            A2 = N - 2.0 - 2.0 * sc.beta
            for x in indicial_exponents(sc):
                val = (x * x - A1 * x - sc.S) * (x * x - A2 * x - sc.T) \
                    - sc.K1K2
                assert abs(val) < 1e-6 * max(1.0, sc.K1K2)

    def test_transverse_root_real_negative_and_matches_companion(self, rng):
        # kappa_min is real and negative on both sides of the curve; all
        # four roots agree with numpy's companion-matrix eigenvalues
        for p, q, N in valid_triples(rng, 200):
            sc = derive_scaling(ParameterTriple(p, q, N))
            A1 = N - 2.0 - 2.0 * sc.alpha
            A2 = N - 2.0 - 2.0 * sc.beta
            roots = indicial_exponents(sc)
            assert roots[0].imag == 0.0 and roots[0].real < 0.0
            oracle = np.roots([1.0, -(A1 + A2), A1 * A2 - sc.S - sc.T,
                               A1 * sc.T + A2 * sc.S,
                               -sc.S * sc.T * (sc.p * sc.q - 1.0)])
            oracle = oracle[np.lexsort((oracle.imag, oracle.real))]
            ours = roots[np.lexsort((roots.imag, roots.real))]
            assert np.allclose(ours, oracle, rtol=1e-8, atol=1e-8), (p, q, N)

    def test_symmetric_case_closed_form(self):
        # p = q: perturbation modes r^-m solve m(N-2-m) = +-pS, and the
        # quartic roots are kappa = m - alpha for those four m
        sc = derive_scaling(ParameterTriple(8, 8, 11))
        roots = np.sort(indicial_exponents(sc).real)
        disc_plus = math.sqrt(81.0 - 4.0 * 8.0 * sc.S)
        disc_minus = math.sqrt(81.0 + 4.0 * 8.0 * sc.S)
        ms = [(9.0 - disc_minus) / 2.0, (9.0 - disc_plus) / 2.0,
              (9.0 + disc_plus) / 2.0, (9.0 + disc_minus) / 2.0]
        expected = np.sort(np.array(ms) - sc.alpha)
        assert np.allclose(roots, expected, rtol=1e-10)

    def test_real_above_complex_below(self):
        above = indicial_exponents(derive_scaling(ParameterTriple(8, 8, 11)))
        assert np.all(np.abs(above.imag) < 1e-12)
        below = indicial_exponents(derive_scaling(ParameterTriple(3, 3, 11)))
        assert np.any(np.abs(below.imag) > 1e-6)

    def test_one_growing_mode_above_curve(self):
        roots = indicial_exponents(derive_scaling(ParameterTriple(10, 6, 11)))
        assert np.sum(roots.real < 0) == 1


class TestTransverseCovector:
    # with t = log r, U = r^alpha u and V = r^beta v the system reads
    # U_tt + A1 U_t - S U + V^p = 0, V_tt + A2 V_t - T V + U^q = 0; J is the
    # Jacobian of Y = (U, U_t, V, V_t) at the fixed point (a, 0, b, 0)
    @pytest.mark.parametrize("triple", [(9, 6, 11), (6, 4, 11), (30, 1, 13)])
    def test_left_eigenvector_of_the_jacobian(self, triple):
        sc = derive_scaling(ParameterTriple(*triple))
        n = sc.N - 2.0
        A1, A2 = n - 2.0 * sc.alpha, n - 2.0 * sc.beta
        S, T = sc.alpha * (n - sc.alpha), sc.beta * (n - sc.beta)
        J = np.array([[0.0, 1.0, 0.0, 0.0],
                      [S, -A1, -sc.p * sc.b ** (sc.p - 1.0), 0.0],
                      [0.0, 0.0, 0.0, 1.0],
                      [-sc.q * sc.a ** (sc.q - 1.0), 0.0, T, -A2]])
        kappa, ell = transverse_covector(sc)
        ell = np.array(ell)
        # the one growing mode e^{-kappa_min t}: numpy's left eigenvector
        w, left = np.linalg.eig(J.T)
        i = int(np.argmax(w.real))
        assert w[i].imag == 0.0
        assert w[i].real == pytest.approx(-kappa, rel=1e-12)
        oracle = left[:, i].real
        assert np.allclose(ell / ell[1], oracle / oracle[1], rtol=1e-10,
                           atol=1e-12)
        # l annihilates the other three modes; below the curve two of them
        # are the complex inner pair
        w, right = np.linalg.eig(J)
        i = int(np.argmax(w.real))
        others = [j for j in range(4) if j != i]
        assert np.any(np.abs(w[others].imag) > 1e-6) == (triple == (6, 4, 11))
        scale = np.linalg.norm(ell)
        for j in others:
            assert abs(ell @ right[:, j]) <= 1e-13 * scale
        # on the transverse mode l.dY is dU/a - dV/b, the first-order value
        # of log(U/a) - log(V/b)
        x = right[:, i].real
        assert ell @ x == pytest.approx(x[0] / sc.a - x[2] / sc.b, rel=1e-12)
