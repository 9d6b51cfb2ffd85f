import math

import mpmath as mp
import numpy as np
import pytest

from lelab import ConvergenceError, DiscretizationError, DomainError, \
    InvalidOptions, ParameterTriple, hardy_rellich_constant, jl_curve_q
from lelab.cli import main as cli_main
from lelab.eigen import (Annulus, EigOptions, default_ladder, eig_ladder,
                         principal_eigenvalue, richardson_limit,
                         singular_stability_verdict)


def exact_zero_gamma_eigenvalue(N: int, annulus: Annulus) -> float:
    # gamma = 0: substituting phi = r^{-(N-2)/2} w(log r) turns the quotient
    # into int (w'' - c w)^2 / int w^2 with c = (N-2)^2/4 and sine
    # eigenfunctions, so lambda = (c + (pi/L)^2)^2 exactly
    c = (N - 2.0) ** 2 / 4.0
    return (c + (math.pi / annulus.log_width) ** 2) ** 2


def discrete_zero_gamma_eigenvalue(N: int, annulus: Annulus) -> float:
    # gamma = 0: the flux-form operator in ground-state variables is
    # h^-2 tridiag(-1, 2 cosh((N-2)h/2), -1) with sine eigenvectors; the
    # half-angle forms of cosh - 1 and 1 - cos avoid cancellation
    M = annulus.M
    h = annulus.log_width / (M + 1)
    s = (4.0 * math.sinh((N - 2.0) * h / 4.0) ** 2
         + 4.0 * math.sin(math.pi / (2.0 * (M + 1))) ** 2) / h**2
    return s * s


def mp_flux_form_eigenvalue(N: int, gamma: float, annulus: Annulus) -> float:
    """Smallest eigenvalue of Q^-1/2 K R^-1 K Q^-1/2 at 30 digits.

    K is the flux-form radial operator on the uniform log grid, with
    coefficients e^{(N-2) rho} at the half nodes; R = diag(r^{N+gamma-2}) and
    Q = diag(r^{N-gamma-2}) at the interior nodes.
    """
    with mp.workdps(30):
        M = annulus.M
        a = mp.log(annulus.r_inner)
        h = (mp.log(annulus.r_outer) - a) / (M + 1)
        rho = [a + (i + 1) * h for i in range(M)]
        flux = [mp.exp((N - 2) * (a + (i + mp.mpf(0.5)) * h))
                for i in range(M + 1)]
        K = mp.zeros(M, M)
        for i in range(M):
            K[i, i] = (flux[i] + flux[i + 1]) / h**2
            if i + 1 < M:
                K[i, i + 1] = K[i + 1, i] = -flux[i + 1] / h**2
        r_inv = mp.diag([mp.exp(-(N + gamma - 2) * x) for x in rho])
        q_inv_half = mp.diag([mp.exp(-(N - gamma - 2) * x / 2) for x in rho])
        S = q_inv_half * K * r_inv * K * q_inv_half
        return float(min(mp.eigsy(S, eigvals_only=True)))


class TestPrincipalEigenvalue:
    @pytest.mark.parametrize("N", [3, 11, 23, 40])
    def test_matches_discrete_closed_form_at_zero_gamma(self, N):
        # the cancellation left in ||T^T y||^2 grows as C_gamma shrinks
        tol = 2e-10 if N <= 5 else 1e-11
        for ann in default_ladder(14):
            lam = principal_eigenvalue(ann, N, 0.0).lam
            exact = discrete_zero_gamma_eigenvalue(N, ann)
            assert lam == pytest.approx(exact, rel=tol), (N, ann)

    @pytest.mark.parametrize("N, gamma", [(11, 0.4), (13, 2.0), (23, 5.5)])
    def test_matches_mpmath_flux_form_eigenvalue(self, N, gamma):
        # (23, 5.5) on this coarse grid: (N-2)h = 3, far from the continuum
        ann = Annulus(1e-2, 1e2, 64)
        lam = principal_eigenvalue(ann, N, gamma).lam
        assert lam == pytest.approx(mp_flux_form_eigenvalue(N, gamma, ann),
                                    rel=1e-10)

    def test_wide_annulus_in_high_dimension_is_finite(self):
        # r^N spans 10^{+-322} here: no weight may be formed in r itself
        rep = principal_eigenvalue(Annulus(1e-14, 1e14, 14 * 1024), 23, 0.5)
        assert math.isfinite(rep.lam)
        assert rep.lam > hardy_rellich_constant(23, 0.5)
        assert np.all(np.isfinite(rep.phi)) and np.all(np.isfinite(rep.psi))

    def test_too_fine_grid_is_refused(self):
        # here the formed shifted matrix no longer resolves the principal
        # mode: lambda came out 5e-5 high instead of failing
        with pytest.raises(DiscretizationError, match="too fine"):
            principal_eigenvalue(Annulus(1e-2, 1e2, 102_400), 11, 0.4)
        principal_eigenvalue(Annulus(1e-2, 1e2, 25_600), 11, 0.4)

    @pytest.mark.parametrize("M", [10**15, int(1e308)], ids=["1e15", "1e308"])
    def test_huge_node_count_refused_before_allocating(self, M):
        # the grid of M + 2 nodes would take petabytes, or more than numpy
        # can size, so the fineness test has to come first
        with pytest.raises(DiscretizationError, match="too fine"):
            principal_eigenvalue(Annulus(0.1, 10.0, M), 11, 0.4)

    @pytest.mark.parametrize("r_in, r_out", [(0.1, 10.0), (1e-6, 1.0),
                                             (1e-14, 1e14), (3.7, 5e3)])
    def test_step_is_the_linspace_step(self, r_in, r_out):
        # principal_eigenvalue forms h before it allocates the grid, as
        # np.linspace forms rho[1] - rho[0]: (start + step) - start, bit
        # for bit, which keeps every eig artifact's bytes
        start, stop = math.log(r_in), math.log(r_out)
        for M in (16, 64, 1000, 1024, 5119, 14 * 1024):
            rho = np.linspace(start, stop, M + 2)
            assert rho[1] - rho[0] == (start + (stop - start) / (M + 1)) - start

    def test_matches_exact_solution_at_zero_gamma(self):
        ann = Annulus(1e-2, 1e2, 2048)
        rep = principal_eigenvalue(ann, 11, 0.0)
        exact = exact_zero_gamma_eigenvalue(11, ann)
        assert rep.lam == pytest.approx(exact, rel=1e-4)
        assert rep.lam > exact  # discrete value approaches from above here

    def test_second_order_convergence(self):
        ann = lambda M: Annulus(1e-2, 1e2, M)
        exact = exact_zero_gamma_eigenvalue(11, ann(256))
        errs = [principal_eigenvalue(ann(M), 11, 0.0).lam - exact
                for M in (512, 1024, 2048)]
        ratio1 = errs[0] / errs[1]
        ratio2 = errs[1] / errs[2]
        assert 3.0 < ratio1 < 5.0
        assert 3.0 < ratio2 < 5.0

    def test_second_order_convergence_offdiagonal(self):
        # no closed form at gamma != 0: Richardson in M supplies the oracle
        ann = lambda M: Annulus(1e-2, 1e2, M)
        lams = {M: principal_eigenvalue(ann(M), 13, 1.7).lam
                for M in (512, 1024, 2048)}
        ratio = (lams[512] - lams[1024]) / (lams[1024] - lams[2048])
        assert 3.0 < ratio < 5.0

    def test_exceeds_infimum_and_wide_annulus_example(self):
        rep = principal_eigenvalue(Annulus(1e-4, 1e4, 4096), 11, 0.0)
        c0 = hardy_rellich_constant(11, 0.0)
        assert c0 < rep.lam < 1.02 * c0

    def test_domain_monotonicity(self):
        inner = principal_eigenvalue(Annulus(1e-2, 1e2, 1024), 11, 0.7)
        outer = principal_eigenvalue(Annulus(1e-3, 1e3, 1536), 11, 0.7)
        assert outer.lam < inner.lam

    def test_positive_eigenfunctions(self):
        rep = principal_eigenvalue(Annulus(1e-3, 1e3, 512), 13, 1.0)
        assert np.all(rep.phi > 0.0)
        assert np.all(rep.psi > 0.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            Annulus(1.0, 0.5, 64)
        with pytest.raises(DomainError):
            Annulus(1e-2, 1e2, 8)
        with pytest.raises(DomainError):
            principal_eigenvalue(Annulus(1e-2, 1e2, 64), 11, 9.5)
        with pytest.raises(ConvergenceError):
            principal_eigenvalue(Annulus(1e-2, 1e2, 64), 11, 0.9,
                                 EigOptions(max_iter=3))

    @pytest.mark.parametrize("M", [64.7, 64.0, math.nan, "64"])
    def test_node_count_not_an_integer(self, M):
        # 64.7 ended in a TypeError from numpy, not a LaneEmdenError
        with pytest.raises(DomainError, match="integer"):
            principal_eigenvalue(Annulus(0.1, 10, M), 11, 0.4)

    @pytest.mark.parametrize("opts", [
        EigOptions(tol=0.0), EigOptions(tol=-1e-11), EigOptions(tol=1.0),
        EigOptions(tol=1e308), EigOptions(tol=math.inf),
        EigOptions(tol=math.nan), EigOptions(max_iter=0)])
    def test_options_refused(self, opts):
        # a relative tol of 1 or more stops at once, and 1e308 overflows
        # the stopping test
        with pytest.raises(InvalidOptions):
            principal_eigenvalue(Annulus(1e-2, 1e2, 64), 11, 0.4, opts)


class TestLadder:
    def test_rung_past_the_double_range_refused(self):
        # 10.0 ** 309 overflows; k = 308 still forms its annulus
        with pytest.raises(DomainError, match="double range"):
            default_ladder(309)
        assert default_ladder(308, 16)[-1].r_outer == 1e308

    def test_decreasing_and_extrapolates_to_constant(self):
        reports = eig_ladder(11, 0.4, default_ladder(4, 512))
        lams = [r.lam for r in reports]
        assert all(b < a for a, b in zip(lams, lams[1:]))
        c = hardy_rellich_constant(11, 0.4)
        assert all(lam > c for lam in lams)
        assert richardson_limit(reports) == pytest.approx(c, rel=0.01)

    def test_rung_matches_single_annulus(self):
        ann = default_ladder(3, 512)
        rung = eig_ladder(11, 1.1, ann)[-1].lam
        single = principal_eigenvalue(ann[-1], 11, 1.1).lam
        assert rung == single


class TestStabilityVerdict:
    def test_unstable_below_curve(self):
        sr = singular_stability_verdict(ParameterTriple(3, 2, 11))
        assert sr.verdict == "SingularUnstable"
        assert not sr.marginal
        assert sr.lecv_consistent
        # the closed-form comparison: inf lambda = C_gamma < K1K2
        assert sr.k1k2 == pytest.approx(664.9344, rel=1e-12)
        assert min(r.lam for r in sr.reports) < sr.k1k2

    def test_stable_above_curve(self):
        sr = singular_stability_verdict(ParameterTriple(8, 8, 11))
        assert sr.verdict == "SingularStable"
        assert not sr.marginal
        assert sr.lecv_consistent
        assert all(r.lam > sr.k1k2 for r in sr.reports)

    def test_marginal_on_curve(self):
        q_star = jl_curve_q(11, 8.0)
        sr = singular_stability_verdict(
            ParameterTriple(8.0, q_star, 11),
            ladder=default_ladder(3, 512),
        )
        assert sr.extended == 11  # to the cap, k = 14
        assert sr.marginal

    def test_biharmonic_edge_consistency(self):
        # gamma = 2 exactly (q = 1); the stable window at N = 13 opens
        # between p = 28 and p = 29
        ladder = [Annulus(1e-3, 1e3, 1024), Annulus(1e-4, 1e4, 2048)]
        stable = singular_stability_verdict(ParameterTriple(30, 1, 13),
                                            ladder=ladder)
        assert stable.verdict == "SingularStable"
        assert stable.lecv_consistent
        unstable = singular_stability_verdict(ParameterTriple(20, 1, 13),
                                              ladder=ladder)
        assert unstable.verdict == "SingularUnstable"
        assert unstable.lecv_consistent

    def test_extended_rungs_match_closed_form(self):
        # near the curve at gamma = 0 the ladder extends to k = 14; every
        # extended rung must be the eigenvalue of its own discrete operator
        sr = singular_stability_verdict(ParameterTriple(6.9, 6.9, 11))
        assert sr.extended > 0
        for rep in sr.reports:
            exact = discrete_zero_gamma_eigenvalue(11, rep.annulus)
            assert rep.lam == pytest.approx(exact, rel=1e-10)

    def test_high_dimension_ladder_cli(self, tmp_path):
        rc = cli_main(["eig", "30", "20", "40", "--ladder", "8",
                       "--out", str(tmp_path), "--no-cache"])
        assert rc == 0

    def test_extension_contains_an_asymmetric_annulus(self):
        # the extension starts past both ends of the given rung: after
        # [1e-6, 1] it appended [0.1, 10], [0.01, 100] and [1e-3, 1e3],
        # narrower than the rung, before a wider one (9 rungs in all)
        given = Annulus(1e-6, 1.0, 1024)
        sr = singular_stability_verdict(ParameterTriple(6.9, 6.9, 11),
                                        ladder=[given])
        assert [rep.annulus for rep in sr.reports] == [
            given, Annulus(1e-7, 1e7, 7 * 1024), Annulus(1e-8, 1e8, 8 * 1024)]
        assert sr.extended == 2
        assert sr.verdict == "SingularUnstable"
        # a symmetric rung extends from the next k, as before
        sr = singular_stability_verdict(ParameterTriple(6.9, 6.9, 11),
                                        ladder=[Annulus(0.1, 10.0, 64)])
        assert [round(math.log10(rep.annulus.r_outer))
                for rep in sr.reports] == list(range(1, 9))

    def test_single_annulus_form(self):
        sr = singular_stability_verdict(ParameterTriple(3, 2, 11),
                                        ladder=[Annulus(1e-2, 1e2, 512)])
        assert sr.verdict == "SingularUnstable"
        assert len(sr.reports) == 1
        assert sr.reports[0].verdict == sr.verdict
        assert sr.reports[0].k1k2 == sr.k1k2
