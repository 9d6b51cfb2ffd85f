import math

import mpmath as mp
import numpy as np
import pytest

from lelab import DomainError, ParameterTriple, derive_scaling, \
    hardy_rellich_constant, jl_curve_q
from lelab.cli import main as cli_main
from lelab.eigen import (Annulus, principal_eigenvalue, richardson_limit,
                         singular_stability_verdict)
from lelab.options import ladder_rung


def coarse_ladder(k_max: int) -> list[Annulus]:
    """The rungs [10^-k, 10^k], k = 1..k_max, with 512 k nodes: half the
    default ladder's density."""
    return [Annulus(10.0 ** -k, 10.0 ** k, 512 * k)
            for k in range(1, k_max + 1)]


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
        # lambda is D_1/h^4 at gamma = 0; the closed form's h, the log
        # width over M + 1, differs from the grid's step in its last bits
        for ann in map(ladder_rung, range(1, 15)):
            lam = principal_eigenvalue(ann, N, 0.0).lam
            exact = discrete_zero_gamma_eigenvalue(N, ann)
            assert lam == pytest.approx(exact, rel=1e-12), (N, ann)

    @pytest.mark.parametrize("N, gamma", [(11, 0.4), (13, 2.0), (23, 5.5)])
    def test_matches_mpmath_flux_form_eigenvalue(self, N, gamma):
        # (23, 5.5) on this coarse grid: (N-2)h = 3, far from the continuum
        ann = Annulus(1e-2, 1e2, 64)
        rep = principal_eigenvalue(ann, N, gamma)
        oracle = mp_flux_form_eigenvalue(N, gamma, ann)
        assert rep.lam == pytest.approx(oracle, rel=1e-14)
        assert abs(rep.lam - oracle) <= rep.lambda_err
        # the bound is a rounding bound, far inside the verdict band
        assert rep.lambda_err < 1e-12 * rep.lam

    def test_wide_annulus_in_high_dimension_is_finite(self):
        # r^N spans 10^{+-322} here: no weight may be formed in r itself
        rep = principal_eigenvalue(Annulus(1e-14, 1e14, 14 * 1024), 23, 0.5)
        assert math.isfinite(rep.lam)
        assert rep.lam > hardy_rellich_constant(23, 0.5)

    @pytest.mark.parametrize("r_in, r_out, M, gamma", [
        (1e-2, 1e2, 102_400, 0.4), (0.1, 10.0, 40_000, 6.0 / 53.0)])
    def test_fine_grids_converge_at_second_order(self, r_in, r_out, M, gamma):
        # the shifted factorization refused both grids as too fine; the
        # secular root has no such limit.  gamma = 6/53 is (9, 6, 11)'s
        lams = [principal_eigenvalue(Annulus(r_in, r_out, m), 11, gamma).lam
                for m in (M // 4, M // 2, M)]
        ratio = (lams[0] - lams[1]) / (lams[1] - lams[2])
        assert 3.9 < ratio < 4.1
        if M == 40_000:
            assert lams[2] == pytest.approx(428.99944712, abs=5e-9)

    @pytest.mark.parametrize("M", [10**15, int(1e308)], ids=["1e15", "1e308"])
    def test_huge_node_count_refused_before_allocating(self, M):
        # the sine table of M + 2 nodes would take petabytes, or more than
        # numpy can size: the annulus refuses the node count itself
        with pytest.raises(DomainError, match="interior nodes"):
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
        # the secular root is the principal eigenvalue: the smallest of the
        # dense h^-4 T T^T, whose eigenvector keeps one sign
        ann = Annulus(1e-3, 1e3, 512)
        rep = principal_eigenvalue(ann, 13, 1.0)
        h = ann.log_width / (ann.M + 1)
        T = (np.diag(np.full(ann.M, 2.0 * math.cosh(11.0 * h / 2.0)))
             - math.exp(0.5 * h) * np.eye(ann.M, k=-1)
             - math.exp(-0.5 * h) * np.eye(ann.M, k=1)) / h**2
        vals, vecs = np.linalg.eigh(T @ T.T)
        assert rep.lam == pytest.approx(vals[0], rel=1e-9)
        y = vecs[:, 0] * np.sign(vecs[0, 0])
        assert np.all(y > 0.0)

    def test_validation(self):
        with pytest.raises(DomainError):
            Annulus(1.0, 0.5, 64)
        with pytest.raises(DomainError):
            Annulus(1e-2, 1e2, 8)
        # True once ran as the radius 1
        # and 10**400 ended in an OverflowError
        for r_in, r_out in ((True, 10.0), (0.1, True), (math.nan, 10.0),
                            (0.1, 10**400)):
            with pytest.raises(DomainError, match="r_inner < r_outer"):
                Annulus(r_in, r_out, 64)
        for gamma in (9.5, True):  # True once ran as gamma = 1
            with pytest.raises(DomainError, match="gamma"):
                principal_eigenvalue(Annulus(1e-2, 1e2, 64), 11, gamma)

    @pytest.mark.parametrize("M", [64.7, 64.0, math.nan, "64"])
    def test_node_count_not_an_integer(self, M):
        # 64.7 ended in a TypeError from numpy, not a LaneEmdenError
        with pytest.raises(DomainError, match="integer"):
            principal_eigenvalue(Annulus(0.1, 10, M), 11, 0.4)


class TestLadder:
    def test_empty_ladder_refused(self):
        # no rung, no verdict: once an IndexError at the top rung
        with pytest.raises(DomainError, match="empty ladder"):
            singular_stability_verdict(ParameterTriple(9, 6, 11), ladder=[])

    def test_decreasing_and_extrapolates_to_constant(self):
        reports = [principal_eigenvalue(ann, 11, 0.4)
                   for ann in coarse_ladder(4)]
        lams = [r.lam for r in reports]
        assert all(b < a for a, b in zip(lams, lams[1:]))
        c = hardy_rellich_constant(11, 0.4)
        assert all(lam > c for lam in lams)
        assert richardson_limit(reports) == pytest.approx(c, rel=0.01)

    def test_rung_matches_single_annulus(self):
        # the verdict solves each rung on its own, as a single annulus
        params = ParameterTriple(9, 6, 11)
        ann = coarse_ladder(3)
        rung = singular_stability_verdict(params, ann).reports[2].lam
        single = principal_eigenvalue(ann[-1], 11,
                                      derive_scaling(params).gamma).lam
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
            ladder=coarse_ladder(3),
        )
        assert sr.extended == 11  # to the cap, k = 14
        assert sr.marginal
        # the rounding bound is six orders inside the verdict band
        band = 1e-6 * max(1.0, sr.k1k2)
        assert all(rep.lambda_err < 1e-6 * band for rep in sr.reports)

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
        rc = cli_main(["eig", "30", "20", "40", "--annulus", "1e-8", "1e8",
                       "8192", "--out", str(tmp_path), "--no-cache"])
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
