"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; each test also fails individually through its assertions.
"""

import math
import time

import numpy as np
import pytest

from lelab import (CurvePosition, DomainError, ParameterTriple, classify,
                   derive_scaling, hardy_rellich_constant, jl_diagonal)
from lelab.eigen import (Annulus, _gap_estimate, default_ladder,
                         principal_eigenvalue, richardson_limit)
from lelab.profiles import compare, truncate_profile
from lelab.radial import (InitialData, SolverOptions, decay_identity_check,
                          integrate, rescale, shoot)
from lelab.scan import scan_codes
from lelab.cli import main as cli_main
from lelab.closed_form import SingularSolution
from lelab.radial import IntegratorStats, ProfileClass, RadialProfile

from conftest import valid_triples
from references import (default_sample_radii, ode_residual,
                        reference_integrate, singular_residuals,
                        supersolution_residuals)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


# ----------------------------------------------------------------------
# 1. algebraic identities on 1e4 random triples, rel <= 1e-12, < 1 s

def test_c1_algebraic_identities(rng):
    triples = valid_triples(rng, 10_000)
    p = np.array([t[0] for t in triples])
    q = np.array([t[1] for t in triples])
    N = np.array([t[2] for t in triples], dtype=float)
    t0 = time.perf_counter()
    pq1 = p * q - 1.0
    alpha = 2.0 * (p + 1.0) / pq1
    beta = 2.0 * (q + 1.0) / pq1
    S = alpha * (N - 2.0 - alpha)
    T = beta * (N - 2.0 - beta)
    log_S, log_T = np.log(S), np.log(T)
    K1 = p * np.exp((p - 1.0) * (q * log_S + log_T) / pq1)
    K2 = q * np.exp((q - 1.0) * (log_S + p * log_T) / pq1)
    rel = np.empty((4, p.size))
    rel[0] = K1 * K2 / (p * q * S * T) - 1.0
    rel[1] = (alpha + 2.0) / (beta * p) - 1.0
    rel[2] = (beta + 2.0) / (alpha * q) - 1.0
    rel[3] = (beta * (p - 1.0) + alpha * (q - 1.0)) / 4.0 - 1.0
    worst = float(np.max(np.abs(rel)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report("C1", ok, f"worst relative identity error {worst:.2e} "
                      f"on {p.size} triples in {elapsed:.3f} s")
    assert worst <= 1e-12
    assert elapsed < 1.0


# ----------------------------------------------------------------------
# 2. singular-solution residuals, 100 random triples x 64 radii, <= 1e-10

def test_c2_singular_residuals(rng):
    triples = valid_triples(rng, 100)
    radii = default_sample_radii(64)
    t0 = time.perf_counter()
    worst = 0.0
    for p, q, N in triples:
        ru, rv = singular_residuals(derive_scaling(ParameterTriple(p, q, N)),
                                    radii)
        worst = max(worst, float(np.max(ru)), float(np.max(rv)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _report("C2", ok, f"worst pointwise residual {worst:.2e} in {elapsed:.3f} s")
    assert worst <= 1e-10
    assert elapsed < 1.0


# ----------------------------------------------------------------------
# 3. supersolution sign == classify == eigensolver verdict on 50x50 grids

def _grid_cells(N, lo, hi, n=50):
    ps = np.linspace(lo, hi, n)
    cells = []
    for p in ps:
        for q in ps:
            if q > p or p * q <= 1.0:
                continue
            try:
                sc = derive_scaling(ParameterTriple(float(p), float(q), N))
            except DomainError:
                continue
            cells.append((float(p), float(q), sc))
    return cells


def _eig_stable_top(N, sc, k_top, m_per_k):
    """Ladder-top comparison lambda vs K1K2, extending while undecided."""
    k = k_top
    lam = principal_eigenvalue(Annulus(10.0 ** -k, 10.0 ** k, m_per_k * k),
                               N, sc.gamma).lam
    while (lam >= sc.K1K2
           and lam - sc.K1K2 < 2.0 * _gap_estimate(sc.C_gamma,
                                                   2.0 * k * math.log(10.0))
           and k < 14):
        k += 1
        lam = principal_eigenvalue(Annulus(10.0 ** -k, 10.0 ** k, m_per_k * k),
                                   N, sc.gamma).lam
    return lam >= sc.K1K2, lam, k


@pytest.mark.slow
def test_c3_stability_equivalence_grid():
    t0 = time.perf_counter()
    windows = ((11, 1.08, 13.10), (13, 1.10, 8.13))
    total = 0
    skipped = 0
    mismatches = []
    for N, lo, hi in windows:
        cells = _grid_cells(N, lo, hi)
        for p, q, sc in cells:
            total += 1
            band = 1e-6 * max(1.0, sc.K1K2)
            if abs(sc.C_gamma - sc.K1K2) <= band:
                skipped += 1
                continue
            witness = supersolution_residuals(sc).stability_witness
            side = classify(ParameterTriple(p, q, N)).jl
            cls_stable = side in (CurvePosition.ABOVE, CurvePosition.ON)
            eig_stable, lam, k = _eig_stable_top(N, sc, 5, 1024)
            if not (witness == cls_stable == eig_stable):
                mismatches.append((N, p, q, witness, cls_stable, eig_stable,
                                   lam, sc.K1K2, k))
    elapsed = time.perf_counter() - t0
    ok = not mismatches
    _report("C3", ok,
            f"{total} cells ({skipped} inside the curve band) agree across "
            f"supersolution sign, classify, and ladder-top eigenvalue in "
            f"{elapsed:.0f} s; mismatches: {mismatches[:3]}")
    assert not mismatches


# ----------------------------------------------------------------------
# 4. diagonal crossing vs classical closed form; empty region for N <= 10

def test_c4_diagonal_and_low_dimensions():
    t0 = time.perf_counter()
    worst = 0.0
    for N in range(11, 21):
        closed = ((N - 2.0) ** 2 - 4.0 * N + 8.0 * math.sqrt(N - 1.0)) / \
            ((N - 2.0) * (N - 10.0))
        got = jl_diagonal(N)
        worst = max(worst, abs(got - closed))
    stable_cells = 0
    for N in range(3, 11):
        res = scan_codes(N, (1.0, 12.0, 1.0, 12.0), 200)
        stable_cells += int(np.sum(res.codes == 2))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and stable_cells == 0 and elapsed < 10.0
    _report("C4", ok, f"diagonal worst |error| {worst:.2e} vs closed form; "
                      f"{stable_cells} stable cells for N <= 10; {elapsed:.1f} s")
    assert worst <= 1e-8
    assert stable_cells == 0
    assert elapsed < 10.0


# ----------------------------------------------------------------------
# 5. Hardy-Rellich ladder convergence for three (N, gamma) pairs

@pytest.mark.slow
def test_c5_hardy_rellich_convergence():
    t0 = time.perf_counter()
    details = []
    for N, gamma in ((11, 0.0), (11, 0.4), (13, 1.0)):
        reports = [principal_eigenvalue(ann, N, gamma)
                   for ann in default_ladder()]
        lams = [r.lam for r in reports]
        c = hardy_rellich_constant(N, gamma)
        assert all(b < a for a, b in zip(lams, lams[1:])), (N, gamma, lams)
        assert all(lam > c for lam in lams), (N, gamma)
        ext = richardson_limit(reports)
        rel = abs(ext - c) / c
        assert rel < 0.01, (N, gamma, ext, c)
        details.append(f"(N={N}, g={gamma}): extrap rel err {rel:.1e}")
    # grid-doubling ratio on the gamma = 0 example at a fixed annulus
    lam = {M: principal_eigenvalue(Annulus(1e-2, 1e2, M), 11, 0.0).lam
           for M in (512, 1024, 2048)}
    ratio = (lam[512] - lam[1024]) / (lam[1024] - lam[2048])
    assert 3.0 <= ratio <= 5.0
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report("C5", ok, "; ".join(details) + f"; doubling ratio {ratio:.2f}; "
                                           f"{elapsed:.0f} s")
    assert elapsed < 60.0


# ----------------------------------------------------------------------
# 6. ordering above the curve: shot profiles sit below the singular pair

def _crossover_radius(prof, sc):
    """Radius where the shot leaves the entire-solution manifold.

    The ratio deficits decay like r^-ks along the manifold while the
    transverse shooting error grows like r^+kg, so their sum |e_u| + |e_v|
    has a sharp minimum at the crossover; beyond it the tail is an artifact
    of the finite v0 precision.
    """
    sing = SingularSolution(sc)
    eu = 1.0 - prof.u / sing.u(prof.r)
    ev = 1.0 - prof.v / sing.v(prof.r)
    msk = prof.r > 20.0
    tot = np.abs(eu[msk]) + np.abs(ev[msk])
    return float(prof.r[msk][int(np.argmin(tot))])


def _ordering_case(p, q, N, bracket, r_target):
    params = ParameterTriple(p, q, N)
    sc = derive_scaling(params)
    opts = SolverOptions(r_target=r_target, rtol=1e-12, atol=1e-14)
    res = shoot(params, 1.0, bracket, opts, polish=(p != q))
    if p == q:
        # the diagonal shot is exact (u = v bitwise); only the decay of the
        # ratio deficit limits the window
        r_star = min(1000.0, 0.5 * r_target)
    else:
        # keep a margin below the crossover: at 0.68 r_x the transverse
        # error is 0.68^(kg+ks) ~ 10% of the manifold gap
        r_star = min(0.68 * _crossover_radius(res.profile, sc),
                     0.8 * r_target)
    prof = truncate_profile(res.profile, r_star)
    rep = compare(prof, sc)
    return rep, r_star, res


ABOVE_CURVE_TRIPLES = [
    # (p, q, N, bracket, r_target): all classify as AboveCurve
    (8.0, 8.0, 11, (0.5, 2.0), 1e6),
    (9.0, 6.0, 11, (0.2, 5.0), 1e6),
    (10.0, 6.0, 11, (0.2, 5.0), 1e6),
    (12.0, 7.0, 11, (0.2, 5.0), 1e6),
]


@pytest.mark.slow
@pytest.mark.parametrize("p,q,N,bracket,r_target", ABOVE_CURVE_TRIPLES)
def test_c6_ordering_above_curve(p, q, N, bracket, r_target):
    t0 = time.perf_counter()
    assert classify(ParameterTriple(p, q, N)).jl is CurvePosition.ABOVE
    rep, r_star, _ = _ordering_case(p, q, N, bracket, r_target)
    elapsed = time.perf_counter() - t0
    ok = (rep.ordered and 0 < rep.m1 < 1.0 and 0 < rep.m2 < 1.0
          and rep.chain_deficit_p <= 1e-8 and rep.chain_deficit_q <= 1e-8
          and elapsed < 60.0)
    _report("C6", ok,
            f"({p:g},{q:g},{N}) ordered={rep.ordered} M1={rep.m1:.12f} "
            f"M2={rep.m2:.12f} chain deficits ({rep.chain_deficit_p:.1e}, "
            f"{rep.chain_deficit_q:.1e}) on r <= {r_star:.0f}; {elapsed:.0f} s")
    assert rep.ordered
    assert 0.0 < rep.m1 < 1.0 and 0.0 < rep.m2 < 1.0
    assert rep.chain_deficit_p <= 1e-8
    assert rep.chain_deficit_q <= 1e-8
    assert elapsed < 60.0


@pytest.mark.slow
def test_c6_ordering_biharmonic_edge():
    # the biharmonic edge of the stable region: q = 1 requires N >= 13
    # (see the strict-xfail companion tests for the N = 11 statement)
    t0 = time.perf_counter()
    p, q, N = 30.0, 1.0, 13
    assert classify(ParameterTriple(p, q, N)).jl is CurvePosition.ABOVE
    rep, r_star, _ = _ordering_case(p, q, N, (0.05, 20.0), 500.0)
    elapsed = time.perf_counter() - t0
    ok = rep.ordered and 0 < rep.m1 < 1.0 and 0 < rep.m2 < 1.0
    _report("C6", ok,
            f"(30,1,13) ordered={rep.ordered} M1={rep.m1:.9f} M2={rep.m2:.9f} "
            f"on r <= {r_star:.0f}; {elapsed:.0f} s")
    assert rep.ordered
    assert 0.0 < rep.m1 < 1.0 and 0.0 < rep.m2 < 1.0
    assert elapsed < 60.0


@pytest.mark.xfail(
    strict=True,
    reason="no (p, 1, 11) pair inside the existence region lies on or above "
           "the critical curve: at q=1 the product K1K2 decreases to "
           "4(N-2)^2(N-4)/(N-2) * ... = 504 as p grows while "
           "C_2 = (77/4)^2 = 370.6, so the q=1 edge of the stable region "
           "first appears at N = 13",
)
def test_c6_biharmonic_edge_exists_at_dimension_eleven():
    from lelab import SobolevClass
    ps = np.geomspace(11.0 / 7.0 + 1e-6, 1e6, 600)
    found = False
    for p in ps:
        t = ParameterTriple(float(p), 1.0, 11)
        v = classify(t)
        if v.sobolev is SobolevClass.SUBCRITICAL:
            continue  # no radial solutions exist below the hyperbola
        if v.jl in (CurvePosition.ABOVE, CurvePosition.ON):
            found = True
            break
    assert found


@pytest.mark.slow
@pytest.mark.xfail(
    strict=True,
    reason="double precision cannot verify the supremum chain at 1e-8 for "
           "the biharmonic-edge triple: the transverse shooting mode grows "
           "like r^3.5 while the ratio deficit decays like r^-4.5, so the "
           "faithful window ends near r ~ 70 where p*(1 - M2) ~ 1e-7",
)
def test_c6_chain_biharmonic_edge():
    rep, _, _ = _ordering_case(30.0, 1.0, 13, (0.05, 20.0), 500.0)
    assert rep.chain_deficit_p <= 1e-8
    assert rep.chain_deficit_q <= 1e-8


# ----------------------------------------------------------------------
# 7. below the curve the entire profile crosses the singular solution

def test_c7_below_curve_crossings():
    prof = integrate(ParameterTriple(3, 3, 11), InitialData(1.0, 1.0), 1e5)
    sc = derive_scaling(ParameterTriple(3, 3, 11))
    rep = compare(prof, sc)
    ok = len(rep.crossings_u) >= 1
    _report("C7", ok, f"(3,3,11) entire profile crosses u_s "
                      f"{len(rep.crossings_u)} times, first at "
                      f"r={rep.crossings_u[0]:.4f}")
    assert len(rep.crossings_u) >= 1


# ----------------------------------------------------------------------
# 8. solver verification: reference agreement, decay identity, rescale

@pytest.mark.slow
def test_c8_solver_verification():
    t0 = time.perf_counter()
    P33 = ParameterTriple(3, 3, 11)
    P32 = ParameterTriple(3, 2, 11)
    worst = 0.0
    cases = [
        (P33, InitialData(1.0, 1.0), 1e3),
        (P33, InitialData(1.0, 1000.0), 10.0),
        (P32, InitialData(1.0, 0.9), 100.0),
    ]
    for params, init, r_max in cases:
        prof = integrate(params, init, r_max)
        ref = reference_integrate(params, init, prof.r)
        for got, want in ((prof.u, ref[0]), (prof.v, ref[2])):
            worst = max(worst, float(np.max(np.abs(got - want))
                                     / np.max(np.abs(want))))
    assert worst < 1e-6

    entire = integrate(P33, InitialData(1.0, 1.0), 1e6)
    decay = decay_identity_check(entire)
    assert decay.residual < 1e-4

    sc = derive_scaling(P33)
    assert np.array_equal(entire.u, entire.v)  # symmetry, exact
    sing = SingularSolution(sc)
    r = np.geomspace(0.1, 100.0, 512)
    pseudo = RadialProfile(
        p=3.0, q=3.0, N=11, u0=math.inf, v0=math.inf,
        r=r, u=sing.u(r), v=sing.v(r), du=sing.du(r), dv=sing.dv(r),
        classification=ProfileClass.TRUNCATED, r_event=None,
        rtol=1e-10, atol=1e-12, stats=IntegratorStats(0, 0, 0.0, 0.0, 0),
        dense=None,
    )
    fixed = rescale(pseudo, sc, 32.0)
    assert np.allclose(fixed.u, sing.u(fixed.r), rtol=1e-13)  # fixed point
    resc = rescale(entire, sc, 16.0)
    assert ode_residual(resc) <= 10.0 * ode_residual(entire)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report("C8", ok, f"reference sup-rel {worst:.2e}; decay residual "
                      f"{decay.residual:.2e}; rescale invariants hold; "
                      f"{elapsed:.0f} s")
    assert elapsed < 60.0


# ----------------------------------------------------------------------
# 9. CLI determinism, cache hits, low-dimension scan, diagonal boundary

@pytest.mark.slow
def test_c9_cli_determinism(tmp_path, capsys, monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.setenv("LEL_CACHE_DIR", str(tmp_path / "cache"))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    args_n11 = ["scan", "11", "--window", "1", "12", "1", "12",
                "--resolution", "200"]
    assert cli_main(["--out", str(out1)] + args_n11) == 0
    assert cli_main(["--out", str(out2)] + args_n11) == 0  # cache hit
    capsys.readouterr()
    f1 = {f.name: f.read_bytes() for f in out1.glob("scan_*")}
    f2 = {f.name: f.read_bytes() for f in out2.glob("scan_*")}
    assert f1 == f2
    out3 = tmp_path / "run3"
    assert cli_main(["--out", str(out3), "--no-cache"] + args_n11) == 0
    f3 = {f.name: f.read_bytes() for f in out3.glob("scan_*")}
    assert f1 == f3

    out10 = tmp_path / "n10"
    assert cli_main(["--out", str(out10), "--no-cache", "scan", "10",
                     "--window", "1", "12", "1", "12",
                     "--resolution", "200"]) == 0
    capsys.readouterr()
    import json
    header = json.loads(next(out10.glob("scan_*.json")).read_text())
    assert header["counts"]["2"] == 0

    # diagonal boundary of the N=11 scan within one cell of the closed form
    res = scan_codes(11, (1.0, 12.0, 1.0, 12.0), 200)
    diag = np.array([res.codes[i, i] for i in range(200)])
    first = int(np.nonzero(diag == 2)[0][0])
    cell = float(res.p[1] - res.p[0])
    boundary = float(res.p[first])
    target = 6.9220246
    ok = abs(boundary - target) <= cell
    elapsed = time.perf_counter() - t0
    _report("C9", ok, f"byte-identical reruns and cache hits; N=10 scan has "
                      f"zero stable cells; N=11 diagonal boundary "
                      f"{boundary:.4f} within one cell of {target}; "
                      f"{elapsed:.0f} s")
    assert ok
    assert elapsed < 60.0
