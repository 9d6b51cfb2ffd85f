"""Independent checks of lelab artifacts.

Nothing here imports lelab or compares against a stored copy of earlier
output. Margins and scaling data come from mpmath at 40 digits, the radial
reference from ``scipy.integrate.solve_ivp`` (DOP853), and the gamma = 0
eigenvalue from ``scipy.linalg.eigh_tridiagonal`` on the symmetrized
flux-form operator. Each check returns a list of problems ``(tag, text)``;
``tag`` names a known fault (see ``workloads.FAULTS``) or is None.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np

mp.mp.dps = 40

TOL_CURVE = 1e-9       # CLI default band for OnCurve / Critical
VERDICT_BAND = 1e-6    # EigOptions.verdict_band, relative
R_TARGET = 1e6         # CLI default r_target of solve and shoot
SCAN_SAMPLES = 256     # seeded cells checked per scan
WINDOW_SHARE = 0.68    # trusted shooting window, as a share of the crossover
MIN_WINDOW = 100.0     # a shot must track the manifold at least this far


# ----------------------------------------------------------------------
# exponent algebra

def scaling(p, q, N):
    """Scaling data of the singular pair for p >= q, or None where it does
    not exist (pq <= 1, N < 3 or alpha >= N-2)."""
    P, Q = mp.mpf(p), mp.mpf(q)
    if P < Q:
        P, Q = Q, P
    pq1 = P * Q - 1
    if N < 3 or pq1 <= 0:
        return None
    alpha = 2 * (P + 1) / pq1
    beta = 2 * (Q + 1) / pq1
    if alpha >= N - 2:
        return None
    S = alpha * (N - 2 - alpha)
    T = beta * (N - 2 - beta)
    gamma = alpha - beta
    return {
        "alpha": alpha, "beta": beta, "gamma": gamma, "S": S, "T": T,
        "a": (S * T ** P) ** (1 / pq1), "b": (S ** Q * T) ** (1 / pq1),
        "K1K2": P * Q * S * T,
        "C_gamma": (((N - 2) ** 2 - gamma ** 2) / 4) ** 2,
    }


def sobolev_margin(p, q, N):
    return (1 - mp.mpf(2) / N) - 1 / (mp.mpf(p) + 1) - 1 / (mp.mpf(q) + 1)


def curve_margin(p, q, N):
    sc = scaling(p, q, N)
    if sc is None:
        return None, None
    return sc["C_gamma"] - sc["K1K2"], sc["K1K2"]


def _region_code(p, q, N):
    """Expected scan code, or None inside a tolerance band."""
    sm = sobolev_margin(p, q, N)
    if abs(sm) <= 2 * TOL_CURVE:
        return None
    if sm < 0:
        return 0
    P, Q = max(p, q), min(p, q)
    pq1 = mp.mpf(P) * Q - 1
    if pq1 > 0 and abs(2 * (P + 1) / pq1 - (N - 2)) <= 1e-9:
        return None  # alpha at N-2: the existence edge
    jm, k1k2 = curve_margin(P, Q, N)
    if jm is None:
        return 1
    if abs(jm) <= 2 * TOL_CURVE * max(1, k1k2):
        return None
    return 2 if jm > 0 else 1


def diagonal_root(N):
    """Closed-form crossing of the critical curve with p = q (N > 10)."""
    return (((N - 2) ** 2 - 4 * N + 8 * math.sqrt(N - 1))
            / ((N - 2) * (N - 10)))


def _rel(got, want, tol, name, abs_tol=0.0):
    want = float(want)
    if abs(got - want) > max(tol * abs(want), abs_tol):
        return [(None, f"{name} = {got!r}, independent value {want!r}")]
    return []


# ----------------------------------------------------------------------
# map workload

def check_classify(stdout, p, q, N):
    doc = json.loads(stdout)
    p, q = float(p), float(q)
    sm = sobolev_margin(p, q, N)
    probs = []
    sob = doc["verdict"]["sobolev"]
    if abs(sm) > 2 * TOL_CURVE:
        want = "Supercritical" if sm > 0 else "Subcritical"
        if sob != want:
            probs.append((None, f"sobolev {sob}, margin {mp.nstr(sm, 8)}"))
    sc = scaling(p, q, N)
    jl = doc["verdict"]["jl"]
    if sc is None:
        if jl != "Undefined" or doc["scaling"] is not None:
            probs.append((None, f"jl {jl} where no singular pair exists"))
        return probs
    jm = sc["C_gamma"] - sc["K1K2"]
    if abs(jm) > 2 * TOL_CURVE * max(1, sc["K1K2"]):
        want = "AboveCurve" if jm > 0 else "BelowCurve"
        if jl != want:
            probs.append((None, f"jl {jl}, margin {mp.nstr(jm, 8)}"))
    got = doc["scaling"]
    if got is None:
        return probs + [(None, "scaling missing where it exists")]
    for key in ("alpha", "beta", "S", "T", "a", "b", "K1K2", "C_gamma"):
        probs += _rel(got[key], sc[key], 1e-9, key)
    probs += _rel(got["gamma"], sc["gamma"], 1e-9, "gamma", abs_tol=1e-12)
    return probs


def check_scan(base: Path, N, rng):
    header = json.loads(base.with_suffix(".json").read_text())
    lines = base.with_suffix(".csv").read_text().split("\n")
    if lines[0] != "p,q,code" or lines[-1] != "":
        return [(None, "unexpected scan CSV layout")]
    cells = [ln.split(",") for ln in lines[1:-1]]
    res = header["resolution"]
    if len(cells) != res * res:
        return [(None, f"{len(cells)} cells for resolution {res}")]
    probs = []
    codes = np.array([int(c[2]) for c in cells], dtype=np.int64).reshape(res, res)
    p_axis = [float(cells[i * res][0]) for i in range(res)]
    q_axis = [float(cells[j][1]) for j in range(res)]
    w = header["window"]
    for name, axis, lo, hi in (("p", p_axis, w["p_min"], w["p_max"]),
                               ("q", q_axis, w["q_min"], w["q_max"])):
        want = [lo + (hi - lo) * i / (res - 1) for i in range(res)]
        if max(abs(a - b) for a, b in zip(axis, want)) > 1e-12 * hi:
            probs.append((None, f"{name} lattice is not uniform"))
    counts = np.bincount(codes.ravel(), minlength=3)
    if [header["counts"][k] for k in "012"] != counts.tolist():
        probs.append((None, "header counts disagree with the CSV"))
    N = int(N)
    for flat in rng.sample(range(res * res), SCAN_SAMPLES):
        i, j = divmod(flat, res)
        want = _region_code(p_axis[i], q_axis[j], N)
        if want is not None and want != codes[i, j]:
            probs.append((None, f"cell ({p_axis[i]}, {q_axis[j]}) code "
                                f"{codes[i, j]}, independent {want}"))
    if N <= 10 and counts[2]:
        probs.append((None, f"{counts[2]} code-2 cells at N = {N}"))
    if N > 10 and p_axis == q_axis:
        root = diagonal_root(N)
        cell = (p_axis[-1] - p_axis[0]) / (res - 1)
        diag = [(p_axis[i], codes[i, i]) for i in range(res)]
        stable = [p for p, c in diag if c == 2]
        if not stable or abs(stable[0] - root) > cell:
            probs.append((None, f"diagonal boundary at "
                                f"{stable[0] if stable else None}, "
                                f"closed form {root}"))
        elif any(c != 2 for p, c in diag if p > root + cell):
            probs.append((None, "diagonal not stable above the root"))
    return probs


def _curve_sign(p, q, N):
    jm, _ = curve_margin(p, q, N)
    return None if jm is None else jm > 0


def check_curve(base: Path, N, p_min, p_max, steps):
    lines = base.with_suffix(".csv").read_text().split("\n")
    if lines[0] != "p,q_star" or len(lines) != steps + 2:
        return [(None, "unexpected curve CSV layout")]
    N, p_min, p_max = int(N), float(p_min), float(p_max)
    probs = []
    for i, ln in enumerate(lines[1:-1]):
        ps, qs = ln.split(",")
        p = float(ps)
        want_p = p_min + (p_max - p_min) * i / max(steps - 1, 1)
        if abs(p - want_p) > 1e-12 * p_max:
            probs.append((None, f"row {i}: p = {p}, want {want_p}"))
        s = (N - 2) / N - 1 / (mp.mpf(p) + 1)
        q_sob = max(mp.mpf(1), 1 / s - 1) if s > 0 else mp.inf
        if qs == "":
            # no root: the margin keeps its sign on the super-Sobolev slice
            if q_sob < p:
                grid = [q_sob + (p - q_sob) * (k + 1) / 32 for k in range(32)]
                signs = {_curve_sign(p, q, N) for q in grid} - {None}
                if len(signs) > 1:
                    probs.append((None, f"p = {p}: margin changes sign "
                                        "but no root was reported"))
            continue
        q = float(qs)
        if not (q_sob <= q <= p):
            probs.append((None, f"p = {p}: root {q} off the slice"))
            continue
        lo, hi = q * (1 - 1e-8), q * (1 + 1e-8)
        if hi > p:
            jm, k1k2 = curve_margin(p, q, N)
            if abs(jm) > 10 * TOL_CURVE * max(1, k1k2):
                probs.append((None, f"p = {p}: margin {mp.nstr(jm, 5)} at q*"))
            continue
        if _curve_sign(p, lo, N) == _curve_sign(p, hi, N):
            probs.append((None, f"p = {p}: no sign change across q* = {q}"))
    return probs


# ----------------------------------------------------------------------
# stability workload

def gamma0_eigenvalue(r_inner, r_outer, M, N) -> float:
    """s^2 for the smallest eigenvalue s of D^-1/2 K D^-1/2.

    K is the flux-form tridiagonal radial operator on the uniform log grid
    with coefficients e^{(N-2) rho} at half nodes, D = diag(e^{(N-2) rho})
    at the interior nodes. The entries are formed from differences of rho
    so that no exponential overflows.
    """
    from scipy.linalg import eigh_tridiagonal

    rho = np.linspace(math.log(r_inner), math.log(r_outer), M + 2)
    h = rho[1] - rho[0]
    half = 0.5 * (rho[:-1] + rho[1:])
    mid = rho[1:-1]
    c = N - 2.0
    diag = (np.exp(c * (half[:-1] - mid)) + np.exp(c * (half[1:] - mid))) / h**2
    off = -np.exp(c * (half[1:-1] - 0.5 * (mid[:-1] + mid[1:]))) / h**2
    s = eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                         select_range=(0, 0))[0]
    return float(s * s)


def check_eig(base: Path, stdout, p, q, N, errs: list):
    """Verdict, ladder properties and, at gamma = 0, the discrete oracle.

    Relative gaps to the gamma = 0 oracle are appended to ``errs``.
    """
    doc = json.loads(base.with_suffix(".json").read_text())
    N = int(N)
    sc = scaling(p, q, N)
    probs = []
    ladder = doc["ladder"]
    lams = [rung["lambda"] for rung in ladder]
    rows = base.with_suffix(".csv").read_text().split("\n")[1:-1]
    if [float(r.split(",")[2]) for r in rows] != lams:
        probs.append((None, "CSV and JSON ladders differ"))
    if stdout.split("\n")[1] != doc["verdict"]:
        probs.append((None, "stdout verdict differs from the JSON"))
    probs += _rel(doc["K1K2"], sc["K1K2"], 1e-9, "K1K2")
    stable = sc["C_gamma"] >= sc["K1K2"]
    if not doc["marginal"] and (doc["verdict"] == "SingularStable") != stable:
        probs.append((None, f"verdict {doc['verdict']} but C_gamma - K1K2 = "
                            f"{mp.nstr(sc['C_gamma'] - sc['K1K2'], 8)}"))
    c_gamma = float(sc["C_gamma"])
    if any(lam <= c_gamma for lam in lams):
        probs.append((None, f"a rung has lambda <= C_gamma = {c_gamma}"))
    if any(b >= a for a, b in zip(lams, lams[1:])):
        probs.append((None, "lambda does not decrease along the ladder"))
    if sc["gamma"] == 0:
        first_extended = len(ladder) - doc["extended_rungs"]
        for k, rung in enumerate(ladder):
            want = gamma0_eigenvalue(rung["r_inner"], rung["r_outer"],
                                     rung["M"], N)
            gap = (rung["lambda"] - want) / want
            errs.append(abs(gap))
            if abs(gap) > VERDICT_BAND:
                tag = "F3" if k >= first_extended and gap < 0 else None
                probs.append((tag, f"rung k={k + 1} (M={rung['M']}) lambda "
                                   f"off the discrete oracle by {gap:.2e}"))
    return probs


# ----------------------------------------------------------------------
# shoot workload

def read_profile(base: Path):
    meta = json.loads(base.with_suffix(".json").read_text())
    lines = base.with_suffix(".csv").read_text().split("\n")
    cols = [ln.split(",") for ln in lines[1:-1]]
    text = list(zip(*cols))
    data = np.array(cols, dtype=float).T
    return meta, data, text


def _series(r, u0, v0, p, q, N):
    """Even Taylor series of the regular solution through r^4."""
    c2u, c2v = -v0 ** p / (2 * N), -u0 ** q / (2 * N)
    c4u = p * v0 ** (p - 1) * u0 ** q / (8 * N * (N + 2))
    c4v = q * u0 ** (q - 1) * v0 ** p / (8 * N * (N + 2))
    return np.array([u0 + c2u * r * r + c4u * r ** 4,
                     2 * c2u * r + 4 * c4u * r ** 3,
                     v0 + c2v * r * r + c4v * r ** 4,
                     2 * c2v * r + 4 * c4v * r ** 3])


def reference_profile(r, u0, v0, p, q, N):
    """solve_ivp (DOP853, rtol 1e-12) in t = log r, from a series start."""
    from scipy.integrate import solve_ivp

    r0 = 1e-3

    def rhs(t, y):
        rr = math.exp(t)
        u, du, v, dv = y
        return [rr * du, -rr * max(v, 0.0) ** p - (N - 1) * du,
                rr * dv, -rr * max(u, 0.0) ** q - (N - 1) * dv]

    out = np.empty((4, r.size))
    near = r <= r0
    out[:, near] = _series(r[near], u0, v0, p, q, N)
    sol = solve_ivp(rhs, (math.log(r0), math.log(r[-1])),
                    _series(r0, u0, v0, p, q, N), method="DOP853",
                    rtol=1e-12, atol=1e-30, t_eval=np.log(r[~near]))
    if sol.status != 0:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    out[:, ~near] = sol.y
    return out


def singular_pair(r, p, q, N):
    sc = scaling(p, q, N)
    a, b = float(sc["a"]), float(sc["b"])
    return a * r ** -float(sc["alpha"]), b * r ** -float(sc["beta"]), sc


def trusted_radius(r, u, v, us, vs, rtol) -> float:
    """End of the window on which a shot's ordering can be trusted.

    Along the entire-solution manifold the ratio deficits decay while the
    transverse shooting error grows, so |1 - u/u_s| + |1 - v/v_s| has its
    minimum at the crossover radius r_x; the window ends at 0.68 r_x, where
    the transverse error is about a tenth of the deficit. It ends earlier
    where the deficit falls below the solver's rtol: sign tests past that
    point (the diagonal shot, which has no transverse error) read rounding.
    """
    msk = r > 20.0
    tot = np.abs(1 - u[msk] / us[msk]) + np.abs(1 - v[msk] / vs[msk])
    end = WINDOW_SHARE * float(r[msk][int(np.argmin(tot))])
    faint = np.nonzero(tot < rtol)[0]
    if faint.size:
        end = min(end, float(r[msk][faint[0]]))
    return end


def decay_residual(r, u0, v, p, N, b, beta) -> float:
    """|u(0) - (N-2)^-1 int_0^inf t v^p dt| / u(0), trapezoid in log r,
    series head on [0, r_0] and the singular tail b^p R^{2-beta p}/(beta p-2)."""
    lr = np.log(r)
    f = r * r * v ** p
    body = float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(lr)))
    head = v[0] ** p * r[0] ** 2 / 2
    tail = b ** p * r[-1] ** (2 - beta * p) / (beta * p - 2)
    return abs(u0 - (head + body + tail) / (N - 2)) / u0


def check_solve(base: Path, stdout, p, q, N, u0, v0):
    meta, d, _ = read_profile(base)
    p, q, N, u0, v0 = float(p), float(q), int(N), float(u0), float(v0)
    probs = []
    if stdout.split("\n")[1] != meta["classification"]:
        probs.append((None, "stdout classification differs from the JSON"))
    ref = reference_profile(d[0], u0, v0, p, q, N)
    # CSV columns r,u,v,du,dv; reference rows u,du,v,dv
    for k, col, name in ((0, 1, "u"), (1, 3, "du"), (2, 2, "v"), (3, 4, "dv")):
        err = float(np.max(np.abs(d[col] - ref[k])) / np.max(np.abs(ref[k])))
        if err > 1e-8:
            probs.append((None, f"{name} off the DOP853 reference by {err:.2e}"))
    return probs


def check_shot(base: Path, stdout, p, q, N, polish: bool):
    meta, d, text = read_profile(base)
    p, q, N = float(p), float(q), int(N)
    r, u, v = d[0], d[1], d[2]
    probs = []
    shot = meta.get("shoot")
    if shot is None or shot["polished"] != polish:
        probs.append((None, f"shoot metadata {shot} (polish={polish})"))
    if stdout.split("\n")[1] != meta["classification"]:
        probs.append((None, "stdout classification differs from the JSON"))
    us, vs, sc = singular_pair(r, p, q, N)
    above = sc["C_gamma"] > sc["K1K2"]
    end = trusted_radius(r, u, v, us, vs, meta["rtol"])
    win = r <= end
    if end < MIN_WINDOW:
        probs.append((None, f"trusted window ends at r = {end:.4g}"))
    if above:
        if (meta["r_event"] is not None or r[-1] < R_TARGET * (1 - 1e-12)
                or np.any(u <= 0) or np.any(v <= 0)):
            probs.append((None, f"shot not positive through r = {R_TARGET:g}"))
        if np.any(u[win] >= us[win]) or np.any(v[win] >= vs[win]):
            probs.append((None, f"not ordered below (u_s, v_s) on "
                                f"r <= {end:.4g}"))
    else:
        # bisection below the curve holds the manifold only up to the
        # crossover; positivity is required on the trusted window
        if np.any(u[win] <= 0) or np.any(v[win] <= 0):
            probs.append((None, "shot not positive on the trusted window"))
        du = np.sign(u[win] - us[win])
        if not np.any(du[1:] * du[:-1] < 0):
            probs.append((None, f"u - u_s keeps its sign on r <= {end:.4g}"))
    if p == q:
        if text[1] != text[2] or text[3] != text[4]:
            probs.append((None, "diagonal shot with u != v"))
        if meta["classification"] == "EntirePositive":
            res = decay_residual(r, meta["u0"], v, p, N, float(sc["b"]),
                                 float(sc["beta"]))
            if res > 1e-4:
                probs.append((None, f"decay identity residual {res:.2e}"))
    return probs


def _my_crossings(r, rel, band):
    """Dead-band sign alternations of rel with log-linear roots, kept only
    where both bracketing nodes sit above ``band``."""
    state = np.where(rel > band, 1, np.where(rel < -band, -1, 0))
    idx = np.nonzero(state)[0]
    out = []
    for i, j in zip(idx[:-1], idx[1:]):
        if state[i] != state[j]:
            t = rel[i] / (rel[i] - rel[j])
            out.append((float(r[i]), float(r[j]),
                        math.exp(math.log(r[i]) + t * math.log(r[j] / r[i]))))
    return out


def check_compare(base: Path, profile_base: Path, p, q, N):
    """Suprema and resolved crossings of a comparison report.

    Crossings below the solver's accuracy cannot be checked; resolved ones
    (relative gap above 1e-9 on both bracketing nodes) must be reported,
    and on a shot's trusted window the report must match exactly.
    """
    doc = json.loads(base.with_suffix(".json").read_text())
    rep = doc["report"]
    meta, d, _ = read_profile(profile_base)
    p, q, N = float(p), float(q), int(N)
    r, u, v = d[0], d[1], d[2]
    us, vs, _ = singular_pair(r, p, q, N)
    probs = []
    rows = base.with_suffix(".csv").read_text().split("\n")[1:-1]
    listed = [(f, float(x)) for f, x in (row.split(",") for row in rows)]
    if listed != ([("u", x) for x in rep["crossings_u"]]
                  + [("v", x) for x in rep["crossings_v"]]):
        probs.append((None, "CSV and JSON crossings differ"))
    probs += _rel(rep["M1"], np.max(u / us), 1e-9, "M1")
    probs += _rel(rep["M2"], np.max(v / vs), 1e-9, "M2")
    if rep["interior_only"] != (meta["classification"] != "EntirePositive"):
        probs.append((None, "interior_only flag disagrees with the profile"))
    # a plain solve has no crossover; only its resolved crossings are checked
    window = (trusted_radius(r, u, v, us, vs, meta["rtol"])
              if meta.get("shoot") else 0.0)
    for name, rel, got in (("u", u / us - 1, rep["crossings_u"]),
                           ("v", v / vs - 1, rep["crossings_v"])):
        if any(b <= a for a, b in zip(got, got[1:])):
            probs.append((None, f"{name} crossings not increasing"))
        mine = _my_crossings(r, rel, 1e-9)
        for lo, hi, _root in mine:
            if not any(lo <= x <= hi for x in got):
                probs.append((None, f"{name} crossing in [{lo:.6g}, {hi:.6g}] "
                                    "not reported"))
        in_win = [x for x in got if x <= window]
        mine_win = [root for _lo, _hi, root in mine if root <= window]
        if len(in_win) != len(mine_win) or any(
                abs(a - b) > 1e-6 * b for a, b in zip(in_win, mine_win)):
            probs.append((None, f"{name} crossings on the trusted window "
                                f"{in_win[:4]}, independent {mine_win[:4]}"))
    return probs
