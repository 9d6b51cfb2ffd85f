"""Command-line entry point tying the laboratory together.

Subcommands: classify, curve, scan, solve, compare, eig.  All file output
is deterministic (17-significant-digit floats, fixed key order, no
timestamps); rerunning a command with identical arguments and
configuration produces byte-identical artifacts, and cached results are
returned verbatim.  Exit codes: 0 success, 2 domain/config error,
3 convergence error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import RunConfig, load_config
from .errors import (BracketError, ConfigError, ConvergenceError,
                     DiscretizationError, DomainError, GridTooCoarse,
                     InvalidOptions, MisclassifiedProfile, StepUnderflow)
from .eigen import Annulus, EigOptions, default_ladder, singular_stability_verdict
from .exponents import ParameterTriple, classify, derive_scaling, jl_curve_q
from .profiles import compare as compare_profiles
from .radial import (InitialData, SolverOptions, integrate, profile_from_text,
                     profile_metadata, profile_to_csv, shoot)
from .scan import scan_codes
from .serialize import fmt_float, payload_hash, to_csv, to_json

__all__ = ["main"]


def _solver_options(cfg: RunConfig) -> SolverOptions:
    return SolverOptions(
        rtol=cfg.rtol, atol=cfg.atol, event_tol=cfg.event_tol,
        r_target=cfg.r_target, decay_threshold=cfg.decay_threshold,
        grid_nodes=cfg.grid_nodes, v0_tol=cfg.v0_tol,
    )


def _eig_options(cfg: RunConfig) -> EigOptions:
    return EigOptions(tol=cfg.eig_tol, max_iter=cfg.eig_max_iter)


# ----------------------------------------------------------------------
# cache

def _cache_root(cfg: RunConfig, out_dir: Path) -> Path:
    env = os.environ.get("LEL_CACHE_DIR")
    if env:
        return Path(env)
    if cfg.cache_dir:
        return Path(cfg.cache_dir)
    return out_dir / ".lelab-cache"


# Algorithm revision per cached command, part of the cache key: bump a
# command's entry whenever its numbers change, so that entries written by the
# older algorithm are not served.  eig 2: shifted inverse iteration in
# ground-state variables; curve 2: the prescan ends exactly at p; eig 3 and
# curve 3: K1K2 and the curve margin are p q S T from the shared kernel.
_REVISION = {"curve": 3, "scan": 1, "solve": 1, "shoot": 1, "compare": 1,
             "eig": 3}


def _run_cached(cfg: RunConfig, out_dir: Path, payload: dict, producer):
    """Produce {relname: text} + stdout text, through the artifact cache."""
    key = payload_hash({"version": __version__,
                        "revision": _REVISION[payload["cmd"]],
                        "payload": payload})
    entry = _cache_root(cfg, out_dir) / key
    files: dict[str, str]
    stdout: str
    if cfg.cache and (entry / "__stdout__").exists():
        stdout = (entry / "__stdout__").read_text()
        files = {
            f.name: f.read_text()
            for f in sorted(entry.iterdir()) if f.name != "__stdout__"
        }
        print(f"cache hit {key}", file=sys.stderr)
    else:
        files, stdout = producer()
        if cfg.cache:
            entry.mkdir(parents=True, exist_ok=True)
            for name, text in files.items():
                (entry / name).write_text(text)
            (entry / "__stdout__").write_text(stdout)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (out_dir / name).write_text(text)
    if stdout:
        sys.stdout.write(stdout)
    return key


def _slug(x: float) -> str:
    return ("%g" % x).replace(".", "p").replace("-", "m")


# ----------------------------------------------------------------------
# subcommands

def _cmd_classify(args, cfg: RunConfig) -> int:
    params = ParameterTriple(args.p, args.q, args.N)
    verdict = classify(params, cfg.tol_curve)
    try:
        scaling = derive_scaling(params).as_dict()
    except DomainError:
        scaling = None
    doc = {
        "schema_version": 1,
        "kind": "classification",
        "p": params.p, "q": params.q, "N": params.N,
        "verdict": verdict.as_dict(),
        "scaling": scaling,
    }
    sys.stdout.write(to_json(doc))
    return 0


def _cmd_curve(args, cfg: RunConfig) -> int:
    out_dir = Path(cfg.out)
    if args.steps < 1:
        raise DomainError("--steps must be >= 1")
    payload = {
        "cmd": "curve", "N": args.N, "p_min": args.p_min, "p_max": args.p_max,
        "steps": args.steps, "tol_curve": cfg.tol_curve,
    }
    base = f"curve_N{args.N}_{_slug(args.p_min)}-{_slug(args.p_max)}_s{args.steps}_{payload_hash(payload)}"

    def produce():
        rows = []
        for i in range(args.steps):
            p = args.p_min + (args.p_max - args.p_min) * i / max(args.steps - 1, 1)
            qs = jl_curve_q(args.N, p, tol_curve=cfg.tol_curve)
            rows.append((p, "" if qs is None else fmt_float(qs)))
        csv = to_csv(["p", "q_star"], rows)
        header = {
            "schema_version": 1, "kind": "critical_curve",
            "version": __version__, "N": args.N,
            "p_min": args.p_min, "p_max": args.p_max, "steps": args.steps,
            "tol_curve": cfg.tol_curve, "payload_hash": payload_hash(payload),
        }
        return ({base + ".csv": csv, base + ".json": to_json(header)},
                f"{base}.csv\n")

    _run_cached(cfg, out_dir, payload, produce)
    return 0


def _cmd_scan(args, cfg: RunConfig) -> int:
    out_dir = Path(cfg.out)
    if args.resolution is not None and args.resolution < 1:
        raise DomainError("--resolution must be >= 1")
    resolution = args.resolution if args.resolution is not None else cfg.resolution
    window = tuple(args.window) if args.window else (1.0, 12.0, 1.0, 12.0)
    payload = {
        "cmd": "scan", "N": args.N, "window": list(window),
        "resolution": resolution, "tol_curve": cfg.tol_curve,
    }
    base = f"scan_N{args.N}_r{resolution}_{payload_hash(payload)}"

    def produce():
        p_min, p_max, q_min, q_max = window
        result = scan_codes(args.N, window, resolution, cfg.tol_curve)
        # each axis value is formatted once, not once per cell
        p_cells = [fmt_float(x) for x in result.p.tolist()]
        q_cells = [fmt_float(x) for x in result.q.tolist()]
        rows = (
            (pc, qc, code)
            for pc, codes in zip(p_cells, result.codes)
            for qc, code in zip(q_cells, codes.tolist())
        )
        csv = to_csv(["p", "q", "code"], rows)
        counts = np.bincount(result.codes.ravel(), minlength=3)
        header = {
            "schema_version": 1, "kind": "region_scan",
            "version": __version__, "N": args.N,
            "window": {"p_min": p_min, "p_max": p_max,
                       "q_min": q_min, "q_max": q_max},
            "resolution": resolution,
            "cell_count": result.cell_count(),
            "codes": {"0": "sub-Sobolev", "1": "super-Sobolev below curve",
                      "2": "on/above curve"},
            "counts": {"0": int(counts[0]), "1": int(counts[1]),
                       "2": int(counts[2])},
            "tol_curve": cfg.tol_curve,
            "payload_hash": payload_hash(payload),
        }
        return ({base + ".csv": csv, base + ".json": to_json(header)},
                f"{base}.csv\n")

    _run_cached(cfg, out_dir, payload, produce)
    return 0


def _cmd_solve(args, cfg: RunConfig) -> int:
    out_dir = Path(cfg.out)
    params = ParameterTriple(args.p, args.q, args.N)
    opts = _solver_options(cfg)
    if args.shoot:
        if args.v0_lo is None or args.v0_hi is None:
            raise DomainError("--shoot requires --v0-lo and --v0-hi")
        payload = {
            "cmd": "shoot", "p": args.p, "q": args.q, "N": args.N,
            "u0": args.u0, "v0_lo": args.v0_lo, "v0_hi": args.v0_hi,
            "polish": bool(args.polish), "opts": _opts_payload(opts),
        }
    else:
        if args.v0 is None:
            raise DomainError("solve requires --v0 (or --shoot)")
        payload = {
            "cmd": "solve", "p": args.p, "q": args.q, "N": args.N,
            "u0": args.u0, "v0": args.v0, "r_max": args.r_max,
            "opts": _opts_payload(opts),
        }
    base = (f"profile_p{_slug(args.p)}_q{_slug(args.q)}_N{args.N}"
            f"_{payload_hash(payload)}")

    def produce():
        if args.shoot:
            res = shoot(params, args.u0, (args.v0_lo, args.v0_hi), opts,
                        polish=args.polish)
            profile = res.profile
            extra = {"v0_star": res.v0, "iterations": res.iterations,
                     "bracket_width": res.bracket_width,
                     "polished": res.polished}
        else:
            profile = integrate(params, InitialData(args.u0, args.v0),
                                args.r_max or opts.r_target, opts)
            extra = None
        meta = profile_metadata(profile)
        meta["version"] = __version__
        meta["payload_hash"] = payload_hash(payload)
        if extra is not None:
            meta["shoot"] = extra
        return ({base + ".csv": profile_to_csv(profile),
                 base + ".json": to_json(meta)},
                f"{base}.csv\n{profile.classification.value}\n")

    _run_cached(cfg, out_dir, payload, produce)
    return 0


def _cmd_compare(args, cfg: RunConfig) -> int:
    out_dir = Path(cfg.out)
    params = ParameterTriple(args.p, args.q, args.N)
    prof_base = Path(args.profile)
    if prof_base.suffix == ".csv":
        prof_base = prof_base.with_suffix("")
    csv_path = prof_base.with_suffix(".csv")
    json_path = prof_base.with_suffix(".json")
    csv_text = csv_path.read_text()
    json_text = json_path.read_text()
    payload = {
        "cmd": "compare", "p": args.p, "q": args.q, "N": args.N,
        "profile_hash": payload_hash({"csv": csv_text, "json": json_text}),
        "band": args.band,
    }
    base = (f"compare_p{_slug(args.p)}_q{_slug(args.q)}_N{args.N}"
            f"_{payload_hash(payload)}")

    def produce():
        profile = profile_from_text(csv_text, json_text)
        scaling = derive_scaling(params)
        rep = compare_profiles(profile, scaling, band_rel=args.band)
        rows = [("u", r) for r in rep.crossings_u] + \
               [("v", r) for r in rep.crossings_v]
        csv = to_csv(["field", "r"], rows)
        doc = {
            "schema_version": 1, "kind": "comparison",
            "version": __version__,
            "p": args.p, "q": args.q, "N": args.N,
            "report": rep.as_dict(),
            "payload_hash": payload_hash(payload),
        }
        return ({base + ".csv": csv, base + ".json": to_json(doc)},
                f"{base}.json\n")

    _run_cached(cfg, out_dir, payload, produce)
    return 0


def _cmd_eig(args, cfg: RunConfig) -> int:
    out_dir = Path(cfg.out)
    params = ParameterTriple(args.p, args.q, args.N)
    opts = _eig_options(cfg)
    kmax = args.ladder or cfg.ladder_kmax
    if args.annulus:
        r_in, r_out, m = args.annulus
        ladder = [Annulus(float(r_in), float(r_out), int(m))]
    else:
        ladder = default_ladder(kmax, cfg.ladder_m_per_k)
    payload = {
        "cmd": "eig", "p": args.p, "q": args.q, "N": args.N,
        "ladder": [[a.r_inner, a.r_outer, a.M] for a in ladder],
        "eig_tol": cfg.eig_tol, "eig_max_iter": cfg.eig_max_iter,
    }
    base = f"eig_p{_slug(args.p)}_q{_slug(args.q)}_N{args.N}_{payload_hash(payload)}"

    def produce():
        sr = singular_stability_verdict(params, opts=opts, ladder=ladder)
        rows = []
        for k, rep in enumerate(sr.reports, start=1):
            rows.append((k, rep.annulus.M, rep.lam, rep.residual, rep.iterations))
        csv = to_csv(["k", "M", "lambda", "residual", "iterations"], rows)
        doc = {
            "schema_version": 1, "kind": "stability",
            "version": __version__,
            "p": args.p, "q": args.q, "N": args.N,
            "gamma": sr.gamma, "K1K2": sr.k1k2,
            "verdict": sr.verdict, "marginal": sr.marginal,
            "lecv_consistent": sr.lecv_consistent,
            "extended_rungs": sr.extended,
            "lambda_top": sr.lam_top,
            "ladder": [rep.as_dict() for rep in sr.reports],
            "payload_hash": payload_hash(payload),
        }
        return ({base + ".csv": csv, base + ".json": to_json(doc)},
                f"{base}.csv\n{sr.verdict}\n")

    _run_cached(cfg, out_dir, payload, produce)
    return 0


def _opts_payload(opts: SolverOptions) -> dict:
    from dataclasses import asdict
    return asdict(opts)


# ----------------------------------------------------------------------
# parser / dispatch

def _add_triple(sp):
    sp.add_argument("p", type=float)
    sp.add_argument("q", type=float)
    sp.add_argument("N", type=int)


def _add_common(parser, suppress: bool) -> None:
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", type=str, default=d, help="key=value config file")
    parser.add_argument("--out", type=str, default=d, help="output directory")
    parser.add_argument("--no-cache", action="store_true",
                        default=argparse.SUPPRESS if suppress else False,
                        help="disable the artifact cache")
    parser.add_argument("--tol-curve", type=float, default=d)
    parser.add_argument("--tol-eig", type=float, default=d)
    parser.add_argument("--tol-event", type=float, default=d)
    parser.add_argument("--tol-ode-rel", type=float, default=d)
    parser.add_argument("--tol-ode-abs", type=float, default=d)
    parser.add_argument("--tol-v0", type=float, default=d)
    parser.add_argument("--resolution", type=int, default=d)
    parser.add_argument("--ladder", type=int, default=d)


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    more than a cached command does."""
    ap = argparse.ArgumentParser(
        prog="lelab",
        description="Numerical laboratory for stable radial solutions of the "
                    "Lane-Emden system",
    )
    ap.add_argument("--version", action="version", version=__version__)
    _add_common(ap, suppress=False)
    parent = argparse.ArgumentParser(add_help=False)
    _add_common(parent, suppress=True)

    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", parents=[parent],
                        help="position relative to both curves")
    _add_triple(sp)

    sp = sub.add_parser("curve", parents=[parent],
                        help="trace the critical curve q*(p)")
    sp.add_argument("N", type=int)
    sp.add_argument("--p-min", type=float, default=1.0)
    sp.add_argument("--p-max", type=float, default=12.0)
    sp.add_argument("--steps", type=int, default=64)

    sp = sub.add_parser("scan", parents=[parent],
                        help="region codes over a (p, q) window")
    sp.add_argument("N", type=int)
    sp.add_argument("--window", type=float, nargs=4,
                    metavar=("PMIN", "PMAX", "QMIN", "QMAX"))

    sp = sub.add_parser("solve", parents=[parent],
                        help="integrate (or shoot) a radial profile")
    _add_triple(sp)
    sp.add_argument("--u0", type=float, required=True)
    sp.add_argument("--v0", type=float, default=None)
    sp.add_argument("--r-max", type=float, default=None)
    sp.add_argument("--shoot", action="store_true")
    sp.add_argument("--v0-lo", type=float, default=None)
    sp.add_argument("--v0-hi", type=float, default=None)
    sp.add_argument("--polish", action="store_true")

    sp = sub.add_parser("compare", parents=[parent],
                        help="compare a stored profile with the singular solution")
    _add_triple(sp)
    sp.add_argument("--profile", type=str, required=True,
                    help="basename (or .csv path) of a stored profile")
    sp.add_argument("--band", type=float, default=1e-12)

    sp = sub.add_parser("eig", parents=[parent],
                        help="annulus eigenvalue ladder and stability verdict")
    _add_triple(sp)
    sp.add_argument("--annulus", type=float, nargs=3, metavar=("RIN", "ROUT", "M"))
    return ap


_COMMANDS = {
    "classify": _cmd_classify,
    "curve": _cmd_curve,
    "scan": _cmd_scan,
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "eig": _cmd_eig,
}


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        overrides: dict = {}
        if args.out is not None:
            overrides["out"] = args.out
        if args.no_cache:
            overrides["cache"] = False
        # --resolution stays a per-command argument: the config default must
        # be >= 16 but a degenerate single-cell scan is a legitimate request
        for flag, key in (("tol_curve", "tol_curve"), ("tol_eig", "eig_tol"),
                          ("tol_event", "event_tol"), ("tol_ode_rel", "rtol"),
                          ("tol_ode_abs", "atol"), ("tol_v0", "v0_tol")):
            v = getattr(args, flag, None)
            if v is not None:
                overrides[key] = v
        cfg = load_config(args.config, overrides)
        if not hasattr(args, "resolution"):
            args.resolution = None
        return _COMMANDS[args.command](args, cfg) or 0
    except (ConfigError, InvalidOptions, MisclassifiedProfile, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, BracketError, StepUnderflow,
            DiscretizationError, GridTooCoarse) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
