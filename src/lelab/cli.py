"""Command-line entry point tying the laboratory together.

Subcommands: classify, curve, scan, solve, compare, eig.  All file output
is deterministic (17-significant-digit floats, fixed key order, no
timestamps); rerunning a command with identical arguments and
configuration produces byte-identical artifacts, and cached results are
returned verbatim.  Exit codes: 0 success, 2 domain/config error,
3 convergence error, 4 I/O error or a lattice too large to allocate.
"""

from __future__ import annotations

import argparse
import errno
import functools
import importlib
import os
import shutil
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .config import RunConfig, load_config
from .errors import (BracketError, ConvergenceError, DomainError,
                     GridTooCoarse, MisclassifiedProfile, StepUnderflow)
from .exponents import ParameterTriple, classify, derive_scaling, jl_curve_q
from .options import DEFAULT_BAND, Annulus, default_ladder
from .serialize import fmt_float, payload_hash, to_csv, to_json

__all__ = ["main"]

# The numerical layers (and numpy with them) are imported by the commands
# that run them, on a cache miss; a command reaches each through its home
# module at call time.  Their entry points stay readable here by name, as
# bench/tracing.py reads them.
_LAYER_NAMES = {
    "integrate": ("radial", "integrate"),
    "shoot": ("radial", "shoot"),
    "profile_from_text": ("radial", "profile_from_text"),
    "singular_stability_verdict": ("eigen", "singular_stability_verdict"),
    "compare_profiles": ("profiles", "compare"),
    "scan_codes": ("scan", "scan_codes"),
}


def __getattr__(name: str):
    try:
        module, attr = _LAYER_NAMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __package__), attr)


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
# curve 3: K1K2 and the curve margin are p q S T from the shared kernel;
# solve 2 and shoot 2: unrolled stages with a compensated state update;
# shoot 3: the polished shot bisects the matching functional to 4 ulp, and
# solve 3 with it: the PI step controller reads the previous step's error;
# compare 2: the dead band is floored at the profile's rtol; shoot 4: every
# shot bisects the matching functional, and polish only sets the stopping
# width; shoot 5: the search interpolates the value of the matching
# functional (Dekker-Brent) instead of halving on its sign; eig 4: the
# ladder extension starts past both ends of the top rung; shoot 6: a coarse
# search at loose tolerances, then a full-accuracy search from its checked
# bracket, with one-sided secants and log-halving of a wide bracket;
# shoot 7: when the caller's tolerances are the coarse ones, the ends of the
# coarse bracket are not probed again (two probes fewer in ``iterations``);
# solve 4 and shoot 8: a profile that reaches r_target without a zero is
# EntirePositive, with no decay threshold; eig 5: lambda is the root of
# the sine-basis secular equation, the CSV and JSON carry lambda_err in
# place of the inverse iteration's residual, and the payload drops eig_tol
# and eig_max_iter; shoot 9: probes read the transverse coefficient at
# r = 1e2 and the coarse phase stops at 1e-7, so v0* moves by ulps;
# solve 5 and shoot 10: the march starts from a degree-12 series, and a shot
# returns its best probe, whose march goes on to r_target, not the final
# bracket's midpoint; curve 4: the curve root search starts from the
# prescan's margin values, not their signs, so q* moves within the root
# tolerance.
# compare stays at 2: its key hashes the stored profile, and a given
# profile compares to the same bytes.
_REVISION = {"curve": 4, "scan": 1, "solve": 5, "shoot": 10, "compare": 2,
             "eig": 5}


def _write_chunks(path: Path, chunks: list) -> None:
    with open(path, "w") as fh:
        fh.writelines(chunks)


def _store_entry(root: Path, entry: Path, files: dict, stdout: str) -> None:
    """Write a cache entry atomically: into a temporary directory under the
    cache root, ``__stdout__`` last, then renamed onto the key.  A reader
    therefore never sees a half-written entry.  ``files`` maps each name
    to its text as a list of chunks."""
    root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".tmp-", dir=root))
    try:
        for name, chunks in files.items():
            _write_chunks(tmp / name, chunks)
        (tmp / "__stdout__").write_text(stdout)
        if entry.is_dir() and not (entry / "__stdout__").exists():
            # left incomplete by an interrupted writer of an older version
            shutil.rmtree(entry, ignore_errors=True)
        try:
            os.rename(tmp, entry)
        except OSError as exc:
            # a full directory at the key: another writer stored it first
            if exc.errno not in (errno.EEXIST, errno.ENOTEMPTY):
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)  # gone if the rename succeeded


def _run_cached(cfg: RunConfig, stem: str, payload: dict, produce,
                show: str) -> None:
    """Write a cached command's artifacts ``<stem>_<h>.csv`` and ``.json``
    to ``cfg.out``, h being the payload's hash, and print the name of the
    ``show`` one ("csv" or "json") and then the command's own lines.

    ``produce(h)`` returns the CSV text (a string, or a list of chunks
    that are written one after the other), the JSON document and those
    lines.  It runs on a cache miss only: the key is the payload with the
    package version and the command's revision, and a hit copies the
    stored files' bytes (copies, not links: editing an output must not
    edit the entry) and prints the stored stdout.  ``cfg.out`` is created
    only once there is something to write into it.
    """
    h = payload_hash(payload)
    base = f"{stem}_{h}"
    key = payload_hash({"version": __version__,
                        "revision": _REVISION[payload["cmd"]],
                        "payload": payload})
    out_dir = Path(cfg.out)
    root = _cache_root(cfg, out_dir)
    entry = root / key
    if cfg.cache and (entry / "__stdout__").exists():
        stdout = (entry / "__stdout__").read_text()
        out_dir.mkdir(parents=True, exist_ok=True)
        for f in sorted(entry.iterdir()):
            if f.name != "__stdout__":
                shutil.copyfile(f, out_dir / f.name)
        print(f"cache hit {key}", file=sys.stderr)
    else:
        csv, doc, lines = produce(h)
        files = {base + ".csv": [csv] if isinstance(csv, str) else csv,
                 base + ".json": [to_json(doc)]}
        stdout = "".join(f"{line}\n" for line in [f"{base}.{show}", *lines])
        if cfg.cache:
            _store_entry(root, entry, files, stdout)
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, chunks in files.items():
            _write_chunks(out_dir / name, chunks)
    sys.stdout.write(stdout)


def _document(kind: str, **fields) -> dict:
    """A command's JSON document: schema version, kind and package version,
    then ``fields`` in order."""
    return {"schema_version": 1, "kind": kind, "version": __version__, **fields}


def _slug(x: float) -> str:
    return ("%g" % x).replace(".", "p").replace("-", "m")


# ----------------------------------------------------------------------
# subcommands: classify prints its answer; the others return the stem,
# payload, producer and shown file that ``_run_cached`` takes

def _cmd_classify(args, cfg: RunConfig) -> None:
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


def _cmd_curve(args, cfg: RunConfig):
    if args.steps < 1:
        raise DomainError("--steps must be >= 1")
    payload = {
        "cmd": "curve", "N": args.N, "p_min": args.p_min, "p_max": args.p_max,
        "steps": args.steps, "tol_curve": cfg.tol_curve,
    }

    def produce(h):
        rows = []
        for i in range(args.steps):
            p = args.p_min + (args.p_max - args.p_min) * i / max(args.steps - 1, 1)
            qs = jl_curve_q(args.N, p, tol_curve=cfg.tol_curve)
            rows.append((p, "" if qs is None else fmt_float(qs)))
        doc = _document("critical_curve", N=args.N, p_min=args.p_min,
                        p_max=args.p_max, steps=args.steps,
                        tol_curve=cfg.tol_curve, payload_hash=h)
        return to_csv(["p", "q_star"], rows), doc, []

    stem = f"curve_N{args.N}_{_slug(args.p_min)}-{_slug(args.p_max)}_s{args.steps}"
    return stem, payload, produce, "csv"


_CSV_CHUNK_CELLS = 1024  # cells per chunk of the scan CSV, about 32 KB


def _cmd_scan(args, cfg: RunConfig):
    resolution = cfg.resolution if args.resolution is None else args.resolution
    window = args.window or [1.0, 12.0, 1.0, 12.0]
    payload = {
        "cmd": "scan", "N": args.N, "window": window,
        "resolution": resolution, "tol_curve": cfg.tol_curve,
    }

    def produce(h):
        import numpy as np

        from . import scan
        p_min, p_max, q_min, q_max = window
        result = scan.scan_codes(args.N, window, resolution, cfg.tol_curve)
        # tails[code][j] is the text of a row after its p cell.  A row is
        # its p cell joined over one tail per cell, so each run of equal
        # codes is one slice of one tails list, joined by the p cell; runs
        # start at 0 and after each j where codes[i, j] != codes[i, j + 1].
        # Rows are joined into chunks of about _CSV_CHUNK_CELLS cells, so
        # the CSV is never one string
        q_cells = [fmt_float(q) for q in result.q.tolist()]
        tails = [[f"{qc},{code}\n" for qc in q_cells] for code in range(3)]
        codes = result.codes
        run_i, run_j = np.nonzero(codes[:, 1:] != codes[:, :-1])
        run_j += 1
        starts = run_j.tolist()
        start_codes = codes[run_i, run_j].tolist()
        row_runs = np.searchsorted(run_i, np.arange(resolution + 1)).tolist()
        first_codes = codes[:, 0].tolist()
        rows_per_chunk = max(1, _CSV_CHUNK_CELLS // resolution)
        chunks, parts = [], ["p,q,code\n"]
        for i, p in enumerate(result.p.tolist()):
            prefix = fmt_float(p) + ","
            a, code = 0, first_codes[i]
            for k in range(row_runs[i], row_runs[i + 1]):
                b = starts[k]
                parts += (prefix, prefix.join(tails[code][a:b]))
                a, code = b, start_codes[k]
            parts += (prefix, prefix.join(tails[code][a:]))
            if (i + 1) % rows_per_chunk == 0 or i + 1 == resolution:
                chunks.append("".join(parts))
                parts = []
        doc = _document(
            "region_scan", N=args.N,
            window={"p_min": p_min, "p_max": p_max,
                    "q_min": q_min, "q_max": q_max},
            resolution=resolution, cell_count=result.cell_count(),
            codes={"0": "sub-Sobolev", "1": "super-Sobolev below curve",
                   "2": "on/above curve"},
            counts={str(code): n for code, n in enumerate(result.counts)},
            tol_curve=cfg.tol_curve, payload_hash=h)
        return chunks, doc, []

    return f"scan_N{args.N}_r{resolution}", payload, produce, "csv"


def _cmd_solve(args, cfg: RunConfig):
    params = ParameterTriple(args.p, args.q, args.N)
    opts = cfg.solver_options()
    if args.shoot:
        if args.v0_lo is None or args.v0_hi is None:
            raise DomainError("--shoot requires --v0-lo and --v0-hi")
        if args.v0 is not None or args.r_max is not None:
            raise DomainError("--shoot finds v0 and integrates to r_target; "
                              "--v0 and --r-max are for a plain solve")
        payload = {
            "cmd": "shoot", "p": args.p, "q": args.q, "N": args.N,
            "u0": args.u0, "v0_lo": args.v0_lo, "v0_hi": args.v0_hi,
            "polish": bool(args.polish), "opts": asdict(opts),
        }
    else:
        if args.v0 is None:
            raise DomainError("solve requires --v0 (or --shoot)")
        payload = {
            "cmd": "solve", "p": args.p, "q": args.q, "N": args.N,
            "u0": args.u0, "v0": args.v0, "r_max": args.r_max,
            "opts": asdict(opts),
        }

    def produce(h):
        from . import radial
        if args.shoot:
            res = radial.shoot(params, args.u0, (args.v0_lo, args.v0_hi),
                               opts, polish=args.polish)
            profile = res.profile
            # a shot stopped at v0_tol may still hit zero before r_target
            reached = (profile.classification
                       is radial.ProfileClass.ENTIRE_POSITIVE)
            extra = {"v0_star": res.v0, "iterations": res.iterations,
                     "bracket_width": res.bracket_width,
                     "polished": res.polished,
                     "reached_target": reached}
        else:
            r_max = opts.r_target if args.r_max is None else args.r_max
            profile = radial.integrate(
                params, radial.InitialData(args.u0, args.v0), r_max, opts)
            extra = None
        meta = radial.profile_metadata(profile)
        meta["version"] = __version__
        meta["payload_hash"] = h
        if extra is not None:
            meta["shoot"] = extra
        return radial.profile_to_csv(profile), meta, [profile.classification.value]

    stem = f"profile_p{_slug(args.p)}_q{_slug(args.q)}_N{args.N}"
    return stem, payload, produce, "csv"


def _cmd_compare(args, cfg: RunConfig):
    params = ParameterTriple(args.p, args.q, args.N)
    prof_base = Path(args.profile)
    if prof_base.suffix == ".csv":
        prof_base = prof_base.with_suffix("")
    csv_path = prof_base.with_suffix(".csv")
    json_path = prof_base.with_suffix(".json")
    try:
        csv_text = csv_path.read_text()
        json_text = json_path.read_text()
    except UnicodeDecodeError as exc:
        raise DomainError(f"malformed stored profile: {exc}") from exc
    payload = {
        "cmd": "compare", "p": args.p, "q": args.q, "N": args.N,
        "profile_hash": payload_hash({"csv": csv_text, "json": json_text}),
        "band": args.band,
    }

    def produce(h):
        from . import profiles, radial
        profile = radial.profile_from_text(csv_text, json_text)
        scaling = derive_scaling(params)
        rep = profiles.compare(profile, scaling, band_rel=args.band)
        rows = [("u", r) for r in rep.crossings_u] + \
               [("v", r) for r in rep.crossings_v]
        doc = _document("comparison", p=args.p, q=args.q, N=args.N,
                        report=rep.as_dict(), payload_hash=h)
        return to_csv(["field", "r"], rows), doc, []

    stem = f"compare_p{_slug(args.p)}_q{_slug(args.q)}_N{args.N}"
    return stem, payload, produce, "json"


def _cmd_eig(args, cfg: RunConfig):
    params = ParameterTriple(args.p, args.q, args.N)
    kmax = cfg.ladder_kmax if args.ladder is None else args.ladder
    if kmax < 1:
        raise DomainError("--ladder must be >= 1")
    if args.annulus:
        r_in, r_out, m = args.annulus
        if not m.is_integer():
            raise DomainError(f"the annulus node count must be an integer, got {m}")
        ladder = [Annulus(r_in, r_out, int(m))]
    else:
        ladder = default_ladder(kmax)
    payload = {
        "cmd": "eig", "p": args.p, "q": args.q, "N": args.N,
        "ladder": [[a.r_inner, a.r_outer, a.M] for a in ladder],
    }

    def produce(h):
        from . import eigen
        sr = eigen.singular_stability_verdict(params, ladder=ladder)
        rows = [(k, rep.annulus.M, rep.lam, rep.lambda_err, rep.iterations)
                for k, rep in enumerate(sr.reports, start=1)]
        doc = _document(
            "stability", p=args.p, q=args.q, N=args.N,
            gamma=sr.gamma, K1K2=sr.k1k2,
            verdict=sr.verdict, marginal=sr.marginal,
            lecv_consistent=sr.lecv_consistent,
            extended_rungs=sr.extended,
            lambda_top=sr.lam_top,
            ladder=[rep.as_dict() for rep in sr.reports],
            payload_hash=h)
        csv = to_csv(["k", "M", "lambda", "lambda_err", "iterations"], rows)
        return csv, doc, [sr.verdict]

    stem = f"eig_p{_slug(args.p)}_q{_slug(args.q)}_N{args.N}"
    return stem, payload, produce, "csv"


# ----------------------------------------------------------------------
# parser / dispatch

# tolerance flag -> the config key it overrides.  --resolution stays a
# per-command argument: the config default must be >= 16 but a degenerate
# single-cell scan is a legitimate request
_TOLERANCE_FLAGS = {
    "--tol-curve": "tol_curve", "--tol-event": "event_tol",
    "--tol-ode-rel": "rtol", "--tol-ode-abs": "atol", "--tol-v0": "v0_tol",
}


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
    for flag, key in _TOLERANCE_FLAGS.items():
        parser.add_argument(flag, dest=key, type=float, default=d)
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
    sp.add_argument("--band", type=float, default=DEFAULT_BAND,
                    help="relative dead band, floored at the profile's rtol")

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
    args = _build_parser().parse_args(argv)
    try:
        overrides = {key: getattr(args, key) for key in _TOLERANCE_FLAGS.values()
                     if getattr(args, key) is not None}
        if args.out is not None:
            overrides["out"] = args.out
        if args.no_cache:
            overrides["cache"] = False
        cfg = load_config(args.config, overrides)
        job = _COMMANDS[args.command](args, cfg)
        if job is not None:  # classify has printed its answer, uncached
            _run_cached(cfg, *job)
        return 0
    except (MisclassifiedProfile, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConvergenceError, BracketError, StepUnderflow,
            GridTooCoarse) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # a lattice or grid too large to allocate
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
