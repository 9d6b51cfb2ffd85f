"""Command-line entry point tying the laboratory together.

Subcommands: classify, curve, scan, solve, compare, eig.  All file output
is deterministic (17-significant-digit floats, fixed key order, no
timestamps); rerunning a command with identical arguments and
configuration produces byte-identical artifacts, and cached results are
returned verbatim.  Exit codes: 0 success, 2 a ``DomainError`` (bad input
or configuration), 3 a ``ConvergenceError``, 4 I/O error or a lattice too
large to allocate.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .errors import ConvergenceError, DomainError
from .exponents import (_TOL_CURVE, ParameterTriple, classify, derive_scaling,
                        jl_curve_q)
from .options import DEFAULT_BAND, GRID_NODES, V0_TOL, Annulus, default_ladder
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

def _cache_root(out_dir: Path) -> Path:
    env = os.environ.get("LEL_CACHE_DIR")
    return Path(env) if env else out_dir / ".lelab-cache"


# Algorithm revision per cached command, part of the cache key, so that
# entries written by an older algorithm are not served.  Bump a command's
# entry whenever the bytes it writes change; CHANGES.md records each bump and
# its reason.  compare is left alone while a given profile compares to the
# same bytes: its key hashes the stored profile.
_REVISION = {"curve": 5, "scan": 1, "solve": 5, "shoot": 10, "compare": 2,
             "eig": 5}


def _write_files(files, dirs: list) -> None:
    """Write each ``(name, pieces)`` into every one of ``dirs`` in one pass."""
    for name, pieces in files:
        with contextlib.ExitStack() as stack:
            fhs = [stack.enter_context(open(d / name, "w")) for d in dirs]
            for piece in pieces:
                for fh in fhs:
                    fh.write(piece)


def _store_entry(root: Path, entry: Path, out_dir: Path, files,
                 stdout: str) -> None:
    """Write ``files`` to ``out_dir`` and, in the same pass, into a cache
    entry: a temporary directory under the cache root, ``__stdout__`` last,
    then renamed onto the key, so a reader never sees a half-written entry."""
    root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".tmp-", dir=root))
    try:
        _write_files(files, [tmp, out_dir])
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

    ``produce(h)`` returns the CSV text (a string, or an iterable of
    strings), the JSON document and those lines.  It runs on a cache miss
    only, and each string is written as it is made to ``cfg.out`` and, with
    the cache on, to the new entry.  The key is the payload with the package
    version and the command's revision; a hit copies the stored files' bytes
    (copies, not links: editing an output must not edit the entry) and
    prints the stored stdout.  ``cfg.out`` is created only once there is
    something to write into it.
    """
    h = payload_hash(payload)
    base = f"{stem}_{h}"
    key = payload_hash({"version": __version__,
                        "revision": _REVISION[payload["cmd"]],
                        "payload": payload})
    out_dir = Path(cfg.out)
    root = _cache_root(out_dir)
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
        files = ((base + ".csv", [csv] if isinstance(csv, str) else csv),
                 (base + ".json", [to_json(doc)]))
        stdout = "".join(f"{line}\n" for line in [f"{base}.{show}", *lines])
        out_dir.mkdir(parents=True, exist_ok=True)
        if cfg.cache:
            _store_entry(root, entry, out_dir, files, stdout)
        else:
            _write_files(files, [out_dir])
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
    verdict = classify(params)
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
        "steps": args.steps, "tol_curve": _TOL_CURVE,
    }

    def produce(h):
        rows = []
        for i in range(args.steps):
            p = args.p_min + (args.p_max - args.p_min) * i / max(args.steps - 1, 1)
            qs = jl_curve_q(args.N, p)
            rows.append((p, "" if qs is None else fmt_float(qs)))
        doc = _document("critical_curve", N=args.N, p_min=args.p_min,
                        p_max=args.p_max, steps=args.steps,
                        tol_curve=_TOL_CURVE, payload_hash=h)
        return to_csv(["p", "q_star"], rows), doc, []

    stem = f"curve_N{args.N}_{_slug(args.p_min)}-{_slug(args.p_max)}_s{args.steps}"
    return stem, payload, produce, "csv"


def _cmd_scan(args, cfg: RunConfig):
    resolution = cfg.resolution
    window = args.window or [1.0, 12.0, 1.0, 12.0]
    payload = {
        "cmd": "scan", "N": args.N, "window": window,
        "resolution": resolution, "tol_curve": _TOL_CURVE,
    }

    def produce(h):
        import numpy as np

        from . import scan
        result = scan.scan_codes(args.N, window, resolution)
        # tails[code][j] is the text of a row after its p cell.  A row is
        # its p cell, then one tail per cell joined by the p cell, and the
        # tails of each run of equal codes are one slice of one tails list;
        # runs start at 0 and after each j where codes[i, j] != codes[i, j + 1]
        q_cells = [fmt_float(q) for q in result.q.tolist()]
        tails = [[f"{qc},{code}\n" for qc in q_cells] for code in range(3)]
        codes = result.codes
        run_i, run_j = np.nonzero(codes[:, 1:] != codes[:, :-1])
        run_j += 1
        starts = run_j.tolist()
        start_codes = codes[run_i, run_j].tolist()
        row_runs = np.searchsorted(run_i, np.arange(resolution + 1)).tolist()
        first_codes = codes[:, 0].tolist()

        def rows():
            yield "p,q,code\n"
            for i, p in enumerate(result.p.tolist()):
                prefix = fmt_float(p) + ","
                cells, a, code = [], 0, first_codes[i]
                for k in range(row_runs[i], row_runs[i + 1]):
                    cells += tails[code][a:starts[k]]
                    a, code = starts[k], start_codes[k]
                yield prefix + prefix.join(cells + tails[code][a:])

        doc = _document(
            "region_scan", N=args.N,
            window=dict(zip(("p_min", "p_max", "q_min", "q_max"), window)),
            resolution=resolution, cell_count=result.cell_count(),
            codes={"0": "sub-Sobolev", "1": "super-Sobolev below curve",
                   "2": "on/above curve"},
            counts={str(code): n for code, n in enumerate(result.counts)},
            tol_curve=_TOL_CURVE, payload_hash=h)
        return rows(), doc, []

    return f"scan_N{args.N}_r{resolution}", payload, produce, "csv"


def _cmd_solve(args, cfg: RunConfig):
    params = ParameterTriple(args.p, args.q, args.N)
    opts = cfg.solver_options()
    # the grid and a plain shot's stopping width, the last keys of "opts",
    # keep every artifact name and cache key of the solve and shoot payloads
    opts_payload = {**asdict(opts), "grid_nodes": GRID_NODES, "v0_tol": V0_TOL}
    if args.shoot:
        if args.v0_lo is None or args.v0_hi is None:
            raise DomainError("--shoot requires --v0-lo and --v0-hi")
        if args.v0 is not None or args.r_max is not None:
            raise DomainError("--shoot finds v0 and integrates to r_target; "
                              "--v0 and --r-max are for a plain solve")
        payload = {
            "cmd": "shoot", "p": args.p, "q": args.q, "N": args.N,
            "u0": args.u0, "v0_lo": args.v0_lo, "v0_hi": args.v0_hi,
            "polish": bool(args.polish), "opts": opts_payload,
        }
    else:
        if args.v0 is None:
            raise DomainError("solve requires --v0 (or --shoot)")
        payload = {
            "cmd": "solve", "p": args.p, "q": args.q, "N": args.N,
            "u0": args.u0, "v0": args.v0, "r_max": args.r_max,
            "opts": opts_payload,
        }

    def produce(h):
        from . import radial
        if args.shoot:
            res = radial.shoot(params, args.u0, (args.v0_lo, args.v0_hi),
                               opts, polish=args.polish)
            profile = res.profile
            # a plain shot stopped at V0_TOL may still hit zero before
            # r_target
            reached = (profile.classification
                       is radial.ProfileClass.ENTIRE_POSITIVE)
            extra = {"v0_star": res.v0, "iterations": res.iterations,
                     "bracket_width": res.bracket_width,
                     "polished": args.polish,
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
        "band": DEFAULT_BAND,
    }

    def produce(h):
        from . import profiles, radial
        profile = radial.profile_from_text(csv_text, json_text)
        scaling = derive_scaling(params)
        rep = profiles.compare(profile, scaling)
        rows = [("u", r) for r in rep.crossings_u] + \
               [("v", r) for r in rep.crossings_v]
        doc = _document("comparison", p=args.p, q=args.q, N=args.N,
                        report=rep.as_dict(), payload_hash=h)
        return to_csv(["field", "r"], rows), doc, []

    stem = f"compare_p{_slug(args.p)}_q{_slug(args.q)}_N{args.N}"
    return stem, payload, produce, "json"


def _cmd_eig(args, cfg: RunConfig):
    params = ParameterTriple(args.p, args.q, args.N)
    if args.annulus:
        r_in, r_out, m = args.annulus
        if not m.is_integer():
            raise DomainError(f"the annulus node count must be an integer, got {m}")
        ladder = [Annulus(r_in, r_out, int(m))]
    else:
        ladder = default_ladder()
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
            lambda_top=sr.reports[-1].lam,
            # each rung's entry repeats N, gamma, the verdict, K1K2 and
            # marginal
            ladder=[{"r_inner": rep.annulus.r_inner,
                     "r_outer": rep.annulus.r_outer, "M": rep.annulus.M,
                     "N": params.N, "gamma": sr.gamma, "lambda": rep.lam,
                     "iterations": rep.iterations,
                     "lambda_err": rep.lambda_err, "verdict": sr.verdict,
                     "K1K2": sr.k1k2, "marginal": sr.marginal}
                    for rep in sr.reports],
            payload_hash=h)
        csv = to_csv(["k", "M", "lambda", "lambda_err", "iterations"], rows)
        return csv, doc, [sr.verdict]

    stem = f"eig_p{_slug(args.p)}_q{_slug(args.q)}_N{args.N}"
    return stem, payload, produce, "csv"


# ----------------------------------------------------------------------
# parser / dispatch

# flag -> the config key it overrides and the flag's type
_KEY_FLAGS = {
    "--tol-ode-rel": ("rtol", float), "--tol-ode-abs": ("atol", float),
    "--resolution": ("resolution", int),
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
    for flag, (key, kind) in _KEY_FLAGS.items():
        parser.add_argument(flag, dest=key, type=kind, default=d)


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
        overrides = {key: getattr(args, key) for key, _ in _KEY_FLAGS.values()
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
    except (DomainError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # a scan lattice too large to allocate
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
