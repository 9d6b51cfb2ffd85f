#!/usr/bin/env python3
"""SHA-256 of every stdout and artifact of the benchmark's op lists.

Runs each op of the ``stability``, ``shoot`` and ``map`` lists of
``bench/workloads.py`` in process, through ``lelab.cli.main`` with
``--no-cache``, each into a temporary ``--out`` directory of its own, and
prints one line ``workload name sha256`` per op's stdout and per file it
wrote, sorted.  Each line is named after its op (``opNNN.stdout``,
``opNNN.csv``, ``opNNN.json``), not after the artifact, whose name carries
the payload's hash.  So a change that only moves a payload keeps every
line name, and only the hashes of the stdouts and JSONs that print the
payload hash move.  A ``compare`` op reads the profile its solve op
wrote, as ``bench/run.py`` does.  Run it on two checkouts and diff the
outputs to show that a change keeps every artifact byte-identical:

    python scripts/artifact_digests.py [--workload stability] [--seed 7]

Each op then runs twice more with the cache on, in a temporary
``LEL_CACHE_DIR`` of its own and each time into a fresh ``--out``: once
as a miss and once as a hit.  Their exit status, stdout and files must
equal those of the ``--no-cache`` run; the printed lines do not change.
It uses the ``src`` and ``bench`` of the checkout it sits in, and writes
nothing there.  Exit status 1, naming the op, when an op exits nonzero or
a cached run differs.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # import bench/workloads.py without a cache
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import WORKLOADS  # noqa: E402

from lelab.cli import main as lelab_main  # noqa: E402


def run(argv: list, out: Path) -> tuple:
    """(exit status, stdout, {file name: bytes}) of one call into ``out``."""
    so = io.StringIO()
    with contextlib.redirect_stdout(so), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = lelab_main(argv + ["--out", str(out)])
    files = ({f.name: f.read_bytes() for f in out.iterdir()}
             if out.is_dir() else {})  # classify writes no file
    return rc, so.getvalue(), files


def digests(name: str, seed: int) -> tuple[list, list]:
    """(``(workload, name, sha256)`` lines, labels of failed ops) of one
    workload's op list."""
    lines, failed, stdouts = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        for i, op in enumerate(WORKLOADS[name](seed)):
            out = Path(tmp) / f"op{i:03d}"
            argv = list(op.argv)
            if op.profile_of is not None:
                first = stdouts[op.profile_of].split("\n", 1)[0]
                argv += ["--profile", str(Path(tmp) / f"op{op.profile_of:03d}"
                                          / Path(first).stem)]
            plain = run(argv + ["--no-cache"], out)
            rc, stdout, files = plain
            if rc != 0:
                failed.append(f"{name}: {op.label} exited {rc}")
            stdouts.append(stdout)
            lines.append((name, f"{out.name}.stdout",
                          hashlib.sha256(stdout.encode()).hexdigest()))
            lines += [(name, out.name + Path(f).suffix,
                       hashlib.sha256(data).hexdigest())
                      for f, data in files.items()]
            with mock.patch.dict(os.environ, LEL_CACHE_DIR=f"{out}.cache"):
                for mode in ("miss", "hit"):
                    if run(argv, Path(f"{out}.{mode}")) != plain:
                        failed.append(f"{name}: {op.label} differs from "
                                      f"--no-cache on a cache {mode}")
    return lines, failed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines, failed = [], []
    for name in names:
        got, bad = digests(name, args.seed)
        lines += got
        failed += bad
    for line in sorted(lines):
        print(*line)
    for msg in failed:
        print(msg, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
