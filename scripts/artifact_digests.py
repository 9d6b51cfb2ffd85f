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

It uses the ``src`` and ``bench`` of the checkout it sits in, and writes
nothing there.  Exit status 1 when an op exits nonzero.
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # import bench/workloads.py without a cache
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from workloads import WORKLOADS  # noqa: E402

from lelab.cli import main as lelab_main  # noqa: E402


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
            so = io.StringIO()
            with contextlib.redirect_stdout(so), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = lelab_main(argv + ["--out", str(out), "--no-cache"])
            if rc != 0:
                failed.append(f"{name}: {op.label} exited {rc}")
            stdouts.append(so.getvalue())
            lines.append((name, f"{out.name}.stdout",
                          hashlib.sha256(stdouts[-1].encode()).hexdigest()))
            if out.is_dir():  # classify writes no file
                lines += [(name, out.name + f.suffix,
                           hashlib.sha256(f.read_bytes()).hexdigest())
                          for f in out.iterdir()]
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
