"""The benchmark's trajectory: the end-to-end metrics of every BENCH file.

Each committed ``BENCH_<n>.json`` holds alternating pairs of benchmark
runs, one on the parent commit and one on the change, in one of two
layouts: ``about``/``pairs`` (``pairs[study]["runs"]``, a study being a
workload at one seed) or ``what``/``workloads``
(``workloads[workload]["pairs"]``).  This prints, per file and workload,
the number of pairs and the median on each side of ``setup_s``,
``cold_s``, ``warm_s``, ``peak_rss_mb`` and the ops ``attempted``, with the
change's median over the parent's.  ``peak_rss_mb`` grows with the ops a
run completes, so read the two together:

    python scripts/bench_trajectory.py              # every BENCH_*.json
    python scripts/bench_trajectory.py BENCH_17.json
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "cold_s", "warm_s", "peak_rss_mb")
# the columns printed: the end-to-end metrics and the ops each run attempted,
# with the digits each shows
COLUMNS = METRICS + ("attempted",)
DIGITS = {"peak_rss_mb": 1, "attempted": 0}


def pair_lists(doc: dict) -> dict:
    """{workload or study: [pair, ...]} of one BENCH document, each pair a
    dict with a "parent" and a "change" run."""
    if "workloads" in doc:
        return {name: w["pairs"] for name, w in doc["workloads"].items()
                if "pairs" in w}
    return {name: study["runs"] for name, study in doc.get("pairs", {}).items()
            if "runs" in study}


def rows(path: Path) -> list[tuple]:
    """(file, workload, pairs, {metric: (parent median, change median)})."""
    out = []
    for name, pairs in pair_lists(json.loads(path.read_text())).items():
        medians = {m: tuple(statistics.median(p[side][m] for p in pairs)
                            for side in ("parent", "change"))
                   for m in COLUMNS}
        out.append((path.name, name, len(pairs), medians))
    return out


def bench_files() -> list[Path]:
    return sorted(ROOT.glob("BENCH_*.json"),
                  key=lambda p: int(re.sub(r"\D", "", p.stem) or 0))


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or bench_files()
    table = [r for path in paths for r in rows(path)]
    width = max([len("workload")] + [len(r[1]) for r in table])
    print(f"{'file':<14} {'workload':<{width}} {'pairs':>5}"
          + "".join(f"  {m + ': parent -> change (ratio)':<34}"
                    for m in COLUMNS).rstrip())
    for name, workload, n, medians in table:
        cells = ""
        for m in COLUMNS:
            (p, c), d = medians[m], DIGITS.get(m, 4)
            cells += f"  {p:10.{d}f} -> {c:8.{d}f} ({c / p:5.3f})    "
        print(f"{name:<14} {workload:<{width}} {n:>5}{cells.rstrip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
