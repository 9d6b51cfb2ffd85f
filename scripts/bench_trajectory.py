"""The benchmark's trajectory: the end-to-end metrics of every BENCH file.

Each committed ``BENCH_<n>.json`` holds alternating pairs of benchmark
runs, one on the parent commit and one on the change, in one of two
layouts: ``about``/``pairs`` (``pairs[study]["runs"]``, a study being a
workload at one seed) or ``what``/``workloads``
(``workloads[workload]["pairs"]``).  This prints, per file and workload,
the number of pairs and the median on each side of ``setup_s``,
``cold_s``, ``warm_s``, ``peak_rss_mb`` and the ops ``attempted``, with the
change's median over the parent's.  After each metric's ratio comes the
spread of the parent's runs, their interquartile range over their median,
marked ``unresolved`` where it exceeds the metric's bound in
``BENCHMARK.json``: a change of that metric within its bound cannot be
told from noise there.  ``peak_rss_mb`` grows with the ops a run
completes, so read the two together:

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
# each end-to-end metric's bound, relative to the parent's median
BOUNDS = {m["name"]: m["bound"] for m in json.loads(
    (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def pair_lists(doc: dict) -> dict:
    """{workload or study: [pair, ...]} of one BENCH document, each pair a
    dict with a "parent" and a "change" run."""
    if "workloads" in doc:
        return {name: w["pairs"] for name, w in doc["workloads"].items()
                if "pairs" in w}
    return {name: study["runs"] for name, study in doc.get("pairs", {}).items()
            if "runs" in study}


def spread(values: list) -> float:
    """The interquartile range of ``values`` over their median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def rows(path: Path) -> list[tuple]:
    """(file, workload, pairs, {metric: (parent median, change median)},
    {metric: the parent's spread}), the spreads of METRICS only."""
    out = []
    for name, pairs in pair_lists(json.loads(path.read_text())).items():
        medians = {m: tuple(statistics.median(p[side][m] for p in pairs)
                            for side in ("parent", "change"))
                   for m in COLUMNS}
        spreads = {m: spread([p["parent"][m] for p in pairs]) for m in METRICS}
        out.append((path.name, name, len(pairs), medians, spreads))
    return out


def bench_files() -> list[Path]:
    return sorted(ROOT.glob("BENCH_*.json"),
                  key=lambda p: int(re.sub(r"\D", "", p.stem) or 0))


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or bench_files()
    table = [r for path in paths for r in rows(path)]
    width = max([len("workload")] + [len(r[1]) for r in table])
    print(f"{'file':<14} {'workload':<{width}} {'pairs':>5}"
          + "".join(f"  {m + ': parent -> change (ratio) spread':<47}"
                    for m in METRICS)
          + f"  {'attempted: parent -> change (ratio)'}")
    for name, workload, n, medians, spreads in table:
        cells = ""
        for m in COLUMNS:
            (p, c), d = medians[m], DIGITS.get(m, 4)
            cells += f"  {p:10.{d}f} -> {c:8.{d}f} ({c / p:5.3f})"
            if m in spreads:
                mark = "unresolved" if spreads[m] > BOUNDS[m] else ""
                cells += f" {spreads[m]:5.2f} {mark:<10}"
        print(f"{name:<14} {workload:<{width}} {n:>5}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
