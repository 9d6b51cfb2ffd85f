"""The README's experiment scripts run end to end and write their CSVs;
the benchmark trajectory script reads every committed BENCH file, and the
artifact digest script hashes every output of a benchmark op list, to the
same bytes as the recorded digests."""

import difflib
import importlib.util
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path / "data")
    monkeypatch.delenv("LEL_CACHE_DIR", raising=False)
    return module


def rows(path):
    return path.read_text().strip().splitlines()[1:]


def test_stability_region(tmp_path, monkeypatch, capsys):
    load("stability_region", tmp_path, monkeypatch).run()
    out = tmp_path / "data"
    for N in (10, 11, 13):
        scan = next(out.glob(f"scan_N{N}_r300_*.csv"))
        codes = [r.rsplit(",", 1)[1] for r in rows(scan)]
        assert len(codes) == 300 * 300
        # a stable region (code 2) exists only for N >= 11
        assert ("2" in codes) == (N >= 11)


def test_ladder_study(tmp_path, monkeypatch, capsys):
    load("ladder_study", tmp_path, monkeypatch).run()
    text = capsys.readouterr().out
    assert text.count("extrapolated=") == 3
    for name in ("ladder_N11_g0p0", "ladder_N11_g0p4", "ladder_N13_g1p0"):
        csv = tmp_path / "data" / f"{name}.csv"
        lams = [float(r.split(",")[2]) for r in rows(csv)]
        assert len(lams) == 5
        assert all(b < a for a, b in zip(lams, lams[1:]))


def test_intersection_demo(tmp_path, monkeypatch, capsys):
    load("intersection_demo", tmp_path, monkeypatch).run()
    text = capsys.readouterr().out
    # below the curve the shot oscillates around the singular solution,
    # above it the shot stays ordered underneath
    assert "(3,3,11): ordered=False" in text
    assert "(8,8,11): ordered=True" in text
    out = tmp_path / "data"
    assert rows(out / "crossings_p3_q3_N11.csv")
    assert rows(out / "crossings_p8_q8_N11.csv") == []


def test_artifact_digests_of_the_stability_list():
    # 11 eig ops: one line per stdout and per written CSV and JSON, sorted;
    # exit 0 also says that a cache miss and a cache hit of each op wrote
    # the same stdout and bytes as its --no-cache run
    done = subprocess.run([sys.executable, str(SCRIPTS / "artifact_digests.py"),
                           "--workload", "stability"],
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    lines = done.stdout.splitlines()
    assert lines == sorted(lines)
    fields = [ln.split() for ln in lines]
    assert all(len(f) == 3 and f[0] == "stability"
               and re.fullmatch("[0-9a-f]{64}", f[2]) for f in fields)
    names = [f[1] for f in fields]
    assert [n for n in names if n.endswith(".stdout")] == \
        [f"op{i:03d}.stdout" for i in range(11)]
    # each file is named after the op that wrote it
    files = [n for n in names if not n.endswith(".stdout")]
    assert files == [f"op{i:03d}.{ext}" for i in range(11)
                     for ext in ("csv", "json")]


# the 174 digest lines of all three op lists at seed 7: every stdout and
# artifact of the benchmark's ops, byte for byte.  A change that moves any
# byte on purpose records the new lines there and says so in CHANGES.md
ARTIFACT_DIGESTS = Path(__file__).with_name("artifact_digests_seed7.txt")


def test_artifact_digests_of_every_list_are_unchanged():
    done = subprocess.run([sys.executable, str(SCRIPTS / "artifact_digests.py"),
                           "--workload", "all", "--seed", "7"],
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, ""), done.stdout
    want = ARTIFACT_DIGESTS.read_text()
    # on failure, only the lines that moved: - pinned, + now
    moved = difflib.unified_diff(want.splitlines(), done.stdout.splitlines(),
                                 "pinned", "now", n=0, lineterm="")
    assert done.stdout == want, "\n".join(moved)


def test_bench_trajectory_reads_both_layouts():
    # every committed BENCH file, in the about/pairs layout (BENCH_11-13)
    # and the what/workloads one (BENCH_14 on), gives one row per workload
    spec = importlib.util.spec_from_file_location(
        "bench_trajectory", SCRIPTS / "bench_trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    files = module.bench_files()
    assert {p.name for p in files} >= {"BENCH_11.json", "BENCH_17.json"}
    done = subprocess.run([sys.executable, str(SCRIPTS / "bench_trajectory.py")],
                          capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()[1:]
    want = [(p.name, w) for p in files
            for w in module.pair_lists(json.loads(p.read_text()))]
    assert [tuple(ln.split()[:2]) for ln in lines] == want
    assert ("BENCH_11.json", "shoot_seed7") in want
    assert ("BENCH_17.json", "map_30s") in want
    # BENCH_17 records the medians of its shoot pairs itself, peak_rss_mb
    # among them; the ops attempted are read from its runs
    doc = json.loads((files[0].parent / "BENCH_17.json").read_text())
    (row,) = [r for r in module.rows(files[0].parent / "BENCH_17.json")
              if r[1] == "shoot"]
    assert module.METRICS == ("setup_s", "cold_s", "warm_s", "peak_rss_mb")
    for metric in module.METRICS:
        summary = doc["summary"]["shoot"][metric]
        assert row[3][metric] == pytest.approx(
            (summary["parent_median"], summary["change_median"]), rel=1e-12)
    pairs = doc["workloads"]["shoot"]["pairs"]
    assert row[3]["attempted"] == tuple(
        statistics.median(p[side]["attempted"] for p in pairs)
        for side in ("parent", "change"))
    (line,) = [ln for ln in lines
               if ln.split()[:2] == ["BENCH_17.json", "shoot"]]
    parent, change = row[3]["peak_rss_mb"]
    assert f"{parent:.1f} -> {change:8.1f}" in line
    parent, change = row[3]["attempted"]
    assert line.rstrip().endswith(f"{parent:.0f} -> {change:8.0f} "
                                  f"({change / parent:5.3f})")
    # a metric whose parent runs spread wider than its bound is marked
    # unresolved: the parent's interquartile range over its median
    marks = {(r[0], r[1], m, round(s, 2))
             for p in files if p.name in ("BENCH_26.json", "BENCH_27.json")
             for r in module.rows(p) for m, s in r[4].items()
             if s > module.BOUNDS[m]}
    assert marks == {("BENCH_26.json", "map", "peak_rss_mb", 0.13),
                     ("BENCH_26.json", "stability", "peak_rss_mb", 0.16),
                     ("BENCH_27.json", "stability_seeds401-410", "cold_s", 0.28)}
    for file, workload in [("BENCH_26.json", "map"),
                           ("BENCH_27.json", "stability_seeds401-410")]:
        (line,) = [ln for ln in lines if ln.split()[:2] == [file, workload]]
        assert line.count("unresolved") == 1
