"""Smoke test of the benchmark: every workload once, every check on.

Run from the root of the repository:

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_every_workload_passes_its_checks():
    done = subprocess.run([sys.executable, str(RUN), "--workload", "all",
                           "--smoke", "--seed", "7"],
                          stdout=subprocess.PIPE, text=True, timeout=600)
    res = json.loads(done.stdout.strip().split("\n")[-1])
    assert done.returncode == 0, done.stdout
    assert res["correct"]
    by_name = res["workloads"]
    assert set(by_name) == {"stability", "shoot", "map"}
    # one cold and one warm pass; only the known faults fail
    assert by_name["stability"]["failed"] == 6   # per pass: F2 once, F3 twice
    assert by_name["shoot"]["failed"] == 0
    assert by_name["map"]["failed"] == 2         # per pass: F1 once
    for res_w in by_name.values():
        assert set(res_w["metrics"]) == {"setup_s", "cold_s", "warm_s",
                                         "peak_rss_mb"}
        assert all(m["value"] > 0 for m in res_w["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in RUN.parent.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    done = subprocess.run([sys.executable, str(bench / "run.py"), "--workload",
                           "map", "--seed", "1", "--seconds", "1", "--trace",
                           "0"], stdout=subprocess.PIPE, text=True,
                          cwd=tmp_path, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
