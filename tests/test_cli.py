import hashlib
import json

import pytest

from lelab import cli
from lelab.cli import main
from lelab.config import RunConfig, load_config, parse_config_file
from lelab.errors import ConfigError


def run_cli(args, capsys):
    rc = main(args)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_file_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text(
            "# comment\n"
            "rtol = 1e-8\n"
            "resolution = 64\n"
            'out = "results"\n'
            "cache = false\n"
        )
        cfg = load_config(cfg_file, {"grid_nodes": 256})
        assert cfg.rtol == 1e-8
        assert cfg.resolution == 64
        assert cfg.out == "results"
        assert cfg.cache is False
        assert cfg.grid_nodes == 256

    def test_unknown_key_named(self, tmp_path):
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text("frobnicate = 3\n")
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config_file(cfg_file)

    def test_invalid_values_rejected(self, tmp_path):
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text("rtol = -1e-8\n")
        with pytest.raises(ConfigError, match="rtol"):
            load_config(cfg_file)
        cfg_file.write_text("resolution = 4\n")
        with pytest.raises(ConfigError, match="resolution"):
            load_config(cfg_file)

    def test_jobs_key_unknown(self, tmp_path):
        # the scan process pool and its setting are gone
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text("jobs = 2\n")
        with pytest.raises(ConfigError, match="unknown config key 'jobs'"):
            load_config(cfg_file)
        with pytest.raises(SystemExit):
            main(["--jobs", "2", "scan", "11"])


class TestClassifyCommand:
    def test_above_curve_json(self, capsys):
        rc, out, _ = run_cli(["classify", "8", "8", "11"], capsys)
        assert rc == 0
        doc = json.loads(out)
        assert doc["verdict"]["jl"] == "AboveCurve"
        assert doc["scaling"]["K1K2"] == pytest.approx(396.74135776759687)

    def test_below_curve(self, capsys):
        rc, out, _ = run_cli(["classify", "3", "2", "11"], capsys)
        assert rc == 0
        assert json.loads(out)["verdict"]["jl"] == "BelowCurve"

    def test_order_violation_exits_2(self, capsys):
        rc, _, err = run_cli(["classify", "2", "3", "11"], capsys)
        assert rc == 2
        assert "p >= q" in err

    def test_overflowing_pq_exits_2(self, capsys):
        # p q = inf once made S = 0 and log(S) raised a bare ValueError
        rc, _, err = run_cli(["classify", "1e200", "1e200", "11"], capsys)
        assert rc == 2
        assert "overflows" in err


class TestScanCommand:
    def test_deterministic_and_cached(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("LEL_CACHE_DIR", raising=False)
        out = tmp_path / "a"
        args = ["--out", str(out), "scan", "11",
                "--window", "1", "12", "1", "12", "--resolution", "64"]
        rc, _, err1 = run_cli(args, capsys)
        assert rc == 0
        csv1 = {f.name: f.read_bytes() for f in out.glob("scan_*")}
        rc, _, err2 = run_cli(args, capsys)
        assert rc == 0
        assert "cache hit" in err2
        csv2 = {f.name: f.read_bytes() for f in out.glob("scan_*")}
        assert csv1 == csv2
        # fresh (uncached) rerun is byte-identical too
        out3 = tmp_path / "b"
        args3 = ["--out", str(out3), "--no-cache", "scan", "11",
                 "--window", "1", "12", "1", "12", "--resolution", "64"]
        rc, _, _ = run_cli(args3, capsys)
        assert rc == 0
        csv3 = {f.name: f.read_bytes() for f in out3.glob("scan_*")}
        assert csv1 == csv3

    def test_older_revision_not_served(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("LEL_CACHE_DIR", raising=False)
        args = ["--out", str(tmp_path), "--ladder", "1", "eig", "8", "8", "11"]
        revision = cli._REVISION["eig"]
        monkeypatch.setitem(cli._REVISION, "eig", revision - 1)
        assert run_cli(args, capsys)[0] == 0
        monkeypatch.setitem(cli._REVISION, "eig", revision)
        rc, _, err = run_cli(args, capsys)
        assert rc == 0
        assert "cache hit" not in err
        rc, _, err = run_cli(args, capsys)
        assert "cache hit" in err

    def test_env_cache_dir(self, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cachehome"
        monkeypatch.setenv("LEL_CACHE_DIR", str(cache))
        out = tmp_path / "o"
        rc, _, _ = run_cli(["--out", str(out), "scan", "10",
                            "--window", "1", "4", "1", "4",
                            "--resolution", "16"], capsys)
        assert rc == 0
        assert any(cache.iterdir())

    def test_low_dimension_has_no_stable_cells(self, tmp_path, capsys):
        out = tmp_path / "n10"
        rc, _, _ = run_cli(["--out", str(out), "--no-cache", "scan", "10",
                            "--window", "1", "12", "1", "12",
                            "--resolution", "64"], capsys)
        assert rc == 0
        header = json.loads(next(out.glob("scan_*.json")).read_text())
        assert header["counts"]["2"] == 0
        assert header["cell_count"] == 64 * 64

    def test_single_cell_matches_classify(self, tmp_path, capsys):
        out = tmp_path / "one"
        rc, _, _ = run_cli(["--out", str(out), "--no-cache", "scan", "11",
                            "--window", "8", "9", "8", "9",
                            "--resolution", "1"], capsys)
        assert rc == 0
        csv = next(out.glob("scan_*.csv")).read_text().strip().splitlines()
        assert csv[1].split(",")[2] == "2"  # (8, 8, 11) is above the curve

    def test_scan_bytes_pinned(self, tmp_path, capsys):
        # the hash of this scan in version 0.1.0 before the shared margin
        # kernel, serial and with the former process pool alike
        rc, _, _ = run_cli(["--out", str(tmp_path), "--no-cache", "scan", "11",
                            "--window", "1", "12", "1", "12",
                            "--resolution", "48"], capsys)
        assert rc == 0
        csv = next(tmp_path.glob("scan_*.csv")).read_bytes()
        assert hashlib.sha256(csv).hexdigest() == (
            "60123b5c327625e351695d263b93d3a6ae47d1b630a73222c400e6cbe67b8278")

    def test_wide_window_is_quiet(self, tmp_path, capsys):
        # p q overflows to inf on most of this window; numpy must not warn
        # (the test suite turns RuntimeWarning into an error)
        rc, _, err = run_cli(["--out", str(tmp_path), "--no-cache", "scan",
                              "11", "--window", "1", "1e308", "1", "1e308",
                              "--resolution", "16"], capsys)
        assert rc == 0, err
        assert "Warning" not in err


class TestSolveCompareEig:
    def test_solve_compare_pipeline(self, tmp_path, capsys):
        out = tmp_path / "pipe"
        rc, stdout, _ = run_cli(
            ["--out", str(out), "--no-cache", "solve", "3", "3", "11",
             "--u0", "1", "--v0", "1", "--r-max", "2000"], capsys)
        assert rc == 0
        prof_csv = next(out.glob("profile_*.csv"))
        rc, stdout, _ = run_cli(
            ["--out", str(out), "--no-cache", "compare", "3", "3", "11",
             "--profile", str(prof_csv)], capsys)
        assert rc == 0
        crossings = next(out.glob("compare_*.csv")).read_text().splitlines()
        assert len(crossings) > 1  # below-curve profile crosses u_s

    def test_solve_determinism(self, tmp_path, capsys):
        a, b = tmp_path / "s1", tmp_path / "s2"
        base = ["solve", "3", "2", "11", "--u0", "1", "--v0", "0.9",
                "--r-max", "50"]
        run_cli(["--out", str(a), "--no-cache"] + base, capsys)
        run_cli(["--out", str(b), "--no-cache"] + base, capsys)
        fa = next(a.glob("profile_*.csv")).read_bytes()
        fb = next(b.glob("profile_*.csv")).read_bytes()
        assert fa == fb

    def test_eig_ladder_monotone(self, tmp_path, capsys):
        out = tmp_path / "eig"
        rc, _, _ = run_cli(["--out", str(out), "--no-cache", "--ladder", "3",
                            "eig", "8", "8", "11"], capsys)
        assert rc == 0
        rows = next(out.glob("eig_*.csv")).read_text().strip().splitlines()[1:]
        lams = [float(r.split(",")[2]) for r in rows]
        assert len(lams) == 3
        assert all(b < a for a, b in zip(lams, lams[1:]))
        doc = json.loads(next(out.glob("eig_*.json")).read_text())
        assert doc["verdict"] == "SingularStable"
        assert doc["lecv_consistent"] is True

    def test_curve_command(self, tmp_path, capsys):
        out = tmp_path / "curve"
        rc, _, _ = run_cli(["--out", str(out), "--no-cache", "curve", "11",
                            "--p-min", "7", "--p-max", "9", "--steps", "5"],
                           capsys)
        assert rc == 0
        rows = next(out.glob("curve_*.csv")).read_text().strip().splitlines()[1:]
        qs = [r.split(",")[1] for r in rows]
        assert all(q for q in qs)  # every slice at p >= 7 crosses the curve
        assert float(qs[-1]) < 9.0

    def test_curve_slices_ending_past_p(self, tmp_path, capsys):
        # at p = 9.3015873 the prescan formula once rounded past p
        out = tmp_path / "curve3"
        rc, _, err = run_cli(["--out", str(out), "--no-cache", "curve", "11",
                              "--p-min", "7", "--p-max", "12", "--steps",
                              "64"], capsys)
        assert rc == 0, err

    def test_curve_rejects_overflowing_p(self, tmp_path, capsys):
        rc, _, err = run_cli(["--out", str(tmp_path), "--no-cache", "curve",
                              "11", "--p-min", "1", "--p-max", "1e308",
                              "--steps", "3"], capsys)
        assert rc == 2
        assert "overflows" in err

    def test_curve_rejects_nonpositive_steps(self, tmp_path, capsys):
        for steps in ("0", "-3"):
            rc, _, err = run_cli(["--out", str(tmp_path), "--no-cache",
                                  "curve", "11", "--steps", steps], capsys)
            assert rc == 2
            assert "--steps" in err
        assert not list(tmp_path.glob("curve_*"))

    def test_eig_rejects_overflowing_pq(self, tmp_path, capsys):
        rc, _, err = run_cli(["--out", str(tmp_path), "--no-cache", "eig",
                              "1e200", "1e200", "11"], capsys)
        assert rc == 2
        assert "overflows" in err

    def test_annulus_flag(self, tmp_path, capsys):
        out = tmp_path / "ann"
        rc, _, _ = run_cli(["--out", str(out), "--no-cache", "eig", "3", "2",
                            "11", "--annulus", "1e-2", "1e2", "512"], capsys)
        assert rc == 0
        rows = next(out.glob("eig_*.csv")).read_text().strip().splitlines()
        assert len(rows) == 2  # header + the single annulus
        doc = json.loads(next(out.glob("eig_*.json")).read_text())
        assert doc["verdict"] == "SingularUnstable"

    def test_curve_reports_empty_slices(self, tmp_path, capsys):
        out = tmp_path / "curve2"
        rc, _, _ = run_cli(["--out", str(out), "--no-cache", "curve", "11",
                            "--p-min", "2", "--p-max", "3", "--steps", "4"],
                           capsys)
        assert rc == 0
        rows = next(out.glob("curve_*.csv")).read_text().strip().splitlines()[1:]
        assert all(r.endswith(",") for r in rows)  # no crossing below p_c

    def test_config_flag_through_cli(self, tmp_path, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("resolution = 32\ncache = false\n")
        out = tmp_path / "cfgout"
        rc, _, _ = run_cli(["--config", str(cfg), "--out", str(out),
                            "scan", "10", "--window", "1", "4", "1", "4"],
                           capsys)
        assert rc == 0
        header = json.loads(next(out.glob("scan_*.json")).read_text())
        assert header["resolution"] == 32
        assert not (out / ".lelab-cache").exists()

    def test_bad_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("wibble = 1\n")
        rc, _, err = run_cli(["--config", str(cfg), "classify", "8", "8", "11"],
                             capsys)
        assert rc == 2
        assert "wibble" in err

    def test_missing_profile_is_io_error(self, tmp_path, capsys):
        rc, _, err = run_cli(["--out", str(tmp_path), "compare", "3", "3", "11",
                              "--profile", str(tmp_path / "nope.csv")], capsys)
        assert rc == 4
