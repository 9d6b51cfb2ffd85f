import errno
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import lelab
from lelab import cli, jl_diagonal
from lelab.cli import main
from lelab.config import RunConfig, load_config, parse_config_file
from lelab.errors import ConfigError
from lelab.options import DEFAULT_BAND, SolverOptions
from lelab.scan import region_codes, scan_codes
from lelab.serialize import payload_hash, to_csv


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
        cfg = load_config(cfg_file, {"atol": 1e-11})
        assert cfg.rtol == 1e-8
        assert cfg.resolution == 64
        assert cfg.out == "results"
        assert cfg.cache is False
        assert cfg.atol == 1e-11

    def test_unknown_key_named(self, tmp_path):
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text("frobnicate = 3\n")
        with pytest.raises(ConfigError, match="frobnicate"):
            parse_config_file(cfg_file)

    def test_invalid_values_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text("rtol = -1e-8\n")
        with pytest.raises(ConfigError, match="rtol"):
            load_config(cfg_file)
        cfg_file.write_text("resolution = 0\n")
        with pytest.raises(ConfigError, match="resolution"):
            load_config(cfg_file)
        # the flag has the key's floor, 1, and is checked for every command
        cfg_file.write_text("resolution = 1\n")
        assert load_config(cfg_file).resolution == 1
        rc, _, err = run_cli(["--resolution", "0", "classify", "8", "8", "11"],
                             capsys)
        assert rc == 2
        assert "'resolution'" in err

    @pytest.mark.parametrize("key, value", [
        ("rtol", "1e-8"), ("atol", None), ("r_target", "1e6"),
        ("resolution", 4.0), ("resolution", True), ("r_target", True)])
    def test_mistyped_override_refused(self, key, value):
        # a value of the wrong type is a ConfigError naming its key, not a
        # TypeError from a comparison; a bool is not a number
        with pytest.raises(ConfigError, match=key):
            load_config(None, {key: value})

    def test_curve_band_is_not_a_setting(self, tmp_path, capsys):
        # the Critical and OnCurve bands are fixed: tol_curve is neither a
        # config key nor a flag
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text("tol_curve = 1e-9\n")
        rc, _, err = run_cli(["--config", str(cfg_file), "classify", "8", "8",
                              "11"], capsys)
        assert rc == 2
        assert "unknown config key 'tol_curve'" in err
        with pytest.raises(SystemExit) as exc:
            main(["classify", "8", "8", "11", "--tol-curve", "1e-9"])
        assert exc.value.code == 2
        assert "--tol-curve" in capsys.readouterr().err

    def test_grid_is_not_a_setting(self, tmp_path, capsys):
        # a profile always has options.GRID_NODES nodes: grid_nodes is an
        # unknown key, in a config file and as an override
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text("grid_nodes = 64\n")
        rc, _, err = run_cli(["--config", str(cfg_file), "--out",
                              str(tmp_path / "out"), "--no-cache", "solve",
                              "3", "3", "11", "--u0", "1", "--v0", "1",
                              "--r-max", "10"], capsys)
        assert rc == 2
        assert "unknown config key 'grid_nodes'" in err
        assert not (tmp_path / "out").exists()
        with pytest.raises(ConfigError, match="unknown config key 'grid_nodes'"):
            load_config(None, {"grid_nodes": 64})

    def test_solver_options_from_config(self, tmp_path):
        # the three solver keys become the solvers' options, other keys not
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text("rtol = 1e-8\natol = 1e-11\nresolution = 64\n")
        assert load_config(cfg_file).solver_options() == SolverOptions(
            rtol=1e-8, atol=1e-11)

    def test_relative_tolerances_below_one(self, tmp_path):
        # a relative tolerance of 1 or more accepts anything
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text("rtol = 1e308\n")
        with pytest.raises(ConfigError, match="rtol"):
            load_config(cfg_file)

    @pytest.mark.parametrize("line, expects", [
        ("resolution = 4.5", "an integer"), ("resolution = true", "an integer"),
        ("rtol = x", "a number"), ("rtol = true", "a number"),
        ('rtol = "1e-8"', "a number"), ("cache = 1", "true/false"),
        ('cache = "true"', "true/false")])
    def test_values_typed_like_their_defaults(self, tmp_path, line, expects):
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text(line + "\n")
        key = line.split()[0]
        with pytest.raises(ConfigError,
                           match=f"lab.cfg:1: key '{key}' expects {expects}"):
            parse_config_file(cfg_file)

    def test_typed_values(self, tmp_path, capsys):
        cfg_file = tmp_path / "lab.cfg"
        cfg_file.write_text("rtol = 1\nresolution = 3\ncache = False\n"
                            'out = "c d"\n')
        cfg = parse_config_file(cfg_file)
        assert cfg == {"rtol": 1.0, "resolution": 3, "cache": False,
                       "out": "c d"}
        assert type(cfg["rtol"]) is float
        # unquoted; and a '#' inside quotes is part of the string
        for line, out in (("out = results", "results"),
                          ('out = "runs#2"  # the second', "runs#2")):
            cfg_file.write_text(line + "\n")
            assert parse_config_file(cfg_file) == {"out": out}
        # a quote that is never closed, also before a '#'
        for line in ('out = "runs', 'out = "runs # the second'):
            cfg_file.write_text("cache = true\n" + line + "\n")
            with pytest.raises(ConfigError,
                               match="lab.cfg:2: unterminated quote"):
                parse_config_file(cfg_file)
        # a key given twice is refused at its second line, as in TOML, and
        # a file that is not UTF-8 by a ConfigError, not a traceback
        cfg_file.write_text("rtol = 1e-8\ncache = true\nrtol = 1e-6\n")
        with pytest.raises(ConfigError,
                           match="lab.cfg:3: key 'rtol' given twice"):
            parse_config_file(cfg_file)
        cfg_file.write_bytes(b'out = "r\xffs"\n')
        with pytest.raises(ConfigError, match="lab.cfg: not UTF-8"):
            parse_config_file(cfg_file)
        for text in ("rtol = 1e-8\nrtol = 1e-6\n", 'out = "r\xffs"\n'):
            cfg_file.write_bytes(text.encode("latin-1"))
            rc, out, err = run_cli(["--config", str(cfg_file), "classify",
                                    "8", "8", "11"], capsys)
            assert (rc, out, err.count("\n")) == (2, "", 1)
            assert err.startswith("error: ")
        # a float key given a 400-digit integer is refused by value, not by
        # an OverflowError
        cfg_file.write_text("rtol = 1" + "0" * 400 + "\n")
        with pytest.raises(ConfigError, match="rtol"):
            load_config(cfg_file)

    def test_jobs_key_unknown(self, tmp_path, capsys):
        # the scan process pool, the decay threshold of EntirePositive and
        # the ladder's nodes per rung are gone with their settings: a
        # config that names one is refused, not silently ignored
        cfg_file = tmp_path / "lab.cfg"
        for key in ("jobs", "decay_threshold", "ladder_m_per_k"):
            cfg_file.write_text(f"{key} = 2\n")
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                load_config(cfg_file)
            rc, _, err = run_cli(["--config", str(cfg_file), "classify", "8",
                                  "8", "11"], capsys)
            assert rc == 2
            assert f"unknown config key '{key}'" in err
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

    def test_dimension_past_double_exits_2(self, tmp_path, capsys):
        # N is parsed as an unbounded int; its first float conversion used
        # to end in an OverflowError traceback
        big = "1" + "0" * 400
        for argv in (["classify", "8", "8", big],
                     ["scan", big, "--resolution", "4"],
                     ["curve", big, "--steps", "2"]):
            rc, _, err = run_cli(["--out", str(tmp_path), "--no-cache"] + argv,
                                 capsys)
            assert rc == 2
            assert "double range" in err
            assert "Traceback" not in err

    def test_overflowing_pq_exits_2(self, capsys):
        # p q = inf once made S = 0 and log(S) raised a bare ValueError
        rc, _, err = run_cli(["classify", "1e200", "1e200", "11"], capsys)
        assert rc == 2
        assert "overflows" in err


# one cheap op of each cached command; "@" stands for a stored profile
CACHED_OPS = {
    "curve": ["curve", "11", "--p-min", "7", "--p-max", "9", "--steps", "5"],
    "scan": ["scan", "11", "--window", "1", "12", "1", "12",
             "--resolution", "64"],
    "solve": ["solve", "3", "3", "11", "--u0", "1", "--v0", "1",
              "--r-max", "100"],
    "shot": ["solve", "8", "8", "11", "--u0", "1", "--shoot",
             "--v0-lo", "0.5", "--v0-hi", "2"],
    "compare": ["compare", "3", "3", "11", "--profile", "@"],
    "eig": ["eig", "3", "3", "11", "--annulus", "0.01", "100", "2048"],
}


def _artifacts(out):
    return {f.name: f.read_bytes() for f in out.iterdir() if f.is_file()}


def _cached_argv(name, tmp_path, capsys):
    argv = CACHED_OPS[name]
    if "@" in argv:
        store = tmp_path / "stored"
        rc, out, _ = run_cli(["--out", str(store), "--no-cache",
                              *CACHED_OPS["solve"]], capsys)
        assert rc == 0
        argv = [str(store / out.split("\n")[0]) if a == "@" else a
                for a in argv]
    return argv


class TestScanCommand:
    def test_deterministic_and_cached(self, tmp_path, capsys, monkeypatch):
        # one cheap op of each cached command
        monkeypatch.delenv("LEL_CACHE_DIR", raising=False)
        for name in CACHED_OPS:
            self._check_deterministic_and_cached(tmp_path / name, capsys,
                                                 name)

    @staticmethod
    def _check_deterministic_and_cached(tmp_path, capsys, name):
        argv = _cached_argv(name, tmp_path, capsys)
        out = tmp_path / "a"
        rc, stdout1, err1 = run_cli(["--out", str(out)] + argv, capsys)
        assert rc == 0, name
        assert "cache hit" not in err1
        files1 = _artifacts(out)
        # stdout names one of the two files, <stem>_<payload hash>.{csv,json}
        shown = pathlib.Path(stdout1.split("\n")[0])
        assert shown.suffix == (".json" if name == "compare" else ".csv")
        stem = shown.stem
        assert sorted(files1) == [stem + ".csv", stem + ".json"]
        doc = json.loads(files1[stem + ".json"])
        assert stem.rsplit("_", 1)[1] == doc["payload_hash"]
        rc, stdout2, err2 = run_cli(["--out", str(out)] + argv, capsys)
        assert rc == 0
        assert "cache hit" in err2, name
        assert stdout2 == stdout1
        assert _artifacts(out) == files1
        # fresh (uncached) rerun is byte-identical too
        out3 = tmp_path / "b"
        rc, stdout3, _ = run_cli(["--out", str(out3), "--no-cache"] + argv,
                                 capsys)
        assert rc == 0
        assert stdout3 == stdout1
        assert _artifacts(out3) == files1

    @pytest.mark.parametrize("name, shown", [
        ("curve", "curve_N11_7-9_s5_bcd14d1d20a8.csv"),
        ("scan", "scan_N11_r64_69c66df5b9dc.csv"),
        ("solve", "profile_p3_q3_N11_3035f761b5a7.csv"),
        ("shot", "profile_p8_q8_N11_814bbfe8b34f.csv"),
        ("eig", "eig_p3_q3_N11_51dddf8a8269.csv"),
    ])
    def test_file_names_pinned(self, tmp_path, capsys, name, shown):
        # the names of version 0.1.0 before the one artifact writer; they
        # hash the arguments and the config only, so they hold on any
        # platform, and any change to a payload moves them: solve and shot
        # moved when four solver settings left the payload's "opts", and
        # again when the event tolerance became a constant, eig when
        # eig_tol and eig_max_iter left its payload; eig's op is a single
        # annulus since its two-rung ladder has no input left to ask for it
        rc, out, _ = run_cli(["--out", str(tmp_path), "--no-cache",
                              *CACHED_OPS[name]], capsys)
        assert rc == 0
        assert out.split("\n")[0] == shown

    def test_older_revision_not_served(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("LEL_CACHE_DIR", raising=False)
        solve = ["solve", "8", "8", "11", "--u0", "1"]
        for cmd, argv in (
                ("eig", ["eig", "8", "8", "11", "--annulus", "0.1", "10",
                         "1024"]),
                ("solve", solve + ["--v0", "1", "--r-max", "100"]),
                ("shoot", solve + ["--shoot", "--v0-lo", "0.5", "--v0-hi", "2"])):
            args = ["--out", str(tmp_path / cmd)] + argv
            revision = cli._REVISION[cmd]
            monkeypatch.setitem(cli._REVISION, cmd, revision - 1)
            assert run_cli(args, capsys)[0] == 0
            monkeypatch.setitem(cli._REVISION, cmd, revision)
            rc, _, err = run_cli(args, capsys)
            assert rc == 0
            assert "cache hit" not in err
            rc, _, err = run_cli(args, capsys)
            assert "cache hit" in err

    def test_incomplete_entry_recomputed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("LEL_CACHE_DIR", raising=False)
        args = ["--out", str(tmp_path), "solve", "3", "3", "11",
                "--u0", "1", "--v0", "1", "--r-max", "100"]
        assert run_cli(args, capsys)[0] == 0
        cache = tmp_path / ".lelab-cache"
        (entry,) = [d for d in cache.iterdir()]
        # an entry as a writer interrupted before __stdout__ would leave it
        (entry / "__stdout__").unlink()
        csv = next(entry.glob("*.csv"))
        csv.write_text("r,u,v,du,dv\n")
        rc, out, err = run_cli(args, capsys)
        assert rc == 0
        assert "cache hit" not in err
        assert out.endswith("Truncated\n")
        assert len((tmp_path / csv.name).read_text().splitlines()) == 2049
        rc, _, err = run_cli(args, capsys)
        assert "cache hit" in err
        assert [d.name for d in cache.iterdir()] == [entry.name]

    def test_interrupted_write_leaves_no_entry(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.delenv("LEL_CACHE_DIR", raising=False)
        args = ["--out", str(tmp_path), "solve", "3", "3", "11",
                "--u0", "1", "--v0", "1", "--r-max", "100"]
        write_text = pathlib.Path.write_text

        def disk_full(path, text, *a, **kw):
            if path.name == "__stdout__":
                path.touch()  # the file exists, its text never arrives
                raise OSError(errno.ENOSPC, "No space left on device")
            return write_text(path, text, *a, **kw)

        monkeypatch.setattr(pathlib.Path, "write_text", disk_full)
        assert run_cli(args, capsys)[0] == 4
        monkeypatch.setattr(pathlib.Path, "write_text", write_text)
        assert list((tmp_path / ".lelab-cache").iterdir()) == []
        rc, out, err = run_cli(args, capsys)
        assert rc == 0
        assert "cache hit" not in err
        assert out.endswith("Truncated\n")

    def test_env_cache_root(self, tmp_path, capsys, monkeypatch):
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

    def test_scan_bytes_pinned_400(self, tmp_path, capsys):
        # 48^2 is one block of the kernel; 400^2 (20 blocks, 400 rows
        # written one at a time) is pinned to its hash before the blocked
        # kernel and the run joins
        rc, _, _ = run_cli(["--out", str(tmp_path), "--no-cache", "scan", "11",
                            "--resolution", "400"], capsys)
        assert rc == 0
        csv = next(tmp_path.glob("scan_*.csv")).read_bytes()
        assert hashlib.sha256(csv).hexdigest() == (
            "b9965ff65cbedb135eb36bcff7a3da6f3870b2aa0deebc3de11b97d53a830591")

    @pytest.mark.parametrize("cache", [[], ["--no-cache"]],
                             ids=["cache", "no-cache"])
    def test_scan_holds_no_whole_csv(self, tmp_path, capsys, monkeypatch,
                                     cache):
        # the CSV is written a row at a time, to --out and to the entry
        # alike: the traced peak of a 400^2 miss stays below a quarter of
        # the CSV's size (a list of chunks of the whole CSV took it to 1.06
        # times, one whole-CSV string and its encoding to 2.25 times)
        import tracemalloc
        monkeypatch.setenv("LEL_CACHE_DIR", str(tmp_path / "cache"))
        tracemalloc.start()
        try:
            rc, _, _ = run_cli(["--out", str(tmp_path), *cache, "scan",
                                "11", "--resolution", "400"], capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 0
        size = next(tmp_path.glob("scan_*.csv")).stat().st_size
        assert peak < 0.25 * size

    def test_polished_shot_bytes_pinned(self, tmp_path, capsys):
        # the hashes since the march starts from a degree-12 series at
        # r = 0.52 and the shot continues its best probe: v0* moved 2 ulp
        # (...753 -> ...758), and with it r_start (...736 -> ...727); u and
        # v move by at most 2.4e-13 relative through r = 1 and 7.2e-12
        # through 1e2 (the shooting error grows beyond); the step
        # statistics move (960 -> 809 steps with 2 rejected, 5761 -> 4867
        # evaluations, min_step 6.77e-4 -> 5.56e-3, max_step 24167.89 ->
        # 24217.88); the iterations stay at 22.  The JSON's payload_hash
        # moved, and no other byte, when the event tolerance left the payload
        rc, _, _ = run_cli(["--out", str(tmp_path), "--no-cache", "solve",
                            "9", "6", "11", "--u0", "1", "--shoot",
                            "--v0-lo", "0.2", "--v0-hi", "5", "--polish"],
                           capsys)
        assert rc == 0
        digests = {f.suffix: hashlib.sha256(f.read_bytes()).hexdigest()
                   for f in tmp_path.glob("profile_*")}
        assert digests == {
            ".csv": "88e8afcffb916e7cb486a1177d330ffa84144c9cfa94705661819f376da0d463",
            ".json": "1348a513b90137cccac7856c88e6c69628872ab4303d161064f7d08fcb933cdd"}

    @pytest.mark.parametrize("N", ["10", "11", "13"])
    @pytest.mark.parametrize("resolution", [1, 2, 17, 48, 130])
    @pytest.mark.parametrize("window", [("1", "12", "1", "12"),
                                        ("1", "1e308", "1", "1e308")],
                             ids=["default", "wide"])
    def test_scan_csv_matches_row_path(self, tmp_path, capsys, N, resolution,
                                       window):
        # the scan writes its CSV a row at a time from a code x column
        # table of row tails, one slice per run of equal codes (130^2 spans
        # 3 kernel blocks); the oracle is the generic to_csv over
        # (p, q, code) rows
        rc, _, _ = run_cli(["--out", str(tmp_path), "--no-cache", "scan", N,
                            "--window", *window,
                            "--resolution", str(resolution)], capsys)
        assert rc == 0
        result = scan_codes(int(N), [float(x) for x in window], resolution)
        rows = [(p, q, code)
                for p, codes in zip(result.p.tolist(), result.codes.tolist())
                for q, code in zip(result.q.tolist(), codes)]
        csv = next(tmp_path.glob("scan_*.csv")).read_bytes()
        assert csv == to_csv(["p", "q", "code"], rows).encode()

    def test_hit_copies_bytes(self, tmp_path, capsys, monkeypatch):
        # a hit copies the entry's files: editing an output must not reach
        # the cache, and the next hit restores the stored bytes
        monkeypatch.delenv("LEL_CACHE_DIR", raising=False)
        args = ["--out", str(tmp_path), *CACHED_OPS["scan"]]
        assert run_cli(args, capsys)[0] == 0
        rc, out, err = run_cli(args, capsys)
        assert rc == 0
        assert "cache hit" in err
        output = tmp_path / out.split("\n")[0]
        (stored,) = (tmp_path / ".lelab-cache").glob(f"*/{output.name}")
        original = stored.read_bytes()
        assert output.read_bytes() == original
        assert output.stat().st_ino != stored.stat().st_ino
        output.write_text("edited\n")
        assert stored.read_bytes() == original
        rc, _, err = run_cli(args, capsys)
        assert rc == 0
        assert "cache hit" in err
        assert output.read_bytes() == original

    def test_unallocatable_lattice_exits_4(self, tmp_path, capsys):
        # this ended in numpy's allocation traceback (exit 1); 1e12 nodes
        # fail at the first allocation, before any memory is committed
        rc, _, err = run_cli(["--out", str(tmp_path / "out"), "--no-cache",
                              "scan", "11", "--resolution", "1000000000000"],
                             capsys)
        assert rc == 4
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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

    def test_shoot_reports_reached_target(self, tmp_path, capsys):
        # a plain shot below the curve stops at V0_TOL and crashes before
        # r_target
        rc, out, _ = run_cli(
            ["--out", str(tmp_path / "coarse"), "--no-cache",
             "solve", "6", "4", "11", "--u0", "1", "--shoot",
             "--v0-lo", "0.2", "--v0-hi", "5"], capsys)
        assert rc == 0
        meta = json.loads(next((tmp_path / "coarse").glob("*.json")).read_text())
        assert meta["classification"] in ("UHitsZero", "VHitsZero")
        assert meta["shoot"]["reached_target"] is False
        # a polished shot above the curve stays positive through r_target
        rc, out, _ = run_cli(
            ["--out", str(tmp_path / "polish"), "--no-cache", "solve", "9", "6",
             "11", "--u0", "1", "--shoot", "--v0-lo", "0.2", "--v0-hi", "5",
             "--polish"], capsys)
        assert rc == 0
        meta = json.loads(next((tmp_path / "polish").glob("*.json")).read_text())
        assert meta["classification"] == "EntirePositive"
        assert meta["shoot"]["reached_target"] is True

    def test_slowly_decaying_shot_is_entire(self, tmp_path, capsys):
        # v decays like r^(-16/83) on the polished (12,7,11) shot: it stays
        # positive through r_target = 1e6 with v(1e6) = 0.076, and was
        # Truncated while EntirePositive also asked for v < 0.05 max(u0, v0)
        rc, out, _ = run_cli(
            ["--out", str(tmp_path), "--no-cache", "solve", "12", "7", "11",
             "--u0", "1", "--shoot", "--v0-lo", "0.2", "--v0-hi", "5",
             "--polish"], capsys)
        assert rc == 0
        assert out.endswith("\nEntirePositive\n")
        profile = tmp_path / out.split("\n")[0]
        meta = json.loads(profile.with_suffix(".json").read_text())
        assert meta["shoot"]["reached_target"] is True
        rc, out, _ = run_cli(
            ["--out", str(tmp_path), "--no-cache", "compare", "12", "7", "11",
             "--profile", str(profile)], capsys)
        assert rc == 0
        rep = json.loads((tmp_path / out.split("\n")[0]).read_text())
        assert rep["report"]["interior_only"] is False

    def test_compare_band_floored_at_rtol(self, tmp_path, capsys):
        # the diagonal shot sits on the singular asymptote to about 3e-11
        # beyond r ~ 1e3, below the solver's rtol 1e-10; the old default
        # band 1e-12 counted 468 rounding-level crossings per field there
        out = tmp_path / "diag"
        rc, stdout, _ = run_cli(
            ["--out", str(out), "--no-cache", "solve", "8", "8", "11", "--u0",
             "1", "--shoot", "--v0-lo", "0.5", "--v0-hi", "2"], capsys)
        assert rc == 0
        rc, _, _ = run_cli(
            ["--out", str(out), "--no-cache", "compare", "8", "8", "11",
             "--profile", str(out / stdout.split()[0])], capsys)
        assert rc == 0
        rep = json.loads(next(out.glob("compare_*.json")).read_text())["report"]
        assert rep["band_rel"] == 1e-10
        assert rep["crossings_u"] == [] and rep["crossings_v"] == []
        assert rep["ordered"] is True

    def test_compare_band_floor(self, tmp_path, capsys):
        # below an rtol of 1e-12 the band stays at its floor, 1e-12
        out = tmp_path / "fine"
        rc, stdout, _ = run_cli(
            ["--out", str(out), "--no-cache", "--tol-ode-rel", "1e-13",
             "solve", "3", "3", "11", "--u0", "1", "--v0", "1", "--r-max",
             "100"], capsys)
        assert rc == 0
        rc, _, _ = run_cli(
            ["--out", str(out), "--no-cache", "compare", "3", "3", "11",
             "--profile", str(out / stdout.split()[0])], capsys)
        assert rc == 0
        rep = json.loads(next(out.glob("compare_*.json")).read_text())["report"]
        assert rep["band_rel"] == 1e-12

    def test_eig_ladder_monotone(self, tmp_path, capsys):
        out = tmp_path / "eig"
        rc, _, _ = run_cli(["--out", str(out), "--no-cache", "eig", "8", "8",
                            "11"], capsys)
        assert rc == 0
        rows = next(out.glob("eig_*.csv")).read_text().strip().splitlines()[1:]
        lams = [float(r.split(",")[2]) for r in rows]
        assert len(lams) == 5  # the default ladder, not extended
        assert all(b < a for a, b in zip(lams, lams[1:]))
        doc = json.loads(next(out.glob("eig_*.json")).read_text())
        assert doc["verdict"] == "SingularStable"
        assert doc["lecv_consistent"] is True

    def test_eig_artifacts_carry_lambda_err(self, tmp_path, capsys):
        # the rounding bound of each rung, in the CSV and the JSON alike,
        # far inside the verdict band
        rc, _, _ = run_cli(["--out", str(tmp_path), "--no-cache", "eig", "9",
                            "6", "11"], capsys)
        assert rc == 0
        head, *rows = next(tmp_path.glob("eig_*.csv")).read_text().split()
        assert head == "k,M,lambda,lambda_err,iterations"
        ladder = json.loads(next(tmp_path.glob("eig_*.json")).read_text())["ladder"]
        for row, rung in zip(rows, ladder, strict=True):
            _, _, lam, err, evals = row.split(",")
            assert float(lam) == rung["lambda"]
            assert float(err) == rung["lambda_err"]
            assert 0.0 < float(err) < 1e-12 * float(lam)
            assert int(evals) == rung["iterations"] > 2

    def test_eig_coarse_grid_overflow_exits_2(self, tmp_path, capsys):
        # h = 81 at N = 11: lambda h^4 is past the double range
        rc, _, err = run_cli(["--out", str(tmp_path), "--no-cache", "eig",
                              "9", "6", "11", "--annulus", "1e-300", "1e300",
                              "16"], capsys)
        assert rc == 2
        assert "overflows" in err

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

    @pytest.mark.parametrize("N", [11, 13])
    @pytest.mark.parametrize("factor", [1 - 1e-8, 1 - 1e-9, 1.0, 1 + 1e-9,
                                        1 + 1e-8])
    def test_curve_classify_and_scan_agree_at_the_diagonal(
            self, tmp_path, capsys, N, factor):
        # one band decides "on or above the curve" for all three: next to
        # the diagonal crossing p*, curve reports a q* on the slice p
        # exactly where classify puts (p, p) OnCurve or AboveCurve, and
        # exactly where the scan's code is 2.  The curve's diagonal end
        # once had a band about 400 times narrower, and reported no q* at
        # p*(1 - 1e-9)
        p = jl_diagonal(N) * factor
        rc, out, _ = run_cli(["classify", repr(p), repr(p), str(N)], capsys)
        assert rc == 0
        on_or_above = json.loads(out)["verdict"]["jl"] in ("OnCurve",
                                                           "AboveCurve")
        assert on_or_above == (factor >= 1 - 1e-9)
        code = region_codes(np.array([p]), np.array([p]), N)[0]
        assert (code == 2) == on_or_above
        rc, _, _ = run_cli(["--out", str(tmp_path), "--no-cache", "curve",
                            str(N), "--p-min", repr(p), "--p-max", repr(p),
                            "--steps", "1"], capsys)
        assert rc == 0
        (row,) = next(tmp_path.glob("curve_*.csv")).read_text().split()[1:]
        q_star = row.split(",")[1]
        assert (q_star != "") == on_or_above
        if factor < 1.0 and on_or_above:  # the margin is negative on (p, p)
            assert float(q_star) == p

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

    def test_eig_ladder_is_not_a_setting(self, tmp_path, capsys):
        # the ladder has one shape: ladder_kmax is no config key and
        # --ladder no flag, and neither run writes anything
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("ladder_kmax = 5\n")
        out = tmp_path / "out"
        rc, stdout, err = run_cli(["--config", str(cfg), "--out", str(out),
                                   "--no-cache", "eig", "8", "8", "11"], capsys)
        assert (rc, stdout) == (2, "")
        assert "unknown config key 'ladder_kmax'" in err
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(out), "--no-cache", "eig", "8", "8", "11",
                  "--ladder", "5"])
        assert exc.value.code == 2
        assert "--ladder" in capsys.readouterr().err
        assert not out.exists()

    def test_shot_stopping_width_is_not_a_setting(self, tmp_path, capsys):
        # --polish alone chooses where a shot stops: v0_tol is no config key
        # and --tol-v0 no flag, and neither run writes anything
        cfg = tmp_path / "lab.cfg"
        cfg.write_text("v0_tol = 1e-6\n")
        out = tmp_path / "out"
        shot = ["solve", "9", "6", "11", "--u0", "1", "--shoot",
                "--v0-lo", "0.2", "--v0-hi", "5"]
        rc, stdout, err = run_cli(["--config", str(cfg), "--out", str(out),
                                   "--no-cache", *shot], capsys)
        assert (rc, stdout) == (2, "")
        assert "unknown config key 'v0_tol'" in err
        with pytest.raises(SystemExit) as exc:
            main(["--out", str(out), "--no-cache", *shot, "--tol-v0", "1e-6"])
        assert exc.value.code == 2
        assert "--tol-v0" in capsys.readouterr().err
        assert not out.exists()

    def test_eig_rejects_non_finite_annulus_nodes(self, tmp_path, capsys):
        for m in ("nan", "inf"):
            rc, _, err = run_cli(["--out", str(tmp_path), "--no-cache", "eig",
                                  "3", "2", "11", "--annulus", "0.1", "10", m],
                                 capsys)
            assert rc == 2, err

    def test_eig_rejects_non_integer_annulus_nodes(self, tmp_path, capsys):
        # 64.7 silently ran 64 nodes
        rc, _, err = run_cli(["--out", str(tmp_path), "--no-cache", "eig",
                              "3", "2", "11", "--annulus", "0.1", "10", "64.7"],
                             capsys)
        assert rc == 2
        assert "integer" in err
        assert not list(tmp_path.glob("eig_*"))

    @pytest.mark.parametrize("m", ["1e15", "1e308"])
    def test_eig_huge_annulus_node_count_exits_2(self, tmp_path, capsys, m):
        # these ended in numpy's allocation tracebacks; the annulus refuses
        # the node count before anything is allocated
        rc, _, err = run_cli(["--out", str(tmp_path), "--no-cache", "eig",
                              "3", "2", "11", "--annulus", "0.1", "10", m],
                             capsys)
        assert rc == 2
        assert "interior nodes" in err
        assert not list(tmp_path.glob("eig_*"))

    @pytest.mark.parametrize("line", ["eig_tol = 1e-11", "eig_max_iter = 100"])
    def test_removed_eigensolver_keys_exit_2(self, tmp_path, capsys, line):
        # the secular root has no tolerance or iteration cap to set
        cfg = tmp_path / "lab.cfg"
        cfg.write_text(line + "\n")
        rc, _, err = run_cli(["--config", str(cfg), "--out", str(tmp_path),
                              "--no-cache", "eig", "3", "2", "11"], capsys)
        assert rc == 2
        assert f"unknown config key '{line.split()[0]}'" in err
        assert not list(tmp_path.glob("eig_*"))

    def test_solve_rejects_zero_r_max(self, tmp_path, capsys):
        # 0 is not a request for the default r_target
        rc, _, err = run_cli(["--out", str(tmp_path), "--no-cache", "solve",
                              "3", "3", "11", "--u0", "1", "--v0", "1",
                              "--r-max", "0"], capsys)
        assert rc == 2
        assert "r_max must be positive" in err
        assert not list(tmp_path.glob("profile_*"))

    @pytest.mark.parametrize("args", [
        ["3", "3", "11", "--u0", "1e-300", "--v0", "1"],
        ["3", "3", "11", "--u0", "1", "--v0", "1e-200"],
        ["9", "6", "11", "--u0", "1", "--shoot", "--v0-lo", "1e-300",
         "--v0-hi", "5"]])
    def test_solve_underflowing_initial_data_exits_2(self, tmp_path, capsys,
                                                     args):
        # u0^q or v0^p underflows to 0: these ended in a ZeroDivisionError
        # traceback (exit 1)
        rc, _, err = run_cli(["--out", str(tmp_path), "--no-cache", "solve",
                              *args], capsys)
        assert rc == 2
        assert "too extreme" in err
        assert not list(tmp_path.glob("profile_*"))

    def test_shoot_without_singular_pair_exits_2(self, tmp_path, capsys):
        # alpha >= N - 2: compare and eig refuse this triple, and so does
        # the shot, before it integrates anything
        rc, _, err = run_cli(["--out", str(tmp_path), "--no-cache", "solve",
                              "1.2", "1.1", "5", "--u0", "1", "--shoot",
                              "--v0-lo", "0.05", "--v0-hi", "5"], capsys)
        assert rc == 2
        assert not list(tmp_path.glob("profile_*"))

    def test_shoot_refuses_plain_solve_options(self, tmp_path, capsys):
        # a shot finds its own v0 and integrates to r_target, so --v0 and
        # --r-max would be ignored without a word: they are refused
        shot = ["solve", "8", "8", "11", "--u0", "1", "--shoot",
                "--v0-lo", "0.5", "--v0-hi", "2"]
        for extra in (["--r-max", "0"], ["--r-max", "5"], ["--v0", "3"]):
            rc, _, err = run_cli(["--out", str(tmp_path), "--no-cache",
                                  *shot, *extra], capsys)
            assert rc == 2, extra
            assert "--shoot" in err
        assert not list(tmp_path.glob("profile_*"))

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


@pytest.fixture(scope="module")
def stored_profile(tmp_path_factory):
    """The CSV and JSON text of a short stored (3,3,11) profile."""
    out = tmp_path_factory.mktemp("stored")
    assert main(["--out", str(out), "--no-cache", "solve", "3", "3", "11",
                 "--u0", "1", "--v0", "1", "--r-max", "10"]) == 0
    csv = next(out.glob("profile_*.csv"))
    return csv.read_text(), csv.with_suffix(".json").read_text()


def _compare(tmp_path, capsys, triple, csv, json_text, *extra):
    """Store csv (text or bytes) and json_text as a profile and compare it."""
    base = tmp_path / "profile"
    csv = csv.encode() if isinstance(csv, str) else csv
    base.with_suffix(".csv").write_bytes(csv)
    base.with_suffix(".json").write_text(json_text)
    return run_cli(["--out", str(tmp_path / "out"), "--no-cache", "compare",
                    *triple, "--profile", str(base), *extra], capsys)


class TestCompareRefuses:
    def test_profile_of_another_triple(self, tmp_path, capsys, stored_profile):
        csv_text, json_text = stored_profile
        rc, _, err = _compare(tmp_path, capsys, ("9", "6", "11"), csv_text,
                              json_text)
        assert rc == 2
        assert "(3, 3, 11)" in err
        rc, _, _ = _compare(tmp_path, capsys, ("3", "3", "11"), csv_text,
                            json_text)
        assert rc == 0

    def test_band_is_not_a_flag(self, tmp_path, capsys, stored_profile):
        # the band is the stored rtol floored at DEFAULT_BAND
        csv_text, json_text = stored_profile
        with pytest.raises(SystemExit) as exc:
            _compare(tmp_path, capsys, ("3", "3", "11"), csv_text, json_text,
                     "--band", "1e-10")
        assert exc.value.code == 2
        assert "--band" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("rtol", "Infinity"), ("rtol", "NaN"), ("rtol", "-1"), ("rtol", "0"),
        ("atol", "Infinity"), ("atol", "NaN"), ("atol", "-1"),
        ("N", "11.5"), ("N", "true")])
    def test_metadata_value_refused(self, tmp_path, capsys, stored_profile,
                                    key, value):
        # json reads NaN and Infinity; an rtol of Infinity once compared
        # with exit 0 and "band_rel": null, NaN and -1 with the band 1e-12,
        # and N = 11.5 as N = 11
        csv_text, json_text = stored_profile
        meta = json.loads(json_text)
        (meta["params"] if key == "N" else meta)[key] = "VALUE"
        text = json.dumps(meta).replace('"VALUE"', value)
        rc, _, err = _compare(tmp_path, capsys, ("3", "3", "11"), csv_text,
                              text)
        assert rc == 2
        assert "malformed stored profile" in err
        assert not (tmp_path / "out").exists()

    def test_csv_cut_mid_file(self, tmp_path, capsys, stored_profile):
        csv_text, json_text = stored_profile
        cut = csv_text[:len(csv_text) // 2].rsplit(",", 1)[0]
        rc, _, err = _compare(tmp_path, capsys, ("3", "3", "11"), cut,
                              json_text)
        assert rc == 2
        assert "malformed stored profile" in err

    def test_non_numeric_cell(self, tmp_path, capsys, stored_profile):
        csv_text, json_text = stored_profile
        lines = csv_text.splitlines(keepends=True)
        lines[5] = "x" + lines[5][1:]
        rc, _, err = _compare(tmp_path, capsys, ("3", "3", "11"),
                              "".join(lines), json_text)
        assert rc == 2
        assert "malformed stored profile" in err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell(self, tmp_path, capsys, stored_profile, cell):
        # a u cell of nan once compared with exit 0 and "M1": null
        csv_text, json_text = stored_profile
        lines = csv_text.splitlines(keepends=True)
        r, _, rest = lines[5].split(",", 2)
        lines[5] = f"{r},{cell},{rest}"
        rc, _, err = _compare(tmp_path, capsys, ("3", "3", "11"),
                              "".join(lines), json_text)
        assert rc == 2
        assert "malformed stored profile" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("reorder", [
        lambda rows: rows[::-1],
        lambda rows: rows[:100] + [rows[1500]] + rows[101:1500] + [rows[100]]
        + rows[1501:]], ids=["reversed", "rows_100_1500_swapped"])
    def test_radii_that_decrease(self, tmp_path, capsys, stored_profile,
                                 reorder):
        # both once compared with exit 0: the reversed rows listed the u
        # crossings from the outside in, and the swap gave out-of-order
        # crossings, among them a spurious pair a few 1e-6 apart
        csv_text, json_text = stored_profile
        header, *rows = csv_text.splitlines(keepends=True)
        assert len(rows) > 1500
        rc, _, err = _compare(tmp_path, capsys, ("3", "3", "11"),
                              "".join([header, *reorder(rows)]), json_text)
        assert rc == 2
        assert "malformed stored profile" in err
        assert not (tmp_path / "out").exists()

    def test_bytes_that_are_not_text(self, tmp_path, capsys, monkeypatch,
                                     stored_profile):
        # the key reads bytes; they are decoded on a miss, before anything
        # is written to --out or to the cache
        monkeypatch.setenv("LEL_CACHE_DIR", str(tmp_path / "cache"))
        base = tmp_path / "profile"
        for bad in (".csv", ".json"):
            for suffix, text in zip((".csv", ".json"), stored_profile):
                head = b"\xff\xfe" if suffix == bad else b""
                base.with_suffix(suffix).write_bytes(head + text.encode())
            rc, _, err = run_cli(["--out", str(tmp_path / "out"), "compare",
                                  "3", "3", "11", "--profile", str(base)],
                                 capsys)
            assert rc == 2, bad
            assert "malformed stored profile" in err
            assert not (tmp_path / "out").exists()
            assert not (tmp_path / "cache").exists()

    def test_metadata_without_keys(self, tmp_path, capsys, stored_profile):
        csv_text, _ = stored_profile
        rc, _, err = _compare(tmp_path, capsys, ("3", "3", "11"), csv_text,
                              '{"kind": "radial_profile"}')
        assert rc == 2
        assert "malformed stored profile" in err


class TestCompareKey:
    """compare keys a stored profile by its files' bytes."""

    @staticmethod
    def _compare(tmp_path, capsys, name, csv, json_bytes):
        base = tmp_path / name
        base.with_suffix(".csv").write_bytes(csv)
        base.with_suffix(".json").write_bytes(json_bytes)
        out = tmp_path / f"out_{name}"
        rc, stdout, err = run_cli(["--out", str(out), "compare", "3", "3",
                                   "11", "--profile", str(base)], capsys)
        assert rc == 0
        return stdout, "cache hit" in err, _artifacts(out)

    def test_key_is_the_stored_bytes(self, tmp_path, capsys, monkeypatch,
                                     stored_profile):
        monkeypatch.setenv("LEL_CACHE_DIR", str(tmp_path / "cache"))
        csv, json_bytes = (text.encode() for text in stored_profile)
        stdout, hit, files = self._compare(tmp_path, capsys, "a", csv,
                                           json_bytes)
        assert not hit
        # the same bytes under another name: a hit, the same artifacts
        assert self._compare(tmp_path, capsys, "b", csv, json_bytes) == \
            (stdout, True, files)
        # one more newline, or CRLF line ends (as a text-mode writer on
        # Windows leaves them), parse to the same profile, but are misses:
        # the same report bytes under another payload hash
        shown = pathlib.Path(stdout.split("\n")[0])
        h = shown.stem.rsplit("_", 1)[1]
        for name, other in (("c", csv + b"\n"),
                            ("d", csv.replace(b"\n", b"\r\n"))):
            stdout2, hit2, files2 = self._compare(tmp_path, capsys, name,
                                                  other, json_bytes)
            assert not hit2
            shown2 = pathlib.Path(stdout2.split("\n")[0])
            h2 = shown2.stem.rsplit("_", 1)[1]
            assert h2 != h
            assert files2[shown2.with_suffix(".csv").name] == \
                files[shown.with_suffix(".csv").name]
            assert files2[shown2.name].replace(h2.encode(), h.encode()) == \
                files[shown.name]
            # profile_hash: 12 hex digits of one SHA-256 over each file's
            # 8-byte big-endian length and then its bytes
            for shown_hash, stored in ((h, csv), (h2, other)):
                key = hashlib.sha256()
                for data in (stored, json_bytes):
                    key.update(len(data).to_bytes(8, "big") + data)
                payload = {"cmd": "compare", "p": 3.0, "q": 3.0, "N": 11,
                           "profile_hash": key.hexdigest()[:12],
                           "band": DEFAULT_BAND}
                assert payload_hash(payload) == shown_hash


def test_cli_import_loads_no_scipy():
    # scipy costs about a tenth of a second to import; only the test
    # oracles load it
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, lelab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# every concrete error class that lelab exports, by the exit code it gets:
# 2 for the DomainError family (bad input), 3 for the ConvergenceError
# family (a solver that did not converge)
EXIT_CODES = {"DomainError": 2, "ConfigError": 2, "MisclassifiedProfile": 2,
              "ConvergenceError": 3, "BracketError": 3, "StepUnderflow": 3}


@pytest.mark.parametrize("name, code", EXIT_CODES.items(), ids=EXIT_CODES)
def test_error_class_decides_exit_code(capsys, monkeypatch, name, code):
    exported = {n for n in lelab.__all__
                if isinstance(getattr(lelab, n), type)
                and issubclass(getattr(lelab, n), lelab.LaneEmdenError)}
    assert exported - {"LaneEmdenError"} == set(EXIT_CODES)

    def fail(args, cfg):
        raise getattr(lelab, name)("no answer")

    monkeypatch.setitem(cli._COMMANDS, "classify", fail)
    rc, out, err = run_cli(["--no-cache", "classify", "8", "8", "11"], capsys)
    assert (rc, out, err) == (code, "", "error: no answer\n")
