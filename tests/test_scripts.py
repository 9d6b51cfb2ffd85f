"""The README's experiment scripts run end to end and write their CSVs."""

import importlib.util
from pathlib import Path

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
