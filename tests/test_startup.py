"""Start-up on demand: each command imports only the layers it runs.

The numerical layers and numpy load on a cache miss of the command that
needs them, and no command loads scipy; the exponent algebra,
``--version``, ``--help`` and every cache hit load none.  The benchmark's
tracer still sees every layer call.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from lelab import cli, eigen, exponents, profiles, radial, scan

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# what a run that needs no numerical layer must not load
LAYERS = {"lelab.radial", "lelab.eigen", "lelab.profiles", "lelab.scan",
          "lelab.closed_form"}

CHILD = """
import json, sys
from lelab.cli import main
try:
    rc = main(sys.argv[2:])
except SystemExit as exc:
    rc = exc.code
with open(sys.argv[1], "w") as fh:
    json.dump({"rc": rc, "modules": sorted(sys.modules)}, fh)
"""

SHOT = ["solve", "3", "3", "11", "--u0", "1", "--shoot",
        "--v0-lo", "0.5", "--v0-hi", "2"]


def _loaded(modules, names):
    """The modules among ``names`` (packages by their top name) loaded."""
    return sorted(m for m in modules
                  if m in names or m.split(".")[0] in names)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each command in a fresh interpreter, a cached one twice (a miss that
    fills the cache, then a hit): label -> (modules, stdout, stderr)."""
    tmp = tmp_path_factory.mktemp("startup")
    env = dict(os.environ, PYTHONPATH=str(SRC), LEL_CACHE_DIR=str(tmp / "cache"))
    out = ["--out", str(tmp / "out")]
    result = {}

    def run(label, argv):
        report = tmp / "modules.json"
        done = subprocess.run([sys.executable, "-c", CHILD, str(report),
                               *argv], env=env, cwd=tmp, capture_output=True,
                              text=True, timeout=120)
        doc = json.loads(report.read_text())
        assert doc["rc"] == 0, (label, done.stderr)
        result[label] = (set(doc["modules"]), done.stdout, done.stderr)
        return done.stdout

    run("--version", ["--version"])
    run("--help", ["--help"])
    run("classify", ["classify", "9", "6", "11"])
    run("curve", ["curve", "13", "--steps", "4", *out])
    commands = {
        "scan": ["scan", "11", "--resolution", "16"],
        "solve": ["solve", "3", "3", "11", "--u0", "1", "--v0", "1"],
        "shoot": SHOT,
        "eig": ["eig", "9", "6", "11"],
    }
    for name, argv in commands.items():
        stdout = run(f"{name} miss", argv + out)
        run(f"{name} hit", argv + out)
        if name == "solve":
            profile = tmp / "out" / stdout.splitlines()[0]
            compare = ["compare", "3", "3", "11", "--profile", str(profile)]
            run("compare miss", compare + out)
            run("compare hit", compare + out)
    return result


@pytest.mark.parametrize("label", [
    "--version", "--help", "classify", "curve", "scan hit", "solve hit",
    "shoot hit", "compare hit", "eig hit"])
def test_no_numerical_layer_loaded(runs, label):
    modules, _, err = runs[label]
    if label.endswith("hit"):
        assert "cache hit" in err
    assert _loaded(modules, {"numpy", "scipy", *LAYERS}) == []


@pytest.mark.parametrize("label, absent", [
    ("eig miss", {"lelab.radial", "lelab.profiles", "lelab.scan", "scipy"}),
    ("solve miss", {"lelab.eigen", "lelab.scan", "scipy"}),
    ("shoot miss", {"lelab.eigen", "lelab.scan", "scipy"}),
    ("compare miss", {"lelab.eigen", "lelab.scan", "scipy"}),
    ("scan miss", {"lelab.radial", "lelab.eigen", "scipy"}),
])
def test_a_miss_loads_only_its_layer(runs, label, absent):
    modules, _, err = runs[label]
    assert "cache hit" not in err
    assert "numpy" in modules
    assert _loaded(modules, absent) == []


def test_layer_entry_points_readable_on_cli():
    # bench/tracing.py reads these off lelab.cli
    assert cli.integrate is radial.integrate
    assert cli.shoot is radial.shoot
    assert cli.profile_from_text is radial.profile_from_text
    assert cli.singular_stability_verdict is eigen.singular_stability_verdict
    assert cli.compare_profiles is profiles.compare
    assert cli.scan_codes is scan.scan_codes
    assert cli.classify is exponents.classify
    with pytest.raises(AttributeError):
        cli.no_such_name


def test_moved_types_are_one_definition():
    # the numpy-free inputs, re-exported by their layers as the same objects
    from lelab import options

    for module, name in [(radial, "SolverOptions"), (eigen, "Annulus"),
                         (eigen, "default_ladder"), (profiles, "DEFAULT_BAND")]:
        assert getattr(module, name) is getattr(options, name)


def test_benchmark_tracer_sees_every_layer(tmp_path, capsys):
    # bench/tracing.py, loaded from its file and left as it is, wraps the
    # layer functions; commands that reach a layer through its home module
    # at call time run through the wrappers, whatever ran before
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    out = ["--out", str(tmp_path), "--no-cache"]
    assert cli.main(SHOT + out) == 0
    profile = capsys.readouterr().out.splitlines()[0]
    ops = {
        "shoot": (SHOT, "radial.shoot"),
        "compare": (["compare", "3", "3", "11", "--profile",
                     str(tmp_path / profile)], "profiles.compare"),
        "eig": (["eig", "9", "6", "11"], "eigen.singular_stability_verdict"),
        "scan": (["scan", "11", "--resolution", "16"], "scan.scan_codes"),
        "curve": (["curve", "13", "--steps", "4"], "exponents.jl_curve_q"),
    }
    for argv, _ in ops.values():  # each command run once untraced first
        assert cli.main(argv + out) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op, (argv, layer) in ops.items():
            assert tracer.op(op, lambda: cli.main(argv + out)) == 0
            names = {span[3] for span in tracer.spans if span[1] == op}
            assert layer in names, (op, names)
        assert "radial.profile_from_text" in {
            span[3] for span in tracer.spans if span[1] == "compare"}
        # the profile CSV goes through serialize.to_csv: 2,048 rows of 5
        # cells
        assert "serialize.to_csv" in {
            span[3] for span in tracer.spans if span[1] == "shoot"}
        assert tracer.counts["shoot"]["csv_cells"] == 2048 * 5
        tracer.uninstall()
        spans, counts = len(tracer.spans), dict(tracer.counts)
        for argv, _ in ops.values():
            assert cli.main(argv + out) == 0
        assert len(tracer.spans) == spans and dict(tracer.counts) == counts
    finally:
        tracer.uninstall()
        # install read the names on lelab.cli after wrapping their home
        # modules, so uninstall leaves the wrappers there: drop them, and
        # the module resolves the names from their layers again
        for name in cli._LAYER_NAMES:
            vars(cli).pop(name, None)
