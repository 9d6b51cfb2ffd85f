"""Public-surface fuzz of ``lelab.cli.main``.

Each example takes a cheap argv of one of the six subcommands and breaks
one slot of it: a value becomes an edge token (0, -1, nan, +-inf, 1e308, a
400-digit integer), or a flag or positional goes missing.  Every base argv
is valid but one: a shot that carries a plain solve's ``--v0`` and
``--r-max``.  Windows and p-ranges also come reversed.  The space is small
enough that the search covers it.

Every argv must end in a documented exit code (0, 2, 3, 4), or in argparse's
own exit (0 or 2), never in another exception.  A value that a command
documents as invalid (a non-positive or non-finite ``--r-max`` of a plain
solve, ``--steps`` or ``--resolution`` below 1, an annulus node count that
is not an integer from 16 to ``MAX_NODES``) must be refused with exit 2,
and so must a shot with ``--v0`` or ``--r-max``, which only a plain solve
reads.  Sizes stay bounded: ``--resolution`` <= 64, ``--steps`` <= 16, no
huge ``--r-max``, and a small config keeps every integration short.  The annulus node count takes
every edge token: a huge one is refused before its grid is allocated.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lelab.cli import main
from lelab.options import MAX_NODES

BIG_INT = "1" + "0" * 399
EDGE = ("0", "-1", "nan", "inf", "-inf", "1e308", BIG_INT)
# slots where a huge finite value would make a long or large run get only
# the tokens that must be refused
BOUNDED = {"--steps", "--resolution", "--r-max"}
BOUNDED_EDGE = ("0", "-1", "nan", "inf", "-inf")
DROP = None

CONFIG = "r_target = 10\n"


def bases(profile):
    """Valid argvs as groups of tokens: a flag with its values, or one
    positional."""
    return [
        [["classify"], ["9"], ["6"], ["11"]],
        [["curve"], ["11"], ["--p-min", "7"], ["--p-max", "12"],
         ["--steps", "4"]],
        [["curve"], ["11"], ["--p-min", "12"], ["--p-max", "7"],
         ["--steps", "16"]],
        [["scan"], ["11"], ["--window", "1", "12", "1", "12"],
         ["--resolution", "16"]],
        [["scan"], ["11"], ["--window", "12", "1", "12", "1"],
         ["--resolution", "64"]],
        [["solve"], ["3"], ["3"], ["11"], ["--u0", "1"], ["--v0", "1"],
         ["--r-max", "10"], ["--tol-ode-rel", "1e-10"]],
        [["solve"], ["8"], ["8"], ["11"], ["--u0", "1"], ["--shoot"],
         ["--v0-lo", "0.5"], ["--v0-hi", "2"], ["--polish"]],
        [["solve"], ["8"], ["8"], ["11"], ["--u0", "1"], ["--shoot"],
         ["--v0-lo", "0.5"], ["--v0-hi", "2"], ["--v0", "1"],
         ["--r-max", "10"]],
        [["compare"], ["3"], ["3"], ["11"], ["--profile", profile]],
        [["eig"], ["9"], ["6"], ["11"]],
        [["eig"], ["3"], ["3"], ["11"], ["--annulus", "0.1", "10", "32"]],
    ]


def slots(base):
    """(group, position, tokens) for every way to break one slot."""
    out = []
    for g, group in enumerate(base[1:], start=1):
        flag = group[0] if group[0].startswith("--") else None
        out.append((g, None, (DROP,)))
        for j in range(1 if flag else 0, len(group)):
            out.append((g, j, BOUNDED_EDGE if flag in BOUNDED else EDGE))
    return out


@st.composite
def broken_argv(draw, profile):
    base = draw(st.sampled_from(bases(profile)))
    g, j, tokens = draw(st.sampled_from(slots(base)))
    token = draw(st.sampled_from(tokens))
    groups = [list(group) for group in base]
    if j is None:
        groups[g] = []
    else:
        groups[g][j] = token
    return [tok for group in groups for tok in group]


def _value(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _invalid(tok, integer):
    try:
        x = int(tok) if integer else float(tok)
    except ValueError:
        return False  # argparse refuses it on its own
    return not (x > 0 and math.isfinite(x)) or (integer and x < 1)


def must_refuse(argv) -> bool:
    """Whether argv carries a value its command documents as invalid."""
    cmd = argv[0]
    if cmd == "solve":
        if "--shoot" in argv:
            return "--v0" in argv or "--r-max" in argv
        tok = _value(argv, "--r-max")
        return tok is not None and _invalid(tok, integer=False)
    if cmd == "eig" and "--annulus" in argv:
        m = float(argv[argv.index("--annulus") + 3])
        if not (m.is_integer() and 16 <= m <= MAX_NODES):
            return True
    flag = {"curve": "--steps", "scan": "--resolution"}.get(cmd)
    tok = _value(argv, flag) if flag else None
    return tok is not None and _invalid(tok, integer=True)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "small.cfg").write_text(CONFIG)
    out = root / "out"
    # one stored profile for compare to read
    assert main(["--config", str(root / "small.cfg"), "--out", str(out),
                 "--no-cache", "solve", "3", "3", "11", "--u0", "1",
                 "--v0", "1"]) == 0
    profile = str(next(out.glob("profile_*.csv")).with_suffix(""))
    return root, profile


def test_cli_public_surface(workdir, capsys):
    root, profile = workdir

    @settings(max_examples=600, deadline=None, derandomize=True,
              database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(broken_argv(profile))
    def run(argv):
        full = ["--config", str(root / "small.cfg"), "--out",
                str(root / "out"), "--no-cache", *argv]
        try:
            rc = main(full)
        except SystemExit as exc:
            rc = exc.code
            assert rc in (0, 2), full
        assert rc in (0, 2, 3, 4), full
        if must_refuse(argv):
            assert rc == 2, full
        capsys.readouterr()

    run()
