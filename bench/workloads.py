"""The three lelab studies the benchmark runs, as lists of CLI operations.

Each operation is one call of ``lelab.cli.main(argv)``. The stability and
shoot lists are fixed; the map list ends with a batch of ``classify``
triples drawn from the workload seed. Operations that a known program fault
makes fail carry that fault's tag (see ``FAULTS``); every other operation
must succeed and pass its checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Faults kept in the workloads and counted as failed until they are mended.
# An op with a nonzero exit is attributed to its tag only when the exit code
# and the stderr text match; F3 is a failed check, attributed by the oracle.
FAULTS = {
    "F1": {"rc": 2, "stderr": "exponents must satisfy p >= q",
           "what": "jl_curve_q prescan node rounds 1 ulp above p"},
    "F2": {"rc": 3, "stderr": "iterate collapsed",
           "what": "unscaled e^{N rho} weights overflow in eigen"},
    "F3": {"rc": 0, "stderr": None,
           "what": "extended ladder rungs sit below the discrete eigenvalue"},
}

CLASSIFY_BATCH = 96  # seeded classify triples per map pass
SHOT_BRACKET = ("--v0-lo", "0.2", "--v0-hi", "5")


@dataclass(frozen=True)
class Op:
    """One CLI call. ``profile_of`` names the index of the solve op whose
    stored profile a ``compare`` op reads."""

    argv: tuple
    kind: str
    fault: str | None = None
    profile_of: int | None = None

    @property
    def label(self) -> str:
        text = " ".join(self.argv)
        if self.profile_of is not None:
            text += f" --profile <op {self.profile_of}>"
        return text


def _eig(p, q, N, fault=None):
    return Op(("eig", p, q, N), "eig", fault)


def stability_ops() -> list[Op]:
    return [
        # far from the critical curve: the 5-rung ladder decides
        _eig("8", "8", "11"), _eig("9", "6", "11"), _eig("3", "3", "11"),
        _eig("6", "4", "11"), _eig("20", "20", "13"),
        _eig("30", "1", "13"),  # gamma = 2
        _eig("8", "3", "13"),
        # near the curve: the ladder extends toward k = 14
        _eig("6.925", "6.925", "11", "F3"),
        _eig("6.9", "6.9", "11", "F3"),
        _eig("9", "5.5603", "11"),
        _eig("30", "20", "40", "F2"),
    ]


def shoot_ops() -> list[Op]:
    solves = [
        Op(("solve", "3", "3", "11", "--u0", "1", "--v0", "1"), "solve"),
        # diagonal shortcut: v0 = u0 lies inside the bracket
        Op(("solve", "8", "8", "11", "--u0", "1", "--shoot",
            "--v0-lo", "0.5", "--v0-hi", "2"), "shot"),
        Op(("solve", "9", "6", "11", "--u0", "1", "--shoot",
            *SHOT_BRACKET, "--polish"), "shot"),
        Op(("solve", "12", "7", "11", "--u0", "1", "--shoot",
            *SHOT_BRACKET, "--polish"), "shot"),
        # below the curve: plain bisection
        Op(("solve", "6", "4", "11", "--u0", "1", "--shoot",
            *SHOT_BRACKET), "shot"),
    ]
    compares = [Op(("compare", *op.argv[1:4]), "compare", profile_of=i)
                for i, op in enumerate(solves)]
    return solves + compares


def classify_triples(seed: int, n: int = CLASSIFY_BATCH) -> list[tuple]:
    """Seeded exponent triples p >= q >= 1, 3 <= N <= 20, printed with %.6g.

    The batch covers sub- and super-Sobolev pairs, both sides of the
    critical curve and pairs without a singular solution (alpha >= N-2).
    """
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        N = rng.randint(3, 20)
        p = 1.0 + 29.0 * rng.random()
        q = 1.0 + (p - 1.0) * rng.random()
        out.append(("%.6g" % p, "%.6g" % q, str(N)))
    return out


def map_ops(seed: int) -> list[Op]:
    ops = [Op(("scan", N, "--window", "1", "12", "1", "12",
               "--resolution", "400"), "scan") for N in ("10", "11", "13")]
    ops.append(Op(("curve", "13", "--p-min", "4", "--p-max", "12",
                   "--steps", "64"), "curve"))
    # the README's own example
    ops.append(Op(("curve", "11", "--p-min", "7", "--p-max", "12",
                   "--steps", "64"), "curve", "F1"))
    ops.extend(Op(("classify", *t), "classify") for t in classify_triples(seed))
    return ops


# Warm passes per round. A warm pass of shoot serves ten cache hits in about
# 35 ms, so its round runs 64 of them: their median then spans two seconds of
# the host's speed swings, where two passes would span a tenth of one.
WARM_PASSES = {"stability": 2, "shoot": 64, "map": 2}

# Probes of speed.PROBES that calibrate each workload: the kind of work it
# spends its time on. A stability pass is banded solves and dot products
# (the eigen ladder; in a warm pass, F2's op runs again). A shoot or map
# pass is interpreted float code, small numpy calls and float formatting.
GENERIC = ("interp", "ufunc", "text")
CALIBRATION = {"stability": ("banded",), "shoot": GENERIC, "map": GENERIC}

WORKLOADS = {
    "stability": lambda seed: stability_ops(),
    "shoot": lambda seed: shoot_ops(),
    "map": map_ops,
}
