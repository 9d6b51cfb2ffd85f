#!/usr/bin/env python3
"""Annulus-ladder convergence of the weighted Hardy-Rellich eigenvalue.

For a few (N, gamma) pairs, prints the eigenvalue down the default ladder,
the Richardson-extrapolated limit, and the closed-form optimal constant it
approaches, and writes the ladders as CSV under data/.
"""

import math
from pathlib import Path

from lelab.eigen import default_ladder, principal_eigenvalue, richardson_limit
from lelab.exponents import hardy_rellich_constant
from lelab.serialize import to_csv

OUT = Path(__file__).resolve().parent.parent / "data"

CASES = [(11, 0.0), (11, 0.4), (13, 1.0)]


def run() -> None:
    OUT.mkdir(exist_ok=True)
    for N, gamma in CASES:
        reports = [principal_eigenvalue(ann, N, gamma)
                   for ann in default_ladder()]
        C = hardy_rellich_constant(N, gamma)
        ext = richardson_limit(reports)
        print(f"N={N} gamma={gamma}: C_gamma={C:.6f} extrapolated={ext:.6f} "
              f"rel err={(ext - C) / C:+.2e}")
        rows = []
        for k, rep in enumerate(reports, start=1):
            print(f"  k={k} M={rep.annulus.M} lambda={rep.lam:.8f} "
                  f"iters={rep.iterations}")
            rows.append((k, rep.annulus.M, rep.lam, rep.lambda_err,
                         rep.iterations))
        path = OUT / f"ladder_N{N}_g{str(gamma).replace('.', 'p')}.csv"
        path.write_text(to_csv(["k", "M", "lambda", "lambda_err",
                                "iterations"], rows))


if __name__ == "__main__":
    run()
