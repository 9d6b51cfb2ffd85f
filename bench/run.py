"""lelab benchmark: stability, shoot and map studies through the CLI.

Usage, from the root of the repository:

    python3 bench/run.py --workload stability --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30       # every workload
    python3 bench/run.py --workload all --smoke            # one round each

One process drives ``lelab.cli.main(argv)`` in-process, one op after the
other (a closed loop with one client). A round is a cold pass over the
workload's op list against an empty cache, then warm passes over the same
list against the cache it filled. A run makes as many whole rounds as fit
in ``--seconds``, and at least one. Set-up time is measured apart, in
fresh interpreters. Every time is stated at a fixed reference host speed,
from calibration probes sampled while the run goes on (``speed.py``).
Every artifact must be byte-identical to the first cold pass, and the first
cold pass is checked against independent oracles (``oracles.py``) once the
timed rounds are over. With ``--trace 1`` the rounds run with the tracer of
``tracing.py`` installed and the per-layer metrics are reported instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
unless an op failed in a way no known fault explains.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

# One client on a 2-core machine: keep numpy's BLAS to the calling thread,
# so a second BLAS thread does not contend with the rest of the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

from speed import Speedometer  # noqa: E402
from workloads import (CALIBRATION, FAULTS, GENERIC,  # noqa: E402
                       WARM_PASSES, WORKLOADS, Op)

SETUP_SAMPLES = 7   # fresh interpreters timed per run
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import lelab.cli; lelab.cli.main(['--version'])")


def measure_setup(samples: int, warm_up: bool, meter: Speedometer) -> list[float]:
    """Times from process start to a parsed first command.

    The child imports ``lelab.cli`` (numpy and scipy with it), builds the
    parser and handles ``--version``. With ``warm_up``, one untimed start
    first fills the bytecode cache, which users do not pay on every run.
    The parent waits meanwhile, so the meter samples the host beside it.
    """
    times = []
    for i in range(samples + warm_up):
        mark = meter.mark(GENERIC)  # imports run interpreted code
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=120)
        dt = meter.normalized(mark)
        if done.returncode != 0:
            raise RuntimeError("lelab does not import: "
                               + done.stderr.decode(errors="replace")[-400:])
        if i or not warm_up:
            times.append(dt)
    return times


class OpRun:
    __slots__ = ("op", "rc", "stdout", "stderr", "seconds", "digest")

    def __init__(self, op, rc, stdout, stderr, seconds):
        self.op, self.rc, self.stdout, self.stderr = op, rc, stdout, stderr
        self.seconds = seconds
        self.digest = None

    @property
    def hit(self) -> bool:
        return "cache hit" in self.stderr

    def base(self, out: Path) -> Path | None:
        """Path stem of the CSV/JSON pair the op wrote, if any."""
        if self.rc != 0 or self.op.kind == "classify":
            return None
        return out / Path(self.stdout.split("\n", 1)[0]).stem


def _file_digest(path: Path, h) -> None:
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)


def run_pass(cli, ops: list[Op], out: Path, cache: Path, tracer, tag: str,
             meter: Speedometer, probes: tuple, keep_stdout: bool = False):
    """One closed-loop pass; returns (wall seconds, seconds at the reference
    speed as calibrated by ``probes``, [OpRun]).

    Each op's stdout and artifacts are reduced to a digest. Only the first
    cold pass keeps stdout, for the checks, so that the runs held in memory
    do not grow the peak resident set with the number of rounds.
    """
    os.environ["LEL_CACHE_DIR"] = str(cache)
    runs: list[OpRun] = []
    mark = meter.mark(probes)
    t_pass = time.perf_counter()
    for i, op in enumerate(ops):
        argv = list(op.argv)
        if op.profile_of is not None:
            argv += ["--profile", str(runs[op.profile_of].base(out))]
        argv += ["--out", str(out)]
        so, se = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(so), contextlib.redirect_stderr(se):
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.op(f"{tag}.{i}", lambda: cli.main(argv))
            except SystemExit as exc:  # argparse rejected the arguments
                rc = exc.code
            except Exception:  # recorded as a failed op with its traceback
                rc = "exception"
                se.write(traceback.format_exc())
        runs.append(OpRun(op, rc, so.getvalue(), se.getvalue(),
                          time.perf_counter() - t0))
    wall = time.perf_counter() - t_pass
    seconds = meter.normalized(mark)
    for run in runs:
        h = hashlib.sha256(run.stdout.encode())
        base = run.base(out)
        if base is not None:
            for suffix in (".csv", ".json"):
                _file_digest(base.with_suffix(suffix), h)
        run.digest = h.hexdigest()
        if not keep_stdout:
            run.stdout = None
    return wall, seconds, runs


def _tree_bytes(*dirs: Path) -> int:
    return sum(f.stat().st_size for d in dirs for f in d.rglob("*") if f.is_file())


def check_first_pass(runs: list[OpRun], out: Path, seed: int, eig_errs: list):
    """Oracle problems per op index for the first cold pass."""
    import oracles as O

    rng = random.Random(seed)
    problems = {}
    for i, run in enumerate(runs):
        op, a = run.op, run.op.argv
        base = run.base(out)
        if run.rc != 0:
            continue  # judged by exit code in attribute()
        if op.kind == "classify":
            probs = O.check_classify(run.stdout, a[1], a[2], int(a[3]))
        elif op.kind == "scan":
            probs = O.check_scan(base, a[1], rng)
        elif op.kind == "curve":
            probs = O.check_curve(base, a[1], a[3], a[5], int(a[7]))
        elif op.kind == "eig":
            probs = O.check_eig(base, run.stdout, a[1], a[2], a[3], eig_errs)
        elif op.kind == "solve":
            probs = O.check_solve(base, run.stdout, a[1], a[2], a[3],
                                  a[5], a[7])
        elif op.kind == "shot":
            probs = O.check_shot(base, run.stdout, a[1], a[2], a[3],
                                 "--polish" in a)
        elif op.kind == "compare":
            probs = O.check_compare(base, runs[op.profile_of].base(out),
                                    a[1], a[2], a[3])
        else:
            raise ValueError(f"no check for op kind {op.kind}")
        if probs:
            problems[i] = probs
    return problems


def attribute(run: OpRun, ref: OpRun, problems) -> tuple[bool, str | None]:
    """(failed, reason if the failure is not one of the known faults)."""
    op = run.op
    if run.rc != 0:
        fault = FAULTS.get(op.fault)
        if fault and run.rc == fault["rc"] and fault["stderr"] in run.stderr:
            return True, None
        return True, f"exit {run.rc}: {run.stderr.strip()[-300:]}"
    if run.digest != ref.digest:
        return True, "artifacts differ from the first cold pass"
    if problems:
        unnamed = [text for tag, text in problems
                   if tag is None or tag != op.fault]
        return True, "; ".join(unnamed) if unnamed else None
    return False, None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    ops = WORKLOADS[name](seed)
    warm_passes = 1 if smoke else WARM_PASSES[name]
    probes = CALIBRATION[name]
    meter = Speedometer()
    meter.start()
    try:
        # set-up samples are split between the start and the end of the run
        # so that their median spans the same stretch of host load as the
        # passes
        setup = measure_setup(1 if smoke else SETUP_SAMPLES // 2 + 1, True,
                              meter)
    except BaseException:
        meter.stop()
        raise

    sys.path.insert(0, str(SRC))
    import lelab.cli as cli

    tracer = None
    if trace:
        from tracing import Tracer, pass_metrics
        tracer = Tracer()
        tracer.install()
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    first_out = work / "first"
    colds, warms, layer_rounds = [], [], []
    t_start = time.perf_counter()
    try:
        while True:
            tag = f"r{len(colds)}"
            cache = work / tag / "cache"
            cold_out = work / tag / "cold" if colds else first_out
            colds.append(run_pass(cli, ops, cold_out, cache, tracer,
                                  f"{tag}.cold", meter, probes,
                                  keep_stdout=not colds))
            if len(colds) == 1:
                bytes_written = _tree_bytes(cold_out, cache)
            # every warm pass writes into the same directory, as a user who
            # runs the study again does; with a fresh directory per pass,
            # the warm passes grew slower through a run
            for w in range(warm_passes):
                warms.append(run_pass(cli, ops, work / tag / "warm", cache,
                                      tracer, f"{tag}.warm{w}", meter,
                                      probes))
            if tracer is not None:
                hits = {run.op.label: (run.seconds if run.hit else None)
                        for run in warms[-warm_passes][2]
                        if run.op.kind != "classify"}
                layer_rounds.append(pass_metrics(
                    tracer, {f"{tag}.cold.{i}" for i in range(len(ops))},
                    hits, bytes_written))
            shutil.rmtree(work / tag, ignore_errors=True)
            # start another round only if it should end within the budget
            elapsed = time.perf_counter() - t_start
            if smoke or elapsed * (len(colds) + 1) / len(colds) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not smoke:
            setup += measure_setup(SETUP_SAMPLES // 2, False, meter)
        meter.stop()
        host_speed = meter.mean_speed()
        if tracer is not None:
            tracer.write(ROOT / ".bench_work" / f"spans-{name}-seed{seed}.jsonl")
        ref = colds[0][2]
        eig_errs: list = []
        problems = check_first_pass(ref, first_out, seed, eig_errs)
    finally:
        meter.stop()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    unnamed, named = [], {}
    for _wall, _seconds, runs in colds + warms:
        for i, run in enumerate(runs):
            attempted += 1
            bad, why = attribute(run, ref[i], problems.get(i))
            if not bad:
                continue
            failed += 1
            if why is None:
                named[run.op.label] = run.op.fault
            else:
                unnamed.append(f"{run.op.label}: {why}")

    e2e = {
        "setup_s": median(setup),
        "cold_s": median(seconds for _wall, seconds, _runs in colds),
        "warm_s": median(seconds for _wall, seconds, _runs in warms),
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        from tracing import median_metrics
        metrics = median_metrics(layer_rounds)
        metrics["eigen.lambda_err_max"] = max(eig_errs, default=0.0)
    else:
        metrics = e2e
    return {
        "name": name, "seed": seed, "rounds": len(colds), "trace": trace,
        "correct": not unnamed, "attempted": attempted, "failed": failed,
        "metrics": metrics, "e2e": e2e, "named": named, "unnamed": unnamed,
        "cold_walls": [wall for wall, _seconds, _runs in colds],
        "warm_walls": [wall for wall, _seconds, _runs in warms],
        "host_speed": host_speed,
    }


def _units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").exists() else {}
    return {m["name"]: m["unit"]
            for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def report(res: dict) -> None:
    units = _units()
    print(f"workload {res['name']}  seed {res['seed']}  rounds {res['rounds']}"
          f"  mean host speed {res['host_speed']:.4g} x reference")
    for kind in ("cold", "warm"):
        walls = ", ".join("%.4g" % w for w in res[kind + "_walls"])
        print(f"  {kind} pass wall times, as measured: {walls} s")
    for k, v in res["metrics"].items():
        print(f"  {k:34s} {v:14.6g} {units.get(k, '')}")
    if res["trace"]:
        # the tracing overhead is these minus the same run's untraced figures
        print(f"  traced cold_s {res['e2e']['cold_s']:.6g} s, "
              f"traced warm_s {res['e2e']['warm_s']:.6g} s")
    print(f"  ops attempted {res['attempted']}, failed {res['failed']}")
    for label, fault in res["named"].items():
        print(f"    known fault {fault} ({FAULTS[fault]['what']}): {label}")
    for line in res["unnamed"]:
        print(f"    UNEXPECTED FAILURE {line}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one round per workload, every check on")
    args = ap.parse_args()
    if not (SRC / "lelab" / "cli.py").is_file():
        print(f"error: no lelab sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload == "all":
        results = []
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__)), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=900)
            lines = done.stdout.strip().split("\n")
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            res["name"] = name
            results.append(res)
        ok = all(r["correct"] for r in results)
        print(json.dumps({"correct": ok,
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results),
                          "workloads": {r["name"]: r for r in results}}))
        return 0 if ok else 1

    res = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.smoke)
    report(res)
    units = _units()
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units.get(k, "")}
                    for k, v in res["metrics"].items()},
    }))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
