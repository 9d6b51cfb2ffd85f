"""Outside-in tracing of lelab's public functions, for per-layer metrics.

``Tracer.install`` replaces each traced function on its defining module and
on every module that imported the name directly, so calls from the CLI and
between layers both pass through the wrapper. Spans stay in memory as
``(id, op, parent, name, start, end)`` tuples and are written out once, when
the run ends. A layer's self time is its span's duration minus that of its
child spans.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import Counter, defaultdict
from statistics import median

# name -> (defining module, other modules holding the name, span recorded)
TRACED = {
    "radial.integrate": ("lelab.radial", ["lelab.cli"], True),
    "radial.shoot": ("lelab.radial", ["lelab.cli"], True),
    "radial.profile_from_text": ("lelab.radial", ["lelab.cli"], True),
    "eigen.principal_eigenvalue": ("lelab.eigen", [], True),
    "eigen.singular_stability_verdict": ("lelab.eigen", ["lelab.cli"], True),
    "profiles.compare": ("lelab.profiles", ["lelab.cli:compare_profiles"], True),
    "exponents.classify": ("lelab.exponents", ["lelab.cli", "lelab.eigen"], True),
    "exponents.jl_curve_q": ("lelab.exponents", ["lelab.cli"], True),
    # tens of thousands of calls per map pass: counted, not spanned
    "exponents.derive_scaling": ("lelab.exponents",
                                 ["lelab.cli", "lelab.eigen", "lelab.radial"],
                                 False),
    "scan.scan_codes": ("lelab.scan", ["lelab.cli"], True),
    "serialize.to_csv": ("lelab.serialize", ["lelab.cli", "lelab.radial"], True),
    "serialize.to_json": ("lelab.serialize", ["lelab.cli"], True),
}

KMAX = 14  # extend_max_k of the stability verdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.rungs: dict[str, list] = defaultdict(list)  # op -> (k, iters, s)
        self._stack: list[int] = []
        self._op: str | None = None
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        for name, (home, users, spanned) in TRACED.items():
            attr = name.split(".", 1)[1]
            mod = importlib.import_module(home)
            fn = getattr(mod, attr)
            wrapped = (self._spanned(name, fn) if spanned
                       else self._counted(name, fn))
            for target in [home] + users:
                modname, _, alias = target.partition(":")
                m = importlib.import_module(modname)
                key = alias or attr
                self._saved.append((m, key, getattr(m, key)))
                setattr(m, key, wrapped)

    def uninstall(self) -> None:
        for m, key, fn in reversed(self._saved):
            setattr(m, key, fn)
        self._saved.clear()

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[self._op][name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _spanned(self, name, fn):
        on_result = getattr(self, "_on_" + name.split(".", 1)[1], None)

        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)  # reserve the id; filled in below
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = time.perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, self._op, parent, name, t0, t1)
            if on_result is not None:
                on_result(res, t1 - t0)
            return res
        return wrapper

    # -- counters from what the program returns ------------------------
    def _on_integrate(self, prof, dt):
        c = self.counts[self._op]
        c["steps"] += prof.stats.steps
        c["rejects"] += prof.stats.rejected
        c["nfev"] += prof.stats.nfev

    def _on_shoot(self, res, dt):
        self.counts[self._op]["bisection_rounds"] += res.iterations

    def _on_principal_eigenvalue(self, rep, dt):
        k = round(math.log10(rep.annulus.r_outer))
        self.rungs[self._op].append((k, rep.iterations, dt))

    def _on_singular_stability_verdict(self, sr, dt):
        self.counts[self._op]["extended_rungs"] += sr.extended

    def _on_compare(self, rep, dt):
        self.counts[self._op]["crossings"] += (len(rep.crossings_u)
                                               + len(rep.crossings_v))

    def _on_scan_codes(self, res, dt):
        self.counts[self._op]["scan_cells"] += res.cell_count()

    def _on_to_csv(self, text, dt):
        rows = text.count("\n") - 1
        cols = text.count(",", 0, text.index("\n")) + 1
        self.counts[self._op]["csv_cells"] += rows * cols

    # -- one CLI op ----------------------------------------------------
    def op(self, op_id: str, call):
        """Run ``call()`` as the root span of one CLI op."""
        self._op = op_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, op_id, None, "cli.main", t0, t1)
            self._op = None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for sid, op, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "op": op, "parent": parent,
                                     "name": name, "start": t0, "end": t1})
                         + "\n")


def _sums(tracer: Tracer, ops: set):
    """Per-name span totals, counts and self times over the given ops."""
    total = Counter()
    calls = Counter()
    child = Counter()
    inside_shoot = 0
    names = {}
    for span in tracer.spans:
        sid, op, parent, name, t0, t1 = span
        if op not in ops:
            continue
        names[sid] = name
        total[name] += t1 - t0
        calls[name] += 1
        if parent is not None:
            child[parent] += t1 - t0
            if name == "radial.integrate" and names.get(parent) == "radial.shoot":
                inside_shoot += 1
    cli_self = sum(t1 - t0 - child[sid] for sid, op, parent, name, t0, t1
                   in tracer.spans if op in ops and name == "cli.main")
    return total, calls, cli_self, inside_shoot


def _ratio(a, b):
    return a / b if b else 0.0


def pass_metrics(tracer: Tracer, cold_ops: set, warm_hits: dict,
                 bytes_written: int) -> dict:
    """Per-layer metrics of one traced round: work in the cold pass, cache
    behaviour in the warm pass that followed it."""
    total, calls, cli_self, inside_shoot = _sums(tracer, cold_ops)
    cnt = Counter()
    for op in cold_ops:
        cnt.update(tracer.counts.get(op, {}))
    rungs = [r for op in sorted(cold_ops) for r in tracer.rungs.get(op, [])]
    n_int = calls["radial.integrate"]
    n_shoot = calls["radial.shoot"]
    m = {
        "radial.integrate_calls": n_int,
        "radial.steps": cnt["steps"],
        "radial.rejects": cnt["rejects"],
        "radial.nfev": cnt["nfev"],
        "radial.us_per_step": 1e6 * _ratio(total["radial.integrate"], cnt["steps"]),
        "radial.steps_per_profile": _ratio(cnt["steps"], n_int),
        "radial.shoot_calls": n_shoot,
        "radial.integrations_per_shot": _ratio(inside_shoot, n_shoot),
        "radial.bisection_rounds": cnt["bisection_rounds"],
        "radial.shoot_s": total["radial.shoot"],
        "radial.parse_ms": 1e3 * total["radial.profile_from_text"],
        "eigen.verdict_s": total["eigen.singular_stability_verdict"],
        "eigen.rungs": calls["eigen.principal_eigenvalue"],
        "eigen.extended_rungs": cnt["extended_rungs"],
        "eigen.iterations": sum(it for _k, it, _dt in rungs),
    }
    for k in range(1, KMAX + 1):
        at_k = [(it, dt) for kk, it, dt in rungs if kk == k]
        m[f"eigen.iterations.k{k}"] = _ratio(sum(it for it, _ in at_k), len(at_k))
        m[f"eigen.rung_ms.k{k}"] = 1e3 * _ratio(sum(dt for _, dt in at_k), len(at_k))
    n_cls = calls["exponents.classify"]
    n_jl = calls["exponents.jl_curve_q"]
    m.update({
        "profiles.compare_ms": 1e3 * total["profiles.compare"],
        "profiles.crossings": cnt["crossings"],
        "exponents.classify_calls": n_cls,
        "exponents.classify_us": 1e6 * _ratio(total["exponents.classify"], n_cls),
        "exponents.jl_curve_q_calls": n_jl,
        "exponents.jl_curve_q_us": 1e6 * _ratio(total["exponents.jl_curve_q"], n_jl),
        "exponents.derive_scaling_calls": cnt["exponents.derive_scaling"],
        "scan.kernel_ms": 1e3 * total["scan.scan_codes"],
        "scan.cells_per_s": _ratio(cnt["scan_cells"], total["scan.scan_codes"]),
        "serialize.to_csv_ms": 1e3 * total["serialize.to_csv"],
        "serialize.csv_cells": cnt["csv_cells"],
        "serialize.ns_per_cell": 1e9 * _ratio(total["serialize.to_csv"],
                                              cnt["csv_cells"]),
        "serialize.to_json_ms": 1e3 * total["serialize.to_json"],
        "cli.self_ms": 1e3 * cli_self,
    })
    hit_times = [dt for dt in warm_hits.values() if dt is not None]
    m["cli.cache_hits"] = len(hit_times)
    m["cli.cache_misses"] = sum(1 for dt in warm_hits.values() if dt is None)
    m["cli.hit_ms"] = 1e3 * _ratio(sum(hit_times), len(hit_times))
    m["cli.bytes_written"] = bytes_written
    return m


def median_metrics(rounds: list[dict]) -> dict:
    return {k: median(r[k] for r in rounds) for k in rounds[0]}
