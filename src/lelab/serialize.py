"""Deterministic text serialization: 17-significant-digit floats everywhere.

All CSV and JSON payloads produced by the laboratory go through these
helpers so that identical inputs yield byte-identical files.  Floats are
rendered with %.17g, which round-trips IEEE doubles exactly; NaN maps to
null in JSON output.
"""

from __future__ import annotations

import hashlib
import math
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

__all__ = ["fmt_float", "to_json", "to_csv", "payload_hash"]


def fmt_float(x: float) -> str:
    """%.17g; it renders NaN and infinities as nan, inf and -inf."""
    return "%.17g" % x


def _emit(obj: Any, out: list, indent: int, level: int) -> None:
    # the exact scalar types first (bool cannot be subclassed), then
    # containers, subclasses and numpy scalars
    t = type(obj)
    if t is str:
        out.append(_quote(obj))
    elif t is float:
        # JSON has no NaN/inf literals; absent values serialize as null
        out.append(fmt_float(obj) if math.isfinite(obj) else "null")
    elif t is int:
        out.append(str(obj))
    elif t is bool or obj is None:
        out.append("true" if obj is True else "false" if obj is False else "null")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(fmt_float(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, dict):
        _emit_dict(obj, out, indent, level)
    elif isinstance(obj, (list, tuple)):
        _emit_list(obj, out, indent, level)
    elif hasattr(obj, "item"):
        # numpy scalars and the like
        _emit(obj.item(), out, indent, level)
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def _emit_dict(obj: dict, out: list, indent: int, level: int) -> None:
    if not obj:
        out.append("{}")
        return
    pad_in = " " * (indent * (level + 1))
    sep = "{\n"
    for k, v in obj.items():
        if not isinstance(k, str):
            raise TypeError(f"JSON keys must be strings, got {type(k)}")
        out.append(sep + pad_in + _quote(k) + ": ")
        _emit(v, out, indent, level + 1)
        sep = ",\n"
    out.append("\n" + " " * (indent * level) + "}")


def _emit_list(obj, out: list, indent: int, level: int) -> None:
    if not obj:
        out.append("[]")
        return
    pad_in = " " * (indent * (level + 1))
    sep = "[\n"
    for v in obj:
        out.append(sep + pad_in)
        _emit(v, out, indent, level + 1)
        sep = ",\n"
    out.append("\n" + " " * (indent * level) + "]")


def to_json(obj: Any, indent: int = 2) -> str:
    """Deterministic JSON text (insertion-ordered keys, 17g floats)."""
    out: list = []
    _emit(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def to_csv(header: list[str], rows) -> str:
    """Deterministic CSV text.  The first row fixes one format per column:
    a string cell (such as a preformatted repeated value) is written as
    given, any other cell by fmt_float's %.17g, which prints an int's
    digits.  One format per row, not a type test per cell."""
    rows = list(rows)
    first = rows[0] if rows else ()
    fmt = ",".join("%s" if isinstance(c, str) else "%.17g" for c in first) + "\n"
    return ",".join(header) + "\n" + "".join(fmt % tuple(row) for row in rows)


def payload_hash(payload: dict) -> str:
    """Short stable hash of a JSON-serializable payload (cache keys, headers)."""
    canon = to_json(payload, indent=0)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
