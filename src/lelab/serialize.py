"""Deterministic text serialization: 17-significant-digit floats everywhere.

All CSV and JSON payloads produced by the laboratory go through these
helpers so that identical inputs yield byte-identical files.  Floats are
rendered with %.17g, which round-trips IEEE doubles exactly; NaN maps to
null in JSON output.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

__all__ = ["fmt_float", "to_json", "to_csv", "payload_hash"]


def fmt_float(x: float) -> str:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return "%.17g" % x


def _emit(obj: Any, out: list, indent: int, level: int) -> None:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        # JSON has no NaN/inf literals; absent values serialize as null
        out.append(fmt_float(obj) if math.isfinite(obj) else "null")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON keys must be strings, got {type(k)}")
            out.append(pad_in + json.dumps(k) + ": ")
            _emit(v, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(obj):
            out.append(pad_in)
            _emit(v, out, indent, level + 1)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(pad + "]")
    else:
        # numpy scalars and the like
        if hasattr(obj, "item"):
            _emit(obj.item(), out, indent, level)
        else:
            raise TypeError(f"cannot serialize {type(obj)}")


def to_json(obj: Any, indent: int = 2) -> str:
    """Deterministic JSON text (insertion-ordered keys, 17g floats)."""
    out: list = []
    _emit(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def to_csv(header: list[str], rows) -> str:
    """Deterministic CSV text; numeric cells rendered with fmt_float,
    string cells (such as preformatted repeated values) written as given."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for c in row:
            if isinstance(c, str):
                cells.append(c)
            elif isinstance(c, bool):
                cells.append("true" if c else "false")
            elif isinstance(c, int):
                cells.append(str(c))
            elif isinstance(c, float):
                cells.append(fmt_float(c))
            elif hasattr(c, "item"):
                cells.append(fmt_float(float(c)))
            else:
                cells.append(str(c))
        lines.append(",".join(cells))
    lines.append("")  # the final newline, without a copy of the whole text
    return "\n".join(lines)


def payload_hash(payload: dict) -> str:
    """Short stable hash of a JSON-serializable payload (cache keys, headers)."""
    canon = to_json(payload, indent=0)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
