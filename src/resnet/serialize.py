"""Canonical, byte-stable text output for JSON and CSV artifacts.

Keys are emitted in sorted order and every float is formatted with 17
significant digits, so identical inputs produce identical bytes across runs
and platforms.
"""

from __future__ import annotations

import json
import math


def fmt_float(x):
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return f"{x:.17g}"


def canonical_json(obj, indent=0):
    """Deterministic JSON text; dict keys sorted, floats at 17 digits."""
    pad = "  " * indent
    pad_in = "  " * (indent + 1)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ",\n".join(f"{pad_in}{json.dumps(str(k))}: {canonical_json(v, indent + 1)}"
                          for k, v in items)
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = ", ".join(canonical_json(v, indent + 1) for v in obj)
        if len(body) <= 100:
            return "[" + body + "]"
        body = ",\n".join(pad_in + canonical_json(v, indent + 1) for v in obj)
        return "[\n" + body + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def vertex_label(v):
    """A vertex id as one CSV cell: an int, or a tuple's ints joined by ';'."""
    return ";".join(str(t) for t in v) if isinstance(v, tuple) else str(v)


def csv_text(columns, rows, header_meta):
    """CSV with '# key: value' comment header lines, floats at 17 digits."""
    lines = []
    for key in sorted(header_meta):
        lines.append(f"# {key}: {header_meta[key]}")
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(fmt_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
