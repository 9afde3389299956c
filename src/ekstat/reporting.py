"""Machine-readable report serialization.

Reports are plain nested dicts of JSON-safe values.  Floats are always
written with 17 significant digits so that identical runs produce
byte-identical files (modulo the timestamp field), and complex numbers are
spelled out as ``{"re": ..., "im": ...}`` objects.
"""

from __future__ import annotations

import io
from datetime import datetime, timezone

import numpy as np


def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(float(x), ".17g")


def _write_json(obj, out: io.StringIO, level: int) -> None:
    pad = "  " * level
    pad_in = "  " * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            out.write("{}")
            return
        out.write("{\n")
        for i, (key, val) in enumerate(obj.items()):
            out.write(f'{pad_in}"{key}": ')
            _write_json(val, out, level + 1)
            out.write(",\n" if i < len(obj) - 1 else "\n")
        out.write(pad + "}")
    elif isinstance(obj, (list, tuple)) or isinstance(obj, np.ndarray):
        items = list(obj)
        if not items:
            out.write("[]")
            return
        out.write("[\n")
        for i, val in enumerate(items):
            out.write(pad_in)
            _write_json(val, out, level + 1)
            out.write(",\n" if i < len(items) - 1 else "\n")
        out.write(pad + "]")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.write("true" if obj else "false")
    elif obj is None:
        out.write("null")
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _write_json({"re": obj.real, "im": obj.imag}, out, level)
    elif isinstance(obj, (float, np.floating)):
        out.write(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        escaped = obj.replace("\\", "\\\\").replace('"', '\\"')
        escaped = "".join(c if c >= " " else f"\\u{ord(c):04x}" for c in escaped)
        out.write('"' + escaped + '"')
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to a report")


def dumps_json(obj) -> str:
    """Serialize to JSON text with 17-significant-digit floats, indented by
    two spaces."""
    out = io.StringIO()
    _write_json(obj, out, 0)
    out.write("\n")
    return out.getvalue()


def csv_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        s = _fmt_float(float(value))
        return s.strip('"')
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def dumps_csv(header, rows) -> str:
    """Flat CSV with the same float formatting as the JSON reports."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(csv_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()
