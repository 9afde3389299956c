"""Machine-readable report serialization.

Reports are plain nested dicts of JSON-safe values.  Floats are always
written with 17 significant digits so that identical runs produce
byte-identical files (modulo the timestamp field), and complex numbers are
spelled out as ``{"re": ..., "im": ...}`` objects.

The writers format in bulk: a sequence of floats (a JSON array or a CSV
row) is one ``%.17g`` format over a joined template, an array of bools one
join, and the JSON text is collected in a list and joined once.  ``%.17g``
prints a float exactly as ``format(x, ".17g")`` does.
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np

# element types that a float array or CSV row may hold for its one bulk format
_FLOATS = (float, np.float64)
_BOOLS = (bool, np.bool_)


def _fmt_float(x: float) -> str:
    if x != x:
        return '"nan"'
    if x == float("inf"):
        return '"inf"'
    if x == float("-inf"):
        return '"-inf"'
    return format(float(x), ".17g")


def _write_float(obj, out: list, level: int) -> None:
    out.append(_fmt_float(float(obj)))


def _write_bool(obj, out: list, level: int) -> None:
    out.append("true" if obj else "false")


def _write_none(obj, out: list, level: int) -> None:
    out.append("null")


def _write_int(obj, out: list, level: int) -> None:
    out.append(str(int(obj)))


def _write_complex(obj, out: list, level: int) -> None:
    pad_in = "  " * (level + 1)
    out.append(f'{{\n{pad_in}"re": {_fmt_float(float(obj.real))},\n'
               f'{pad_in}"im": {_fmt_float(float(obj.imag))}\n{"  " * level}}}')


def _quoted(s: str) -> str:
    """``s`` as a JSON string: quote and backslash escaped, and control
    characters as \\u escapes."""
    if s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    escaped = s.replace("\\", "\\\\").replace('"', '\\"')
    escaped = "".join(c if c >= " " else f"\\u{ord(c):04x}" for c in escaped)
    return '"' + escaped + '"'


def _write_str(obj, out: list, level: int) -> None:
    out.append(_quoted(obj))


def _write_dict(obj, out: list, level: int) -> None:
    if not obj:
        out.append("{}")
        return
    pad_in = "  " * (level + 1)
    sep = "{\n"
    for key, val in obj.items():
        out.append(f"{sep}{pad_in}{_quoted(str(key))}: ")
        _write_json(val, out, level + 1)
        sep = ",\n"
    out.append("\n" + "  " * level + "}")


def _write_seq(obj, out: list, level: int) -> None:
    items = list(obj)
    if not items:
        out.append("[]")
        return
    pad_in = "  " * (level + 1)
    sep = ",\n" + pad_in
    out.append("[\n" + pad_in)
    if all(type(v) in _FLOATS for v in items):
        body = sep.join(["%.17g"] * len(items)) % tuple(items)
        # a finite float prints no "n"; nan and +-inf are written quoted
        out.append(body if "n" not in body else sep.join(map(_fmt_float, items)))
    elif all(type(v) in _BOOLS for v in items):
        out.append(sep.join(["true" if v else "false" for v in items]))
    else:
        for i, val in enumerate(items):
            if i:
                out.append(sep)
            _write_json(val, out, level + 1)
    out.append("\n" + "  " * level + "]")


# the writer of each value's exact type, then, for subclasses and numpy
# scalars, the first whose types the value is an instance of
_WRITERS = {float: _write_float, np.float64: _write_float, dict: _write_dict,
            list: _write_seq, tuple: _write_seq, str: _write_str, bool: _write_bool,
            int: _write_int, type(None): _write_none, complex: _write_complex}
_WRITERS_BY_BASE = (
    (dict, _write_dict), ((list, tuple, np.ndarray), _write_seq), (_BOOLS, _write_bool),
    (type(None), _write_none), ((int, np.integer), _write_int),
    ((complex, np.complexfloating), _write_complex), ((float, np.floating), _write_float),
    (str, _write_str),
)


def _write_json(obj, out: list, level: int) -> None:
    write = _WRITERS.get(type(obj))
    if write is None:
        write = next((w for types, w in _WRITERS_BY_BASE if isinstance(obj, types)), None)
        if write is None:
            raise TypeError(f"cannot serialize {type(obj).__name__} to a report")
    write(obj, out, level)


def dumps_json(obj) -> str:
    """Serialize to JSON text with 17-significant-digit floats, indented by
    two spaces."""
    out = []
    _write_json(obj, out, 0)
    out.append("\n")
    return "".join(out)


def csv_cell(value) -> str:
    if isinstance(value, (float, np.floating)):
        s = _fmt_float(float(value))
        return s.strip('"')
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return str(value)


def dumps_csv(header, rows) -> str:
    """Flat CSV with the same float formatting as the JSON reports.  A row
    of floats is one ``%.17g`` format, which prints nan and +-inf as
    :func:`csv_cell` does."""
    lines = [",".join(header)]
    for row in rows:
        if all(type(v) in _FLOATS for v in row):
            lines.append(",".join(["%.17g"] * len(row)) % tuple(row))
        else:
            lines.append(",".join(map(csv_cell, row)))
    return "\n".join(lines) + "\n"


def timestamp() -> str:
    return datetime.now(timezone.utc).isoformat()
