"""Deterministic JSON/CSV writers.

Floats are rendered with %.17g (17 significant digits uniquely identify an
IEEE double, so every value round-trips exactly), dict keys keep insertion
order, and rows are written in caller order.  Identical inputs therefore
produce byte-identical files.

Each distinct float is formatted once per file: within one call of
:func:`dumps` or :func:`write_csv`, the text of a nonzero finite ``float``
is kept in a dict for that call, and the bytes are those of formatting every
value afresh.  Zeros are formatted each time, since ``0.0 == -0.0`` but they
print as ``0`` and ``-0``; only exact floats use the dict, since ``1``,
``1.0`` and ``True`` hash alike.  Values of the exact types ``float``,
``int``, ``str``, ``dict``, ``list``, ``tuple``, ``None`` and ``bool`` are
dispatched on their type; subclasses, ``np.float64`` among them, go through
``isinstance`` tests.  :func:`write_csv` formats rows of one nonzero width
column by column: a column of exact floats, none zero or non-finite, through
the dict, one of exact ints by ``str``, and any other column, like rows of
mixed width, cell by cell.
"""

from __future__ import annotations

import math
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote  # as json.dumps(str)
from pathlib import Path
from typing import Any, Iterable, Sequence

from .errors import InvalidInput

__all__ = ["format_number", "dumps", "write_json", "write_csv"]


def format_number(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if not math.isfinite(x):
        raise InvalidInput("non-finite numbers cannot be serialized")
    return "%.17g" % x


def _float_text(x: float, memo: dict[float, str]) -> str:
    """``format_number(x)`` of a float ``x`` not in ``memo``; a nonzero
    ``x`` is entered there."""
    if not math.isfinite(x):
        raise InvalidInput("non-finite numbers cannot be serialized")
    text = "%.17g" % x
    if x:
        memo[x] = text
    return text


def _encode(obj: Any, out: list[str], memo: dict[float, str]) -> None:
    kind = type(obj)
    if kind is float:
        out.append(memo.get(obj) or _float_text(obj, memo))
    elif kind is str:
        out.append(_quote(obj))
    elif kind is int:
        out.append(str(obj))
    elif kind is dict:
        _encode_dict(obj, out, memo)
    elif kind is list or kind is tuple:
        _encode_items(obj, out, memo)
    elif obj is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, (bool, int, float)):
        out.append(format_number(obj))
    elif isinstance(obj, dict):
        _encode_dict(obj, out, memo)
    elif isinstance(obj, (list, tuple)):
        _encode_items(obj, out, memo)
    else:
        raise InvalidInput(f"cannot serialize object of type {type(obj).__name__}")


# Containers append ", " after each value and turn the last one into their
# closing bracket.


def _encode_dict(obj: dict, out: list[str], memo: dict[float, str]) -> None:
    start = len(out)
    out.append("{")
    for key, value in obj.items():
        out.append(_quote(key if type(key) is str else str(key)))
        out.append(": ")
        if type(value) is float:
            out.append(memo.get(value) or _float_text(value, memo))
        else:
            _encode(value, out, memo)
        out.append(", ")
    if len(out) > start + 1:
        out[-1] = "}"
    else:
        out.append("}")


def _encode_items(obj: list | tuple, out: list[str], memo: dict[float, str]) -> None:
    start = len(out)
    out.append("[")
    for value in obj:
        if type(value) is float:
            out.append(memo.get(value) or _float_text(value, memo))
        else:
            _encode(value, out, memo)
        out.append(", ")
    if len(out) > start + 1:
        out[-1] = "]"
    else:
        out.append("]")


def dumps(obj: Any) -> str:
    out: list[str] = []
    _encode(obj, out, {})
    return "".join(out)


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(dumps(obj) + "\n", encoding="utf-8")


def _cells(cells: Iterable[Any], memo: dict[float, str]) -> list[str]:
    """The CSV text of each of ``cells``, one at a time."""
    known = memo.get
    return [
        (known(c) or _float_text(c, memo)) if type(c) is float
        else str(c) if type(c) is int
        else c if isinstance(c, str)
        else format_number(c)
        for c in cells
    ]


def _column(cells: list, memo: dict[float, str]) -> list[str]:
    """``_cells(cells, memo)``, formatting each distinct value of a column of
    exact nonzero finite floats once, and a column of exact ints by ``str``."""
    kinds = set(map(type, cells))
    if kinds == {float}:
        fresh = set(cells).difference(memo)
        # a non-finite sum (a non-finite value, or finite ones past the float
        # range) sends the column, like a zero, to the per-cell rules
        if 0.0 not in fresh and math.isfinite(sum(fresh)):
            memo.update(zip(fresh, map("%.17g".__mod__, fresh)))
            return list(map(memo.__getitem__, cells))
    elif kinds == {int}:
        return list(map(str, cells))
    return _cells(cells, memo)


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    """Write ``header`` and ``rows``; rows of one nonzero width are formatted
    column by column, others row by row, to the same bytes."""
    memo: dict[float, str] = {}
    # the cells in one flat list and each row's width, so that no row is
    # kept: a file's worth of live rows would set off the garbage collector
    flat: list = []
    widths: list[int] = []
    for row in rows:
        widths.append(len(row))
        flat.extend(row)
    lines = [",".join(header)]
    width = widths[0] if widths else 0
    if width and widths.count(width) == len(widths):
        columns = [_column(flat[k::width], memo) for k in range(width)]
        lines.extend(map(",".join, zip(*columns)))
    else:
        cells = iter(flat)
        lines.extend(",".join(_cells(islice(cells, n), memo)) for n in widths)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
