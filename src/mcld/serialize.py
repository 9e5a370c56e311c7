"""Deterministic JSON/CSV writers.

Floats are rendered with %.17g (17 significant digits uniquely identify an
IEEE double, so every value round-trips exactly), dict keys keep insertion
order, and rows are written in caller order.  Identical inputs therefore
produce byte-identical files.

Each distinct float is formatted once per :class:`FloatTexts` table, to
the bytes of formatting every value afresh.  The writers make a table per
call unless one is passed, so ``mcld simulate`` shares one over its three
files.  Only exact floats are looked up in it, since ``1``, ``1.0`` and
``True`` hash alike.  Values of the exact types ``float``, ``int``, ``str``,
``dict``, ``list``, ``tuple``, ``None`` and ``bool`` are dispatched on their
type, and a :class:`~mcld.trajectory.Event` is rendered from one record
template; subclasses, ``np.float64`` among them, go through ``isinstance``
tests.  :func:`write_csv` takes equal-length columns: a column of exact
floats goes through the table, one of exact ints through ``str``, and any
other cell by cell.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote  # as json.dumps(str)
from pathlib import Path
from typing import Any, Sequence

from .errors import InvalidInput
from .trajectory import Event

__all__ = ["FloatTexts", "format_number", "dumps", "write_json", "write_csv"]


def format_number(x: Any) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if not math.isfinite(x):
        raise InvalidInput("non-finite numbers cannot be serialized")
    return "%.17g" % x


class FloatTexts(dict):
    """``format_number`` of each float looked up, formatted on its first
    lookup.  Non-finite values are refused with :class:`InvalidInput`, and
    zeros are formatted afresh each time, never stored: ``0.0 == -0.0``,
    but they print as ``0`` and ``-0``."""

    __slots__ = ()

    def __missing__(self, x: float) -> str:
        if not math.isfinite(x):
            raise InvalidInput("non-finite numbers cannot be serialized")
        text = "%.17g" % x
        if x:
            self[x] = text
        return text


# an Event as the dict time, kind, components, weight, for the package's
# events: a float time and weight, int ids, a kind "merge" or "delete"
_EVENT = '{"time": %s, "kind": "%s", "components": [%s], "weight": %s}'


def _encode(obj: Any, out: list[str], texts: FloatTexts) -> None:
    kind = type(obj)
    if kind is float:
        out.append(texts[obj])
    elif kind is str:
        out.append(_quote(obj))
    elif kind is int:
        out.append(str(obj))
    elif kind is dict:
        _encode_dict(obj, out, texts)
    elif kind is Event:
        time, what, ids, weight = obj
        out.append(_EVENT % (texts[time], what, ", ".join(map(str, ids)), texts[weight]))
    elif kind is list or kind is tuple:
        _encode_items(obj, out, texts)
    elif obj is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(_quote(obj))
    elif isinstance(obj, (bool, int, float)):
        out.append(format_number(obj))
    elif isinstance(obj, dict):
        _encode_dict(obj, out, texts)
    elif isinstance(obj, (list, tuple)):
        _encode_items(obj, out, texts)
    else:
        raise InvalidInput(f"cannot serialize object of type {type(obj).__name__}")


# Containers append ", " after each value and turn the last one into their
# closing bracket.


def _encode_dict(obj: dict, out: list[str], texts: FloatTexts) -> None:
    start = len(out)
    out.append("{")
    for key, value in obj.items():
        out.append(_quote(key if type(key) is str else str(key)))
        out.append(": ")
        if type(value) is float:
            out.append(texts[value])
        else:
            _encode(value, out, texts)
        out.append(", ")
    if len(out) > start + 1:
        out[-1] = "}"
    else:
        out.append("}")


def _encode_items(obj: list | tuple, out: list[str], texts: FloatTexts) -> None:
    start = len(out)
    out.append("[")
    for value in obj:
        if type(value) is float:
            out.append(texts[value])
        else:
            _encode(value, out, texts)
        out.append(", ")
    if len(out) > start + 1:
        out[-1] = "]"
    else:
        out.append("]")


def dumps(obj: Any, texts: FloatTexts | None = None) -> str:
    out: list[str] = []
    _encode(obj, out, FloatTexts() if texts is None else texts)
    return "".join(out)


def write_json(path: str | Path, obj: Any, texts: FloatTexts | None = None) -> None:
    Path(path).write_text(dumps(obj, texts) + "\n", encoding="utf-8")


def _column(cells: Sequence[Any], texts: FloatTexts) -> list[str]:
    """The CSV text of each of ``cells``: a column of exact floats or of
    exact ints in one pass, any other cell by cell."""
    kinds = set(map(type, cells))
    if kinds == {float}:
        return list(map(texts.__getitem__, cells))
    if kinds == {int}:
        return list(map(str, cells))
    return [
        texts[c] if type(c) is float
        else str(c) if type(c) is int
        else c if isinstance(c, str)
        else format_number(c)
        for c in cells
    ]


def write_csv(
    path: str | Path,
    header: Sequence[str],
    columns: Sequence[Sequence[Any]],
    texts: FloatTexts | None = None,
) -> None:
    """Write ``header`` and one line per row of the equal-length ``columns``."""
    if len(set(map(len, columns))) > 1:
        raise InvalidInput("CSV columns must be of equal length")
    texts = FloatTexts() if texts is None else texts
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*[_column(c, texts) for c in columns])))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
