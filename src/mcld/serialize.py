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
type; subclasses, ``np.float64`` among them, go through ``isinstance``
tests.  A list or tuple of events (:class:`~mcld.trajectory.Event`), such
as the event log of ``mcld simulate``, is rendered with one ``%`` over its
kinds' record templates, and a lone event, of ``Event`` or of a subclass,
through the same renderer; the bytes are those of each event's dict.
:func:`write_csv` takes equal-length columns: a column of exact floats
formats its new values with one ``%`` into the table and is then looked
up, one of exact ints goes through ``str``, and any other cell by cell.
"""

from __future__ import annotations

import math
from itertools import chain
from json.encoder import encode_basestring_ascii as _quote  # as json.dumps(str)
from operator import add
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


# The record of an Event is the dict time, kind, components, weight.  The
# package's events (a float time and weight, a tuple of int ids, and the
# kind "merge" with two ids or "delete" with one) take their kind's template
# of _RECORD; any other Event goes through the dict.
_RECORD = '{"time": %%.17g, "kind": "%s", "components": [%s], "weight": %%.17g}'
_TEMPLATES = {(kind, n): _RECORD % (kind, ", ".join(["%d"] * n))
              for kind, n in (("merge", 2), ("delete", 1))}


def _encode_events(events: Sequence[Event], out: list[str], texts: FloatTexts) -> None:
    """Append the records of the nonempty ``events``, joined by ", ": the
    package's events with one ``%`` over one flat tuple of their time, ids
    and weight, any other event through the dict form."""
    times, kinds, ids, weights = zip(*events)
    if (
        set(map(type, times)) == set(map(type, weights)) == {float}
        and set(map(type, kinds)) == {str}
        and set(map(type, ids)) == {tuple}
        and set(map(type, chain.from_iterable(ids))) <= {int}
    ):
        templates = list(map(_TEMPLATES.get, zip(kinds, map(len, ids))))
        if None not in templates:
            if not (all(map(math.isfinite, times)) and all(map(math.isfinite, weights))):
                raise InvalidInput("non-finite numbers cannot be serialized")
            # the tuples (time, *ids, weight), end to end
            values = chain.from_iterable(map(add, map(add, zip(times), ids), zip(weights)))
            out.append(", ".join(templates) % tuple(values))
            return
    if len(events) == 1:
        time, kind, ids, weight = events[0]
        _encode_dict({"time": time, "kind": kind, "components": ids, "weight": weight}, out, texts)
        return
    for event in events:
        _encode_events((event,), out, texts)
        out.append(", ")
    out.pop()


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
    elif isinstance(obj, Event):
        _encode_events((obj,), out, texts)
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
    if obj and type(obj[0]) is Event and set(map(type, obj)) == {Event}:
        out.append("[")
        _encode_events(obj, out, texts)
        out.append("]")
        return
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
        # the column's new nonzero values, formatted with one % and stored
        # only once all of them are finite
        new = set(cells).difference(texts)
        new.discard(0.0)  # and -0.0
        if new:
            if not all(map(math.isfinite, new)):
                raise InvalidInput("non-finite numbers cannot be serialized")
            new = tuple(new)
            texts.update(zip(new, ("\n".join(["%.17g"] * len(new)) % new).split("\n")))
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
