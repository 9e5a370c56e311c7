"""Ordered mass vectors, the l2 metric between them, and the package's one
input contract.

States are non-increasing sequences of nonnegative masses with finite
support; the squared l2 norm of the component weights (``s2``) is the
quantity every comparison bound in this package is phrased in.

Every entry point checks its inputs here, before any work: a mass vector
through :func:`mass_array` (an :class:`OrderedMassVector` is valid by
construction and passes unchecked), unordered weights through
:func:`weight_array`, a list of times through :func:`time_list` and a list
of truncation levels through :func:`level_list`, a rate through
:func:`rate`, a count or a seed through :func:`count`, and a squared norm
through :func:`_squared_norm`.  The states the package builds itself come
from :func:`_state` and are not checked again.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import InvalidInput

__all__ = ["OrderedMassVector", "mass_array", "weight_array", "time_list", "level_list",
           "rate", "count", "ordered", "dist", "truncate"]


def mass_array(masses) -> np.ndarray:
    """``masses`` as a float64 array that is one-dimensional, finite,
    nonnegative and non-increasing; an :class:`OrderedMassVector` is not
    checked again."""
    if isinstance(masses, OrderedMassVector):
        return np.asarray(masses.masses, dtype=np.float64)
    return weight_array(masses, "masses", True)


def weight_array(values, name: str, nonincreasing: bool) -> np.ndarray:
    """``values`` as a float64 array that is one-dimensional, finite and
    nonnegative, and also non-increasing if ``nonincreasing``; ``name`` names
    the input in the error."""
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{name} must be numbers: {exc}") from None
    if (
        arr.ndim != 1
        or not np.isfinite(arr).all()
        or (arr < 0).any()
        or (nonincreasing and (arr[1:] > arr[:-1]).any())
    ):
        order = " non-increasing" if nonincreasing else ""
        raise InvalidInput(
            f"{name} must be a one-dimensional, finite, nonnegative{order} vector"
        )
    return arr


def time_list(values, name: str) -> tuple[float, ...]:
    """``values`` as a tuple of floats that is nonempty, finite, nonnegative
    and strictly increasing; ``name`` names the input in the error."""
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{name} must be numbers: {exc}") from None
    if (
        not out
        or not all(math.isfinite(v) for v in out)
        or out[0] < 0
        or any(b <= a for a, b in zip(out, out[1:]))
    ):
        raise InvalidInput(
            f"{name} must be nonempty, finite, nonnegative and strictly increasing"
        )
    return out


def _squared_norm(w: np.ndarray, what: str) -> float:
    """``np.sum(w * w)``, refused when it is past the float range."""
    with np.errstate(over="ignore"):
        s2 = float(np.sum(w * w))
    if not math.isfinite(s2):
        raise InvalidInput(f"the squared norm of {what} overflows")
    return s2


def level_list(levels, support: int) -> tuple[int, ...]:
    """``levels`` as a tuple of ints that is nonempty and distinct, each in
    ``[0, support]`` and taken by :func:`count` (1.5 is refused)."""
    levels = tuple(count(m, "truncation level", -math.inf) for m in levels)
    if not levels or len(set(levels)) != len(levels):
        raise InvalidInput("truncation levels must be nonempty and distinct")
    if any(m < 0 or m > support for m in levels):
        raise InvalidInput(f"truncation levels must lie in [0, {support}]")
    return levels


def rate(value, name: str) -> float:
    """``value`` as a float that is finite and nonnegative; ``name`` names
    the input in the error."""
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"{name} must be a number: {exc}") from None
    if not 0.0 <= out < math.inf:
        raise InvalidInput(f"{name} must be finite and nonnegative, got {value!r}")
    return out


def count(value, name: str, least: int = 1) -> int:
    """``value`` as an int of at least ``least`` that ``operator.index`` takes
    (1.5 and "3" are refused); ``name`` names one counted thing in the errors."""
    try:
        out = operator.index(value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {value!r}") from None
    if out < least:
        need = f"need at least one {name}" if least == 1 else f"{name} must be at least {least}"
        raise InvalidInput(need)
    return out


@dataclass(frozen=True)
class OrderedMassVector:
    """Canonical state: non-increasing positive masses, trailing zeros
    trimmed; ``masses`` must pass :func:`mass_array`."""

    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        arr = mass_array(self.masses)
        # canonical form: drop the zero tail (a valid vector has no other
        # zeros) so equality is well defined
        object.__setattr__(self, "masses", tuple(arr[: np.count_nonzero(arr)].tolist()))

    def __len__(self) -> int:
        return len(self.masses)

    def __getitem__(self, k: int) -> float:
        return self.masses[k]

    def __iter__(self):
        return iter(self.masses)

    def norm_sq(self) -> float:
        """Squared l2 norm, i.e. the s2 value of the singleton partition."""
        return math.fsum(m * m for m in self.masses)

    def total_mass(self) -> float:
        return math.fsum(self.masses)

    def to_json_list(self) -> list[float]:
        return list(self.masses)


def ordered(values: Iterable[float]) -> OrderedMassVector:
    """Decreasing rearrangement of a nonnegative sequence.

    The sort is stable, so equal masses keep their original relative order;
    zeros are trimmed.  Negative entries are rejected.
    """
    return OrderedMassVector(tuple(sorted(values, reverse=True)))


def _state(weights: Iterable[float]) -> OrderedMassVector:
    """:func:`ordered` of floats the package built, finite and nonnegative by
    construction: the same state, not checked again.  The weights come in
    label order, nearly sorted, which Python's sort takes in about one pass."""
    masses = sorted(weights, reverse=True)
    while masses and not masses[-1]:
        masses.pop()
    state = object.__new__(OrderedMassVector)
    object.__setattr__(state, "masses", tuple(masses))
    return state


def dist(a: OrderedMassVector, b: OrderedMassVector) -> float:
    """l2 distance between two states, padding the shorter with zeros."""
    n = max(len(a), len(b))
    x, y = np.zeros(n), np.zeros(n)
    x[: len(a)] = a.masses
    y[: len(b)] = b.masses
    d = x - y
    return math.sqrt(math.fsum((d * d).tolist()))


def truncate(v: OrderedMassVector, m: int) -> OrderedMassVector:
    """Keep the first ``m`` entries; truncating past the support is the identity."""
    if m < 0:
        raise InvalidInput("truncation index must be nonnegative")
    return _state(v.masses[:m])
