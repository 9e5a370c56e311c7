"""Ordered mass vectors and the l2 metric between them.

States are non-increasing sequences of nonnegative masses with finite
support; the squared l2 norm of the component weights (``s2``) is the
quantity every comparison bound in this package is phrased in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .errors import InvalidInput

__all__ = ["OrderedMassVector", "ordered", "dist", "truncate"]


@dataclass(frozen=True)
class OrderedMassVector:
    """Canonical state: non-increasing positive masses, trailing zeros trimmed."""

    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        prev = math.inf
        for m in self.masses:
            if not (0.0 <= m <= prev) or not math.isfinite(m):
                raise InvalidInput(
                    "masses must be finite, nonnegative and non-increasing"
                )
            prev = m
        if self.masses and self.masses[-1] == 0.0:
            # canonical form: drop the zero tail so equality is well defined
            trimmed = self.masses
            while trimmed and trimmed[-1] == 0.0:
                trimmed = trimmed[:-1]
            object.__setattr__(self, "masses", trimmed)

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
    vals = list(values)
    for v in vals:
        if v < 0 or not math.isfinite(v):
            raise InvalidInput(f"entries must be finite and nonnegative, got {v!r}")
    vals.sort(reverse=True)  # timsort is stable
    while vals and vals[-1] == 0.0:
        vals.pop()
    return OrderedMassVector(tuple(vals))


def dist(a: OrderedMassVector, b: OrderedMassVector) -> float:
    """l2 distance between two states, padding the shorter with zeros."""
    la, lb = len(a), len(b)
    diffs = []
    for k in range(max(la, lb)):
        x = a.masses[k] if k < la else 0.0
        y = b.masses[k] if k < lb else 0.0
        d = x - y
        diffs.append(d * d)
    return math.sqrt(math.fsum(diffs))


def truncate(v: OrderedMassVector, m: int) -> OrderedMassVector:
    """Keep the first ``m`` entries; truncating past the support is the identity."""
    if m < 0:
        raise InvalidInput("truncation index must be nonnegative")
    return OrderedMassVector(v.masses[:m])
