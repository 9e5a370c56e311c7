"""Ordered mass vectors, the l2 metric between them, and squared-norm sums.

States are non-increasing sequences of nonnegative masses with finite
support; the squared l2 norm of the component weights (``s2``) is the
quantity every comparison bound in this package is phrased in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import InvalidInput

__all__ = [
    "OrderedMassVector",
    "WeightedPartition",
    "ordered",
    "dist",
    "s2_of_partition",
    "state_of_partition",
    "truncate",
    "compare_via_s2",
]


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


EMPTY = OrderedMassVector(())


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


@dataclass(frozen=True)
class WeightedPartition:
    """Disjoint blocks of vertex labels with a mass attached to every vertex."""

    blocks: tuple[frozenset[int], ...]
    vertex_masses: Mapping[int, float]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for block in self.blocks:
            if seen & block:
                raise InvalidInput("partition blocks must be pairwise disjoint")
            seen |= block
        for v in seen:
            if v not in self.vertex_masses:
                raise InvalidInput(f"vertex {v} has no mass assigned")

    def block_weights(self) -> list[float]:
        return [
            math.fsum(self.vertex_masses[v] for v in sorted(block))
            for block in self.blocks
        ]


def s2_of_partition(p: WeightedPartition) -> float:
    """Sum of squared block weights."""
    return math.fsum(w * w for w in p.block_weights())


def state_of_partition(p: WeightedPartition) -> OrderedMassVector:
    """Decreasing rearrangement of the block weights."""
    return ordered(p.block_weights())


def truncate(v: OrderedMassVector, m: int) -> OrderedMassVector:
    """Keep the first ``m`` entries; truncating past the support is the identity."""
    if m < 0:
        raise InvalidInput("truncation index must be nonnegative")
    return OrderedMassVector(v.masses[:m])


def compare_via_s2(v_small_s2: float, v_big_s2: float) -> float:
    """Distance bound sqrt(s2_big - s2_small) for nested weighted graphs.

    Valid only when the caller knows the smaller graph is contained in the
    bigger one, which forces the s2 ordering checked here.
    """
    if v_big_s2 < v_small_s2:
        raise InvalidInput(
            f"s2 ordering violated ({v_big_s2} < {v_small_s2}); "
            "the graphs cannot be nested"
        )
    return math.sqrt(v_big_s2 - v_small_s2)
