"""Forward event engine and the union-find of the event loops.

``run_clocked`` replays the same exponential clocks as the fixed-horizon
construction, processing edge arrivals and lightning strikes in one global
time order (ties: time, then edges before strikes, then lexicographic
indices).  The order is one ``np.lexsort`` over the arrival tables; the
arrivals are then applied in one loop over plain lists.  Deletion marks the
component's root burnt; members observe the flag lazily, so no un-union is
ever needed.

``_UnionFind`` is the disjoint-set forest of the two loops that merge one
event at a time: this engine, over vertices, and the frozen percolation
run, over the initial components.  Both find the roots of an arrival's ends
themselves and merge distinct roots with ``link``, which holds the weight
rule.  Every static grouping (states, splits, sandwich sums, the
bad-set classifier, the initial G(n, p) components of the frozen percolation
run and criterion 6's connectivity count) runs on
``graphical._least_labels`` instead.
``deleted_mass_up_to`` reads the deleted mass off an event log.
"""

from __future__ import annotations

import math
from itertools import islice

import numpy as np

from .clock_field import ClockField, edge_arrivals, strike_arrivals
from .errors import InvalidInput
from .mass_state import OrderedMassVector, _state, mass_array, rate, time_list
from .trajectory import Event, Trajectory

__all__ = ["run_clocked", "deleted_mass_up_to"]


class _UnionFind:
    """Disjoint-set forest with path compression and union by weight.

    ``run_clocked`` passes the vertex masses and ``run_fp`` the sizes of the
    initial components; every label starts as its own root.  Labels index
    ``weight`` directly, so 1-based callers leave slot 0 unused.
    """

    __slots__ = ("parent", "weight")

    def __init__(self, weight: list):
        self.weight = weight
        self.parent = list(range(len(weight)))

    def find(self, v: int) -> int:
        parent = self.parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def link(self, ra: int, rb: int) -> int:
        """Merge the distinct roots ``ra`` and ``rb``: the heavier (on a tie,
        ``ra``) absorbs the other.  Returns the absorbed root."""
        weight = self.weight
        if weight[ra] < weight[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        weight[ra] += weight[rb]
        return rb


def run_clocked(masses, clocks: ClockField, lam: float, times) -> Trajectory:
    """Simulate forward to the last of ``times``, recording the state at each.

    ``masses`` must pass :func:`~mcld.mass_state.mass_array`, ``times``
    :func:`~mcld.mass_state.time_list` and ``lam``
    :func:`~mcld.mass_state.rate`; all are checked before any clock is read.

    Edge events between vertices whose components are both alive merge them
    (same-root arrivals are no-ops); a strike at an alive vertex deletes its
    whole current component.  Events at burnt vertices are no-ops.
    """
    arr = mass_array(masses)
    times = time_list(times, "times")
    lam = rate(lam, "deletion rate")

    ei, ej, et = edge_arrivals(clocks, arr, times[-1])
    sv, st = strike_arrivals(clocks, arr, lam, times[-1])
    # strikes are kind 1 with second label 0: edges apply first at equal times
    at = np.concatenate((et, st))
    kind = np.concatenate((np.zeros(len(et), np.int8), np.ones(len(st), np.int8)))
    a = np.concatenate((ei, sv))
    b = np.concatenate((ej, np.zeros(len(st), ej.dtype)))
    order = np.lexsort((b, a, kind, at))
    at = at[order]
    # every arrival is at or before times[-1], so the last grid time drains them
    ends = np.searchsorted(at, times, side="right").tolist()
    arrivals = zip(at.tolist(), kind[order].tolist(), a[order].tolist(), b[order].tolist())

    n = len(arr)
    forest = _UnionFind([0.0] + arr.tolist())
    find, link, parent, weight = forest.find, forest.link, forest.parent, forest.weight
    burnt = [False] * (n + 1)
    minlabel = list(range(n + 1))
    events: list[Event] = []
    new = tuple.__new__  # an Event without the named tuple's Python __new__
    states: list[OrderedMassVector] = []
    pos = 0
    for end in ends:
        for time, strike, i, j in islice(arrivals, end - pos):
            if strike:
                root = find(i)
                if burnt[root]:
                    continue
                burnt[root] = True
                events.append(new(Event, (time, "delete", (minlabel[root],), weight[root])))
                continue
            ri, rj = find(i), find(j)
            if ri == rj or burnt[ri] or burnt[rj]:
                continue
            low, high = minlabel[ri], minlabel[rj]
            if high < low:
                low, high = high, low
            root = parent[link(ri, rj)]
            minlabel[root] = low
            events.append(new(Event, (time, "merge", (low, high), weight[root])))
        pos = end
        states.append(
            _state([weight[v] for v in range(1, n + 1) if parent[v] == v and not burnt[v]])
        )

    return Trajectory(times=times, states=tuple(states), events=tuple(events))


def deleted_mass_up_to(traj: Trajectory, t: float) -> float:
    """Total weight removed by deletions with event time <= t, a
    :func:`~mcld.mass_state.time_list` time."""
    (t,) = time_list((t,), "query time")
    if t > traj.times[-1]:
        raise InvalidInput("query beyond the trajectory horizon")
    return math.fsum(e.weight for e in traj.events if e.kind == "delete" and e.time <= t)
