"""Forward event engine and the union-find of the event loops.

``run_clocked`` replays the same exponential clocks as the fixed-horizon
construction, processing edge arrivals and lightning strikes in one global
time order (ties: time, then edges before strikes, then lexicographic
indices).  Deletion marks the component's root burnt; members observe the
flag lazily, so no un-union is ever needed.

``_UnionFind`` is the disjoint-set forest of the loops that merge one event
at a time: this engine, the frozen percolation run and criterion 6's
connectivity loop.  Every static grouping (states, splits, sandwich sums,
the bad-set classifier) runs on ``graphical._least_labels`` instead, and the
initial G(n, p) components of the frozen percolation run are grouped by
scipy's ``connected_components``.
``deleted_mass_up_to`` reads the deleted mass off an event log.
"""

from __future__ import annotations

import math

from .clock_field import ClockField, edge_arrivals, strike_arrivals
from .errors import InvalidInput
from .mass_state import OrderedMassVector, mass_array, ordered, rate, time_list
from .trajectory import Event, Trajectory

__all__ = ["run_clocked", "deleted_mass_up_to"]

_EDGE, _STRIKE = 0, 1  # tie rank: edges apply before strikes at equal times


_SAME = -1  # what _UnionFind.union returns when the labels share a root


class _UnionFind:
    """Disjoint-set forest with path compression and union by weight.

    ``run_clocked`` passes the vertex masses, ``run_fp`` the initial
    component sizes with their first vertices as roots, and criterion 6's
    loop unit weights.  Labels index ``weight`` directly, so 1-based callers
    leave slot 0 unused.
    """

    __slots__ = ("parent", "weight")

    def __init__(self, weight: list, parent: list[int] | None = None):
        self.weight = weight
        self.parent = list(range(len(weight))) if parent is None else parent

    def find(self, v: int) -> int:
        parent = self.parent
        root = v
        while parent[root] != root:
            root = parent[root]
        while parent[v] != root:
            parent[v], v = root, parent[v]
        return root

    def union(self, a: int, b: int) -> int:
        """Merge the blocks of ``a`` and ``b``: the heavier root (on a tie,
        ``a``'s) absorbs the other.  Returns the absorbed root, or ``_SAME``
        when ``a`` and ``b`` already share a root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return _SAME
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
    queue: list[tuple[float, int, int, int]] = [
        (t, _EDGE, int(a), int(b))
        for t, a, b in zip(et.tolist(), ei.tolist(), ej.tolist())
    ]
    queue.extend((t, _STRIKE, int(v), 0) for t, v in zip(st.tolist(), sv.tolist()))
    queue.sort()

    n = len(arr)
    forest = _UnionFind([0.0] + arr.tolist())
    find, parent, weight = forest.find, forest.parent, forest.weight
    burnt = [False] * (n + 1)
    minlabel = list(range(n + 1))
    events: list[Event] = []
    states: list[OrderedMassVector] = []
    pos = 0

    def apply_event(time: float, kind: int, a: int, b: int) -> None:
        if kind == _EDGE:
            ra, rb = find(a), find(b)
            if ra == rb or burnt[ra] or burnt[rb]:
                return
            ids = (minlabel[ra], minlabel[rb])
            root = parent[forest.union(ra, rb)]
            minlabel[root] = min(ids)
            events.append(Event(time, "merge", (min(ids), max(ids)), weight[root]))
        else:
            root = find(a)
            if burnt[root]:
                return
            burnt[root] = True
            events.append(Event(time, "delete", (minlabel[root],), weight[root]))

    # every queued arrival is at or before times[-1], so the loop drains it
    for g in times:
        while pos < len(queue) and queue[pos][0] <= g:
            apply_event(*queue[pos])
            pos += 1
        states.append(
            ordered(
                weight[v]
                for v in range(1, n + 1)
                if parent[v] == v and not burnt[v]
            )
        )

    return Trajectory(times=times, states=tuple(states), events=tuple(events))


def deleted_mass_up_to(traj: Trajectory, t: float) -> float:
    """Total weight removed by deletions with event time <= t."""
    if t > traj.times[-1]:
        raise InvalidInput("query beyond the trajectory horizon")
    return math.fsum(e.weight for e in traj.events if e.kind == "delete" and e.time <= t)
