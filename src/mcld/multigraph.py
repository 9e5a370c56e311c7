"""Bipartite component multigraph and the damaged-reachability classification.

Vertices are the connected components below and above a truncation level;
each cross edge of the underlying graph contributes one parallel edge.  A
lower vertex is *bad* when an edge-simple walk of length at least one leads
from it to a damaged vertex (possibly itself, via a circuit).

The fast classifier reduces this to two groupings by least label
(``graphical._least_labels``):

* a walk can reach a damaged vertex w != k iff w lies in k's connected
  component (any simple path is edge-simple), so one grouping over all
  edges, and a count of damage per component, answers for every such k;
* a damaged k that is its component's only damage can reach itself iff it
  lies on a circuit, i.e. two of its edges end in one component of the graph
  without k (two parallel edges end at the same vertex).  Each component
  holds at most one such k, so one second grouping over the edges not at
  any of them answers for all: k is bad when a label repeats among the
  pairs (k, label of the other end) over k's edges.

``classify_bad_bruteforce`` enumerates edge-simple trails directly and is
kept as the oracle the fast path is certified against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .graphical import _least_labels

__all__ = ["ComponentMultigraph", "classify_bad", "classify_bad_bruteforce"]


@dataclass(frozen=True)
class ComponentMultigraph:
    """Bipartite multigraph on lower ids 0..n_lower-1 and upper ids 0..n_upper-1.

    ``edges`` lists one (lower_id, upper_id) entry per parallel edge.
    """

    n_lower: int
    n_upper: int
    edges: tuple[tuple[int, int], ...]
    damaged_lower: tuple[bool, ...]
    damaged_upper: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.damaged_lower) != self.n_lower:
            raise InvalidInput("need one damage flag per lower vertex")
        if len(self.damaged_upper) != self.n_upper:
            raise InvalidInput("need one damage flag per upper vertex")
        for k, l in self.edges:
            if not (0 <= k < self.n_lower and 0 <= l < self.n_upper):
                raise InvalidInput(f"edge ({k}, {l}) outside vertex ranges")

    # ---- flattened view: lower k -> k, upper l -> n_lower + l ----

    @property
    def n_vertices(self) -> int:
        return self.n_lower + self.n_upper

    def flat_edges(self) -> list[tuple[int, int]]:
        return [(k, self.n_lower + l) for k, l in self.edges]

    def damaged(self, v: int) -> bool:
        if v < self.n_lower:
            return self.damaged_lower[v]
        return self.damaged_upper[v - self.n_lower]


def _adjacency(cm: ComponentMultigraph) -> list[list[tuple[int, int]]]:
    adj: list[list[tuple[int, int]]] = [[] for _ in range(cm.n_vertices)]
    for eid, (u, v) in enumerate(cm.flat_edges()):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    return adj


def classify_bad(cm: ComponentMultigraph) -> frozenset[int]:
    """Lower ids from which an edge-simple walk reaches damage."""
    n, nl = cm.n_vertices - 1, cm.n_lower  # flat labels 0..n
    edges = np.array(cm.edges, dtype=np.int64).reshape(-1, 2)
    lower, upper = edges[:, 0], edges[:, 1] + nl
    damage = np.array(cm.damaged_lower + cm.damaged_upper, dtype=bool)
    least = _least_labels(n, lower, upper)
    per_block = np.bincount(least[damage], minlength=n + 1)
    bad = per_block[least[:nl]] > damage[:nl]  # damage beside k's own
    alone = ~bad & damage[:nl]  # k, its block's only damage
    at = alone[lower]
    without = _least_labels(n, lower[~at], upper[~at])
    seen = np.sort(lower[at] * (n + 1) + without[upper[at]])
    bad[seen[1:][seen[1:] == seen[:-1]] // (n + 1)] = True
    return frozenset(np.flatnonzero(bad).tolist())


def classify_bad_bruteforce(cm: ComponentMultigraph) -> frozenset[int]:
    """Direct trail enumeration; exponential, for certification only."""
    adj = _adjacency(cm)

    def reaches_damage(k: int) -> bool:
        # depth-first over (vertex, frozenset of used edge ids)
        stack: list[tuple[int, frozenset[int]]] = [(k, frozenset())]
        seen: set[tuple[int, frozenset[int]]] = set()
        while stack:
            u, used = stack.pop()
            for w, eid in adj[u]:
                if eid in used:
                    continue
                if cm.damaged(w):
                    return True
                nxt = (w, used | {eid})
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    return frozenset(k for k in range(cm.n_lower) if reaches_damage(k))
