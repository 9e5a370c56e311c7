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


@dataclass(frozen=True, eq=False)
class ComponentMultigraph:
    """Bipartite multigraph on lower ids 0..n_lower-1 and upper ids 0..n_upper-1.

    ``edges`` is an (E, 2) int64 array with one (lower id, upper id) row per
    parallel edge, and the damage flags are bool arrays; any sequences given
    are converted once and checked here.
    """

    n_lower: int
    n_upper: int
    edges: np.ndarray
    damaged_lower: np.ndarray
    damaged_upper: np.ndarray

    def __post_init__(self) -> None:
        edges = np.asarray(self.edges, dtype=np.int64).reshape(len(self.edges), 2)
        for side, n in (("lower", self.n_lower), ("upper", self.n_upper)):
            flags = np.asarray(getattr(self, f"damaged_{side}"), dtype=bool)
            if flags.shape != (n,):
                raise InvalidInput(f"need one damage flag per {side} vertex")
            object.__setattr__(self, f"damaged_{side}", flags)
        outside = (edges < 0).any(axis=1) | (edges >= (self.n_lower, self.n_upper)).any(axis=1)
        if outside.any():
            k, l = edges[outside.argmax()].tolist()
            raise InvalidInput(f"edge ({k}, {l}) outside vertex ranges")
        object.__setattr__(self, "edges", edges)


def classify_bad(cm: ComponentMultigraph) -> frozenset[int]:
    """Lower ids from which an edge-simple walk reaches damage."""
    nl = cm.n_lower
    n = nl + cm.n_upper - 1  # flat labels 0..n: lower k -> k, upper l -> nl + l
    lower, upper = cm.edges[:, 0], cm.edges[:, 1] + nl
    damage = np.concatenate((cm.damaged_lower, cm.damaged_upper))
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
    nl, damage = cm.n_lower, np.concatenate((cm.damaged_lower, cm.damaged_upper)).tolist()
    adj: list[list[tuple[int, int]]] = [[] for _ in damage]  # flat labels
    for eid, (k, l) in enumerate(cm.edges.tolist()):
        adj[k].append((nl + l, eid))
        adj[nl + l].append((k, eid))

    def reaches_damage(k: int) -> bool:
        # depth-first over (vertex, frozenset of used edge ids)
        stack: list[tuple[int, frozenset[int]]] = [(k, frozenset())]
        seen: set[tuple[int, frozenset[int]]] = set()
        while stack:
            u, used = stack.pop()
            for w, eid in adj[u]:
                if eid in used:
                    continue
                if damage[w]:
                    return True
                nxt = (w, used | {eid})
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return False

    return frozenset(k for k in range(cm.n_lower) if reaches_damage(k))
