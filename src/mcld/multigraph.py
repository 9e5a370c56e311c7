"""Bipartite component multigraph and the damaged-reachability classification.

Vertices are the connected components below and above a truncation level;
each cross edge of the underlying graph contributes one parallel edge.  A
lower vertex is *bad* when an edge-simple walk of length at least one leads
from it to a damaged vertex (possibly itself, via a circuit).

The fast classifier reduces this to connectivity plus bridge detection:

* a walk can reach a damaged vertex w != k iff w lies in k's connected
  component (any simple path is edge-simple);
* a damaged k can reach *itself* iff some edge incident to k lies on a
  circuit, i.e. is not a bridge (parallel edges are never bridges).

``classify_bad_bruteforce`` enumerates edge-simple trails directly and is
kept as the oracle the fast path is certified against.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidInput

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


def _non_bridge_edges(cm: ComponentMultigraph, adj) -> tuple[set[int], list[int]]:
    """Edge ids lying on a circuit (iterative lowpoint computation), and each
    vertex's component label: the vertex the search of its component started
    from.

    Parallel edges are distinct ids, so a doubled edge shows up as a back
    edge for its twin and neither is reported as a bridge.
    """
    n = cm.n_vertices
    disc = [-1] * n
    low = [0] * n
    label = list(range(n))  # a search start labels itself
    bridges: set[int] = set()
    counter = 0
    for start in range(n):
        if disc[start] != -1:
            continue
        # frames: (vertex, parent edge id, iterator index into adj[vertex])
        stack = [(start, -1, 0)]
        disc[start] = low[start] = counter
        counter += 1
        while stack:
            u, pe, idx = stack.pop()
            if idx < len(adj[u]):
                stack.append((u, pe, idx + 1))
                w, eid = adj[u][idx]
                if eid == pe:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = counter
                    label[w] = start
                    counter += 1
                    stack.append((w, eid, 0))
                else:
                    low[u] = min(low[u], disc[w])
            else:
                if pe != -1:
                    # u finished; propagate lowpoint to its parent
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[u])
                    if low[u] > disc[parent]:
                        bridges.add(pe)
    all_ids = set(range(len(cm.edges)))
    return all_ids - bridges, label


def classify_bad(cm: ComponentMultigraph) -> frozenset[int]:
    """Lower ids from which an edge-simple walk reaches damage."""
    adj = _adjacency(cm)
    non_bridge, label = _non_bridge_edges(cm, adj)
    damage_count = [0] * cm.n_vertices
    for v in range(cm.n_vertices):
        if cm.damaged(v):
            damage_count[label[v]] += 1
    flat = cm.flat_edges()
    on_circuit = [False] * cm.n_vertices
    for eid in non_bridge:
        u, v = flat[eid]
        on_circuit[u] = True
        on_circuit[v] = True

    bad: set[int] = set()
    for k in range(cm.n_lower):
        others = damage_count[label[k]] - (1 if cm.damaged_lower[k] else 0)
        if others >= 1:
            bad.add(k)
        elif cm.damaged_lower[k] and on_circuit[k]:
            bad.add(k)
    return frozenset(bad)


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
