"""Small independent utilities shared by the test suite (kept free of the
package's own graph machinery so they can serve as oracles)."""

from __future__ import annotations

import math

import numpy as np

from mcld.clock_field import ClockField, pair_count, pair_index_decode

_LATTICE = 2.0 ** 52


def _hash_for_exp(xi: float) -> int:
    """Invert the uniform-to-exponential map onto the 53-bit hash lattice."""
    u = -math.expm1(-xi)
    h = min(max(int(round(u * _LATTICE - 0.5)), 0), 2 ** 52 - 1)
    return h << 12


class StubClockField(ClockField):
    """Clock field with hand-picked exponentials; unspecified clocks are huge.

    Values pass through the real lattice encoding, so they reproduce the
    requested exponentials only up to one lattice step (~1e-16 relative);
    tests must keep thresholds away from their event times.
    """

    __slots__ = ("_pairs", "_vertices")

    def __init__(self, pair_exps=None, vertex_exps=None):
        super().__init__(0)
        self._pairs = {
            (min(i, j), max(i, j)): _hash_for_exp(x)
            for (i, j), x in (pair_exps or {}).items()
        }
        self._vertices = {i: _hash_for_exp(x) for i, x in (vertex_exps or {}).items()}

    def _pair_hash(self, i, j):
        # same contract as ClockField._pair_hash: broadcast i against j and
        # return the broadcast shape
        i, j = np.broadcast_arrays(i, j)
        default = _hash_for_exp(1e9)
        return np.array(
            [
                self._pairs.get((int(a), int(b)), default)
                for a, b in zip(i.ravel(), j.ravel())
            ],
            dtype=np.uint64,
        ).reshape(i.shape)

    def _vertex_hash(self, i):
        default = _hash_for_exp(1e9)
        return np.array(
            [self._vertices.get(int(a), default) for a in np.atleast_1d(i)],
            dtype=np.uint64,
        )


def all_pairs_edge_arrivals(field, masses, t):
    """Oracle for ``edge_arrivals``: every positive-support pair in one array,
    in row-major order by linear index, through the same two float tests."""
    masses = np.asarray(masses, dtype=np.float64)
    n_pos = int(np.count_nonzero(masses > 0.0))
    i, j = pair_index_decode(np.arange(pair_count(n_pos), dtype=np.int64), n_pos)
    product = masses[i - 1] * masses[j - 1]
    h = field._pair_hash(i.astype(np.uint64), j.astype(np.uint64))
    u = ((h >> np.uint64(12)).astype(np.float64) + 0.5) * 2.0 ** -52
    rough = u <= t * product
    i, j, u, product = i[rough], j[rough], u[rough], product[rough]
    times = -np.log1p(-u) / product
    keep = times <= t
    return i[keep], j[keep], times[keep]


def brute_components(vertices, edges) -> list[frozenset[int]]:
    """Connected components by plain BFS over an adjacency dict."""
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for start in vertices:
        if start in seen:
            continue
        block = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if w not in block:
                    block.add(w)
                    stack.append(w)
        seen |= block
        comps.append(frozenset(block))
    return comps


def ordered_weights(masses: dict[int, float], comps) -> tuple[float, ...]:
    weights = sorted((sum(masses[v] for v in c) for c in comps), reverse=True)
    return tuple(w for w in weights if w > 0)
