"""Small independent utilities shared by the test suite.  They are kept
free of the package's own graph machinery so they can serve as oracles;
``coupled_distance`` is the exception: two independent realizations that a
truncation sweep must reproduce.  The union-find grouping and the
``fsum`` weights here are the ones the package used before its least-label
kernel, kept as that kernel's oracles; ``vertex_run_fp``,
``full_cumsum_aggregate_top`` and ``numbered_reference_replica_rows`` are
earlier versions of the frozen-percolation samplers, kept as their oracles."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from mcld import truncation
from mcld.clock_field import ClockField, pair_count, pair_index_decode
from mcld.errors import InvalidInput, InvariantViolation
from mcld.events import _UnionFind
from mcld.frozen_percolation import FPTrajectory, _aggregate_mcld_top, sample_critical_er
from mcld.graphical import realize
from mcld.mass_state import OrderedMassVector, dist, ordered, rate, time_list

_LATTICE = 2.0 ** 52


def _hash_for_exp(xi: float) -> int:
    """Invert the uniform-to-exponential map onto the 53-bit hash lattice."""
    u = -math.expm1(-xi)
    h = min(max(int(round(u * _LATTICE - 0.5)), 0), 2 ** 52 - 1)
    return h << 12


class PairHashHits:
    """Mixin for test fields that redefine ``_pair_hash``: the hits are read
    off the hashes of all rows against all columns as one tile,
    ``nonzero(_pair_hash(rows, cols) <= bound)``, so the field's own hashes
    decide every pair."""

    def _pair_hits(self, n_pos, h_max):
        rows = np.arange(1, n_pos, dtype=np.uint64)
        cols = np.arange(2, n_pos + 1, dtype=np.uint64)
        h = self._pair_hash(rows[:, None], cols[None, :])
        i, j = np.nonzero(h <= h_max[:, None])
        return i + 1, j + 2, h[i, j]


class StubClockField(PairHashHits, ClockField):
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


def unit_pair_exp(field, i: int, j: int) -> float:
    """Scalar pair clock of ``{i, j}``, in either order, via ``field.pair_exps``."""
    lo, hi = min(i, j), max(i, j)
    return float(field.pair_exps(np.array([lo]), np.array([hi]))[0])


def unit_vertex_exp(field, i: int) -> float:
    """Scalar vertex clock of ``i`` via ``field.vertex_exps``."""
    return float(field.vertex_exps(np.array([i]))[0])


@dataclass(frozen=True)
class EventClockView:
    """Scalar arrival times for a fixed mass assignment and deletion rate,
    one clock at a time: the reference for the batch tables of
    ``edge_arrivals`` and ``strike_arrivals``.

    ``masses[k]`` is the mass of vertex ``k+1``.  Zero-mass vertices, and
    vertices beyond the support, never connect and are never struck.
    """

    masses: Sequence[float]
    lam: float
    field: ClockField

    def _mass(self, i: int) -> float:
        return self.masses[i - 1] if i <= len(self.masses) else 0.0

    def edge_time(self, i: int, j: int) -> float:
        product = self._mass(i) * self._mass(j)
        if product == 0.0:
            return math.inf
        return unit_pair_exp(self.field, i, j) / product

    def strike_time(self, i: int) -> float:
        rate = self.lam * self._mass(i)
        if rate == 0.0:
            return math.inf
        return unit_vertex_exp(self.field, i) / rate


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


def set_loop_gnp_labels(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Oracle for ``_gnp_least_labels``: the same batched draws, with the
    first distinct values collected one at a time through a Python set and
    the components found by scipy, each vertex labelled by its component's
    first vertex."""
    if n == 1 or p == 0.0:
        return np.arange(n, dtype=np.int64)
    total = pair_count(n)
    k = int(rng.binomial(total, p))
    seen: set[int] = set()
    chosen: list[int] = []
    while len(chosen) < k:
        batch = rng.integers(0, total, size=(k - len(chosen)) + 16)
        for e in batch.tolist():
            if e not in seen:
                seen.add(e)
                chosen.append(e)
                if len(chosen) == k:
                    break
    if not chosen:
        return np.arange(n, dtype=np.int64)
    i, j = pair_index_decode(np.asarray(chosen, dtype=np.int64), n)
    graph = coo_matrix((np.ones(len(chosen)), (i - 1, j - 1)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    _, first = np.unique(labels, return_index=True)
    return first[labels].astype(np.int64)


def full_cumsum_aggregate_top(
    weights: np.ndarray, lam: float, t_list, rng: np.random.Generator, top_r: int
) -> np.ndarray:
    """Oracle for ``_aggregate_mcld_top``: the same draws, with the prefix
    sums of the alive weights rebuilt in full, through a mask, at every
    event, and the alive components of positive weight counted afresh."""
    t_list = [float(t) for t in t_list]
    w = weights.astype(np.float64).copy()
    alive = np.ones(len(w), dtype=bool)
    w1 = float(w.sum())
    w2 = float(np.sum(w * w))
    now = 0.0
    rows = np.zeros((len(t_list), top_r))
    next_rec = 0

    def snapshot() -> np.ndarray:
        out = np.sort(w[alive])[::-1]
        head = np.zeros(top_r)
        head[: min(top_r, len(out))] = out[:top_r]
        return head

    def pick(cum: np.ndarray, skip: int = -1) -> int:
        x = rng.uniform(0.0, cum[-1])
        k = int(np.searchsorted(cum, x, side="right"))
        while k >= len(alive) or not alive[k] or k == skip:
            k = k + 1 if k < len(alive) - 1 else int(np.argmax(alive))
        return k

    while True:
        count = int(np.count_nonzero(w[alive] > 0.0))
        merge_rate = max((w1 * w1 - w2) / 2.0, 0.0) if count > 1 else 0.0
        delete_rate = lam * w1 if count else 0.0
        total = merge_rate + delete_rate
        if total <= 0.0:
            break
        now += rng.exponential(1.0 / total)
        while next_rec < len(t_list) and t_list[next_rec] < now:
            rows[next_rec] = snapshot()
            next_rec += 1
        if now > t_list[-1]:
            break
        cum = np.cumsum(np.where(alive, w, 0.0))
        if rng.uniform() * total < merge_rate:
            if w2 <= 0.5 * w1 * w1:
                while True:
                    a, b = pick(cum), pick(cum)
                    if a != b:
                        break
            else:
                # one component holds most weight: the exact pair draw
                a = pick(np.cumsum(np.where(alive, w * (cum[-1] - w), 0.0)))
                others = alive & (np.arange(len(w)) != a)
                b = pick(np.cumsum(np.where(others, w, 0.0)), skip=a)
            w2 += 2.0 * w[a] * w[b]
            w[a] += w[b]
            alive[b] = False
            w[b] = 0.0
        else:
            a = pick(cum)
            w1 -= w[a]
            w2 -= w[a] * w[a]
            alive[a] = False
            w[a] = 0.0
    while next_rec < len(t_list):
        rows[next_rec] = snapshot()
        next_rec += 1
    return rows


def vertex_run_fp(
    initial_labels: np.ndarray,
    lightning_rate: float,
    raw_times: Sequence[float],
    rng: np.random.Generator,
) -> FPTrajectory:
    """Oracle for ``run_fp``: the same draws, with the union-find over the
    vertices (each component rooted at its first vertex), a set of the live
    roots, and the channel drawn by ``rng.uniform()``."""
    labels = np.asarray(initial_labels)
    n = len(labels)
    raw_times = time_list(raw_times, "recording times")
    lam = rate(lightning_rate, "lightning rate")

    _, roots, inverse, counts = np.unique(
        labels, return_index=True, return_inverse=True, return_counts=True
    )
    sizes = [0] * n
    for r, s in zip(roots.tolist(), counts.tolist()):
        sizes[r] = s
    forest = _UnionFind(sizes)
    forest.parent = roots[inverse].tolist()
    find, parent = forest.find, forest.parent
    burnt = [False] * n
    live_roots = set(roots.tolist())
    alive = n

    def draw_alive() -> int:
        while True:
            v = int(rng.integers(0, n))
            if not burnt[find(v)]:
                return v

    def snapshot() -> np.ndarray:
        out = np.fromiter((sizes[r] for r in live_roots), dtype=np.int64)
        out[::-1].sort()
        return out

    records: list[np.ndarray] = []
    events: list[tuple[float, str, int]] = []
    now = 0.0
    next_rec = 0

    def record_until(limit: float) -> None:
        nonlocal next_rec
        while next_rec < len(raw_times) and raw_times[next_rec] < limit:
            records.append(snapshot())
            next_rec += 1

    horizon = raw_times[-1]
    while lam > 0.0 or len(live_roots) > 1:
        edge_rate = alive * (alive - 1) / (2.0 * n)
        strike_rate = lam * alive
        total = edge_rate + strike_rate
        if total <= 0.0:
            break
        now += rng.exponential(1.0 / total)
        if now > horizon:
            break
        record_until(now)
        if rng.uniform() * total < edge_rate:
            v1 = draw_alive()
            v2 = draw_alive()
            while v2 == v1:
                v2 = draw_alive()
            ra, rb = find(v1), find(v2)
            if ra == rb:
                continue
            absorbed = forest.link(ra, rb)
            live_roots.discard(absorbed)
            events.append((now, "merge", sizes[parent[absorbed]]))
        else:
            root = find(draw_alive())
            burnt[root] = True
            live_roots.discard(root)
            alive -= sizes[root]
            events.append((now, "delete", sizes[root]))
    record_until(math.inf)
    return FPTrajectory(sizes=tuple(records), events=tuple(events))


def numbered_reference_replica_rows(
    n_ref: int, lam: float, u: float, t_list, top_r: int, seed: int, r: int, delta: float
) -> tuple[np.ndarray, int]:
    """Oracle for ``reference_replica_rows``: the same draws, with the least
    labels of ``sample_critical_er`` numbered 0, 1, ... by ``np.unique`` and
    the sizes counted over those numbers."""
    rng = np.random.default_rng([seed, 1, r])
    _, numbered = np.unique(sample_critical_er(n_ref, u, rng), return_inverse=True)
    sizes = np.bincount(numbered)
    sizes[::-1].sort()
    masses = sizes.astype(np.float64) * n_ref ** (-2.0 / 3.0)
    level = truncation.tail_truncation_index(masses, delta)
    return _aggregate_mcld_top(masses[:level], lam, t_list, rng, top_r), level


def components_from_edges(
    n: int, edge_i: np.ndarray, edge_j: np.ndarray, members: np.ndarray | None = None
) -> tuple[tuple[int, ...], ...]:
    """Components of the subgraph spanned by the label mask ``members``
    (default: every label 1..n), enumerated by least label, by a union-find
    pass over the edges; an edge with an end outside ``members`` is
    dropped."""
    if members is not None:
        keep = members[edge_i] & members[edge_j]
        edge_i, edge_j = edge_i[keep], edge_j[keep]
    uf = _UnionFind([1] * (n + 1))
    for a, b in zip(edge_i.tolist(), edge_j.tolist()):
        ra, rb = uf.find(a), uf.find(b)
        if ra != rb:
            uf.link(ra, rb)
    groups: dict[int, list[int]] = {}
    labels = range(1, n + 1) if members is None else np.flatnonzero(members).tolist()
    for v in labels:
        groups.setdefault(uf.find(v), []).append(v)
    comps = [tuple(sorted(g)) for g in groups.values()]
    comps.sort(key=lambda c: c[0])
    return tuple(comps)


def component_weights(masses, comps) -> list[float]:
    """Exactly rounded total mass of each component of 1-based labels."""
    return [math.fsum(masses[v - 1] for v in c) for c in comps]


def component_s2(masses, comps) -> float:
    """Sum of squared component weights."""
    return math.fsum(w * w for w in component_weights(masses, comps))


def loop_dist(a: OrderedMassVector, b: OrderedMassVector) -> float:
    """l2 distance between two states by a Python loop over the padded
    entries, one subtraction and one square each, summed by ``fsum``."""
    la, lb = len(a), len(b)
    diffs = []
    for k in range(max(la, lb)):
        x = a.masses[k] if k < la else 0.0
        y = b.masses[k] if k < lb else 0.0
        d = x - y
        diffs.append(d * d)
    return math.sqrt(math.fsum(diffs))


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


def brute_strike_replay(n: int, edges, strikes) -> np.ndarray:
    """Oracle for ``_intact_after_strikes``: each ``(time, vertex)`` strike,
    in the order given, burns the component of the struck vertex among the
    edges ``(i, j, time)`` up to the strike time between intact vertices,
    found afresh by ``brute_components``."""
    intact = set(range(1, n + 1))
    for ts, v in strikes:
        if v not in intact:
            continue
        live = [(a, b) for a, b, te in edges if te <= ts and {a, b} <= intact]
        intact -= next(c for c in brute_components(sorted(intact), live) if v in c)
    mask = np.zeros(n + 1, dtype=bool)
    mask[sorted(intact)] = True
    return mask


def all_survivors_state(real) -> OrderedMassVector:
    """Oracle for ``GraphRealization.state``: every intact label, isolated
    ones included, grouped through the edge tables, each group's mass summed
    exactly, then ordered."""
    groups = components_from_edges(real.n, real.edge_i, real.edge_j, members=real.intact)
    return ordered(component_weights(real.masses, groups))


def coupled_distance(initial_a, initial_b, lam: float, t: float, seed: int) -> float:
    """Distance at time t between two runs sharing one clock field, each
    realized on its own."""
    field = ClockField(seed)
    state_a = realize(initial_a, field, lam, t).state
    state_b = realize(initial_b, field, lam, t).state
    return dist(state_a, state_b)


def recorded_state(traj, t: float) -> OrderedMassVector:
    """The state a trajectory recorded at time ``t``, which must be one of
    its recording times (a ValueError otherwise)."""
    return traj.states[traj.times.index(t)]


def make_clocks_unreadable(monkeypatch) -> None:
    """Make every read of a clock field fail, so that a test can show that a
    run refused its input before it read any clock."""

    def unreadable(*args, **kwargs):
        raise AssertionError("a clock was read")

    for name in ("child", "_pair_hash", "_pair_hits", "_vertex_hash"):
        monkeypatch.setattr(ClockField, name, unreadable)


def fail_sandwich_at(monkeypatch, level: int) -> None:
    """Make the sandwich construction raise InvariantViolation at one level."""
    real = truncation.sandwich_graphs

    def failing(sr, bad):
        if sr.level == level:
            raise InvariantViolation(f"injected failure at level {level}")
        return real(sr, bad)

    monkeypatch.setattr(truncation, "sandwich_graphs", failing)


def ordered_weights(masses: dict[int, float], comps) -> tuple[float, ...]:
    weights = sorted((sum(masses[v] for v in c) for c in comps), reverse=True)
    return tuple(w for w in weights if w > 0)


@st.composite
def hostile_masses(draw, max_support=25):
    """Non-increasing masses with ties and zero tails: a few magnitudes from
    1e-150 to 1e150 (some near 1, where clocks ring inside unit horizons),
    each repeated, then up to four zeros."""
    exponent = st.one_of(st.floats(-1.0, 1.0), st.floats(-150.0, 150.0))
    pool = draw(st.lists(exponent, min_size=1, max_size=5))
    logs = draw(st.lists(st.sampled_from(pool), max_size=max_support))
    zeros = draw(st.integers(0, 4))
    return sorted((10.0 ** x for x in logs), reverse=True) + [0.0] * zeros


# deletion rates and horizons for the hostile-mass property tests; every
# product t * m_1 * m_1 and lam * m_1 stays finite for masses up to 1e150
HOSTILE_LAMBDAS = st.sampled_from([0.0, 0.5, 2.0])
HOSTILE_HORIZONS = st.sampled_from([1e-300, 0.3, 1.0, 5.0])


def _oracle_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    x = float(x)
    if not math.isfinite(x):
        raise InvalidInput("non-finite numbers cannot be serialized")
    return "%.17g" % x


def _oracle_encode(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (bool, int, float)):
        out.append(_oracle_number(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, value) in enumerate(obj.items()):
            if k:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _oracle_encode(value, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, value in enumerate(obj):
            if k:
                out.append(", ")
            _oracle_encode(value, out)
        out.append("]")
    else:
        raise InvalidInput(f"cannot serialize object of type {type(obj).__name__}")


def oracle_dumps(obj) -> str:
    """Oracle for ``serialize.dumps``: one ``isinstance`` chain, every float
    through its own ``%.17g`` and every string through ``json.dumps``."""
    out: list[str] = []
    _oracle_encode(obj, out)
    return "".join(out)


def oracle_csv_text(header, rows) -> str:
    """Oracle for the text ``serialize.write_csv`` writes."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(c if isinstance(c, str) else _oracle_number(c) for c in row))
    return "\n".join(lines) + "\n"
