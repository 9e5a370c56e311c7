"""Finite-n frozen percolation and its rescaling toward the coalescent.

The discrete model: n vertices, an edge between each pair of alive vertices
arrives at rate 1/n, and every vertex is struck at rate lambda(n), deleting
its whole component.  Arrivals inside a component never change the
component process, so the simulator tracks components only and treats
intra-component arrivals as rate-preserving no-ops; that keeps the event
loop at O(n^(2/3)) events in the critical window instead of O(n^2) clocks.

Component sizes scaled by n^(-2/3) at times scaled by n^(-1/3) are
comparable, rank by rank, to the coalescent-with-deletion run from scaled
critical component masses; the comparison report of :func:`fp_mcld_compare`
carries two-sample KS statistics per time and rank.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .clock_field import pair_count, pair_index_decode
from .errors import InvalidInput
from .events import _SAME, _UnionFind
from .feller import ks_two_sample
from .mass_state import time_list
from .serialize import format_number
from .truncation import feller_budget, tail_truncation_index

__all__ = [
    "FPTrajectory",
    "gnp_component_labels",
    "sample_critical_er",
    "run_fp",
    "FPCompareReport",
    "fp_mcld_compare",
]

# accuracy and head bound of the reference's tail budget (see feller_budget)
BUDGET_EPS, BUDGET_M = 1.2, 2.0


def gnp_component_labels(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Component labels of one G(n, p) draw; sparse generation, O(edges).

    The edge count is binomial over all pairs; the edge set is then a
    uniform subset of that size, collected as the first distinct draws of a
    with-replacement stream (which is exactly uniform over subsets).  The
    stream comes in batches.  A sort finds the values repeated within a
    batch (almost never any), so only their positions need a stable
    first-occurrence pass; a sorted copy of the values kept so far drops
    the draws of earlier batches.
    """
    if not (0.0 <= p <= 1.0):
        raise InvalidInput(f"edge probability {p} outside [0, 1]")
    if n == 1 or p == 0.0:
        return np.arange(n, dtype=np.int64)
    total = pair_count(n)
    k = int(rng.binomial(total, p))
    chosen = np.empty(k, dtype=np.int64)
    filled = 0
    # kept values, sorted, closed by ``total``, which no draw takes
    seen = np.array([total], dtype=np.int64)
    while filled < k:
        batch = rng.integers(0, total, size=(k - filled) + 16)
        s = np.sort(batch)
        repeated = s[1:][s[1:] == s[:-1]]
        keep = seen[np.searchsorted(seen, batch)] != batch
        at = np.flatnonzero(np.isin(batch, repeated))
        _, first = np.unique(batch[at], return_index=True)
        keep[np.delete(at, first)] = False
        new = batch[keep][: k - filled]
        chosen[filled : filled + len(new)] = new
        filled += len(new)
        if len(new) and filled < k:  # the next batch must not take these again
            new.sort()
            seen = np.insert(seen, np.searchsorted(seen, new), new)
    i, j = pair_index_decode(chosen, n)
    graph = coo_matrix((np.ones(k), (i - 1, j - 1)), shape=(n, n))
    _, labels = connected_components(graph, directed=False)
    return labels.astype(np.int64)


def sample_critical_er(n: int, u: float, rng: np.random.Generator) -> np.ndarray:
    """Initial component partition: edge probability (1 + u*n^(-1/3))/n."""
    if n < 1:
        raise InvalidInput("n must be at least 1")
    p = (1.0 + u * n ** (-1.0 / 3.0)) / n
    if p > 1.0:
        raise InvalidInput(f"edge probability {p} exceeds 1")
    return gnp_component_labels(n, max(p, 0.0), rng)


@dataclass(frozen=True)
class FPTrajectory:
    sizes: tuple[np.ndarray, ...]  # alive component sizes, descending
    events: tuple[tuple[float, str, int], ...]  # (raw time, kind, size)


def run_fp(
    initial_labels: np.ndarray,
    lightning_rate: float,
    raw_times: Sequence[float],
    rng: np.random.Generator,
) -> FPTrajectory:
    """Event-driven run from the partition ``initial_labels`` of its
    ``len(initial_labels)`` vertices, each struck at ``lightning_rate`` per
    unit raw time; it ends at the last of ``raw_times`` and records the alive
    component sizes at each.

    ``raw_times`` must be a :func:`~mcld.mass_state.time_list` and the rate
    finite and nonnegative; both are checked before any draw.  Randomness
    draw order per event (fixed so that reference simulators can replay the
    stream): holding time, channel uniform, then vertex draws, each vertex
    draw rejecting burnt vertices.
    """
    labels = np.asarray(initial_labels)
    n = len(labels)
    raw_times = time_list(raw_times, "recording times")
    lam = float(lightning_rate)
    if not 0.0 <= lam < math.inf:
        raise InvalidInput("lightning rate must be finite and nonnegative")

    # each component's first vertex is its root and holds its size
    _, roots, inverse, counts = np.unique(
        labels, return_index=True, return_inverse=True, return_counts=True
    )
    sizes = [0] * n
    for r, s in zip(roots.tolist(), counts.tolist()):
        sizes[r] = s
    forest = _UnionFind(sizes, parent=roots[inverse].tolist())
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
    # with no lightning and one component left, every arrival is a no-op
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
            absorbed = forest.union(v1, v2)
            if absorbed == _SAME:
                continue  # intra-component arrival: no-op for components
            live_roots.discard(absorbed)
            events.append((now, "merge", sizes[parent[absorbed]]))
        else:
            v = draw_alive()
            root = find(v)
            burnt[root] = True
            live_roots.discard(root)
            alive -= sizes[root]
            events.append((now, "delete", sizes[root]))
    record_until(math.inf)

    return FPTrajectory(sizes=tuple(records), events=tuple(events))


@dataclass(frozen=True)
class FPCompareReport:
    n_list: tuple[int, ...]
    t_list: tuple[float, ...]
    lam_rescaled: float
    u: float
    replicas: int
    top_r: int
    n_ref: int
    ref_level: int
    samples: dict[int, np.ndarray]  # replicas x times x top_r scaled masses
    # KS statistics indexed [time][rank]
    ks_vs_reference: dict[int, tuple[tuple[float, ...], ...]]
    ks_between: dict[tuple[int, int], tuple[tuple[float, ...], ...]]

    def to_json_dict(self) -> dict:
        def by_time(table) -> dict:
            return {format_number(t): list(row) for t, row in zip(self.t_list, table)}

        return {
            "n_list": list(self.n_list),
            "t_list": list(self.t_list),
            "lambda_rescaled": self.lam_rescaled,
            "u": self.u,
            "replicas": self.replicas,
            "top_r": self.top_r,
            "n_ref": self.n_ref,
            "ref_truncation_level": self.ref_level,
            "ks_vs_reference": {
                str(n): by_time(v) for n, v in self.ks_vs_reference.items()
            },
            "ks_between": {
                f"{a}:{b}": by_time(v) for (a, b), v in self.ks_between.items()
            },
        }


def fp_replica_rows(
    n: int, lam_rescaled: float, u: float, t_list, top_r: int, seed: int, r: int
) -> np.ndarray:
    """One frozen percolation replica: scaled top-r masses, one row per
    requested rescaled time."""
    rng = np.random.default_rng([seed, n, r])
    labels = sample_critical_er(n, u, rng)
    raw_times = [n ** (-1.0 / 3.0) * t for t in t_list]
    raw = run_fp(labels, lam_rescaled * n ** (-1.0 / 3.0), raw_times, rng)
    out = np.zeros((len(t_list), top_r))
    for k, sizes in enumerate(raw.sizes):
        out[k, : min(len(sizes), top_r)] = sizes[:top_r] * n ** (-2.0 / 3.0)
    return out


def _aggregate_mcld_top(
    weights: np.ndarray, lam: float, t_list, rng: np.random.Generator, top_r: int
) -> np.ndarray:
    """The package's only aggregated-rate coalescent-with-deletion sampler,
    O(support - lowest changed index) per event.

    Law-identical to the clocked engines (merge rate = product of weights,
    deletion rate = lam times weight) but needs no pair clocks, so it stays
    cheap for the dust-heavy reference states whose support makes the
    all-pairs construction quadratic.  Merge pairs restart both draws on a
    collision, keeping the pair law proportional to the weight product.
    Returns the top weights at each requested time, one row per time.

    Dead entries hold exactly 0.0, so the prefix sums of ``w`` are those of
    the alive weights.  They are kept across events and redone from the
    lowest index an event wrote, continuing from the sum before it: the same
    additions in the same order as a full ``cumsum``.

    Below two alive components of positive weight the merge rate is 0, and
    with none the deletion rate is 0: the rounding residues of
    ``w1 * w1 - w2`` and of ``w1`` must not draw an event that has no pair,
    or no component, to pick.
    """
    t_list = [float(t) for t in t_list]
    w = weights.astype(np.float64).copy()
    alive = np.ones(len(w), dtype=bool)
    w1 = float(w.sum())
    w2 = float(np.sum(w * w))
    now = 0.0
    rows = np.zeros((len(t_list), top_r))
    next_rec = 0
    # prefix[0] is -0.0, which adds nothing: -0.0 + x is x for every x
    prefix = np.full(len(w) + 1, -0.0)
    cum = prefix[1:]
    low = 0  # lowest index of w written since cum was last redone
    count = int(np.count_nonzero(w))  # alive components of positive weight

    def snapshot() -> np.ndarray:
        out = np.sort(w[alive])[::-1]
        head = np.zeros(top_r)
        head[: min(top_r, len(out))] = out[:top_r]
        return head

    def pick() -> int:
        x = rng.uniform(0.0, cum[-1])
        k = int(np.searchsorted(cum, x, side="right"))
        while k >= len(alive) or not alive[k]:
            k = k + 1 if k < len(alive) - 1 else int(np.argmax(alive))
        return k

    while True:
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
        tail = w[low:].copy()
        tail[0] += prefix[low]
        np.cumsum(tail, out=cum[low:])
        if rng.uniform() * total < merge_rate:
            while True:
                a, b = pick(), pick()
                if a != b:
                    break
            count -= int(w[a] > 0.0 and w[b] > 0.0)
            w2 += 2.0 * w[a] * w[b]
            w[a] += w[b]
            alive[b] = False
            w[b] = 0.0
            low = min(a, b)
        else:
            a = pick()
            count -= int(w[a] > 0.0)
            w1 -= w[a]
            w2 -= w[a] * w[a]
            alive[a] = False
            w[a] = 0.0
            low = a
    while next_rec < len(t_list):
        rows[next_rec] = snapshot()
        next_rec += 1
    return rows


def reference_replica_rows(
    n_ref: int,
    lam: float,
    u: float,
    t_list,
    top_r: int,
    seed: int,
    r: int,
    delta: float,
) -> tuple[np.ndarray, int]:
    """One reference replica: scaled critical components, truncated at tail
    squared-norm budget ``delta``, coalescent-with-deletion evolution over
    the time list."""
    scale = n_ref ** (-2.0 / 3.0)
    rng = np.random.default_rng([seed, 1, r])
    labels = sample_critical_er(n_ref, u, rng)
    sizes = np.bincount(labels)
    sizes[::-1].sort()
    masses = sizes.astype(np.float64) * scale
    level = tail_truncation_index(masses, delta)
    return _aggregate_mcld_top(masses[:level], lam, t_list, rng, top_r), level


def _run_task(task):
    replica_rows, args = task
    return replica_rows(*args)


def _ks_table(a: np.ndarray, b: np.ndarray) -> tuple[tuple[float, ...], ...]:
    """KS statistic per (time, rank) between two replicas x times x ranks
    sample arrays."""
    return tuple(
        tuple(ks_two_sample(a[:, k, rank], b[:, k, rank]) for rank in range(a.shape[2]))
        for k in range(a.shape[1])
    )


def fp_mcld_compare(
    n_list: Sequence[int],
    lam_rescaled: float,
    u: float,
    t_list: Sequence[float],
    replicas: int,
    top_r: int,
    seed: int = 0,
    n_ref: int | None = None,
    workers: int = 1,
) -> FPCompareReport:
    """Rank-wise two-sample KS tables at every requested rescaled time: each
    n against the next and against the coalescent reference.

    ``t_list`` must be a :func:`~mcld.mass_state.time_list`.  The arguments,
    and the reference's tail budget at the last time, are checked before any
    replica runs; only the edge probability that ``u`` gives each size is
    left to :func:`sample_critical_er`, each replica's first step.  The
    reference is truncated at the budget
    ``feller_budget(BUDGET_EPS, BUDGET_M, t_list[-1], lam_rescaled)``, or
    not at all when ``t_list`` is ``[0.0]``.

    Replicas run serially, or in ``workers`` processes; every replica draws
    from its own keyed stream, so the report does not depend on ``workers``.
    """
    n_list = tuple(int(n) for n in n_list)
    t_list = time_list(t_list, "t_list")
    lam_rescaled, u = float(lam_rescaled), float(u)
    if not 0.0 <= lam_rescaled < math.inf or not math.isfinite(u):
        raise InvalidInput("lam_rescaled must be finite and nonnegative, u finite")
    if not n_list or min(n_list) < 1:
        raise InvalidInput("n_list must be nonempty with every size at least 1")
    if n_ref is None:
        n_ref = 4 * max(n_list)
    for name, value, least in (
        ("replicas", replicas, 1), ("top_r", top_r, 1), ("n_ref", n_ref, 1),
        ("workers", workers, 1), ("seed", seed, 0),
    ):
        if value < least:
            raise InvalidInput(f"{name} must be at least {least}")
    for n in (*n_list, n_ref):
        if pair_count(n) >= 2 ** 53:
            raise InvalidInput(
                f"size {n} is too large: its pair count n(n-1)/2 must stay below 2**53"
            )
    # no dynamics at t = 0: a zero budget keeps the reference's full support
    delta = (
        feller_budget(BUDGET_EPS, BUDGET_M, t_list[-1], lam_rescaled)
        if t_list[-1] > 0.0
        else 0.0
    )
    tasks = [
        (fp_replica_rows, (n, lam_rescaled, u, t_list, top_r, seed, r))
        for n in n_list
        for r in range(replicas)
    ]
    tasks += [
        (reference_replica_rows,
         (n_ref, lam_rescaled, u, t_list, top_r, seed, r, delta))
        for r in range(replicas)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_task, tasks, chunksize=8))
    else:
        outcomes = [_run_task(task) for task in tasks]
    split = len(n_list) * replicas
    fp_rows, ref_outcomes = outcomes[:split], outcomes[split:]
    samples = {
        n: np.stack(fp_rows[k * replicas : (k + 1) * replicas])
        for k, n in enumerate(n_list)
    }
    reference = np.stack([rows for rows, _ in ref_outcomes])
    return FPCompareReport(
        n_list=n_list,
        t_list=t_list,
        lam_rescaled=lam_rescaled,
        u=u,
        replicas=replicas,
        top_r=top_r,
        n_ref=n_ref,
        ref_level=max(level for _, level in ref_outcomes),
        samples=samples,
        ks_vs_reference={n: _ks_table(samples[n], reference) for n in n_list},
        ks_between={
            (a, b): _ks_table(samples[a], samples[b])
            for a, b in zip(n_list, n_list[1:])
        },
    )
