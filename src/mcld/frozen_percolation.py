"""Finite-n frozen percolation and its rescaling toward the coalescent.

The discrete model: n vertices, an edge between each pair of alive vertices
arrives at rate 1/n, and every vertex is struck at rate lambda(n), deleting
its whole component.  Arrivals inside a component never change the
component process, so the simulator tracks components only and treats
intra-component arrivals as rate-preserving no-ops; that keeps the event
loop at O(n^(2/3)) events in the critical window instead of O(n^2) clocks.

A partition of the vertices 0..n-1 has one form here, least labels: each
vertex is labelled by the least vertex of its component.
:func:`sample_critical_er` returns it, :func:`run_fp` takes it, and the
reference counts its component sizes from it with ``np.bincount``.

Component sizes scaled by n^(-2/3) at times scaled by n^(-1/3) are
comparable, rank by rank, to the coalescent-with-deletion run from scaled
critical component masses; the comparison report of :func:`fp_mcld_compare`
carries two-sample KS statistics per time and rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .clock_field import pair_count, pair_index_decode
from .errors import InvalidInput
from .events import _UnionFind
from .feller import ks_two_sample
from .graphical import _least_labels
from .mass_state import _real, count, rate, time_list
from .serialize import format_number
from .truncation import feller_budget, tail_truncation_index

__all__ = [
    "FPTrajectory",
    "sample_critical_er",
    "run_fp",
    "FPCompareReport",
    "fp_mcld_compare",
]

# accuracy and head bound of the reference's tail budget (see feller_budget)
BUDGET_EPS, BUDGET_M = 1.2, 2.0


def _gnp_least_labels(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Each vertex's least component-mate (0-based) in one G(n, p) draw;
    sparse generation, O(edges).

    The edge count is binomial over all pairs; the edge set is then a
    uniform subset of that size, collected as the first distinct draws of a
    with-replacement stream (which is exactly uniform over subsets).  The
    stream comes in batches.  A sort finds the values repeated within a
    batch (almost never any), so only their positions need a stable
    first-occurrence pass; a sorted copy of the values kept so far drops
    the draws of earlier batches.  Components are grouped by
    ``graphical._least_labels``.
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
    return _least_labels(n - 1, i - 1, j - 1)


def sample_critical_er(n: int, u: float, rng: np.random.Generator) -> np.ndarray:
    """Least labels of one G(n, p) draw in the critical window (see
    ``_gnp_least_labels``): edge probability p = (1 + u*n^(-1/3))/n,
    floored at 0; refused above 1.  ``n`` is a :func:`count` and ``u`` a
    finite real, both checked before any draw."""
    if count(n, "n", -math.inf) < 1:
        raise InvalidInput("n must be at least 1")
    p = (1.0 + _real(u, "u") * n ** (-1.0 / 3.0)) / n
    if p > 1.0:
        raise InvalidInput(f"edge probability {p} exceeds 1")
    return _gnp_least_labels(n, max(p, 0.0), rng)


@dataclass(frozen=True, eq=False)
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

    ``initial_labels`` must be least labels, an integer array with ``0 <=
    labels[v] <= v`` and ``labels[labels] == labels``; ``raw_times`` must be
    a :func:`~mcld.mass_state.time_list` and the rate finite and
    nonnegative.  All three are checked before any draw.  Randomness
    draw order per event (fixed so that reference simulators can replay the
    stream): holding time (``exponential``), channel (``random()``), then
    vertex draws (``integers``), each vertex draw rejecting burnt vertices;
    a merge redraws its second vertex while it equals the first.

    The union-find runs over the initial components, not the vertices: a
    vertex draw finds the root of its component's index, and a recording
    takes the positive entries of an array that holds each live
    component's size at its root.
    """
    labels = np.asarray(initial_labels)
    n = labels.size
    if (labels.ndim != 1 or labels.dtype.kind not in "iu"
            or not np.all((labels >= 0) & (labels <= np.arange(n)))
            or np.any(labels[labels] != labels)):
        raise InvalidInput(
            "initial labels must be least labels: a 1-D integer array with "
            "0 <= labels[v] <= v and labels[labels] == labels"
        )
    raw_times = time_list(raw_times, "recording times")
    lam = rate(lightning_rate, "lightning rate")

    # the initial components, numbered in label order, are the forest's labels
    numbered = (np.cumsum(labels == np.arange(n)) - 1)[labels]
    held = np.bincount(numbered)  # live components' sizes at their roots, 0 elsewhere
    comp, sizes = numbered.item, held.tolist()  # comp(v): v's component
    forest = _UnionFind(sizes)
    find, link, parent = forest.find, forest.link, forest.parent
    burnt = [False] * len(sizes)
    live = len(sizes)  # components neither absorbed nor burnt
    alive = n
    integers, random, exponential = rng.integers, rng.random, rng.exponential

    def draw_alive() -> tuple[int, int]:
        """A uniform vertex, redrawn while its component is burnt, and the
        root of that component."""
        while True:
            v = int(integers(0, n))
            root = find(comp(v))
            if not burnt[root]:
                return v, root

    def snapshot() -> np.ndarray:
        out = held[held > 0]
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
    while lam > 0.0 or live > 1:
        # below two alive vertices no pair is left, and n may be 0
        edge_rate = alive * (alive - 1) / (2.0 * n) if alive > 1 else 0.0
        strike_rate = lam * alive
        total = edge_rate + strike_rate
        if total <= 0.0:
            break
        now += exponential(1.0 / total)
        if now > horizon:
            break
        record_until(now)
        if random() * total < edge_rate:
            v1, r1 = draw_alive()
            v2, r2 = draw_alive()
            while v2 == v1:
                v2, r2 = draw_alive()
            if r1 == r2:
                continue  # intra-component arrival: no-op for components
            absorbed = link(r1, r2)
            root = parent[absorbed]
            held[root], held[absorbed] = sizes[root], 0
            live -= 1
            events.append((now, "merge", sizes[root]))
        else:
            _, root = draw_alive()
            burnt[root] = True
            held[root] = 0
            live -= 1
            alive -= sizes[root]
            events.append((now, "delete", sizes[root]))
    record_until(math.inf)

    return FPTrajectory(sizes=tuple(records), events=tuple(events))


@dataclass(frozen=True, eq=False)
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


def _refresh_prefix(w: np.ndarray, prefix: np.ndarray, low: int, high: int) -> None:
    """Bring ``prefix[1:]``, the prefix sums of ``w`` before writes to its
    indices ``low`` to ``high`` only, to ``np.cumsum(w)`` bit for bit;
    ``prefix[0]`` is -0.0.

    ``[low, high]`` is redone with one ``cumsum`` that carries the sum
    before it, then the entries past ``high`` in blocks of 256, doubling,
    until a stretch, the first included, ends on its old value.  Past
    ``high`` each sum is the sum before it plus an unchanged weight, so once
    the new chain equals the old one at or past ``high``, every later sum is
    the same bits.  No sum is -0.0, so ``==`` is the test.
    """
    cum = prefix[1:]
    start, stop, block = low, high + 1, 256
    while True:
        # w[start] carries the sum before it through one cumsum, then is restored
        old = cum[stop - 1]
        head = w[start]
        w[start] = head + prefix[start]
        np.cumsum(w[start:stop], out=cum[start:stop])
        w[start] = head
        if stop == len(w) or cum[stop - 1] == old:
            return
        start, stop, block = stop, min(stop + block, len(w)), 2 * block


def _aggregate_mcld_top(
    weights: np.ndarray, lam: float, t_list, rng: np.random.Generator, top_r: int
) -> np.ndarray:
    """The package's only aggregated-rate coalescent-with-deletion sampler,
    O(entries whose prefix sum changed) per event.

    Law-identical to the clocked engines (merge rate = product of weights,
    deletion rate = lam times weight) but needs no pair clocks, so it stays
    cheap for the dust-heavy reference states whose support makes the
    all-pairs construction quadratic.  The merge pair law is proportional to
    the weight product.  While the collision chance sum(w^2) / W^2 is at most
    1/2, both draws restart on a collision; above it, a is drawn by weight
    w_a (W - w_a) and then b != a by weight w_b, so that a merge never spins.
    Returns the top weights at each requested time, one row per time.

    Dead entries hold exactly 0.0, so the prefix sums of ``w`` are those of
    the alive weights.  They are kept across events, and each event redoes
    only those that changed, through :func:`_refresh_prefix`: the entries it
    wrote, from its lowest to its highest (a merge its two indices, a
    deletion from its index to the end), and past them up to where the new
    chain of sums meets the old one.  The sums are those of a full
    ``cumsum``, bit for bit.

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
    # lowest and highest index of w written since cum was last refreshed
    low, high = 0, len(w) - 1
    count = int(np.count_nonzero(w))  # alive components of positive weight
    # c * random() is uniform(0.0, c) bit for bit: numpy's uniform(low, high)
    # draws low + (high - low) * random()
    exponential, random = rng.exponential, rng.random

    def snapshot() -> np.ndarray:
        out = np.sort(w[alive])[::-1]
        head = np.zeros(top_r)
        head[: min(top_r, len(out))] = out[:top_r]
        return head

    def pick(c: np.ndarray, skip: int = -1) -> int:
        k = int(np.searchsorted(c, c[-1] * random(), side="right"))
        while k >= len(alive) or not alive[k] or k == skip:
            k = k + 1 if k < len(alive) - 1 else int(np.argmax(alive))
        return k

    while True:
        merge_rate = max((w1 * w1 - w2) / 2.0, 0.0) if count > 1 else 0.0
        delete_rate = lam * w1 if count else 0.0
        total = merge_rate + delete_rate
        if total <= 0.0:
            break
        now += exponential(1.0 / total)
        while next_rec < len(t_list) and t_list[next_rec] < now:
            rows[next_rec] = snapshot()
            next_rec += 1
        if now > t_list[-1]:
            break
        _refresh_prefix(w, prefix, low, high)
        if random() * total < merge_rate:
            if w2 <= 0.5 * w1 * w1:
                while True:
                    a, b = pick(cum), pick(cum)
                    if a != b:
                        break
            else:
                a = pick(np.cumsum(w * (cum[-1] - w)))
                rest = w.copy()
                rest[a] = 0.0
                b = pick(np.cumsum(rest), skip=a)
            wa, wb = w.item(a), w.item(b)
            count -= int(wa > 0.0 and wb > 0.0)
            w2 += 2.0 * wa * wb
            w[a] = wa + wb
            alive[b] = False
            w[b] = 0.0
            low, high = min(a, b), max(a, b)
        else:
            a = pick(cum)
            wa = w.item(a)
            count -= int(wa > 0.0)
            w1 -= wa
            w2 -= wa * wa
            alive[a] = False
            w[a] = 0.0
            low, high = a, len(w) - 1
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
    rng = np.random.default_rng([seed, 1, r])
    # each size is counted at its component's least vertex; the zero counts of
    # the other vertices are dropped before the sort (no level counts a zero)
    sizes = np.bincount(sample_critical_er(n_ref, u, rng))
    sizes = sizes[sizes > 0]
    sizes[::-1].sort()
    masses = sizes.astype(np.float64) * n_ref ** (-2.0 / 3.0)
    level = tail_truncation_index(masses, delta)
    return _aggregate_mcld_top(masses[:level], lam, t_list, rng, top_r), level


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

    ``t_list`` must be a :func:`~mcld.mass_state.time_list`, and every size
    at least 2: an fp replica of size 1 would draw the reference's stream
    ``[seed, 1, r]``.  The arguments, and the reference's tail budget at the
    last time, are checked before any replica runs; only the edge
    probability that ``u`` gives each size is left to
    :func:`sample_critical_er`, each replica's first step.  The
    reference is truncated at the budget
    ``feller_budget(BUDGET_EPS, BUDGET_M, t_list[-1], lam_rescaled)``, or
    not at all when ``t_list`` is ``[0.0]``.

    Each kind of replica is mapped over ``range(replicas)``, serially or on
    a pool of ``workers`` processes; every replica draws from its own keyed
    stream, so the report does not depend on ``workers``.
    """
    n_list = tuple(count(n, "size", 2) for n in n_list)
    t_list = time_list(t_list, "t_list")
    lam_rescaled, u = rate(lam_rescaled, "lam_rescaled"), _real(u, "u")
    if not n_list:
        raise InvalidInput("n_list must be nonempty")
    replicas, top_r = count(replicas, "replica"), count(top_r, "rank")
    n_ref = count(4 * max(n_list) if n_ref is None else n_ref, "reference vertex")
    workers, seed = count(workers, "worker"), count(seed, "seed", 0)
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
    kinds = [partial(fp_replica_rows, n, lam_rescaled, u, t_list, top_r, seed)
             for n in n_list]
    kinds.append(partial(reference_replica_rows, n_ref, lam_rescaled, u, t_list, top_r,
                         seed, delta=delta))
    if workers > 1:
        # imported here so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # every map is submitted before any result is read
            maps = [pool.map(kind, range(replicas), chunksize=8) for kind in kinds]
            *fp_rows, ref_outcomes = [list(m) for m in maps]
    else:
        *fp_rows, ref_outcomes = [list(map(kind, range(replicas))) for kind in kinds]
    samples = {n: np.stack(rows) for n, rows in zip(n_list, fp_rows)}
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
