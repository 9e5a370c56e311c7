"""Fixed-horizon graphical construction of the coalescent with deletion.

For a finite-support initial state and a horizon ``t``, the edge set of the
clock graph and the set of lightning strikes are materialized from the
shared clock field; strikes are then replayed in time order, each one
removing the connected component of the struck vertex *in the graph as it
stood at the strike time* restricted to the still-intact vertices.  The
state at ``t`` is the decreasing rearrangement of the surviving component
weights.

With deletion rate 0 this reduces to the plain multiplicative coalescent:
the state is just the ordered component weights of the clock graph.

Assembly is output-sensitive: its Python work is O(edges + strikes) on top
of O(n) numpy.  The replay searches only from struck vertices.  Every static
grouping of the package (G(n, p) and criterion 6's count included) runs on
one numpy kernel, ``_least_labels``, which gives each label its component's
least label; ``_spanned_weights``, which gives the state and every
sandwich sum of ``truncation`` too, weighs the groups it finds exactly.  A
vertex set is a label mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clock_field import ClockField, edge_arrivals, strike_arrivals
from .errors import InvalidInput
from .mass_state import OrderedMassVector, _squared_norm, _state, count, mass_array
from .mass_state import rate, time_list

__all__ = [
    "GraphRealization",
    "realize",
    "truncated_realization",
    "state_at",
    "S2Growth",
    "s2_growth_estimate",
]


def _least_labels(n: int, edge_i: np.ndarray, edge_j: np.ndarray) -> np.ndarray:
    """The least label of every label's component in the graph on the labels
    0..n with the edges ``(edge_i, edge_j)``.

    Min-label hooking with pointer jumping (Shiloach & Vishkin 1982): each
    round hooks the larger current label of every live edge to the smaller
    one, then jumps every pointer twice.  An edge stays live while its ends
    differ, so settled edges drop out; when none is left, one pass over
    every edge confirms it, since a later hook may have split the ends of a
    settled one.  Every label stays a label of its own component and at
    most the label it belongs to, so once the ends of every edge agree the
    label is constant on each component and is its least label.
    """
    least = np.arange(n + 1)
    ends_i, ends_j = edge_i, edge_j
    while True:
        a, b = least[ends_i], least[ends_j]
        live = a != b
        if not live.any():
            if ends_i is edge_i:
                return least
            ends_i, ends_j = edge_i, edge_j  # confirm on every edge
            continue
        ends_i, ends_j, a, b = ends_i[live], ends_j[live], a[live], b[live]
        np.minimum.at(least, np.maximum(a, b), np.minimum(a, b))
        least = least[least]
        least = least[least]


def _grouped_weights(masses: np.ndarray, roots: np.ndarray, total=math.fsum) -> list[float]:
    """Weight of each group of ``masses`` that share a root, in root order.

    A group of one weighs its mass and a group of two one addition, which is
    correctly rounded and so equals ``fsum``; a larger group weighs ``total``
    of its masses in their given order (default: exactly rounded).
    """
    order = np.argsort(roots, kind="stable")
    roots, masses = roots[order], masses[order]
    cut = np.ones(len(roots) + 1, dtype=bool)  # where a group starts or all end
    np.not_equal(roots[1:], roots[:-1], out=cut[1:-1])
    bounds = np.flatnonzero(cut)
    start, end = bounds[:-1], bounds[1:]
    size = end - start
    weights = masses[start]
    two = size == 2
    weights[two] += masses[start[two] + 1]
    out = weights.tolist()
    big = np.flatnonzero(size > 2)
    if len(big):
        listed = masses.tolist()
        for g, a, b in zip(big.tolist(), start[big].tolist(), end[big].tolist()):
            out[g] = total(listed[a:b])
    return out


def _spanned_weights(
    masses: np.ndarray, edge_i: np.ndarray, edge_j: np.ndarray, members: np.ndarray
) -> list[float]:
    """Exactly rounded weights of the components spanned by the label mask
    ``members``, but for lone members of mass 0; only the ends of spanned
    edges are grouped, and every other member weighs its own mass."""
    keep = members[edge_i] & members[edge_j]
    edge_i, edge_j = edge_i[keep], edge_j[keep]
    linked = np.zeros(len(members), dtype=bool)
    linked[edge_i] = linked[edge_j] = True
    ends = np.flatnonzero(linked)
    least = _least_labels(len(masses), edge_i, edge_j)
    lone = masses[(members & ~linked)[1:]]
    return _grouped_weights(masses[ends - 1], least[ends]) + lone[lone > 0].tolist()


def _strike_order(strike_v: np.ndarray, strike_t: np.ndarray) -> list[tuple[float, int]]:
    # total event order: time first, then vertex label (ties only arise from
    # float collisions and must match the forward event engine)
    pairs = sorted(zip(strike_t.tolist(), strike_v.tolist()))
    return pairs


def _intact_after_strikes(
    n: int,
    edge_i: np.ndarray,
    edge_j: np.ndarray,
    edge_t: np.ndarray,
    strikes: list[tuple[float, int]],
) -> np.ndarray:
    """Replay strikes in time order; returns a boolean intact mask (1-based).

    The adjacency is built once per call as CSR arrays (one stable sort of
    the edge ends), and the search runs only from struck vertices, so the
    Python work is O(strikes + edges reached) on top of O(n + edges) numpy.
    """
    ends = np.concatenate((edge_i, edge_j))
    order = np.argsort(ends, kind="stable")
    start = np.searchsorted(ends[order], np.arange(n + 2)).tolist()
    nbr = np.concatenate((edge_j, edge_i))[order].tolist()
    when = np.concatenate((edge_t, edge_t))[order].tolist()
    intact = [True] * (n + 1)
    intact[0] = False
    for ts, v in strikes:
        if not intact[v]:
            continue  # struck vertex already burnt: no-op
        # remove the component of v in the graph at time ts among intact vertices
        intact[v] = False
        stack = [v]
        while stack:
            u = stack.pop()
            for k in range(start[u], start[u + 1]):
                w = nbr[k]
                if when[k] <= ts and intact[w]:
                    intact[w] = False
                    stack.append(w)
    return np.array(intact, dtype=bool)


@dataclass(frozen=True, eq=False)
class GraphRealization:
    """One seed's fixed-horizon construction: the edge and strike tables, the
    label mask left intact by the strike replay, and the state at the horizon.

    Vertex labels are 1-based over the full stored support, including any
    zero-mass tail (such vertices are isolated, never struck, and stay
    intact; they carry no weight).  ``masses`` is a read-only float64 copy of
    the initial vector.
    """

    horizon: float
    lam: float
    masses: np.ndarray
    edge_i: np.ndarray
    edge_j: np.ndarray
    edge_time: np.ndarray
    strike_vertex: np.ndarray
    strike_time: np.ndarray
    intact: np.ndarray
    state: OrderedMassVector

    @property
    def n(self) -> int:
        return len(self.masses)

    @cached_property
    def s2(self) -> float:
        """``state.norm_sq()``, summed once per realization."""
        return self.state.norm_sq()


def _assemble(
    masses: np.ndarray,
    lam: float,
    t: float,
    edge_i: np.ndarray,
    edge_j: np.ndarray,
    edge_t: np.ndarray,
    strike_v: np.ndarray,
    strike_t: np.ndarray,
) -> GraphRealization:
    intact = _intact_after_strikes(
        len(masses), edge_i, edge_j, edge_t, _strike_order(strike_v, strike_t)
    )
    state = _state(_spanned_weights(masses, edge_i, edge_j, intact))
    masses = masses.copy()
    masses.flags.writeable = False
    return GraphRealization(
        horizon=float(t),
        lam=float(lam),
        masses=masses,
        edge_i=edge_i,
        edge_j=edge_j,
        edge_time=edge_t,
        strike_vertex=strike_v,
        strike_time=strike_t,
        intact=intact,
        state=state,
    )


def realize(masses, clocks: ClockField, lam: float, t: float) -> GraphRealization:
    """Build the clock graph at horizon ``t`` and replay all strikes.

    ``masses`` must pass :func:`~mcld.mass_state.mass_array`, and ``t`` and
    ``lam`` must be finite and nonnegative; all are checked before any clock
    is read.
    """
    arr = mass_array(masses)
    (t,) = time_list((t,), "horizon")
    lam = rate(lam, "deletion rate")
    ei, ej, et = edge_arrivals(clocks, arr, t)
    sv, st = strike_arrivals(clocks, arr, lam, t)
    return _assemble(arr, lam, t, ei, ej, et, sv, st)


def truncated_realization(real: GraphRealization, m: int) -> GraphRealization:
    """Realization for the initial vector truncated at ``m``, same clocks.

    Under the shared field the truncated run's edges and strikes are exactly
    the full run's tables filtered to labels <= m (zero masses push every
    other clock to infinity), so no re-evaluation is needed.
    """
    if m < 0 or m > real.n:
        raise InvalidInput(f"truncation level must be in [0, {real.n}]")
    arr = real.masses.copy()
    arr[m:] = 0.0
    ekeep = real.edge_j <= m  # edges store i < j
    skeep = real.strike_vertex <= m
    return _assemble(
        arr,
        real.lam,
        real.horizon,
        real.edge_i[ekeep],
        real.edge_j[ekeep],
        real.edge_time[ekeep],
        real.strike_vertex[skeep],
        real.strike_time[skeep],
    )


def state_at(masses, clocks: ClockField, lam: float, t: float) -> OrderedMassVector:
    """State of the process at horizon ``t``: ordered survivor weights."""
    return realize(masses, clocks, lam, t).state


@dataclass(frozen=True)
class S2Growth:
    mean: float
    sem: float


def s2_growth_estimate(masses, clocks: ClockField, t: float, replicas: int) -> S2Growth:
    """Monte Carlo mean of the squared component-weight norm at horizon ``t``.

    Refuses unless the initial squared norm is at most 1/(2t), the regime in
    which the doubling bound applies.
    """
    arr = mass_array(masses)
    (t,) = time_list((t,), "horizon")
    s2_0 = _squared_norm(arr, "the masses")
    if t > 0 and s2_0 > 1.0 / (2.0 * t) + 1e-12:
        raise InvalidInput(
            f"initial squared norm {s2_0} exceeds 1/(2t); the bound's "
            "hypothesis is unmet"
        )
    replicas = count(replicas, "replica")
    everyone = np.arange(len(arr) + 1) > 0
    samples = []
    for r in range(replicas):
        ei, ej, _ = edge_arrivals(clocks.child(r), arr, t)
        weights = _spanned_weights(arr, ei, ej, everyone)
        samples.append(math.fsum(w * w for w in weights))
    mean = math.fsum(samples) / replicas
    if replicas > 1:
        var = math.fsum((s - mean) ** 2 for s in samples) / (replicas - 1)
        sem = math.sqrt(var / replicas)
    else:
        sem = float("inf")
    return S2Growth(mean=mean, sem=sem)
