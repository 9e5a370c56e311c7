"""Truncation error control: split graphs, bad components, sandwich bounds.

Truncating an initial state is not monotone (an extra vertex can trigger an
extra deletion and leave *less* mass), so the full and truncated runs are
bracketed between two spanned subgraphs built from the shared clocks: one
inside both survivor graphs, one containing both.  The coupled distance is
then at most three times the square root of the bracket's squared-norm gap,
and the gap itself admits an explicit two-term conditional bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clock_field import ClockField
from .errors import InvalidInput, InvariantViolation
from .graphical import (
    GraphRealization,
    _component_s2,
    _component_weights,
    _components_from_edges,
    realize,
    truncated_realization,
)
from .mass_state import dist, level_list, mass_array, time_list, weight_array
from .multigraph import ComponentMultigraph
from .multigraph import classify_bad as _classify_multigraph

__all__ = [
    "SplitRealization",
    "SandwichGraphs",
    "TruncationReport",
    "split_from_realization",
    "report_from_split",
    "component_multigraph",
    "sandwich_graphs",
    "good_component_check",
    "truncation_report",
    "bipartite_bound",
    "truncation_bound",
    "truncation_bound_terms",
    "feller_budget",
    "tail_truncation_index",
    "BipartiteStudy",
    "bipartite_s2_samples",
    "GapStudy",
    "frozen_split_gap_samples",
]

SANDWICH_TOL = 1e-9


# ---------------------------------------------------------------------------
# split realizations


@dataclass(frozen=True)
class SplitRealization:
    """Full and truncated runs plus the level-m component split."""

    level: int
    full: GraphRealization
    truncated: GraphRealization
    lower_components: tuple[tuple[int, ...], ...]
    upper_components: tuple[tuple[int, ...], ...]
    alpha: float
    beta: float


def split_from_realization(full: GraphRealization, m: int) -> SplitRealization:
    """The level-m truncated run under the full run's clocks, and the full
    graph's components spanned on the labels ``[1, m]`` and ``(m, n]``."""
    trunc = truncated_realization(full, m)
    # without the cross edges every component lies on one side; they come
    # ordered by least label, so the lower ones are a prefix
    side = ~((full.edge_i <= m) & (full.edge_j > m))
    comps = _components_from_edges(full.n, full.edge_i[side], full.edge_j[side])
    k = sum(c[0] <= m for c in comps)
    lower, upper = comps[:k], comps[k:]
    alpha = _component_s2(full.masses, lower)
    beta = _component_s2(full.masses, upper)
    return SplitRealization(
        level=m,
        full=full,
        truncated=trunc,
        lower_components=lower,
        upper_components=upper,
        alpha=alpha,
        beta=beta,
    )


def component_multigraph(sr: SplitRealization) -> ComponentMultigraph:
    """Cross edges of the full graph as parallel edges between the two
    component families; a component is damaged when any member was struck."""
    m = sr.level
    full = sr.full
    lower_id = {}
    for idx, comp in enumerate(sr.lower_components):
        for v in comp:
            lower_id[v] = idx
    upper_id = {}
    for idx, comp in enumerate(sr.upper_components):
        for v in comp:
            upper_id[v] = idx
    cross = (full.edge_i <= m) & (full.edge_j > m)
    edges = tuple(
        (lower_id[a], upper_id[b])
        for a, b in zip(full.edge_i[cross].tolist(), full.edge_j[cross].tolist())
    )
    struck = set(full.strike_vertex.tolist())
    damaged_lower = tuple(
        any(v in struck for v in comp) for comp in sr.lower_components
    )
    damaged_upper = tuple(
        any(v in struck for v in comp) for comp in sr.upper_components
    )
    return ComponentMultigraph(
        n_lower=len(sr.lower_components),
        n_upper=len(sr.upper_components),
        edges=edges,
        damaged_lower=damaged_lower,
        damaged_upper=damaged_upper,
    )


# ---------------------------------------------------------------------------
# sandwich graphs


@dataclass(frozen=True)
class SandwichGraphs:
    """Squared component weights of the inner and outer spanned subgraphs,
    and their exactly rounded sums."""

    squares_hat: tuple[float, ...]
    squares_check: tuple[float, ...]
    s2_hat: float
    s2_check: float


def _squares_spanned(full: GraphRealization, vertices) -> tuple[float, ...]:
    members = np.array(sorted(vertices), dtype=np.int64)
    comps = _components_from_edges(full.n, full.edge_i, full.edge_j, members=members)
    return tuple(w * w for w in _component_weights(full.masses, comps))


def sandwich_graphs(sr: SplitRealization, bad: frozenset[int]) -> SandwichGraphs:
    """Inner and outer spanned subgraphs bracketing both survivor graphs.

    Outer: good components cut to the truncated run's intact set, bad
    components whole, plus every vertex above the level.  Inner: only the
    good components cut to the truncated run's intact set.  Raises when the
    bracketing inclusions fail, since that can only be a construction bug.
    """
    intact_full, intact_trunc = sr.full.intact, sr.truncated.intact
    m = sr.level
    v_hat: set[int] = set()
    v_check: set[int] = set(range(m + 1, sr.full.n + 1))
    for idx, comp in enumerate(sr.lower_components):
        if idx in bad:
            v_check.update(comp)
        else:
            kept = intact_trunc.intersection(comp)
            v_hat.update(kept)
            v_check.update(kept)
    v_hat_f, v_check_f = frozenset(v_hat), frozenset(v_check)

    for name, inner, outer in (
        ("inner vs truncated-intact", v_hat_f, intact_trunc),
        ("truncated-intact vs outer", intact_trunc, v_check_f),
        ("inner vs full-intact", v_hat_f, intact_full),
        ("full-intact vs outer", intact_full, v_check_f),
    ):
        if not inner.issubset(outer):
            raise InvariantViolation(f"sandwich inclusion failed: {name}")

    squares_hat = _squares_spanned(sr.full, v_hat_f)
    squares_check = _squares_spanned(sr.full, v_check_f)
    return SandwichGraphs(
        squares_hat=squares_hat,
        squares_check=squares_check,
        s2_hat=math.fsum(squares_hat),
        s2_check=math.fsum(squares_check),
    )


def good_component_check(sr: SplitRealization, bad: frozenset[int]) -> list[int]:
    """Good components must meet both intact sets identically; returns the
    indices that violate this (expected empty)."""
    violations = []
    for idx, comp in enumerate(sr.lower_components):
        if idx in bad:
            continue
        members = set(comp)
        if members & sr.truncated.intact != members & sr.full.intact:
            violations.append(idx)
    return violations


# ---------------------------------------------------------------------------
# report


@dataclass(frozen=True)
class TruncationReport:
    m: int
    alpha: float
    beta: float
    s2_hat: float
    s2_check: float
    s2_survivor_full: float
    s2_spanned_truncated_intact: float
    gap: float
    distance: float
    bound_terms: tuple[float, float] | None
    holds: bool
    bad: frozenset[int]

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "alpha": self.alpha,
            "beta": self.beta,
            "s2_hat": self.s2_hat,
            "s2_check": self.s2_check,
            "gap": self.gap,
            "distance": self.distance,
            "bound_terms": list(self.bound_terms) if self.bound_terms else None,
            "holds": self.holds,
        }


def truncation_report(masses, seed: int, lam: float, t: float, levels, replicas: int):
    """Sandwich reports at every level of every replica, after every input
    is checked and before any clock is read.  Replica ``r`` is realized once,
    on ``ClockField(seed).child(r)``, for every level.  Yields ``(r, m, split,
    report)``; a report that raised :class:`InvariantViolation` is yielded as
    that exception, for the caller to count."""
    arr = mass_array(masses)
    (t,) = time_list((t,), "horizon")
    if lam < 0:
        raise InvalidInput("deletion rate must be nonnegative")
    levels = level_list(levels, len(arr))
    if replicas < 1:
        raise InvalidInput("need at least one replica")
    base = ClockField(seed)
    for r in range(replicas):
        full = realize(arr, base.child(r), lam, t)
        for m in levels:
            split = split_from_realization(full, m)
            try:
                report = report_from_split(split)
            except InvariantViolation as exc:
                report = exc
            yield r, m, split, report


def report_from_split(sr: SplitRealization) -> TruncationReport:
    """Sandwich report of one split; its lower components are classified once,
    and the bad set is kept on the report."""
    bad = _classify_multigraph(component_multigraph(sr))
    sw = sandwich_graphs(sr, bad)

    # the graph spanned on the full run's intact set is its survivor graph
    s2_h = sr.full.state.norm_sq()
    s2_hm = math.fsum(_squares_spanned(sr.full, sr.truncated.intact))
    for mid, label in ((s2_h, "survivor"), (s2_hm, "truncated-intact spanned")):
        if not (sw.s2_hat - SANDWICH_TOL <= mid <= sw.s2_check + SANDWICH_TOL):
            raise InvariantViolation(
                f"squared-norm chain violated for the {label} graph"
            )

    gap = max(sw.s2_check - sw.s2_hat, 0.0)
    distance = dist(sr.full.state, sr.truncated.state)
    holds = distance <= 3.0 * math.sqrt(gap) + SANDWICH_TOL
    if not holds:
        # the difference of two rounded sums can cancel the gap away; judge
        # again on the gap summed exactly in one pass
        gap = max(math.fsum(sw.squares_check + tuple(-w for w in sw.squares_hat)), 0.0)
        holds = distance <= 3.0 * math.sqrt(gap) + SANDWICH_TOL
    t, lam = sr.full.horizon, sr.full.lam
    if t * t * sr.alpha * sr.beta <= 0.5:
        terms = truncation_bound_terms(sr.alpha, sr.beta, t, lam)
    else:
        terms = None
    return TruncationReport(
        m=sr.level,
        alpha=sr.alpha,
        beta=sr.beta,
        s2_hat=sw.s2_hat,
        s2_check=sw.s2_check,
        s2_survivor_full=s2_h,
        s2_spanned_truncated_intact=s2_hm,
        gap=gap,
        distance=distance,
        bound_terms=terms,
        holds=bool(holds),
        bad=bad,
    )


# ---------------------------------------------------------------------------
# analytic bounds


def bipartite_bound(a: float, b: float, t: float, n_lower: int) -> float:
    """Bound on the expected squared-norm excess of a weighted bipartite
    random graph over its left side; needs finitely many left vertices and
    t^2*a*b <= 1/2."""
    if n_lower < 1:
        raise InvalidInput("the left vertex class must be finite and nonempty")
    if a < 0 or b < 0 or t < 0:
        raise InvalidInput("a, b, t must be nonnegative")
    if t * t * a * b > 0.5:
        raise InvalidInput("hypothesis t^2*a*b <= 1/2 violated")
    return 2.0 * b * (1.0 + t * a) ** 2


def truncation_bound_terms(
    alpha: float, beta: float, t: float, lam: float
) -> tuple[float, float]:
    if alpha < 0 or beta < 0 or t < 0 or lam < 0:
        raise InvalidInput("alpha, beta, t, lam must be nonnegative")
    if t * t * alpha * beta > 0.5:
        raise InvalidInput("hypothesis t^2*alpha*beta <= 1/2 violated")
    term_bipartite = 2.0 * beta * (1.0 + t * alpha) ** 2
    term_bad = 2.0 * t * t * lam * beta * (1.0 + t * alpha) * alpha ** 1.5
    return term_bipartite, term_bad


def truncation_bound(alpha: float, beta: float, t: float, lam: float) -> float:
    """Conditional bound on the expected sandwich gap given the split graphs."""
    b1, b2 = truncation_bound_terms(alpha, beta, t, lam)
    return b1 + b2


def _budget_constant(lam: float, t: float) -> float:
    return 2.0 * max(1.0, lam * t * t)


def feller_budget(eps: float, M: float, t: float, lam: float) -> float:
    """Largest tail squared-norm budget compatible with both constraints of
    the truncation argument at accuracy ``eps`` and head bound ``M``."""
    if eps <= 0 or M <= 0 or t <= 0:
        raise InvalidInput("eps, M, t must be positive")
    if lam < 0:
        raise InvalidInput("deletion rate must be nonnegative")
    c = _budget_constant(lam, t)
    first = 0.5 / (t * t * M)
    try:
        second = eps ** 3 / (9.0 * c * ((1.0 + t * M) ** 2 + (1.0 + t * M) * M ** 1.5))
    except OverflowError:
        raise InvalidInput(f"the tail budget overflows at t={t}, lambda={lam}") from None
    return min(first, second)


def tail_truncation_index(masses, delta: float) -> int:
    """Smallest level whose tail squared norm is at most ``delta``."""
    if delta < 0:
        raise InvalidInput("delta must be nonnegative")
    arr = mass_array(masses)
    sq = arr * arr
    # suffix[m] = squared norm of everything beyond the first m entries
    suffix = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])
    return int(np.argmax(suffix <= delta))


# ---------------------------------------------------------------------------
# Monte Carlo studies backing the bound checks


@dataclass(frozen=True)
class BipartiteStudy:
    a: float
    b: float
    bound: float
    mean_excess: float
    sem: float


def bipartite_s2_samples(
    x, y, t: float, base_seed: int, replicas: int
) -> BipartiteStudy:
    """Empirical mean of the bipartite squared-norm excess against its bound.

    Left vertices carry the ``x`` weights, right vertices the ``y`` weights;
    the edge between left i and right j appears when the shared pair clock
    is below t*x_i*y_j.
    """
    x = weight_array(x, "x", False)
    y = weight_array(y, "y", False)
    if replicas < 1:
        raise InvalidInput("need at least one replica")
    a = float(np.sum(x * x))
    b = float(np.sum(y * y))
    bound = bipartite_bound(a, b, t, len(x))
    nl, nr = len(x), len(y)
    li = np.repeat(np.arange(1, nl + 1), nr)
    rj = np.tile(np.arange(nl + 1, nl + nr + 1), nl)
    thresholds = t * np.repeat(x, nr) * np.tile(y, nl)
    weight = [0.0] + x.tolist() + y.tolist()  # by vertex label
    base = ClockField(base_seed)
    samples = np.empty(replicas)
    for r in range(replicas):
        present = base.child(r).pair_exps(li, rj) <= thresholds
        squares = []
        for comp in _components_from_edges(nl + nr, li[present], rj[present]):
            w = 0.0
            for v in comp:  # in label order, one rounding per addition
                w += weight[v]
            squares.append(w * w)
        samples[r] = math.fsum(squares)
    mean, sem = _mean_sem(samples - a)
    return BipartiteStudy(a=a, b=b, bound=bound, mean_excess=mean, sem=sem)


def _mean_sem(samples: np.ndarray) -> tuple[float, float]:
    """Mean of ``samples`` and its standard error, which is infinite for one
    sample."""
    if len(samples) == 1:
        return float(samples[0]), math.inf
    sem = np.std(samples, ddof=1) / math.sqrt(len(samples))
    return float(np.mean(samples)), float(sem)


class _SplitResampleField(ClockField):
    """Pair clocks within each side frozen; cross pairs and all vertex clocks
    taken from a per-replica field.  Test device for the conditional bound."""

    __slots__ = ("_frozen", "_resample", "_level")

    def __init__(self, frozen: ClockField, resample: ClockField, level: int):
        super().__init__(resample.seed)
        self._frozen = frozen
        self._resample = resample
        self._level = level

    def _pair_hash(self, i, j):
        cross = (i <= np.uint64(self._level)) & (j > np.uint64(self._level))
        return np.where(
            cross, self._resample._pair_hash(i, j), self._frozen._pair_hash(i, j)
        )

    def _vertex_hash(self, i):
        return self._resample._vertex_hash(i)


@dataclass(frozen=True)
class GapStudy:
    alpha: float
    beta: float
    bound: float
    mean_gap: float
    sem: float


def frozen_split_gap_samples(
    masses, lam: float, t: float, m: int, base_seed: int, replicas: int
) -> GapStudy:
    """Resample lightning and cross edges with the split graphs held fixed;
    the mean sandwich gap is compared against the conditional bound."""
    if replicas < 1:
        raise InvalidInput("need at least one replica")
    frozen = ClockField(base_seed)
    gaps = np.empty(replicas)
    alpha = beta = None
    for r in range(replicas):
        field = _SplitResampleField(frozen, frozen.child(r), m)
        sr = split_from_realization(realize(masses, field, lam, t), m)
        if alpha is None:
            alpha, beta = sr.alpha, sr.beta
            if t * t * alpha * beta > 0.5:
                raise InvalidInput(
                    "realized split graphs violate t^2*alpha*beta <= 1/2; "
                    "choose lighter masses"
                )
        elif abs(sr.alpha - alpha) > 1e-9 or abs(sr.beta - beta) > 1e-9:
            raise InvariantViolation("split graphs were supposed to be frozen")
        rep = report_from_split(sr)
        gaps[r] = rep.gap
    bound = truncation_bound(alpha, beta, t, lam)
    mean, sem = _mean_sem(gaps)
    return GapStudy(
        alpha=float(alpha),
        beta=float(beta),
        bound=bound,
        mean_gap=mean,
        sem=sem,
    )
