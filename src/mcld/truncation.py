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

from .clock_field import ClockField, edge_arrivals, strike_arrivals
from .errors import InvalidInput, InvariantViolation
from .graphical import (
    GraphRealization,
    _assemble,
    _grouped_weights,
    _least_labels,
    _spanned_weights,
    realize,
    truncated_realization,
)
from .mass_state import _squared_norm, count, dist, level_list, mass_array, rate
from .mass_state import time_list, weight_array
from .multigraph import ComponentMultigraph
from .multigraph import classify_bad as _classify_multigraph

__all__ = [
    "SplitRealization",
    "TruncationReport",
    "split_from_realization",
    "report_from_split",
    "component_multigraph",
    "sandwich_graphs",
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


@dataclass(frozen=True, eq=False)
class SplitRealization:
    """Full and truncated runs plus the level-m component split: ``component``
    maps each label to its side's component, numbered by least label, so the
    lower ones are the numbers below ``n_lower`` (label 0 maps to -1)."""

    level: int
    full: GraphRealization
    truncated: GraphRealization
    component: np.ndarray
    n_lower: int
    alpha: float
    beta: float


def split_from_realization(full: GraphRealization, m: int) -> SplitRealization:
    """The level-m truncated run under the full run's clocks, and the full
    graph's components spanned on the labels ``[1, m]`` and ``(m, n]``."""
    trunc = truncated_realization(full, m)
    # without the cross edges every component lies on one side; numbered by
    # least label, the lower ones are a prefix
    side = ~((full.edge_i <= m) & (full.edge_j > m))
    least = _least_labels(full.n, full.edge_i[side], full.edge_j[side])
    roots = least == np.arange(full.n + 1)
    component = (np.cumsum(roots) - 2)[least]  # label 0, its own root, is -1
    k = int(np.count_nonzero(roots[1 : m + 1]))
    squares = [w * w for w in _grouped_weights(full.masses, least[1:])]
    return SplitRealization(
        level=m,
        full=full,
        truncated=trunc,
        component=component,
        n_lower=k,
        alpha=math.fsum(squares[:k]),
        beta=math.fsum(squares[k:]),
    )


def component_multigraph(sr: SplitRealization) -> ComponentMultigraph:
    """Cross edges of the full graph as parallel edges between the two
    component families; a component is damaged when any member was struck."""
    full, comp, k = sr.full, sr.component, sr.n_lower
    cross = (full.edge_i <= sr.level) & (full.edge_j > sr.level)
    edges = np.stack((comp[full.edge_i[cross]], comp[full.edge_j[cross]] - k), axis=1)
    damaged = np.zeros(int(comp.max()) + 1, dtype=bool)
    damaged[comp[full.strike_vertex]] = True
    return ComponentMultigraph(k, len(damaged) - k, edges, damaged[:k], damaged[k:])


# ---------------------------------------------------------------------------
# sandwich graphs


def _good_vertices(sr: SplitRealization, bad: frozenset[int]) -> np.ndarray:
    """Mask of the labels in lower components outside ``bad``."""
    # one slot per component number, and a last one, always False, that
    # label 0's number -1 reads
    good = np.zeros(int(sr.component.max()) + 2, dtype=bool)
    good[: sr.n_lower] = True
    good[list(bad)] = False
    return good[sr.component]


def sandwich_graphs(
    sr: SplitRealization, bad: frozenset[int]
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Squared component weights of the inner and outer spanned subgraphs,
    which bracket both survivor graphs.

    Outer: good components cut to the truncated run's intact set, bad
    components whole, plus every vertex above the level.  Inner: only the
    good components cut to the truncated run's intact set.  Raises when the
    bracketing inclusions fail, since that can only be a construction bug.
    """
    full, intact_trunc = sr.full, sr.truncated.intact
    good = _good_vertices(sr, bad)
    v_hat = good & intact_trunc
    v_check = v_hat | ((sr.component >= 0) & ~good)

    for name, inner, outer in (
        ("inner vs truncated-intact", v_hat, intact_trunc),
        ("truncated-intact vs outer", intact_trunc, v_check),
        ("inner vs full-intact", v_hat, full.intact),
        ("full-intact vs outer", full.intact, v_check),
    ):
        if (inner & ~outer).any():
            raise InvariantViolation(f"sandwich inclusion failed: {name}")

    return tuple(
        tuple(w * w for w in _spanned_weights(full.masses, full.edge_i, full.edge_j, v))
        for v in (v_hat, v_check)
    )


# ---------------------------------------------------------------------------
# report


@dataclass(frozen=True)
class TruncationReport:
    m: int
    alpha: float
    beta: float
    s2_hat: float
    s2_check: float
    gap: float
    distance: float
    bound_terms: tuple[float, float] | None
    holds: bool
    good_violations: int  # good components whose intact sets differ; not in JSON

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
    on ``ClockField(seed).child(r)``, for every level.  Returns the list of
    ``(r, m, report)``; a report that raised :class:`InvariantViolation` is
    listed as that exception, without its traceback, for the caller to
    count."""
    arr = mass_array(masses)
    _squared_norm(arr, "the masses")
    (t,) = time_list((t,), "horizon")
    lam = rate(lam, "deletion rate")
    levels = level_list(levels, len(arr))
    replicas = count(replicas, "replica")
    base = ClockField(seed)
    reports = []
    for r in range(replicas):
        full = realize(arr, base.child(r), lam, t)
        for m in levels:
            try:
                report = report_from_split(split_from_realization(full, m))
            except InvariantViolation as exc:
                report = exc.with_traceback(None)
            reports.append((r, m, report))
    return reports


def report_from_split(sr: SplitRealization) -> TruncationReport:
    """Sandwich report of one split, with its lower components classified
    once; raises :class:`InvariantViolation` when the squared-norm chain
    through both survivor graphs fails."""
    bad = _classify_multigraph(component_multigraph(sr))
    squares_hat, squares_check = sandwich_graphs(sr, bad)
    s2_hat, s2_check = math.fsum(squares_hat), math.fsum(squares_check)

    # the graph spanned on the full run's intact set is its survivor graph
    full, intact_trunc = sr.full, sr.truncated.intact
    s2_h = full.s2
    spanned = _spanned_weights(full.masses, full.edge_i, full.edge_j, intact_trunc)
    s2_hm = math.fsum(w * w for w in spanned)
    for mid, label in ((s2_h, "survivor"), (s2_hm, "truncated-intact spanned")):
        if not (s2_hat - SANDWICH_TOL <= mid <= s2_check + SANDWICH_TOL):
            raise InvariantViolation(
                f"squared-norm chain violated for the {label} graph"
            )

    # criterion 3: good components meet both intact sets identically
    differs = _good_vertices(sr, bad) & (intact_trunc != full.intact)
    good_violations = len(np.unique(sr.component[differs]))

    gap = max(s2_check - s2_hat, 0.0)
    distance = dist(full.state, sr.truncated.state)
    holds = distance <= 3.0 * math.sqrt(gap) + SANDWICH_TOL
    if not holds:
        # the difference of two rounded sums can cancel the gap away; judge
        # again on the gap summed exactly in one pass
        gap = max(math.fsum(squares_check + tuple(-w for w in squares_hat)), 0.0)
        holds = distance <= 3.0 * math.sqrt(gap) + SANDWICH_TOL
    t, lam = full.horizon, full.lam
    if t * t * sr.alpha * sr.beta <= 0.5:
        terms = truncation_bound_terms(sr.alpha, sr.beta, t, lam)
    else:
        terms = None
    return TruncationReport(
        m=sr.level,
        alpha=sr.alpha,
        beta=sr.beta,
        s2_hat=s2_hat,
        s2_check=s2_check,
        gap=gap,
        distance=distance,
        bound_terms=terms,
        holds=bool(holds),
        good_violations=good_violations,
    )


# ---------------------------------------------------------------------------
# analytic bounds


def bipartite_bound(a: float, b: float, t: float, n_lower: int) -> float:
    """Bound on the expected squared-norm excess of a weighted bipartite
    random graph over its left side; needs finitely many left vertices and
    t^2*a*b <= 1/2."""
    if n_lower < 1:
        raise InvalidInput("the left vertex class must be finite and nonempty")
    return truncation_bound_terms(a, b, t, 0.0)[0]


def truncation_bound_terms(
    alpha: float, beta: float, t: float, lam: float
) -> tuple[float, float]:
    if not all(v >= 0 for v in (alpha, beta, t, lam)):
        raise InvalidInput("alpha, beta, t, lam must be nonnegative")
    if t * t * alpha * beta > 0.5:
        raise InvalidInput("hypothesis t^2*alpha*beta <= 1/2 violated")
    try:
        term_bipartite = 2.0 * beta * (1.0 + t * alpha) ** 2
    except OverflowError:
        term_bipartite = math.inf
    try:
        term_bad = 2.0 * t * t * lam * beta * (1.0 + t * alpha) * alpha ** 1.5
    except OverflowError:
        term_bad = math.inf
    # a factor past the float range need not put the term there
    if not math.isfinite(term_bipartite):
        term_bipartite = _term_in_logs(alpha, t, 2.0, ((beta, 1.0),))
    if not math.isfinite(term_bad):
        factors = ((t, 2.0), (lam, 1.0), (beta, 1.0), (alpha, 1.5))
        term_bad = _term_in_logs(alpha, t, 1.0, factors)
    return term_bipartite, term_bad


def _term_in_logs(alpha: float, t: float, growth: float, factors) -> float:
    """``2 (1 + t alpha)^growth`` times each ``base^power`` of ``factors``,
    summed in logs: 0 when a base is 0, refused past the float range."""
    if any(base == 0.0 for base, _ in factors):
        return 0.0
    t_alpha = t * alpha
    if math.isfinite(t_alpha):
        log_term = growth * math.log1p(t_alpha)
    else:  # 1 + t alpha is t alpha to the last bit
        log_term = growth * (math.log(t) + math.log(alpha))
    log_term += math.log(2.0) + sum(p * math.log(b) for b, p in factors)
    try:
        return math.exp(log_term)
    except OverflowError:
        raise InvalidInput(
            f"the truncation bound overflows at alpha={alpha}, t={t}"
        ) from None


def truncation_bound(alpha: float, beta: float, t: float, lam: float) -> float:
    """Conditional bound on the expected sandwich gap given the split graphs."""
    b1, b2 = truncation_bound_terms(alpha, beta, t, lam)
    return b1 + b2


def feller_budget(eps: float, M: float, t: float, lam: float) -> float:
    """Largest tail squared-norm budget compatible with both constraints of
    the truncation argument at accuracy ``eps`` and head bound ``M``."""
    if not all(v > 0 for v in (eps, M, t)):
        raise InvalidInput("eps, M, t must be positive")
    lam = rate(lam, "deletion rate")
    c = 2.0 * max(1.0, lam * t * t)
    # a product below the float range leaves the first constraint unbounded
    first = 0.5 / (t * t * M) if t * t * M > 0 else math.inf
    try:
        second = eps ** 3 / (9.0 * c * ((1.0 + t * M) ** 2 + (1.0 + t * M) * M ** 1.5))
    except OverflowError:
        raise InvalidInput(f"the tail budget overflows at t={t}, lambda={lam}") from None
    return min(first, second)


def tail_truncation_index(masses, delta: float) -> int:
    """Smallest level whose tail squared norm is at most ``delta``."""
    if not delta >= 0:
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
    (t,) = time_list((t,), "t")
    replicas = count(replicas, "replica")
    a = _squared_norm(x, "x")
    b = _squared_norm(y, "y")
    bound = bipartite_bound(a, b, t, len(x))
    nl, nr = len(x), len(y)
    li = np.repeat(np.arange(1, nl + 1), nr)
    rj = np.tile(np.arange(nl + 1, nl + nr + 1), nl)
    thresholds = t * np.repeat(x, nr) * np.tile(y, nl)
    weight = np.concatenate((x, y))  # by vertex label - 1
    base = ClockField(base_seed)
    samples = np.empty(replicas)
    for r in range(replicas):
        present = base.child(r).pair_exps(li, rj) <= thresholds
        least = _least_labels(nl + nr, li[present], rj[present])
        weights = _grouped_weights(weight, least[1:], total=_sum_in_order)
        samples[r] = math.fsum(w * w for w in weights)
    mean, sem = _mean_sem(samples - a)
    return BipartiteStudy(a=a, b=b, bound=bound, mean_excess=mean, sem=sem)


def _sum_in_order(values: list[float]) -> float:
    """Sum in the given order, with one rounding per addition."""
    w = 0.0
    for v in values:
        w += v
    return w


def _mean_sem(samples: np.ndarray) -> tuple[float, float]:
    """Mean of ``samples`` and its standard error, which is infinite for one
    sample."""
    if len(samples) == 1:
        return float(samples[0]), math.inf
    sem = np.std(samples, ddof=1) / math.sqrt(len(samples))
    return float(np.mean(samples)), float(sem)


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
    the mean sandwich gap is compared against the conditional bound.

    The pairs within each side keep the clocks of ``ClockField(base_seed)``,
    realized once; replica ``r`` takes its cross pairs ``i <= m < j`` and its
    vertex clocks from that field's ``child(r)``.
    """
    arr = mass_array(masses)
    _squared_norm(arr, "the masses")
    (t,) = time_list((t,), "horizon")
    lam = rate(lam, "deletion rate")
    (m,) = level_list((m,), len(arr))
    replicas = count(replicas, "replica")
    frozen = ClockField(base_seed)
    ei, ej, et = edge_arrivals(frozen, arr, t)
    side = ~((ei <= m) & (ej > m))
    ei, ej, et = ei[side], ej[side], et[side]
    n = len(arr)
    gaps = np.empty(replicas)
    alpha = beta = None
    for r in range(replicas):
        field = frozen.child(r)
        ci, cj, ct = edge_arrivals(field, arr, t)
        cross = (ci <= m) & (cj > m)
        ci, cj, ct = ci[cross], cj[cross], ct[cross]
        # both tables are row-major, and so is their merge
        i, j, times = (np.concatenate(c) for c in ((ei, ci), (ej, cj), (et, ct)))
        order = np.argsort(i * (n + 1) + j)
        sv, st = strike_arrivals(field, arr, lam, t)
        full = _assemble(arr, lam, t, i[order], j[order], times[order], sv, st)
        sr = split_from_realization(full, m)
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
