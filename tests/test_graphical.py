import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcld.clock_field import ClockField, edge_arrivals
from mcld.errors import InvalidInput
from mcld.events import run_clocked
from mcld.feller import power_law_reference
from mcld.graphical import (
    _assemble,
    _grouped_weights,
    _intact_after_strikes,
    _least_labels,
    _spanned_weights,
    _strike_order,
    realize,
    s2_growth_estimate,
    state_at,
    truncated_realization,
)
from mcld.mass_state import mass_array, ordered

from helpers import (
    HOSTILE_HORIZONS,
    HOSTILE_LAMBDAS,
    StubClockField,
    all_survivors_state,
    brute_components,
    brute_strike_replay,
    component_weights,
    components_from_edges,
    hostile_masses,
)

SEED = 31415


def graph_components(masses, field, t):
    """Components of the clock graph at horizon ``t``, with no deletion."""
    real = realize(masses, field, 0.0, t)
    return components_from_edges(real.n, real.edge_i, real.edge_j)


class TestBuildGraph:
    def test_no_edges_at_time_zero(self):
        comps = graph_components(ordered([1.0] * 4), ClockField(SEED), 0.0)
        assert comps == ((1,), (2,), (3,), (4,))

    def test_threshold_crossing(self):
        f = StubClockField(pair_exps={(1, 2): 0.5})
        masses = ordered([1.0, 1.0])
        assert graph_components(masses, f, 0.4) == ((1,), (2,))
        assert graph_components(masses, f, 0.6) == ((1, 2),)

    def test_connectivity_is_transitive(self):
        f = StubClockField(pair_exps={(1, 2): 0.1, (2, 3): 0.2})
        comps = graph_components(ordered([1.0] * 3), f, 1.0)
        assert comps == ((1, 2, 3),)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_components(self, seed):
        f = ClockField(seed)
        masses = ordered(np.random.default_rng(seed).uniform(0.2, 1.0, 12).tolist())
        ei, ej, _ = edge_arrivals(f, np.asarray(masses.masses), 1.5)
        expected = {
            c
            for c in brute_components(range(1, 13), list(zip(ei.tolist(), ej.tolist())))
        }
        got = {frozenset(c) for c in graph_components(masses, f, 1.5)}
        assert got == expected


@st.composite
def grouping_cases(draw):
    """Vertex count, an edge list with repeats, and either no member mask or
    a label mask (index 0 False) that may cut edges."""
    n = draw(st.integers(1, 30))
    vertex = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    edges = [(min(p), max(p)) for p in pairs if p[0] != p[1]]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=n))
    if not draw(st.booleans()):
        return n, edges, None
    kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return n, edges, np.array([False, *kept])


class TestComponentsFromEdges:
    @settings(max_examples=300, deadline=None)
    @given(case=grouping_cases())
    def test_matches_brute_force_exactly(self, case):
        n, edges, members = case
        mask = np.ones(n + 1, dtype=bool) if members is None else members
        inside = (np.flatnonzero(mask[1:]) + 1).tolist()
        comps = brute_components(inside, [e for e in edges if mask[list(e)].all()])
        expected = tuple(sorted(tuple(sorted(c)) for c in comps))
        got = components_from_edges(
            n,
            np.array([a for a, _ in edges], dtype=np.int64),
            np.array([b for _, b in edges], dtype=np.int64),
            members=members,
        )
        # sorted tuples, ordered by least label
        assert got == expected
        assert all(type(v) is int for c in got for v in c)


def oracle_least_labels(n: int, edge_i, edge_j) -> np.ndarray:
    """Least label of every label 0..n, from the union-find oracle."""
    everyone = np.ones(n + 1, dtype=bool)
    want = np.arange(n + 1)
    for comp in components_from_edges(n, edge_i, edge_j, members=everyone):
        want[list(comp)] = comp[0]
    return want


@st.composite
def labelling_cases(draw):
    """Labels 0..n and an edge list on them: random edges with parallel and
    repeated ones, a star, or a path, each under a shuffle of the labels,
    and always some labels left isolated beside the rest."""
    n = draw(st.integers(0, 40))
    shape = draw(st.sampled_from(["random", "star", "path"]))
    used = draw(st.integers(1, n + 1))  # labels the shape may touch
    perm = draw(st.permutations(range(n + 1)))[:used]
    if shape == "star":
        ends = [(0, k) for k in range(1, used)]
    elif shape == "path":
        ends = [(k, k + 1) for k in range(used - 1)]
    else:
        k = st.integers(0, used - 1)
        ends = draw(st.lists(st.tuples(k, k), max_size=3 * used))
        ends += draw(st.lists(st.sampled_from(ends), max_size=used)) if ends else []
    edge_i = np.array([perm[a] for a, _ in ends], dtype=np.int64)
    edge_j = np.array([perm[b] for _, b in ends], dtype=np.int64)
    return n, edge_i, edge_j


class TestLeastLabels:
    @settings(max_examples=300, deadline=None)
    @given(case=labelling_cases())
    @example(case=(0, np.array([], dtype=np.int64), np.array([], dtype=np.int64)))
    @example(case=(1, np.array([], dtype=np.int64), np.array([], dtype=np.int64)))
    @example(case=(1, np.array([1, 0, 1]), np.array([0, 1, 1])))  # parallel, loop
    # a later hook splits the ends of the settled edge (14, 5): without a
    # last pass over every edge, label 14 ends at 1
    @example(
        case=(
            24,
            np.array([17, 3, 17, 13, 2, 15, 3, 14, 15, 23]),
            np.array([2, 23, 1, 1, 20, 0, 20, 5, 13, 5]),
        )
    )
    def test_matches_union_find(self, case):
        n, edge_i, edge_j = case
        got = _least_labels(n, edge_i, edge_j)
        assert np.array_equal(got, oracle_least_labels(n, edge_i, edge_j))

    def test_long_shuffled_path(self):
        # the deepest case for pointer jumping: one path through 100,000
        # labels in random order, beside the isolated label 0
        n = 100_000
        perm = np.random.default_rng(SEED).permutation(n) + 1
        got = _least_labels(n, perm[:-1], perm[1:])
        assert np.array_equal(got, oracle_least_labels(n, perm[:-1], perm[1:]))
        assert got.tolist() == [0] + [1] * n


# masses on which a careless sum rounds differently from ``fsum``
HOSTILE_WEIGHTS = st.sampled_from(
    [1.0, 1.0, 2.0 ** -53, 2.0 ** -52, 1.0 + 2.0 ** -52, 0.0, 5e-324, 2.5e-308,
     1e-300, 1e150, 0.1, 0.2, 0.3, 3.0]
)


@st.composite
def grouped_cases(draw):
    """Hostile masses and a root for each, so that groups of one, two and
    more members mix, with members of one group apart from each other."""
    masses = draw(st.lists(HOSTILE_WEIGHTS | st.floats(0.0, 1e300), max_size=30))
    roots = draw(st.lists(st.integers(0, 8), min_size=len(masses), max_size=len(masses)))
    return np.array(masses, dtype=np.float64), np.array(roots, dtype=np.int64)


class TestGroupedWeights:
    @settings(max_examples=500, deadline=None)
    @given(case=grouped_cases())
    # a pair whose exact sum lies halfway between two floats, a triple whose
    # sum in order loses its tail, and subnormals beside zeros
    @example(case=(np.array([1.0, 2.0 ** -53]), np.array([3, 3])))
    @example(case=(np.array([1e150, 1e-300, 1.0, 2.0 ** -53]), np.array([1, 1, 1, 1])))
    @example(case=(np.array([5e-324, 0.0, 5e-324, 2.5e-308]), np.array([2, 0, 2, 0])))
    def test_matches_fsum_bit_for_bit(self, case):
        masses, roots = case
        order = sorted(set(roots.tolist()))
        comps = [
            tuple(v + 1 for v in np.flatnonzero(roots == r).tolist()) for r in order
        ]
        want = component_weights(masses.tolist(), comps)
        got = _grouped_weights(masses, roots)
        assert [w.hex() for w in got] == [w.hex() for w in want]

    @settings(max_examples=200, deadline=None)
    @given(case=grouped_cases())
    def test_given_total_sums_larger_groups_in_order(self, case):
        masses, roots = case

        def in_order(values):
            w = 0.0
            for v in values:
                w += v
            return w

        order = sorted(set(roots.tolist()))
        want = [in_order(masses[roots == r].tolist()) for r in order]
        got = _grouped_weights(masses, roots, total=in_order)
        assert [w.hex() for w in got] == [w.hex() for w in want]


@st.composite
def spanned_cases(draw):
    """Hostile masses, an edge list between positive masses (as in every edge
    table) and a label mask: empty, full or drawn, so that members may be
    isolated, of mass 0, or cut off from an edge's other end."""
    masses = draw(hostile_masses())
    n, n_pos = len(masses), sum(m > 0 for m in masses)
    edges = []
    if n_pos >= 2:
        vertex = st.integers(1, n_pos)
        pairs = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n_pos))
        edges = [(min(p), max(p)) for p in pairs if p[0] != p[1]]
    kind = draw(st.sampled_from(["empty", "full", "drawn"]))
    if kind == "drawn":
        kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    else:
        kept = [kind == "full"] * n
    return masses, edges, np.array([False, *kept])


class TestSpannedWeights:
    @settings(max_examples=300, deadline=None)
    @given(case=spanned_cases())
    # member 1 is cut off from its edge, 3 is isolated and 4 weighs nothing
    @example(case=([2.0, 1.0, 0.5, 0.0], [(1, 2), (2, 3)], np.arange(5) % 2 == 1))
    def test_matches_brute_force_exactly(self, case):
        masses, edges, members = case
        inside = np.flatnonzero(members).tolist()
        comps = brute_components(inside, [e for e in edges if members[list(e)].all()])
        weights = [math.fsum(masses[v - 1] for v in c) for c in comps]
        got = _spanned_weights(
            np.array(masses, dtype=np.float64),
            np.array([a for a, _ in edges], dtype=np.int64),
            np.array([b for _, b in edges], dtype=np.int64),
            members,
        )
        # every component of weight 0 is a lone member of mass 0
        assert sorted(got) == sorted(w for w in weights if w > 0)


class TestLightningRecursion:
    """Strike replay: a strike burns the struck vertex's component in the
    graph as it stood at the strike time, among intact vertices."""

    def test_no_strikes_returns_component(self):
        f = StubClockField(pair_exps={(1, 2): 0.5})
        real = realize(ordered([1.0, 1.0]), f, 0.0, 0.6)
        assert np.flatnonzero(real.intact).tolist() == [1, 2]

    def test_strike_before_edge_burns_one_vertex(self):
        # hand trace: the strike at 0.3 removes vertex 2 alone because the
        # edge only arrives at 0.5
        f = StubClockField(pair_exps={(1, 2): 0.5}, vertex_exps={2: 0.3})
        real = realize(ordered([1.0, 1.0]), f, 1.0, 0.6)
        assert np.flatnonzero(real.intact).tolist() == [1]

    def test_strike_after_edge_burns_both(self):
        f = StubClockField(pair_exps={(1, 2): 0.5}, vertex_exps={2: 0.55})
        real = realize(ordered([1.0, 1.0]), f, 1.0, 0.6)
        assert np.flatnonzero(real.intact).tolist() == []

    def test_strike_on_already_burnt_vertex_is_noop(self):
        # the strike at 2 (t=0.2) burns {2, 3}, joined at 0.1; the edge (3, 4)
        # arrives at 0.4, after 3 burnt, so the strike at 3 (t=0.5) lands on a
        # burnt vertex and must not reach 4 through that edge
        f = StubClockField(
            pair_exps={(2, 3): 0.1, (3, 4): 0.4}, vertex_exps={2: 0.2, 3: 0.5}
        )
        real = realize(ordered([1.0] * 4), f, 1.0, 1.0)
        assert sorted(real.strike_vertex.tolist()) == [2, 3]
        assert np.flatnonzero(real.intact).tolist() == [1, 4]
        assert real.state.masses == (1.0, 1.0)


# a few shared times, so that edges and strikes tie with each other
REPLAY_TIMES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])


@st.composite
def replay_cases(draw):
    """Vertex count, an edge table (pairs i < j, repeats allowed) and strikes
    (repeats on one vertex allowed, edgeless vertices struck too), all on a
    small set of times."""
    n = draw(st.integers(1, 20))
    vertex = st.integers(1, n)
    pairs = draw(st.lists(st.tuples(vertex, vertex, REPLAY_TIMES), max_size=3 * n))
    edges = [(min(a, b), max(a, b), te) for a, b, te in pairs if a != b]
    strikes = draw(st.lists(st.tuples(REPLAY_TIMES, vertex), max_size=2 * n))
    return n, edges, strikes


class TestStrikeReplay:
    @settings(max_examples=500, deadline=None)
    @given(case=replay_cases())
    @example(case=(5, [], [(0.5, 2), (0.5, 2), (0.0, 5)]))  # empty edge table
    @example(case=(3, [(1, 2, 0.5)], [(0.5, 3), (0.5, 1), (0.5, 2)]))  # all tied
    # the edge (2, 3) arrives after 3 burnt, so the strike at 1 stops at 2
    @example(case=(4, [(1, 2, 0.25), (2, 3, 0.5)], [(0.25, 3), (0.5, 1)]))
    def test_matches_brute_replay_exactly(self, case):
        n, edges, strikes = case
        ei = np.array([a for a, _, _ in edges], dtype=np.int64)
        ej = np.array([b for _, b, _ in edges], dtype=np.int64)
        et = np.array([te for _, _, te in edges], dtype=np.float64)
        sv = np.array([v for _, v in strikes], dtype=np.int64)
        ts = np.array([t for t, _ in strikes], dtype=np.float64)
        got = _intact_after_strikes(n, ei, ej, et, _strike_order(sv, ts))
        want = brute_strike_replay(n, edges, sorted(strikes))
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestAssembledState:
    @settings(max_examples=300, deadline=None)
    @given(
        masses=hostile_masses(),
        lam=HOSTILE_LAMBDAS,
        t=HOSTILE_HORIZONS,
        seed=st.integers(0, 2 ** 64 - 1),
    )
    def test_state_matches_grouping_every_survivor(self, masses, lam, t, seed):
        # isolated survivors are not grouped, and their masses are added to
        # the grouped weights as they are; the ordered state must not notice
        full = realize(masses, ClockField(seed), lam, t)
        assert full.state == all_survivors_state(full)
        for m in range(len(masses) + 1):
            trunc = truncated_realization(full, m)
            assert trunc.state == all_survivors_state(trunc)

    def test_criterion_seven_replica_matches_grouping_every_survivor(self):
        # the reference of criterion 7 at a smaller support: long components,
        # many strikes and a long tail of isolated vertices
        reference = power_law_reference(0.6, 512)
        full = realize(reference, ClockField(SEED).child(0), 1.0, 1.0)
        assert len(full.strike_vertex) > 0 and len(full.edge_i) > 100
        assert full.state == all_survivors_state(full)
        for m in (0, 16, 64, 256, 511, 512):
            trunc = truncated_realization(full, m)
            assert trunc.state == all_survivors_state(trunc)


class TestStateAt:
    def test_time_zero_returns_initial(self):
        v = ordered([2.0, 1.0, 0.5])
        assert state_at(v, ClockField(SEED), 1.0, 0.0) == v

    def test_deletion_free_reduces_to_component_weights(self):
        f = ClockField(SEED)
        v = ordered([1.0, 0.7, 0.4, 0.2])
        comps = graph_components(v, f, 1.2)
        weights = [sum(v.masses[i - 1] for i in c) for c in comps]
        assert state_at(v, f, 0.0, 1.2) == ordered(weights)

    def test_hand_traced_composition(self):
        masses = ordered([1.0, 1.0])
        early = StubClockField(pair_exps={(1, 2): 0.5}, vertex_exps={2: 0.3})
        assert state_at(masses, early, 1.0, 0.6).masses == (1.0,)
        late = StubClockField(pair_exps={(1, 2): 0.5}, vertex_exps={2: 0.55})
        assert state_at(masses, late, 1.0, 0.6).masses == ()


class TestRealizationInvariants:
    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_horizon(self, seed):
        f = ClockField(seed)
        v = ordered(np.random.default_rng(seed + 100).uniform(0.1, 1.0, 20).tolist())
        early = realize(v, f, 1.0, 0.5)
        late = realize(v, f, 1.0, 1.0)
        early_edges = set(zip(early.edge_i.tolist(), early.edge_j.tolist()))
        late_edges = set(zip(late.edge_i.tolist(), late.edge_j.tolist()))
        assert early_edges <= late_edges
        assert not (late.intact & ~early.intact).any()

    @pytest.mark.parametrize("seed", range(8))
    def test_survivor_s2_below_graph_s2(self, seed):
        f = ClockField(seed + 50)
        v = ordered(np.random.default_rng(seed).uniform(0.1, 1.0, 20).tolist())
        real = realize(v, f, 2.0, 1.0)
        arr = np.asarray(real.masses)
        s2_graph = sum(
            sum(arr[i - 1] for i in c) ** 2
            for c in components_from_edges(real.n, real.edge_i, real.edge_j)
        )
        assert real.state.norm_sq() <= s2_graph + 1e-12

    def test_deleted_sets_are_whole_survivor_components(self):
        # when a strike lands, the removed set is one connected component of
        # the graph at that moment restricted to intact vertices; replaying
        # horizons pinned just before/after each strike exposes that
        f = ClockField(977)
        v = ordered(np.random.default_rng(3).uniform(0.3, 1.0, 15).tolist())
        real = realize(v, f, 3.0, 1.0)
        strikes = sorted(zip(real.strike_time.tolist(), real.strike_vertex.tolist()))
        for ts, sv in strikes:
            before = realize(v, f, 3.0, np.nextafter(ts, 0.0))
            after = realize(v, f, 3.0, ts)
            removed = set(np.flatnonzero(before.intact & ~after.intact).tolist())
            if not before.intact[sv]:
                assert removed == set()
                continue
            survivors = components_from_edges(
                before.n, before.edge_i, before.edge_j, members=before.intact
            )
            comp_of_strike = next(set(c) for c in survivors if sv in c)
            assert removed == comp_of_strike

    def test_equality_is_identity(self):
        # the array fields have no truth value, so == and hash go by identity
        a, b = (realize([1.0, 0.5, 0.2], ClockField(1), 1.0, 1.0) for _ in range(2))
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_zero_mass_tail_vertices_stay_intact(self):
        f = ClockField(SEED)
        full = realize(ordered([1.0, 0.8, 0.5, 0.4]), f, 1.0, 1.0)
        trunc = truncated_realization(full, 2)
        assert trunc.intact[[3, 4]].all()
        assert trunc.state == state_at(ordered([1.0, 0.8]), f, 1.0, 1.0)


class TestPrefixCoupling:
    @settings(max_examples=300, deadline=None)
    @given(
        masses=hostile_masses(),
        lam=HOSTILE_LAMBDAS,
        t=HOSTILE_HORIZONS,
        seed=st.integers(0, 2 ** 64 - 1),
    )
    def test_truncation_equals_realization_of_zeroed_tail(self, masses, lam, t, seed):
        # under the shared field, filtering the full run's tables to labels
        # <= m is the run from x with x[m:] = 0, on every field, at every m
        f = ClockField(seed)
        full = realize(masses, f, lam, t)
        for m in range(len(masses) + 1):
            zeroed = masses[:m] + [0.0] * (len(masses) - m)
            got, want = truncated_realization(full, m), realize(zeroed, f, lam, t)
            for name in ("edge_i", "edge_j", "edge_time", "strike_vertex", "strike_time"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert np.array_equal(got.masses, want.masses)
            assert np.array_equal(got.intact, want.intact)
            assert got.state == want.state


class TestTimePrefixCoupling:
    @settings(max_examples=300, deadline=None)
    @given(
        masses=hostile_masses(),
        lam=HOSTILE_LAMBDAS,
        t=HOSTILE_HORIZONS,
        seed=st.integers(0, 2 ** 64 - 1),
    )
    def test_earlier_horizon_equals_filtered_tables(self, masses, lam, t, seed):
        # an arrival time does not depend on the horizon, so the run to g <= t
        # is the horizon-t run's tables filtered to times <= g, at every
        # event time (where the filter is tight) and at 0.  Only a hash on
        # the lowest lattice points (about 2**-51 per pair), where
        # -log1p(-u) rounds to u, could fail the cheap test u <= g * m_i * m_j
        # at g = its own time
        f = ClockField(seed)
        full = realize(masses, f, lam, t)
        for g in sorted({0.0, *full.edge_time.tolist(), *full.strike_time.tolist()}):
            e, s = full.edge_time <= g, full.strike_time <= g
            got = realize(masses, f, lam, g)
            want = _assemble(
                mass_array(masses),
                lam,
                g,
                full.edge_i[e],
                full.edge_j[e],
                full.edge_time[e],
                full.strike_vertex[s],
                full.strike_time[s],
            )
            for name in ("edge_i", "edge_j", "edge_time", "strike_vertex", "strike_time"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name
            assert got.horizon == want.horizon
            assert np.array_equal(got.masses, want.masses)
            assert np.array_equal(got.intact, want.intact)
            assert got.state == want.state


class TestS2Growth:
    def test_time_zero_mean_is_initial(self):
        v = ordered([0.5, 0.5])
        est = s2_growth_estimate(v, ClockField(SEED), 0.0, 10)
        assert est.mean == pytest.approx(0.5, abs=1e-12)

    def test_single_mass_has_no_pairs(self):
        v = ordered([0.6])
        est = s2_growth_estimate(v, ClockField(SEED), 0.5, 10)
        assert est.mean == pytest.approx(0.36, abs=1e-12)

    def test_hypothesis_enforced(self):
        v = ordered([1.0, 1.0])  # s2 = 2 > 1/(2t) at t = 1
        with pytest.raises(InvalidInput):
            s2_growth_estimate(v, ClockField(SEED), 1.0, 2)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_overflowing_squared_norm_refused(self, t):
        with pytest.raises(InvalidInput, match="squared norm of the masses overflows"):
            s2_growth_estimate([1e200], ClockField(SEED), t, 1)

    def test_doubling_bound_small_run(self):
        # scaled-down version of the acceptance check: 50 masses of 0.1
        v = ordered([0.1] * 50)
        est = s2_growth_estimate(v, ClockField(SEED), 1.0, 400)
        assert est.mean <= 1.0 + 3.0 * est.sem


class TestTrajectoryDelegation:
    def test_grid_of_zero(self):
        v = ordered([1.0, 0.5])
        traj = run_clocked(v, ClockField(SEED), 1.0, [0.0])
        assert traj.states[0] == v

    def test_states_match_state_at_on_grid(self):
        v = power_law_reference(0.6, 24)
        f = ClockField(SEED)
        grid = [0.2, 0.7, 1.3]
        traj = run_clocked(v, f, 1.0, grid)
        for g, st in zip(grid, traj.states):
            assert st == state_at(v, f, 1.0, g)
