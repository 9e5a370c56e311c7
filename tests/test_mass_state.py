import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcld.clock_field import ClockField
from mcld.errors import InvalidInput
from mcld.events import run_clocked
from mcld.graphical import realize, s2_growth_estimate
from mcld.frozen_percolation import fp_mcld_compare, run_fp
from mcld.mass_state import (
    OrderedMassVector,
    dist,
    ordered,
    rate,
    time_list,
    truncate,
    weight_array,
)
from mcld.truncation import feller_budget, tail_truncation_index, truncation_report

from helpers import (
    brute_components,
    component_s2,
    component_weights,
    hostile_masses,
    loop_dist,
    make_clocks_unreadable,
    ordered_weights,
)

# masses at simulation scale: squaring must not underflow to zero
mass_value = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=10.0))
masses_strategy = st.lists(mass_value, max_size=20)


class TestOrdered:
    def test_permutation(self):
        assert ordered((1, 3, 2)).masses == (3.0, 2.0, 1.0)

    def test_empty(self):
        assert ordered(()).masses == ()

    def test_duplicates_and_zero_trimming(self):
        assert ordered((2, 2, 0, 5)).masses == (5.0, 2.0, 2.0)

    def test_negative_rejected(self):
        with pytest.raises(InvalidInput):
            ordered((1.0, -0.5))

    @given(masses_strategy)
    def test_idempotent(self, values):
        once = ordered(values)
        assert ordered(once.masses) == once

    @given(masses_strategy, st.randoms())
    def test_permutation_invariant(self, values, rnd):
        shuffled = list(values)
        rnd.shuffle(shuffled)
        assert ordered(shuffled) == ordered(values)


SUBNORMALS = st.lists(st.sampled_from([5e-324, 1e-310, 2.5e-308, 2.0 ** -1022]), max_size=4)


class TestDist:
    def test_single_entry_vs_empty(self):
        assert dist(ordered([1.0]), ordered([])) == 1.0

    def test_padded_formula(self):
        assert dist(ordered([3, 1]), ordered([2, 2])) == pytest.approx(
            math.sqrt(2), abs=1e-12
        )

    def test_identity(self):
        v = ordered([5, 4, 1])
        assert dist(v, v) == 0.0

    @given(masses_strategy, masses_strategy)
    def test_symmetric_nonnegative(self, a, b):
        va, vb = ordered(a), ordered(b)
        assert dist(va, vb) >= 0.0
        assert dist(va, vb) == dist(vb, va)
        assert (dist(va, vb) == 0.0) == (va == vb)

    @given(masses_strategy, masses_strategy, masses_strategy)
    def test_triangle_inequality(self, a, b, c):
        va, vb, vc = ordered(a), ordered(b), ordered(c)
        assert dist(va, vc) <= dist(va, vb) + dist(vb, vc) + 1e-9

    @settings(max_examples=150, deadline=None)
    @given(hostile_masses(), hostile_masses(), SUBNORMALS, SUBNORMALS)
    @example([], [], [], [])
    @example([1.0], [], [5e-324], [])
    @example([], [], [], [2.5e-308, 5e-324])
    def test_matches_padded_loop_bit_for_bit(self, a, b, tail_a, tail_b):
        # unequal lengths, empty states and subnormal entries, whose
        # differences and squares round (or vanish) alike in both
        va, vb = ordered(a + tail_a), ordered(b + tail_b)
        assert dist(va, vb).hex() == loop_dist(va, vb).hex()


class TestS2:
    """Sum of squared component weights, as truncation reads it off a
    realization: masses are indexed by 1-based vertex labels."""

    def test_two_blocks(self):
        assert component_s2([2.0, 1.0, 1.0], ((1, 2), (3,))) == pytest.approx(
            10.0, abs=1e-12
        )

    def test_singletons(self):
        masses = [float(k) for k in range(1, 6)]
        comps = tuple((k,) for k in range(1, 6))
        assert component_s2(masses, comps) == pytest.approx(sum(k * k for k in masses))

    def test_single_block(self):
        assert component_s2([1.0] * 4, ((1, 2, 3, 4),)) == pytest.approx(16.0)

    @given(
        st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=2, max_size=10),
        st.data(),
    )
    def test_merging_two_blocks_adds_twice_the_product(self, values, data):
        blocks = [(k,) for k in range(1, len(values) + 1)]
        a = data.draw(st.integers(min_value=0, max_value=len(blocks) - 1))
        b = data.draw(st.integers(min_value=0, max_value=len(blocks) - 1))
        if a == b:
            return
        merged = [blk for k, blk in enumerate(blocks) if k not in (a, b)]
        merged.append(tuple(sorted(blocks[a] + blocks[b])))
        wa, wb = values[a], values[b]
        assert component_s2(values, merged) - component_s2(
            values, blocks
        ) == pytest.approx(2 * wa * wb, rel=1e-9)


class TestTruncate:
    def test_basic(self):
        assert truncate(ordered([4, 3, 2, 1]), 2).masses == (4.0, 3.0)

    def test_over_truncation_is_identity(self):
        v = ordered([4, 3])
        assert truncate(v, 10) == v

    def test_to_empty(self):
        assert truncate(ordered([4, 3, 2]), 0).masses == ()

    def test_negative_rejected(self):
        with pytest.raises(InvalidInput):
            truncate(ordered([1.0]), -1)


class TestCompareViaS2:
    """For a graph G inside G' on the same weighted vertices, the states are
    at most sqrt(s2(G') - s2(G)) apart."""

    @staticmethod
    def nested_states(masses, edges_small, edges_big):
        vertices = sorted(masses)
        small = ordered(ordered_weights(masses, brute_components(vertices, edges_small)))
        big = ordered(ordered_weights(masses, brute_components(vertices, edges_big)))
        return small, big

    def test_equal(self):
        # an edge to a zero-mass vertex moves neither s2 nor the state
        small, big = self.nested_states({1: 2.0, 2: 0.0}, [], [(1, 2)])
        assert math.sqrt(big.norm_sq() - small.norm_sq()) == 0.0
        assert dist(small, big) == 0.0

    def test_gap_of_four(self):
        # (1,1,1,1) -> (2,2): s2 goes 4 -> 8 and the bound 2 is attained
        masses = {v: 1.0 for v in range(1, 5)}
        small, big = self.nested_states(masses, [], [(1, 2), (3, 4)])
        assert math.sqrt(big.norm_sq() - small.norm_sq()) == 2.0
        assert dist(small, big) == 2.0

    def test_hand_enumerated_nested_graph_pair(self):
        # masses (2,1,1); no edges vs the single edge {1,2}: s2 goes 6 -> 10,
        # states go (2,1,1) -> (3,1); distance sqrt((2-3)^2 + 0 + 1) = sqrt(2)
        masses = {1: 2.0, 2: 1.0, 3: 1.0}
        comps_small = brute_components([1, 2, 3], [])
        comps_big = brute_components([1, 2, 3], [(1, 2)])
        state_small = ordered(ordered_weights(masses, comps_small))
        state_big = ordered(ordered_weights(masses, comps_big))
        s2_small = sum(w * w for w in state_small)
        s2_big = sum(w * w for w in state_big)
        assert (s2_small, s2_big) == (6.0, 10.0)
        bound = math.sqrt(s2_big - s2_small)
        assert bound == 2.0
        actual = dist(state_small, state_big)
        assert actual == pytest.approx(math.sqrt(2), abs=1e-12)
        assert actual <= bound

    @settings(max_examples=200)
    @given(st.data())
    def test_distance_bounded_on_random_nested_graphs(self, data):
        # random masses, random graph pair G inside G' on up to 30 vertices
        n = data.draw(st.integers(min_value=1, max_value=30))
        masses = {
            v: data.draw(
                st.floats(min_value=0.0, max_value=3.0), label=f"mass{v}"
            )
            for v in range(1, n + 1)
        }
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        sub = data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
        extra = data.draw(
            st.sets(st.sampled_from(pairs)) if pairs else st.just(set())
        )
        vertices = list(range(1, n + 1))
        small = ordered(ordered_weights(masses, brute_components(vertices, sub)))
        big = ordered(
            ordered_weights(masses, brute_components(vertices, sub | extra))
        )
        lhs = dist(small, big)
        rhs = math.sqrt(abs(big.norm_sq() - small.norm_sq()))
        assert lhs <= rhs + 1e-9


def test_state_of_partition_matches_ordered_weights():
    # a realization's state is the decreasing rearrangement of its block weights
    weights = component_weights([0.5, 2.0, 1.0], ((1, 3), (2,)))
    assert ordered(weights).masses == (2.0, 1.5)


def test_canonical_trailing_zeros():
    v = OrderedMassVector((2.0, 1.0, 0.0, 0.0))
    assert v.masses == (2.0, 1.0)
    with pytest.raises(InvalidInput):
        OrderedMassVector((1.0, 2.0))


@st.composite
def maybe_spoiled_masses(draw):
    """A hostile mass vector, or one spoiled by a NaN or an infinity at any
    position, a negative last entry, an increasing last pair or a second
    axis; the empty vector is among the unspoiled ones."""
    masses = draw(hostile_masses())
    spoil = draw(st.sampled_from(["none", "nonfinite", "negative", "increasing", "2-d"]))
    if spoil == "nonfinite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        masses.insert(draw(st.integers(0, len(masses))), bad)
    elif spoil == "negative":
        masses.append(-draw(st.floats(1e-300, 1e300)))
    elif spoil == "increasing":
        masses.append(2.0 * max(masses, default=0.0) + 1.0)
    elif spoil == "2-d":
        return np.array([masses])
    return masses


class TestOneInputContract:
    @settings(max_examples=300, deadline=None)
    @given(masses=maybe_spoiled_masses())
    @example(masses=[1.0, math.nan, 0.5])
    @example(masses=[])
    def test_entry_points_agree_on_what_they_accept(self, masses):
        # t = 1e-302 keeps 2 t s2 <= 1, the growth bound's hypothesis, for
        # every hostile state (at most 25 masses of 1e150)
        field, t = ClockField(17), 1e-302
        calls = (
            lambda: realize(masses, field, 1.0, t),
            lambda: run_clocked(masses, field, 1.0, [t]),
            lambda: s2_growth_estimate(masses, field, t, 1),
            lambda: tail_truncation_index(masses, 0.0),
            lambda: list(truncation_report(masses, 17, 1.0, t, [0], 1)),
        )
        accepted = []
        for call in calls:
            try:
                call()
            except InvalidInput:
                accepted.append(False)
            else:
                accepted.append(True)
        assert len(set(accepted)) == 1, accepted

    @pytest.mark.parametrize(
        "values",
        [[], [math.nan], [math.inf], [-0.5], [0.5, 0.5], [1.0, 0.5], [[1.0]], ["x"]],
    )
    def test_time_list_rejects(self, values):
        with pytest.raises(InvalidInput, match="grid"):
            time_list(values, "grid")

    def test_time_list_accepts(self):
        assert time_list([0, 0.5, 2], "grid") == (0.0, 0.5, 2.0)

    @pytest.mark.parametrize(
        "values", [[math.nan], [1.0, math.inf], [0.5, -0.5], [[1.0]], ["x"]]
    )
    def test_weight_array_rejects(self, values):
        with pytest.raises(InvalidInput, match="weights"):
            weight_array(values, "weights", False)

    @pytest.mark.parametrize("value", [-1.0, -math.inf, math.nan, math.inf, "x", None])
    def test_rate_rejects(self, value):
        with pytest.raises(InvalidInput, match="speed"):
            rate(value, "speed")

    def test_rate_accepts(self):
        assert rate(0, "speed") == 0.0 and type(rate(0, "speed")) is float
        assert rate("2.5", "speed") == 2.5

    @pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("t", [0.0, 2.0])
    def test_every_rate_refused_before_any_clock(self, monkeypatch, lam, t):
        # a bad rate is refused even where no strike could be drawn: at
        # t = 0 or when every mass is 0
        make_clocks_unreadable(monkeypatch)
        calls = (
            lambda: run_clocked([1.0, 0.5], ClockField(3), lam, [t]),
            lambda: realize([1.0, 0.5], ClockField(3), lam, t),
            lambda: realize([0.0, 0.0], ClockField(3), lam, t),
            lambda: list(truncation_report([1.0, 0.5], 3, lam, t, [1], 1)),
            lambda: run_fp(np.arange(4), lam, [t], np.random.default_rng(0)),
            lambda: fp_mcld_compare([10], lam, 0.0, [t], 1, 1, n_ref=20),
            lambda: feller_budget(0.1, 1.0, 1.0, lam),
        )
        for call in calls:
            with pytest.raises(InvalidInput, match="rate|lam_rescaled"):
                call()

    def test_weight_array_orders_only_on_request(self):
        assert weight_array([0.5, 1.0, 0.0], "weights", False).tolist() == [0.5, 1.0, 0.0]
        with pytest.raises(InvalidInput, match="non-increasing"):
            weight_array([0.5, 1.0], "masses", True)
