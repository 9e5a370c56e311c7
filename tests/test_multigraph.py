import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcld.errors import InvalidInput
from mcld.multigraph import (
    ComponentMultigraph,
    classify_bad,
    classify_bad_bruteforce,
)


def mg(n_lower, n_upper, edges, damaged_lower=(), damaged_upper=()):
    return ComponentMultigraph(
        n_lower=n_lower,
        n_upper=n_upper,
        edges=tuple(edges),
        damaged_lower=tuple(k in damaged_lower for k in range(n_lower)),
        damaged_upper=tuple(l in damaged_upper for l in range(n_upper)),
    )


class TestClassifyBad:
    def test_no_damage_means_no_bad(self):
        cm = mg(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
        assert classify_bad(cm) == frozenset()

    def test_damaged_leaf_in_tree_is_good(self):
        # k damaged with degree one in a tree and no other damage: the fire
        # can only spread away from k, so k itself keeps its intact part
        cm = mg(2, 1, [(0, 0), (1, 0)], damaged_lower={0})
        assert 0 not in classify_bad(cm)
        assert classify_bad(cm) == frozenset({1})

    def test_intact_vertex_next_to_damage_is_bad(self):
        cm = mg(1, 1, [(0, 0)], damaged_upper={0})
        assert classify_bad(cm) == frozenset({0})

    def test_parallel_edges_make_a_circuit(self):
        # two parallel edges at a damaged k form an edge-simple walk back to k
        cm = mg(1, 1, [(0, 0), (0, 0)], damaged_lower={0})
        assert classify_bad(cm) == frozenset({0})

    def test_damaged_on_simple_cycle_is_bad(self):
        cm = mg(2, 2, [(0, 0), (1, 0), (1, 1), (0, 1)], damaged_lower={0})
        assert 0 in classify_bad(cm)

    def test_damage_in_other_component_does_not_leak(self):
        cm = mg(2, 2, [(0, 0), (1, 1)], damaged_upper={1})
        assert classify_bad(cm) == frozenset({1})

    def test_isolated_damaged_lower_is_good(self):
        # no edges at all: no walk of length >= 1 exists
        cm = mg(1, 0, [], damaged_lower={0})
        assert classify_bad(cm) == frozenset()

    def test_one_second_forest_serves_every_component(self):
        # three components, each with one damaged lower vertex as its only
        # damage: k0 on two parallel edges, k1 on the 4-cycle k1 l1 k2 l2,
        # k3 a leaf of the tree k3 - l3 - k4 - l4
        cm = mg(
            5,
            5,
            [(3, 3), (0, 0), (1, 1), (4, 3), (2, 1), (0, 0), (2, 2), (4, 4), (1, 2)],
            damaged_lower={0, 1, 3},
        )
        assert classify_bad(cm) == frozenset({0, 1, 2, 4})

    def test_damaged_cut_vertex_of_a_tree_is_good(self):
        # k1 joins l1 and l2 in a tree: its two edges end in different
        # components without k1, whatever forest k0's parallel edges need
        cm = mg(2, 3, [(0, 0), (0, 0), (1, 1), (1, 2)], damaged_lower={0, 1})
        assert classify_bad(cm) == frozenset({0})

    def test_flag_length_validated(self):
        with pytest.raises(InvalidInput):
            ComponentMultigraph(
                n_lower=2,
                n_upper=0,
                edges=(),
                damaged_lower=(True,),
                damaged_upper=(),
            )


class TestFields:
    """Any sequences are converted once to arrays and checked on the way in."""

    def test_tuples_and_arrays_give_the_same_arrays(self):
        edges, lower, upper = ((0, 1), (1, 0), (0, 1)), (True, False), (False, False)
        from_tuples = ComponentMultigraph(2, 2, edges, lower, upper)
        from_arrays = ComponentMultigraph(
            2, 2, np.array(edges, dtype=np.int32), np.array(lower), np.array([0, 0])
        )
        for cm in (from_tuples, from_arrays):
            assert cm.edges.dtype == np.int64 and cm.edges.shape == (3, 2)
            assert cm.edges.tolist() == [[0, 1], [1, 0], [0, 1]]
            assert cm.damaged_lower.dtype == bool and cm.damaged_lower.tolist() == [True, False]
            assert cm.damaged_upper.dtype == bool and cm.damaged_upper.tolist() == [False, False]
            assert classify_bad(cm) == classify_bad_bruteforce(cm) == frozenset({0})

    def test_no_edges_is_an_empty_two_column_array(self):
        for edges in ((), [], np.empty((0, 2), dtype=np.int64)):
            cm = ComponentMultigraph(1, 1, edges, (True,), (False,))
            assert cm.edges.shape == (0, 2) and cm.edges.dtype == np.int64
            assert classify_bad(cm) == frozenset()

    @pytest.mark.parametrize(
        "edge", [(-1, 0), (0, -1), (2, 0), (0, 3)],
        ids=["negative_lower", "negative_upper", "lower_at_n_lower", "upper_at_n_upper"],
    )
    def test_edge_outside_the_ranges_refused(self, edge):
        k, l = edge
        with pytest.raises(InvalidInput, match=rf"^edge \({k}, {l}\) outside vertex ranges$"):
            ComponentMultigraph(2, 3, [(0, 0), edge, (1, 2)], (False,) * 2, (False,) * 3)

    @pytest.mark.parametrize(
        "lower, upper, side",
        [((False,), (False,) * 3, "lower"), ((False,) * 3, (False,) * 3, "lower"),
         ((False,) * 2, (False,) * 2, "upper"), ((False,) * 2, (False,) * 4, "upper")],
    )
    def test_flag_list_of_the_wrong_length_refused(self, lower, upper, side):
        with pytest.raises(InvalidInput, match=f"^need one damage flag per {side} vertex$"):
            ComponentMultigraph(2, 3, [(0, 0)], lower, upper)


def random_multigraph(rng) -> ComponentMultigraph:
    n_lower = int(rng.integers(1, 5))
    n_upper = int(rng.integers(0, 5 - min(n_lower, 4) + 4))
    n_upper = min(n_upper, 8 - n_lower)
    n_edges = int(rng.integers(0, 11)) if n_upper else 0
    edges = [
        (int(rng.integers(0, n_lower)), int(rng.integers(0, n_upper)))
        for _ in range(n_edges)
    ]
    return ComponentMultigraph(
        n_lower=n_lower,
        n_upper=n_upper,
        edges=tuple(edges),
        damaged_lower=tuple(bool(rng.integers(0, 2)) for _ in range(n_lower)),
        damaged_upper=tuple(bool(rng.integers(0, 2)) for _ in range(n_upper)),
    )


def _fixed(elements, size):
    return st.lists(elements, min_size=size, max_size=size)


@st.composite
def multigraphs(draw) -> ComponentMultigraph:
    """Up to 12 vertices and 14 edges; each vertex joins one of three blocks
    and edges stay inside their block, so most draws have several
    components."""
    n_lower = draw(st.integers(1, 6))
    n_upper = draw(st.integers(1, 12 - n_lower))
    lower_block = draw(_fixed(st.integers(0, 2), n_lower))
    upper_block = draw(_fixed(st.integers(0, 2), n_upper))
    pairs = [
        (k, l)
        for k in range(n_lower)
        for l in range(n_upper)
        if lower_block[k] == upper_block[l]
    ]
    edges = []
    if pairs:
        edges = draw(_fixed(st.sampled_from(pairs), draw(st.integers(0, 14))))
    return ComponentMultigraph(
        n_lower=n_lower,
        n_upper=n_upper,
        edges=tuple(edges),
        damaged_lower=tuple(draw(_fixed(st.booleans(), n_lower))),
        damaged_upper=tuple(draw(_fixed(st.booleans(), n_upper))),
    )


class TestOracleEquivalence:
    @settings(max_examples=400, deadline=None)
    @given(multigraphs())
    def test_equals_oracle_on_several_components(self, cm):
        assert classify_bad(cm) == classify_bad_bruteforce(cm)

    def test_thousand_random_instances(self):
        rng = np.random.default_rng(424242)
        for _ in range(1000):
            cm = random_multigraph(rng)
            assert classify_bad(cm) == classify_bad_bruteforce(cm), cm

    def test_bridge_chain_with_far_damage(self):
        # path k0 - l0 - k1 - l1 (damage at l1): every lower vertex on the
        # path reaches the damage by a simple path
        cm = mg(2, 2, [(0, 0), (1, 0), (1, 1)], damaged_upper={1})
        assert classify_bad(cm) == frozenset({0, 1})
