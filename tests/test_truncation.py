import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcld.clock_field import ClockField
from mcld.errors import InvalidInput, InvariantViolation
from mcld.feller import power_law_reference
from mcld.graphical import realize
from mcld.mass_state import ordered
from mcld.multigraph import classify_bad
from mcld.truncation import (
    _good_vertices,
    bipartite_bound,
    bipartite_s2_samples,
    component_multigraph,
    feller_budget,
    frozen_split_gap_samples,
    report_from_split,
    sandwich_graphs,
    split_from_realization,
    tail_truncation_index,
    truncation_bound,
    truncation_bound_terms,
    truncation_report,
)

from helpers import (
    HOSTILE_HORIZONS,
    HOSTILE_LAMBDAS,
    StubClockField,
    brute_components,
    components_from_edges,
    fail_sandwich_at,
    hostile_masses,
    make_clocks_unreadable,
)

SEED = 1618


class TestSplit:
    def test_level_equal_to_support_has_empty_upper(self):
        v = ordered([1.0, 0.8, 0.5])
        sr = split_from_realization(realize(v, ClockField(SEED), 1.0, 1.0), 3)
        assert sr.n_lower == sr.component.max() + 1
        assert sr.beta == 0.0

    def test_level_zero_has_empty_lower(self):
        v = ordered([1.0, 0.8, 0.5])
        sr = split_from_realization(realize(v, ClockField(SEED), 1.0, 1.0), 0)
        assert sr.n_lower == 0
        assert sr.alpha == 0.0

    def test_equality_is_identity(self):
        full = realize([1.0, 0.5, 0.2], ClockField(1), 1.0, 1.0)
        a, b = split_from_realization(full, 1), split_from_realization(full, 1)
        assert a == a and a != b
        assert len({a, b}) == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_alpha_plus_beta_at_most_full_s2(self, seed):
        # cross edges only merge blocks, so the split squared norms cannot
        # exceed the full graph's squared norm
        v = power_law_reference(0.6, 40)
        full = realize(v, ClockField(seed), 1.0, 1.0)
        arr = np.asarray(full.masses)
        comps = components_from_edges(full.n, full.edge_i, full.edge_j)
        s2_full = sum(sum(arr[i - 1] for i in c) ** 2 for c in comps)
        sr = split_from_realization(full, 20)
        assert sr.alpha + sr.beta <= s2_full + 1e-9

    def test_lower_components_partition_prefix(self):
        # the components of the graph without its cross edges, numbered by
        # least label: the lower ones cover exactly the labels 1..12
        v = power_law_reference(0.6, 30)
        full = realize(v, ClockField(SEED + 1), 1.0, 1.0)
        sr = split_from_realization(full, 12)
        side = ~((full.edge_i <= 12) & (full.edge_j > 12))
        comps = components_from_edges(30, full.edge_i[side], full.edge_j[side])
        assert 1 < sr.n_lower < len(comps)
        want = np.full(31, -1)
        for number, comp in enumerate(comps):
            want[list(comp)] = number
        assert np.array_equal(sr.component, want)
        assert (sr.component[1:13] < sr.n_lower).all()
        assert (sr.component[13:] >= sr.n_lower).all()


class TestComponentMultigraph:
    @pytest.mark.parametrize("seed", range(3))
    def test_one_row_per_cross_edge_and_one_flag_per_component(self, seed):
        # the lengths are what a traced run counts as cross edges and bad
        # components
        v = ordered(np.random.default_rng(seed).uniform(0.05, 1.0, 40).tolist())
        full = realize(v, ClockField(SEED + seed), 1.0, 1.5)
        for m in (0, 10, 25, 40):
            sr = split_from_realization(full, m)
            cm = component_multigraph(sr)
            n_cross = int(np.count_nonzero((full.edge_i <= m) & (full.edge_j > m)))
            assert len(cm.edges) == n_cross
            assert cm.edges.shape == (n_cross, 2) and cm.edges.dtype == np.int64
            assert cm.n_lower == sr.n_lower == len(cm.damaged_lower)
            assert cm.n_lower + cm.n_upper == sr.component.max() + 1
            bad = classify_bad(cm)
            assert isinstance(bad, frozenset) and all(0 <= k < cm.n_lower for k in bad)


class TestSandwich:
    def test_no_strikes_full_level_gives_zero_gap(self):
        v = ordered([1.0, 0.8, 0.5, 0.3])
        sr = split_from_realization(realize(v, ClockField(SEED), 0.0, 1.0), 4)
        bad = classify_bad(component_multigraph(sr))
        assert bad == frozenset()
        squares_hat, squares_check = sandwich_graphs(sr, bad)
        assert math.fsum(squares_check) - math.fsum(squares_hat) == 0.0

    def test_full_level_with_strikes_gives_zero_gap(self):
        # no upper vertices: the bipartite graph has no edges, nothing is bad
        v = ordered([1.0, 0.8, 0.5, 0.3])
        sr = split_from_realization(realize(v, ClockField(SEED + 2), 2.0, 1.0), 4)
        rep = report_from_split(sr)
        assert rep.gap == 0.0
        assert rep.distance == 0.0
        assert rep.holds

    @pytest.mark.parametrize("seed", range(40))
    def test_sandwich_inequality_every_seed(self, seed):
        v = power_law_reference(0.6, 64)
        full = realize(v, ClockField(seed), 1.0, 1.0)
        for m in (16, 32):
            sr = split_from_realization(full, m)
            rep = report_from_split(sr)
            assert rep.gap >= 0.0
            assert rep.distance <= 3.0 * math.sqrt(rep.gap) + 1e-9
            # the chain through both survivor graphs: the full run's, and the
            # graph spanned on the truncated run's intact set
            s2_survivor_full = full.state.norm_sq()
            intact = set(np.flatnonzero(sr.truncated.intact).tolist())
            edges = [
                (a, b)
                for a, b in zip(full.edge_i.tolist(), full.edge_j.tolist())
                if a in intact and b in intact
            ]
            s2_spanned = math.fsum(
                math.fsum(full.masses[v - 1] for v in c) ** 2
                for c in brute_components(sorted(intact), edges)
            )
            assert rep.s2_hat - 1e-9 <= s2_survivor_full <= rep.s2_check + 1e-9
            assert rep.s2_hat - 1e-9 <= s2_spanned <= rep.s2_check + 1e-9

    def test_figure_style_damaged_leaf_component(self):
        # lower component {1,2} (edge at 0.1), upper {3} attached by a cross
        # edge at 0.2, lightning on vertex 1 at 0.5: the lower component is
        # damaged but good, and the whole chain burns in the full run while
        # only {1,2} burns in the truncated one
        masses = ordered([1.0, 0.9, 0.8])
        f = StubClockField(
            pair_exps={
                (1, 2): 0.1 * 1.0 * 0.9,
                (2, 3): 0.2 * 0.9 * 0.8,
            },
            vertex_exps={1: 0.5 * 1.0},
        )
        sr = split_from_realization(realize(masses, f, 1.0, 1.0), 2)
        assert np.flatnonzero(sr.full.intact).tolist() == []
        assert np.flatnonzero(sr.truncated.intact).tolist() == [3]
        cm = component_multigraph(sr)
        assert cm.damaged_lower.tolist() == [True]
        assert cm.damaged_upper.tolist() == [False]
        assert classify_bad(cm) == frozenset()
        rep = report_from_split(sr)
        assert rep.good_violations == 0
        assert rep.holds

    def test_label_zero_is_never_good(self):
        # at the full level every component is lower and good, the last one
        # too; label 0, numbered -1, must not read the last component's flag
        v = ordered([1.0, 0.8, 0.5, 0.3])
        sr = split_from_realization(realize(v, ClockField(SEED), 0.0, 1.0), 4)
        good = _good_vertices(sr, frozenset())
        assert good.tolist() == [False, True, True, True, True]
        assert not _good_vertices(sr, frozenset(range(sr.n_lower))).any()

    @pytest.mark.parametrize("seed", range(60))
    def test_good_component_identity_random(self, seed):
        rng = np.random.default_rng(seed)
        support = int(rng.integers(4, 40))
        v = ordered(rng.uniform(0.05, 1.0, support).tolist())
        full = realize(v, ClockField(seed * 7 + 1), 1.0, 1.0)
        sr = split_from_realization(full, support // 2)
        assert report_from_split(sr).good_violations == 0


def brute_spanned_s2(real, mask) -> float:
    """Squared norm of the graph spanned by ``mask``, by plain BFS."""
    inside = set(np.flatnonzero(mask).tolist())
    edges = [
        (a, b)
        for a, b in zip(real.edge_i.tolist(), real.edge_j.tolist())
        if a in inside and b in inside
    ]
    weights = [
        math.fsum(real.masses[v - 1] for v in c)
        for c in brute_components(sorted(inside), edges)
    ]
    return math.fsum(w * w for w in weights)


class TestSandwichProperty:
    @settings(max_examples=300, deadline=None)
    @given(
        masses=hostile_masses(),
        lam=HOSTILE_LAMBDAS,
        t=HOSTILE_HORIZONS,
        seed=st.integers(0, 2 ** 64 - 1),
    )
    @example(masses=[1e78], lam=0.0, t=0.3, seed=0)
    @example(masses=[1e150, 1e-160], lam=1.0, t=1.0, seed=0)
    def test_every_level_holds(self, masses, lam, t, seed):
        # ties, zero tails and extreme magnitudes, at every level
        full = realize(masses, ClockField(seed), lam, t)
        for m in range(len(masses) + 1):
            sr = split_from_realization(full, m)
            try:
                rep = report_from_split(sr)
            except InvalidInput as exc:
                # only a bound term past the float range is refused: with
                # t^2 alpha beta <= 1/2, t <= 5 and lam <= 2 the bad-set term
                # is below 2 (sqrt(alpha) + 5 alpha^1.5), and the bipartite
                # one stays in range
                assert "the truncation bound overflows" in str(exc)
                assert sr.alpha > 1e204
                continue
            assert rep.holds
            assert rep.good_violations == 0
            # the inner and outer graphs, rebuilt from their definitions
            bad = classify_bad(component_multigraph(sr))
            lower = (sr.component >= 0) & (sr.component < sr.n_lower)
            good = lower & ~np.isin(sr.component, list(bad))
            v_hat = good & sr.truncated.intact
            v_check = v_hat | ((sr.component >= 0) & ~good)
            assert rep.s2_hat == brute_spanned_s2(full, v_hat)
            assert rep.s2_check == brute_spanned_s2(full, v_check)


def _one_report(masses, m):
    ((_, _, rep),) = truncation_report(masses, SEED, 1.0, 1.0, [m], 1)
    return rep


class TestTruncationReportShape:
    def test_json_schema(self):
        v = power_law_reference(0.6, 32)
        d = _one_report(v, 8).to_json_dict()
        assert set(d) == {
            "m",
            "alpha",
            "beta",
            "s2_hat",
            "s2_check",
            "gap",
            "distance",
            "bound_terms",
            "holds",
        }

    def test_bound_terms_present_iff_hypothesis_holds(self):
        light = ordered([0.2, 0.1, 0.1, 0.05])
        assert _one_report(light, 2).bound_terms is not None
        heavy = power_law_reference(0.6, 128)
        rep = _one_report(heavy, 64)
        if rep.alpha * rep.beta > 0.5:
            assert rep.bound_terms is None


class TestTruncationReportLoop:
    def test_one_realization_per_replica_serves_every_level(self):
        v = power_law_reference(0.6, 48)
        got = list(truncation_report(v, SEED, 1.0, 1.0, [24, 8], 3))
        assert [(r, m) for r, m, _ in got] == [
            (r, m) for r in range(3) for m in (24, 8)
        ]
        for r, m, rep in got:
            full = realize(v, ClockField(SEED).child(r), 1.0, 1.0)
            assert rep.m == m
            assert rep == report_from_split(split_from_realization(full, m))

    @pytest.mark.parametrize(
        "changes",
        [
            {"levels": [4, 17]},
            {"levels": [-1]},
            {"levels": [4, 4]},
            {"levels": []},
            {"replicas": 0},
            {"lam": -1.0},
            {"t": math.nan},
            {"t": -1.0},
            {"masses": [0.5, 1.0]},
            {"masses": [1.0, math.nan]},
            {"masses": [1e200, 1e200], "t": 0.0, "levels": [1]},
            {"masses": [1e200], "levels": [1]},
        ],
    )
    def test_every_input_checked_before_any_clock(self, monkeypatch, changes):
        make_clocks_unreadable(monkeypatch)
        args = {
            "masses": power_law_reference(0.6, 16),
            "seed": SEED,
            "lam": 1.0,
            "t": 1.0,
            "levels": [4, 16],
            "replicas": 2,
        }
        with pytest.raises(AssertionError, match="a clock was read"):
            list(truncation_report(**args))
        with pytest.raises(InvalidInput):
            list(truncation_report(**{**args, **changes}))

    def test_bad_input_raises_at_the_call(self):
        # the reports come back as a list, so nothing waits for a first next()
        with pytest.raises(InvalidInput, match="nonnegative"):
            truncation_report([-1.0], 0, 1.0, 1.0, [1], 1)

    def test_invariant_violation_is_yielded_not_raised(self, monkeypatch):
        fail_sandwich_at(monkeypatch, 8)
        v = power_law_reference(0.6, 32)
        reports = truncation_report(v, SEED, 1.0, 1.0, [8, 16], 2)
        got = {(r, m): rep for r, m, rep in reports}
        assert sorted(got) == [(0, 8), (0, 16), (1, 8), (1, 16)]
        for (r, m), rep in got.items():
            assert isinstance(rep, InvariantViolation) == (m == 8)

    def test_gap_cancelled_by_rounding_is_summed_exactly(self):
        # the outer graph's s2, 1e58 + 9, rounds to the inner graph's 1e58;
        # the gap summed in one pass is 9, and 3 * sqrt(9) bounds distance 3
        ((_, _, rep),) = truncation_report([1e29, 3.0], SEED, 1.0, 0.0, [1], 1)
        assert rep.s2_check - rep.s2_hat == 0.0
        assert (rep.gap, rep.distance, rep.holds) == (9.0, 3.0, True)


class TestAnalyticBounds:
    def test_bipartite_zero_upper(self):
        assert bipartite_bound(1.0, 0.0, 1.0, 5) == 0.0

    def test_bipartite_formula(self):
        assert bipartite_bound(1.0, 0.1, 1.0, 5) == pytest.approx(0.8)

    @pytest.mark.parametrize("k", range(3))
    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_bipartite_inputs_must_be_nonnegative(self, k, bad):
        args = [1.0, 0.1, 1.0]
        args[k] = bad
        with pytest.raises(InvalidInput, match="must be nonnegative"):
            bipartite_bound(*args, 5)

    def test_bipartite_factor_past_float_range(self):
        # (1 + t a)^2 overflows, the bound does not: it is the bipartite term
        bound = bipartite_bound(1e155, 1e-160, 1.0, 1)
        assert bound == truncation_bound_terms(1e155, 1e-160, 1.0, 0.0)[0]
        assert bound == 1.99999999999998e150
        study = bipartite_s2_samples([3.2e77], [1e-80], 1.0, 0, 2)
        assert math.isfinite(study.bound) and study.bound > 0.0

    def test_bipartite_hypothesis(self):
        with pytest.raises(InvalidInput):
            bipartite_bound(2.0, 2.0, 1.0, 5)

    def test_truncation_bound_zero_beta(self):
        assert truncation_bound(1.0, 0.0, 1.0, 1.0) == 0.0

    def test_truncation_bound_formula(self):
        # alpha=1, beta=0.1, t=1, lam=1: 2*0.1*4 + 2*0.1*2*1 = 1.2
        assert truncation_bound(1.0, 0.1, 1.0, 1.0) == pytest.approx(1.2)

    def test_truncation_bound_hypothesis(self):
        with pytest.raises(InvalidInput):
            truncation_bound(1.0, 1.0, 1.0, 1.0)

    def test_truncation_bound_overflow_refused(self):
        # the split of [1e150, 1e-160] at level 1, at t = lam = 1: the
        # bad-set term is about 2e430, past the float range
        with pytest.raises(InvalidInput, match="the truncation bound overflows"):
            truncation_bound(1e150 ** 2, 1e-160 ** 2, 1.0, 1.0)

    def test_factor_past_float_range_midway(self):
        # beta = 0: (1 + 0.3e156)^2 leaves the float range, the terms are 0
        assert truncation_bound_terms(1e156, 0.0, 0.3, 0.0) == (0.0, 0.0)
        # alpha^1.5 leaves it where t * t is 0: the term is summed in logs
        b1, b2 = truncation_bound_terms(1e210, 1e-10, 1e-300, 1.0)
        assert b1 == 2e-10
        assert b2 == pytest.approx(2e-295, rel=1e-12)

    @pytest.mark.parametrize("k", range(4))
    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_truncation_bound_inputs_must_be_nonnegative(self, k, bad):
        args = [1.0, 0.1, 1.0, 1.0]
        args[k] = bad
        with pytest.raises(InvalidInput, match="must be nonnegative"):
            truncation_bound_terms(*args)


class TestFellerBudget:
    def test_monotone_in_head_bound_and_accuracy(self):
        base = feller_budget(0.1, 2.0, 1.0, 1.0)
        assert feller_budget(0.1, 4.0, 1.0, 1.0) <= base
        assert feller_budget(0.05, 2.0, 1.0, 1.0) <= base

    def test_pinned_value(self):
        # eps=0.1, M=2, t=1, lam=1: both constraints evaluated directly
        c = 2.0 * max(1.0, 1.0)
        expected = min(
            1.0 / (2.0 * 2.0),
            0.1 ** 3 / (9.0 * c * ((1 + 2.0) ** 2 + (1 + 2.0) * 2.0 ** 1.5)),
        )
        assert feller_budget(0.1, 2.0, 1.0, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.001 / (18.0 * (9.0 + 3.0 * 2.0 ** 1.5)))

    def test_first_constraint_always_met(self):
        for eps in (0.1, 1.0, 5.0):
            for m_head in (0.5, 2.0, 10.0):
                delta = feller_budget(eps, m_head, 1.0, 1.0)
                assert 1.0 * m_head * delta <= 0.5 + 1e-15

    def test_positive_inputs_required(self):
        with pytest.raises(InvalidInput):
            feller_budget(0.0, 1.0, 1.0, 1.0)

    def test_horizon_below_float_range(self):
        # t * t * M is 0: the first constraint is unbounded, the budget is
        # the second
        delta = feller_budget(1.2, 2.0, 1e-300, 1.0)
        assert math.isfinite(delta) and delta > 0.0
        assert delta == 1.2 ** 3 / (9.0 * 2.0 * (1.0 + 2.0 ** 1.5))

    @pytest.mark.parametrize("k", range(3))
    def test_nan_inputs_refused(self, k):
        args = [0.1, 1.0, 1.0]
        args[k] = math.nan
        with pytest.raises(InvalidInput, match="must be positive"):
            feller_budget(*args, 1.0)


class TestTailTruncationIndex:
    def test_basic(self):
        v = ordered([1.0, 0.5, 0.25, 0.125])
        # squared tail after m entries: m=3 leaves 0.125^2 = 0.015625
        assert tail_truncation_index(v, 0.02) == 3
        assert tail_truncation_index(v, 10.0) == 0
        assert tail_truncation_index(v, 0.0) == 4

    @pytest.mark.parametrize("delta", [math.nan, -1.0])
    def test_delta_must_be_nonnegative(self, delta):
        with pytest.raises(InvalidInput, match="delta"):
            tail_truncation_index(ordered([1.0, 0.5]), delta)


class TestMonteCarloStudies:
    def test_bipartite_bound_holds_small_run(self):
        x = np.full(20, math.sqrt(1.0 / 20))
        y = np.full(20, math.sqrt(0.1 / 20))
        study = bipartite_s2_samples(x, y, 1.0, SEED, replicas=1500)
        assert study.a == pytest.approx(1.0)
        assert study.b == pytest.approx(0.1)
        assert study.bound == pytest.approx(0.8)
        assert study.mean_excess <= study.bound + 3.0 * study.sem

    @pytest.mark.parametrize("bad", [math.nan, -0.1])
    def test_bipartite_weights_must_be_finite_and_nonnegative(self, bad):
        x = np.full(4, 0.25)
        with pytest.raises(InvalidInput, match="x must be"):
            bipartite_s2_samples(np.append(x, bad), x, 1.0, SEED, replicas=2)
        with pytest.raises(InvalidInput, match="y must be"):
            bipartite_s2_samples(x, np.append(x, bad), 1.0, SEED, replicas=2)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -1.0])
    def test_bipartite_horizon_checked_before_any_clock(self, monkeypatch, t):
        make_clocks_unreadable(monkeypatch)
        x = np.full(4, 0.25)
        with pytest.raises(InvalidInput, match="t must be"):
            bipartite_s2_samples(x, x, t, SEED, replicas=2)

    def test_frozen_gap_bound_holds_small_run(self):
        lower = tuple(math.sqrt(0.75 / 40) for _ in range(40))
        upper = tuple(math.sqrt(0.095 / 30) for _ in range(30))
        v = ordered(lower + upper)
        study = frozen_split_gap_samples(v, 1.0, 1.0, 40, SEED, replicas=400)
        assert study.mean_gap <= study.bound + 3.0 * study.sem

    @staticmethod
    def _studies(replicas):
        x = np.full(4, 0.25)
        v = ordered([0.25] * 4 + [0.05] * 4)
        return (
            lambda: bipartite_s2_samples(x, x, 1.0, SEED, replicas),
            lambda: frozen_split_gap_samples(v, 1.0, 1.0, 4, SEED, replicas),
        )

    @pytest.mark.parametrize("study", [0, 1], ids=["bipartite", "frozen_gap"])
    def test_no_replicas_refused_before_any_clock(self, monkeypatch, study):
        make_clocks_unreadable(monkeypatch)
        with pytest.raises(InvalidInput, match="need at least one replica"):
            self._studies(0)[study]()

    @pytest.mark.parametrize(
        "args",
        [([1e200, 1e200], 1.0, 0.0, 1, 0, 2), ([1e200], 1.0, 1.0, 1, 0, 2)],
        ids=["two_masses", "one_mass"],
    )
    def test_frozen_gap_overflowing_norm_refused_before_any_clock(self, monkeypatch, args):
        make_clocks_unreadable(monkeypatch)
        with pytest.raises(InvalidInput, match="the squared norm of the masses overflows"):
            frozen_split_gap_samples(*args)

    def test_bipartite_overflowing_norm_refused_before_any_clock(self, monkeypatch):
        make_clocks_unreadable(monkeypatch)
        with pytest.raises(InvalidInput, match="the squared norm of x overflows"):
            bipartite_s2_samples([1e200], [0.0], 1.0, 0, 2)
        with pytest.raises(InvalidInput, match="the squared norm of y overflows"):
            bipartite_s2_samples([0.0], [1e200], 1.0, 0, 2)

    @pytest.mark.parametrize("m", [-1, 9])
    def test_frozen_gap_level_refused_before_any_clock(self, monkeypatch, m):
        make_clocks_unreadable(monkeypatch)
        v = ordered([0.25] * 4 + [0.05] * 4)
        with pytest.raises(InvalidInput, match="levels must lie in"):
            frozen_split_gap_samples(v, 1.0, 1.0, m, SEED, 2)

    @pytest.mark.parametrize(
        "study, mean", [(0, "mean_excess"), (1, "mean_gap")], ids=["bipartite", "frozen_gap"]
    )
    def test_one_replica_has_infinite_sem(self, study, mean):
        # as s2_growth_estimate's: one sample gives no spread to estimate
        result = self._studies(1)[study]()
        assert result.sem == math.inf
        assert math.isfinite(getattr(result, mean))
