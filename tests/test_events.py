import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from mcld.clock_field import ClockField
from mcld.errors import InvalidInput
from mcld.events import deleted_mass_up_to, run_clocked
from mcld.frozen_percolation import _aggregate_mcld_top
from mcld.graphical import realize, state_at
from mcld.mass_state import ordered

from helpers import (
    HOSTILE_HORIZONS,
    HOSTILE_LAMBDAS,
    StubClockField,
    hostile_masses,
    recorded_state,
)

SEED = 271828


def random_state(rng, max_support=50):
    support = int(rng.integers(1, max_support + 1))
    return ordered(rng.uniform(0.0, 1.0, support) + 1e-12)


def assert_states_close(a, b, tol=1e-12):
    # merge order changes float summation order, so weights can differ by
    # rounding even though the component structure is identical
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert abs(x - y) <= tol


class TestRunClocked:
    def test_single_vertex_until_strike(self):
        f = StubClockField(vertex_exps={1: 0.4})
        v = ordered([2.0])
        traj = run_clocked(v, f, 1.0, [0.1, 0.5, 1.0])
        # strike time = 0.4 / (lam * mass) = 0.2
        assert [s.masses for s in traj.states] == [(2.0,), (), ()]
        assert [e.kind for e in traj.events] == ["delete"]
        assert traj.events[0].weight == 2.0

    def test_hand_traced_two_vertex_paths(self):
        masses = ordered([1.0, 1.0])
        early = StubClockField(pair_exps={(1, 2): 0.5}, vertex_exps={2: 0.3})
        traj = run_clocked(masses, early, 1.0, [0.6])
        assert traj.states[-1].masses == (1.0,)
        assert [(e.kind, e.components) for e in traj.events] == [
            ("delete", (2,)),
        ]
        late = StubClockField(pair_exps={(1, 2): 0.5}, vertex_exps={2: 0.55})
        traj = run_clocked(masses, late, 1.0, [0.6])
        assert traj.states[-1].masses == ()
        assert [(e.kind, e.components) for e in traj.events] == [
            ("merge", (1, 2)),
            ("delete", (1,)),
        ]

    def test_pure_coalescent_matches_graphical(self):
        f = ClockField(SEED)
        v = ordered([1.0, 0.8, 0.6, 0.4, 0.2])
        grid = [0.3, 0.9, 1.5]
        traj = run_clocked(v, f, 0.0, grid)
        for g, st in zip(grid, traj.states):
            assert_states_close(st, state_at(v, f, 0.0, g))

    @pytest.mark.parametrize("case", range(25))
    def test_pathwise_equality_random_cases(self, case):
        rng = np.random.default_rng(case)
        v = random_state(rng, max_support=30)
        lam = [0.0, 0.5, 2.0][case % 3]
        t = [0.2, 1.0][case % 2]
        f = ClockField(1000 + case)
        graphical_state = state_at(v, f, lam, t)
        clocked_state = run_clocked(v, f, lam, [t]).states[-1]
        assert len(graphical_state) == len(clocked_state)
        for a, b in zip(graphical_state, clocked_state):
            assert abs(a - b) <= 1e-12

    @settings(max_examples=500, deadline=None)
    @given(
        masses=hostile_masses(),
        lam=HOSTILE_LAMBDAS,
        t=HOSTILE_HORIZONS,
        seed=st.integers(0, 2 ** 64 - 1),
    )
    def test_pathwise_equality_on_hostile_masses(self, masses, lam, t, seed):
        # both engines merge the same components; only the order of the float
        # additions differs (merge order against fsum), so weights agree to a
        # relative 1e-12, not bit for bit
        f = ClockField(seed)
        clocked = run_clocked(masses, f, lam, [t]).states[-1]
        graph = realize(masses, f, lam, t).state
        assert len(clocked) == len(graph)
        for a, b in zip(clocked, graph):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)

    def test_mass_balance(self):
        rng = np.random.default_rng(7)
        v = random_state(rng)
        f = ClockField(SEED + 3)
        traj = run_clocked(v, f, 1.5, [1.0])
        phi = deleted_mass_up_to(traj, 1.0)
        assert v.total_mass() == pytest.approx(
            traj.states[-1].total_mass() + phi, abs=1e-9
        )

    def test_states_constant_between_events_and_right_continuous(self):
        rng = np.random.default_rng(8)
        v = random_state(rng, max_support=20)
        f = ClockField(SEED + 4)
        probe = run_clocked(v, f, 1.0, [1.0])
        times = sorted({e.time for e in probe.events})
        if not times:
            return
        grid = sorted(
            {t for t in times}
            | {(a + b) / 2 for a, b in zip(times, times[1:])}
            | {times[-1] * 1.01}
        )
        traj = run_clocked(v, f, 1.0, grid)
        for k, g in enumerate(grid[:-1]):
            nxt = grid[k + 1]
            events_between = [e for e in probe.events if g < e.time <= nxt]
            if not events_between:
                assert traj.states[k] == traj.states[k + 1]
            else:
                assert traj.states[k] != traj.states[k + 1] or all(
                    e.kind == "merge" for e in events_between
                )
        # right continuity: state at an event time includes the event
        first = times[0]
        at_event = recorded_state(traj, first)
        assert at_event != v or probe.events[0].kind == "merge"

    def test_grid_validation(self):
        v = ordered([1.0])
        with pytest.raises(InvalidInput):
            run_clocked(v, ClockField(1), 0.0, [0.5, 0.5])


class TestEventCounts:
    def test_event_count_monotone_and_bounded(self):
        rng = np.random.default_rng(11)
        v = random_state(rng, max_support=25)
        f = ClockField(SEED + 6)
        n = len(v)
        prev = 0
        for t in (0.2, 0.5, 1.0, 2.0):
            traj = run_clocked(v, f, 1.0, [t])
            count = len(traj.events)
            assert count >= prev
            assert count <= n + n * (n - 1) // 2
            prev = count


class TestGillespie:
    """The aggregated-rate (Gillespie) sampler ``_aggregate_mcld_top``; its
    other rate checks are in test_frozen_percolation."""

    def test_merge_pair_law_with_asymmetric_weights(self):
        # state (3,2,1), lam=0: pair rates 6, 3, 2 over a total of 11. One
        # merge leaves (5,1), (4,2) or (3,3), whose next merge rates are 5, 8
        # and 9; a second merge leaves (6). The state at s has an exact law.
        s, trials = 0.1, 6000
        rng = np.random.default_rng(314)
        outcomes = {(3.0, 2.0, 1.0): 0, (5.0, 1.0): 0, (4.0, 2.0): 0, (3.0, 3.0): 0, (6.0,): 0}
        for _ in range(trials):
            top = _aggregate_mcld_top(np.array([3.0, 2.0, 1.0]), 0.0, [s], rng, 3)[0]
            outcomes[tuple(top[top > 0].tolist())] += 1

        def first_only(rate, after):
            # the first merge is this pair's before s, then no merge at ``after``
            return rate * math.exp(-after * s) * -math.expm1(-(11.0 - after) * s) / (
                11.0 - after
            )

        law = [math.exp(-11.0 * s), first_only(6.0, 5.0), first_only(3.0, 8.0), first_only(2.0, 9.0)]
        law.append(1.0 - sum(law))
        chi = scipy.stats.chisquare(list(outcomes.values()), np.array(law) * trials)
        assert chi.pvalue > 0.01


class TestClockedVsGillespieLaw:
    """The clocked engine against the aggregated-rate (Gillespie) sampler
    ``_aggregate_mcld_top``: the channel rates it draws from, and its law."""

    def test_distributions_agree_at_fixed_time(self):
        # initial (2,1,1), lam=0.5, t=0.4: asymmetric masses, so the pair law
        # matters; the reachable mass multisets are few, so compare the two
        # samplers' category frequencies
        v = ordered([2.0, 1.0, 1.0])
        replicas = 20_000
        base = ClockField(SEED + 7)
        counts_clocked: dict[tuple, int] = {}
        for r in range(replicas):
            k = run_clocked(v, base.child(r), 0.5, [0.4]).states[-1].masses
            counts_clocked[k] = counts_clocked.get(k, 0) + 1
        rng = np.random.default_rng(SEED)
        weights = np.array(v.masses)
        counts_g: dict[tuple, int] = {}
        for _ in range(replicas):
            top = _aggregate_mcld_top(weights, 0.5, [0.4], rng, 3)[0]
            k = tuple(top[top > 0].tolist())
            counts_g[k] = counts_g.get(k, 0) + 1
        keys = sorted(set(counts_clocked) | set(counts_g))
        assert len(keys) <= 12
        a = np.array([counts_clocked.get(k, 0) for k in keys])
        b = np.array([counts_g.get(k, 0) for k in keys])
        tv = 0.5 * np.abs(a / replicas - b / replicas).sum()
        assert tv <= 0.03
        # chi-square on categories with enough mass
        table = np.vstack([a, b])
        keep = table.sum(axis=0) >= 10
        chi = scipy.stats.chi2_contingency(table[:, keep])
        assert chi.pvalue > 0.01

    def test_clocked_first_event_rates(self):
        # masses (2,1): edge rate 2, strike rates 1 and 0.5
        v = ordered([2.0, 1.0])
        base = ClockField(SEED + 8)
        cats = {"merge": 0, "delete2": 0, "delete1": 0}
        replicas = 10_000
        for r in range(replicas):
            traj = run_clocked(v, base.child(r), 0.5, [60.0])
            ev = traj.events[0]
            if ev.kind == "merge":
                cats["merge"] += 1
            elif ev.weight == 2.0:
                cats["delete2"] += 1
            else:
                cats["delete1"] += 1
        expected = np.array([2.0, 1.0, 0.5]) / 3.5 * replicas
        observed = np.array([cats["merge"], cats["delete2"], cats["delete1"]])
        chi = scipy.stats.chisquare(observed, expected)
        assert chi.pvalue > 0.01


class TestDeletedMass:
    def test_no_deletions(self):
        traj = run_clocked(ordered([1.0, 0.5]), ClockField(SEED + 9), 0.0, [1.0])
        assert deleted_mass_up_to(traj, 1.0) == 0.0

    def test_step_function(self):
        f = StubClockField(vertex_exps={1: 0.3})
        traj = run_clocked(ordered([2.0]), f, 0.5, [1.0])
        # strike time = 0.3 / (0.5 * 2) = 0.3
        assert deleted_mass_up_to(traj, 0.2) == 0.0
        assert deleted_mass_up_to(traj, 0.4) == 2.0

    def test_beyond_horizon_rejected(self):
        traj = run_clocked(ordered([1.0]), ClockField(1), 0.0, [1.0])
        with pytest.raises(InvalidInput):
            deleted_mass_up_to(traj, 2.0)


def test_trajectory_state_lookup_requires_grid_time():
    traj = run_clocked(ordered([1.0]), ClockField(1), 0.0, [0.5, 1.0])
    with pytest.raises(ValueError):
        recorded_state(traj, 0.25)
