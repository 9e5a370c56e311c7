import contextlib
import hashlib
import math
import signal
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcld import frozen_percolation
from mcld.clock_field import ClockField
from mcld.errors import InvalidInput
from mcld.events import run_clocked
from mcld.frozen_percolation import (
    FPTrajectory,
    _aggregate_mcld_top,
    _gnp_least_labels,
    _refresh_prefix,
    fp_mcld_compare,
    fp_replica_rows,
    reference_replica_rows,
    run_fp,
    sample_critical_er,
)
from mcld.mass_state import ordered
from mcld.truncation import feller_budget

from helpers import (
    brute_components,
    full_cumsum_aggregate_top,
    numbered_reference_replica_rows,
    set_loop_gnp_labels,
    vertex_run_fp,
)

SEED = 90210


def component_sizes(labels):
    return np.sort(np.bincount(labels))[::-1]


class TestSampleCriticalEr:
    def test_probability_zero_gives_singletons(self):
        # u = -n^(1/3) forces p = 0
        n = 27
        labels = sample_critical_er(n, -float(n) ** (1.0 / 3.0), np.random.default_rng(SEED))
        assert len(np.unique(labels)) == n

    def test_two_vertices_probability_one(self):
        # n=2: p = (1 + u*2^(-1/3))/2 = 1 at u = 2^(1/3)
        labels = sample_critical_er(2, 2.0 ** (1.0 / 3.0), np.random.default_rng(SEED))
        assert labels[0] == labels[1]

    def test_probability_above_one_rejected(self):
        with pytest.raises(InvalidInput, match="exceeds 1"):
            sample_critical_er(2, 10.0, _NoDraws())

    def test_no_vertex_rejected(self):
        with pytest.raises(InvalidInput, match="at least 1"):
            sample_critical_er(0, 0.0, _NoDraws())

    def test_non_integer_vertex_count_rejected(self):
        with pytest.raises(InvalidInput, match="^n must be an integer, got 1.5$"):
            sample_critical_er(1.5, 0.0, _NoDraws())

    @pytest.mark.parametrize("u", ["x", None, math.nan, math.inf, -math.inf])
    def test_bad_window_parameter_rejected(self, u):
        with pytest.raises(InvalidInput, match="^u must be"):
            sample_critical_er(5, u, _NoDraws())

    def test_gnp_matches_dense_bernoulli_law(self):
        # small n: compare component-count distribution of the sparse
        # sampler against direct per-pair Bernoulli sampling
        n, p, reps = 12, 0.12, 4000
        rng = np.random.default_rng(SEED)
        sparse_counts = [
            len(np.unique(_gnp_least_labels(n, p, rng))) for _ in range(reps)
        ]
        rng2 = np.random.default_rng(SEED + 1)
        dense_counts = []
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        for _ in range(reps):
            edges = [pq for pq in pairs if rng2.uniform() < p]
            dense_counts.append(len(brute_components(range(1, n + 1), edges)))
        bins = np.arange(1, n + 2)
        a, _ = np.histogram(sparse_counts, bins=bins)
        b, _ = np.histogram(dense_counts, bins=bins)
        keep = (a + b) >= 10
        chi = scipy.stats.chi2_contingency(np.vstack([a[keep], b[keep]]))
        assert chi.pvalue > 0.01

    def test_scaled_largest_component_band(self):
        # coarse sanity band around the known critical scaling constant
        n, seeds = 100_000, 200
        scaled = []
        for s in range(seeds):
            labels = sample_critical_er(n, 0.0, np.random.default_rng([SEED, s]))
            scaled.append(component_sizes(labels)[0] * n ** (-2.0 / 3.0))
        assert 0.9 <= float(np.mean(scaled)) <= 1.6


@st.composite
def weight_vectors(draw, lo, hi, max_support):
    """Weights with ties (a few magnitudes, each repeated), zero entries
    anywhere, in drawn or non-increasing order."""
    pool = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=4))
    logs = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=max_support))
    weights = [10.0 ** x for x in logs]
    for at in draw(st.lists(st.integers(0, len(weights)), max_size=3)):
        weights.insert(at, 0.0)
    if draw(st.booleans()):
        weights.sort(reverse=True)
    return np.array(weights)


def assert_same_reference_runs(weights, lam, times, top_r, seed):
    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(2):
        got = _aggregate_mcld_top(weights, lam, times, ours, top_r)
        want = full_cumsum_aggregate_top(weights, lam, times, theirs, top_r)
        assert got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state
    return got


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail, instead of hanging, when the body runs past ``seconds``."""

    def expire(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestSamplersBitForBit:
    """The vectorised G(n, p) dedup, the component-level ``run_fp``, the
    incremental prefix sums of the reference sampler and the reference's
    sizes counted at least labels against their plain oracles in
    ``helpers``: the same outputs, bit for bit, and the same generator state
    after every call."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(1, 40),
        p=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
        seed=st.integers(0, 2 ** 64 - 1),
    )
    @example(n=30, p=1.0, seed=0)  # every pair: repeats force many batches
    @example(n=2, p=1.0, seed=0)
    @example(n=1, p=1.0, seed=0)
    def test_gnp_labels_match_set_loop(self, n, p, seed):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            got = _gnp_least_labels(n, p, ours)
            want = set_loop_gnp_labels(n, p, theirs)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("n", [20_000, 80_000])
    def test_gnp_labels_match_set_loop_at_critical_sizes(self, n):
        # the property test stops at n = 40, where the kernel runs only a
        # few rounds; critical draws here need many
        ours, theirs = np.random.default_rng(SEED), np.random.default_rng(SEED)
        for _ in range(3):
            got = _gnp_least_labels(n, 1.0 / n, ours)
            want = set_loop_gnp_labels(n, 1.0 / n, theirs)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 400),
        shape=st.sampled_from(["critical", "singletons", "one"]),
        lam=st.sampled_from([0.0, 0.05, 1.0]),
        steps=st.lists(st.floats(0.0, 4.0), min_size=1, max_size=4, unique=True),
        seed=st.integers(0, 2 ** 64 - 1),
    )
    @example(n=300, shape="critical", lam=0.05, steps=[0.5, 2.0], seed=0)
    @example(n=200, shape="singletons", lam=0.0, steps=[1.0, 3.0], seed=1)
    @example(n=200, shape="one", lam=0.05, steps=[0.0, 2.0], seed=2)
    @example(n=300, shape="critical", lam=0.0, steps=[0.5, 1.0, 4.0], seed=3)
    def test_run_fp_matches_vertex_oracle(self, n, shape, lam, steps, seed):
        # times and rate in units of n^(-1/3), the critical window's raw time
        if shape == "critical":
            labels = sample_critical_er(n, 0.0, np.random.default_rng([seed, n]))
        elif shape == "singletons":
            labels = np.arange(n, dtype=np.int64)
        else:
            labels = np.zeros(n, dtype=np.int64)
        times = [step * n ** (-1.0 / 3.0) for step in sorted(steps)]
        rate = lam * n ** (-1.0 / 3.0)
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(2):
            got = run_fp(labels, rate, times, ours)
            want = vertex_run_fp(labels, rate, times, theirs)
            assert got.events == want.events
            assert len(got.sizes) == len(want.sizes) == len(times)
            for a, b in zip(got.sizes, want.sizes):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize(
        "u, t_list",
        [(0.0, [1.0]), (-2.0, [0.5, 1.0]), (1.0, [0.0]), (-3.0, [0.0])],
    )
    @pytest.mark.parametrize("seed", [3, 4])
    def test_reference_rows_match_the_numbered_path(self, u, t_list, seed):
        # t_list [0.0] gives a zero budget, so the level is the whole
        # positive support and every component's size enters the rows
        lam = 1.0
        delta = feller_budget(1.2, 2.0, t_list[-1], lam) if t_list[-1] > 0.0 else 0.0
        for r in range(2):
            args = (20_000, lam, u, t_list, 3, seed, r, delta)
            rows, level = reference_replica_rows(*args)
            want_rows, want_level = numbered_reference_replica_rows(*args)
            assert level == want_level
            assert rows.tobytes() == want_rows.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(
        weights=weight_vectors(-6.0, 6.0, 16),
        lam=st.sampled_from([0.0, 0.5, 2.0]),
        steps=st.lists(
            st.sampled_from([1e-3, 0.1, 1.0, 10.0, 100.0]), min_size=1, max_size=4,
            unique=True,
        ),
        top_r=st.integers(1, 4),
        seed=st.integers(0, 2 ** 64 - 1),
    )
    @example(weights=np.array([2.0]), lam=0.5, steps=[1.0], top_r=2, seed=0)
    # a dust-heavy state like the reference's: about a third of its ~250
    # refreshes after a merge run past the first block
    @example(
        weights=np.sort(10.0 ** np.random.default_rng(2400).uniform(-4.0, 0.0, 2400))[::-1],
        lam=0.5, steps=[100.0, 500.0], top_r=3, seed=1,
    )
    def test_reference_sampler_matches_full_cumsum(self, weights, lam, steps, top_r, seed):
        # times in units of 1 / w1^2, the scale of the largest merge rate,
        # so that events happen at every spread of weights
        unit = 1.0 / float(weights.sum()) ** 2
        times = [step * unit for step in sorted(steps)]
        assert_same_reference_runs(weights, lam, times, top_r, seed)

    @settings(max_examples=150, deadline=None)
    @given(
        weights=weight_vectors(-1.0, 1.0, 10),
        lam=st.sampled_from([0.5, 2.0]),
        seed=st.integers(0, 2 ** 64 - 1),
    )
    def test_reference_sampler_matches_full_cumsum_past_extinction(
        self, weights, lam, seed
    ):
        # every component of positive weight burns at rate at least
        # ``slowest``, so the last time lies past extinction but for a
        # chance below 1e-20
        slowest = lam * float(weights[weights > 0].min())
        times = [0.1 / slowest, 1.0 / slowest, 60.0 / slowest]
        rows = assert_same_reference_runs(weights, lam, times, 3, seed)
        assert not rows[-1].any()

    @settings(max_examples=150, deadline=None)
    @given(weights=weight_vectors(-1.0, 1.0, 10), seed=st.integers(0, 2 ** 64 - 1))
    def test_reference_sampler_matches_full_cumsum_past_coalescence(self, weights, seed):
        # with no deletion, any two components of positive weight merge at
        # rate at least ``slowest``, so all have merged long before the last
        # time but for a chance below 1e-20.  That time is 10 / residue,
        # for the rounding residue of w1^2 - w2 (about 1e-16 w1^2) that the
        # last merge can leave, which must draw no merge
        positive = weights[weights > 0]
        slowest = float(positive.min()) ** 2
        times = [0.1 / slowest, 1.0 / slowest, 1e17 / float(positive.sum()) ** 2]
        with deadline(20):
            rows = assert_same_reference_runs(weights, 0.0, times, 2, seed)
        assert rows[-1, 0] == pytest.approx(float(positive.sum()), rel=1e-12)
        assert rows[-1, 1] == 0.0

    @pytest.mark.parametrize("seed", [10, 15])
    def test_no_merge_drawn_after_the_last_merge(self, seed):
        # once one component is left, w1^2 - w2 keeps a rounding residue
        # near 1e-16 w1^2; drawing a merge from it would look for two
        # distinct alive components forever
        rng = np.random.default_rng([seed, 1])
        weights = np.sort(rng.uniform(1e5, 1e6, 4))[::-1]
        with deadline(20):
            rows = assert_same_reference_runs(weights, 0.0, [1000.0], 1, seed)
        assert rows[0, 0] == pytest.approx(float(weights.sum()), rel=1e-12)

    @pytest.mark.parametrize("seed", [270, 300])
    def test_no_deletion_drawn_after_the_last_deletion(self, seed):
        # once every component is deleted, w1 can keep a positive rounding
        # residue; drawing a deletion from it would search the all-dead
        # weights forever
        rng = np.random.default_rng([seed, 3])
        weights = np.sort(10.0 ** rng.uniform(-3, 3, rng.integers(2, 7)))[::-1]
        with deadline(20):
            rows = assert_same_reference_runs(weights, 0.5, [1e9], 1, seed)
        assert not rows.any()

    @settings(max_examples=60, deadline=None)
    @given(support=st.integers(300, 5000), seed=st.integers(0, 2 ** 64 - 1))
    @example(support=5000, seed=0)
    def test_refresh_prefix_matches_full_cumsum(self, support, seed):
        # Stale sums past a merge differ from the true ones by a few ulps,
        # which almost never moves a pick, so the sampler's outputs cannot
        # show a refresh that stops too early; the sums are checked here.
        # Weights: a few magnitudes over 16 decades, each repeated (ties),
        # zero entries, in drawn or non-increasing order
        rng = np.random.default_rng(seed)
        w = rng.choice(10.0 ** rng.uniform(-8.0, 8.0, rng.integers(2, 7)), support)
        w[rng.integers(0, support, rng.integers(1, 20))] = 0.0
        if rng.random() < 0.5:
            w[::-1].sort()
        prefix = np.full(support + 1, -0.0)
        _refresh_prefix(w, prefix, 0, support - 1)
        assert prefix[1:].tobytes() == np.cumsum(w).tobytes()
        for k in range(60):
            if k % 4 == 3:
                # a deletion: every sum from a to the end drops
                a = int(rng.integers(0, support))
                w[a] = 0.0
                low, high = a, support - 1
            else:
                # a merge, every other one in the first quarter, so that the
                # new chain can run on past several blocks before it meets
                # the old one
                span = support // 4 if k % 2 else support
                a, b = (int(i) for i in rng.choice(span, 2, replace=False))
                w[a] += w[b]
                w[b] = 0.0
                low, high = min(a, b), max(a, b)
            _refresh_prefix(w, prefix, low, high)
            assert prefix[1:].tobytes() == np.cumsum(w).tobytes()

    def test_reference_replica_rows_pin(self):
        # criterion 8's reference replica 0: its rows and truncation level
        rows, level = reference_replica_rows(
            320000, 1.0, 0.0, [1.0], 3, 880, 0, feller_budget(1.2, 2.0, 1.0, 1.0)
        )
        assert level == 41555
        assert hashlib.sha256(rows.tobytes()).hexdigest() == (
            "2c221fb56afc9c97a261d6a9da3d3ced3becbfc000b196f55cba75ef579df7bc"
        )


class TestRunFp:
    def test_single_vertex_deleted_at_exponential_time(self):
        times = []
        for s in range(3000):
            traj = run_fp(np.zeros(1, dtype=np.int64), 0.8, [50.0], np.random.default_rng(s))
            if traj.events:
                times.append(traj.events[0][0])
        # nearly every strike lands before the run ends at 50
        stat = scipy.stats.kstest(times, scipy.stats.expon(scale=1 / 0.8).cdf)
        assert stat.pvalue > 0.01

    def test_mass_conservation(self):
        n = 500
        labels = sample_critical_er(n, 0.0, np.random.default_rng(SEED))
        raw = run_fp(labels, 0.05, [3.0 * n ** (-1 / 3)], np.random.default_rng(SEED))
        deleted = sum(size for _, kind, size in raw.events if kind == "delete")
        assert deleted + int(raw.sizes[0].sum()) == n

    def test_equality_is_identity(self):
        a, b = (
            run_fp(np.arange(50) % 7, 0.1, [1.0, 2.0], np.random.default_rng(SEED))
            for _ in range(2)
        )
        assert a == a and a != b
        assert len({a, b}) == 2

    def test_component_law_matches_static_gnp_when_deletion_free(self):
        # from the empty graph, the component process at raw time s has the
        # same law as a G(n, 1 - exp(-s/n)) snapshot
        n, reps = 50, 10_000
        s = -n * math.log(1 - 1.2 / n)  # so p = 1.2/n
        p = 1.0 - math.exp(-s / n)
        singletons = np.arange(n, dtype=np.int64)
        largest_dyn = []
        for r in range(reps):
            raw = run_fp(singletons, 0.0, [s], np.random.default_rng([1, r]))
            largest_dyn.append(int(raw.sizes[0][0]))
        rng = np.random.default_rng([2, SEED])
        largest_static = [
            int(component_sizes(_gnp_least_labels(n, p, rng))[0])
            for _ in range(reps)
        ]
        bins = np.arange(1, n + 2)
        a, _ = np.histogram(largest_dyn, bins=bins)
        b, _ = np.histogram(largest_static, bins=bins)
        keep = (a + b) >= 10
        chi = scipy.stats.chi2_contingency(np.vstack([a[keep], b[keep]]))
        assert chi.pvalue > 0.01

    def test_first_event_law_from_fixed_partition(self):
        # sizes (3,2,1), lam=0.7: cross-pair merge rate (3*2+3*1+2*1)/6 =
        # 11/6 (intra arrivals are no-ops), deletions 2.1/1.4/0.7
        labels = np.array([0, 0, 0, 3, 3, 5], dtype=np.int64)
        lam = 0.7
        counts = {"merge": 0, 3: 0, 2: 0, 1: 0}
        reps = 8000
        for r in range(reps):
            raw = run_fp(labels, lam, [1000.0], np.random.default_rng([3, r]))
            assert raw.events
            t0, kind, size = raw.events[0]
            if kind == "merge":
                counts["merge"] += 1
            else:
                counts[size] += 1
        cross_rate = (3 * 2 + 3 * 1 + 2 * 1) / 6
        total_rate = cross_rate + lam * 6
        expected = np.array([cross_rate, 2.1, 1.4, 0.7]) / total_rate * reps
        observed = np.array([counts["merge"], counts[3], counts[2], counts[1]])
        chi = scipy.stats.chisquare(observed, expected)
        assert chi.pvalue > 0.01

    def test_embeds_in_the_coalescent_with_deletion(self):
        # n = 6 vertices in components (3, 2, 1): components of sizes a and b
        # merge at rate a*b/n and one of size a is struck at lam_raw * a,
        # which are the rates x_i * x_j and lam * x_i of the coalescent from
        # x = (3, 2, 1)/sqrt(n) at lam = lam_raw * sqrt(n), on one time axis
        n, lam_raw, t, reps = 6, 0.5, 0.4, 8000
        root_n = math.sqrt(n)
        labels = np.array([0, 0, 0, 3, 3, 5], dtype=np.int64)
        fp = Counter()
        for r in range(reps):
            raw = run_fp(labels, lam_raw, [t], np.random.default_rng([6, r]))
            fp[tuple(raw.sizes[-1].tolist())] += 1
        x = ordered([3 / root_n, 2 / root_n, 1 / root_n])
        base = ClockField(SEED + 6)
        clocked = Counter()
        for r in range(reps):
            state = run_clocked(x, base.child(r), lam_raw * root_n, [t]).states[-1]
            sizes = [m * root_n for m in state]
            assert all(abs(s - round(s)) < 1e-9 for s in sizes)
            clocked[tuple(round(s) for s in sizes)] += 1
        keys = sorted(fp.keys() | clocked.keys())
        a = np.array([fp[k] for k in keys])
        b = np.array([clocked[k] for k in keys])
        keep = (a + b) >= 10
        assert keep.sum() >= 8
        chi = scipy.stats.chi2_contingency(np.vstack([a[keep], b[keep]]))
        assert chi.pvalue > 0.01

    def test_fullgraph_oracle_dual_run(self):
        # replay the same rng stream in a simulator that tracks the actual
        # edge set (arrivals only between non-adjacent alive pairs change
        # the graph); component trajectories must coincide exactly
        n = 60
        rng_init = np.random.default_rng([4, SEED])
        labels = sample_critical_er(n, 0.5, rng_init)
        init_edges = []  # rebuild an edge set compatible with the partition
        by_label: dict[int, list[int]] = {}
        for v, lab in enumerate(labels.tolist()):
            by_label.setdefault(lab, []).append(v)
        for group in by_label.values():
            init_edges.extend(zip(group, group[1:]))  # spanning path
        lam = 0.02
        record = [4.0 * n ** (-1 / 3) * k / 4 for k in range(1, 5)]
        raw = run_fp(labels, lam, record, np.random.default_rng([5, SEED]))
        oracle = _fullgraph_fp(
            n, lam, labels, init_edges, record, np.random.default_rng([5, SEED]), record[-1]
        )
        for ours, theirs in zip(raw.sizes, oracle):
            assert ours.tolist() == sorted(theirs, reverse=True)


def _fullgraph_fp(n, lam, labels, init_edges, record, rng, horizon):
    """Independent reference: explicit adjacency, same draw order as run_fp."""
    edges = {tuple(sorted(e)) for e in init_edges}
    burnt_v = [False] * n
    alive = n

    def comps():
        vertices = [v for v in range(n) if not burnt_v[v]]
        live_edges = [e for e in edges if not burnt_v[e[0]] and not burnt_v[e[1]]]
        return brute_components(vertices, live_edges)

    def find_comp(v, partition):
        for c in partition:
            if v in c:
                return c
        raise AssertionError

    def draw_alive():
        while True:
            v = int(rng.integers(0, n))
            if not burnt_v[v]:
                return v

    out = []
    now = 0.0
    k = 0
    while True:
        edge_rate = alive * (alive - 1) / (2.0 * n)
        strike_rate = lam * alive
        total = edge_rate + strike_rate
        if total <= 0:
            break
        now += rng.exponential(1.0 / total)
        if now > horizon:
            break
        while k < len(record) and record[k] < now:
            out.append([len(c) for c in comps()])
            k += 1
        if rng.uniform() * total < edge_rate:
            v1 = draw_alive()
            v2 = draw_alive()
            while v2 == v1:
                v2 = draw_alive()
            edges.add(tuple(sorted((v1, v2))))
        else:
            v = draw_alive()
            comp = find_comp(v, comps())
            for w in comp:
                burnt_v[w] = True
            alive -= len(comp)
    while k < len(record):
        out.append([len(c) for c in comps()])
        k += 1
    return out


class TestScaleTrajectory:
    """``fp_replica_rows`` scales the recorded component sizes by n^(-2/3),
    one row per rescaled time, zero-padded to ``top_r``."""

    def test_formula(self):
        n = 8 ** 3
        raw = FPTrajectory(sizes=(np.array([64, 32], dtype=np.int64),), events=())
        with mock.patch.object(frozen_percolation, "run_fp", return_value=raw):
            rows = fp_replica_rows(n, 1.0, 0.0, [1.0], 3, SEED, 0)
        assert rows.shape == (1, 3)
        assert rows[0] == pytest.approx([1.0, 0.5, 0.0], rel=1e-12)

    def test_time_zero(self):
        # no time passes: the row is the scaled initial critical components
        n, seed, r = 500, SEED, 3
        labels = sample_critical_er(n, 0.0, np.random.default_rng([seed, n, r]))
        want = component_sizes(labels)[:4] * n ** (-2.0 / 3.0)
        rows = fp_replica_rows(n, 1.0, 0.0, [0.0], 4, seed, r)
        assert np.array_equal(rows[0], want)

    def test_ordering_preserved(self):
        # several times, and more ranks than components survive
        rows = fp_replica_rows(27, 2.0, 0.0, [0.0, 1.0, 3.0], 40, SEED, 0)
        assert rows.shape == (3, 40)
        assert np.all(rows[:, :-1] >= rows[:, 1:])
        assert np.all(rows[:, -1] == 0.0)
        sizes = rows * 27 ** (2.0 / 3.0)
        assert np.allclose(sizes, np.round(sizes), rtol=0.0, atol=1e-9)

    def test_no_lightning_stops_at_one_component(self):
        # with no lightning, arrivals inside the last component change
        # nothing; they must not be drawn all the way to the horizon
        with deadline(20):
            rows = fp_replica_rows(5, 0.0, 0.0, [1e160], 3, SEED, 0)
        assert rows[0].tolist() == [5 * 5 ** (-2.0 / 3.0), 0.0, 0.0]

    def test_slices_the_top_ranks(self):
        # the run records every component; the rows keep the largest top_r
        n = 8 ** 3
        raw = FPTrajectory(sizes=(np.array([64, 32, 8], dtype=np.int64),), events=())
        with mock.patch.object(frozen_percolation, "run_fp", return_value=raw):
            rows = fp_replica_rows(n, 1.0, 0.0, [1.0], 2, SEED, 0)
        assert rows.shape == (1, 2)
        assert rows[0] == pytest.approx([1.0, 0.5], rel=1e-12)


class TestRunFpInputs:
    """``run_fp`` checks its initial labels, its recording times and its
    rate before any draw."""

    @pytest.mark.parametrize(
        "labels",
        [
            7 * sample_critical_er(300, 0.0, np.random.default_rng(SEED)) + 3,
            np.array([0, 0, 0, 1, 1, 2]),  # numbered components
            np.array([0, 0, 1]),  # 2's label is no component's least vertex
            np.array([0, 2, 2]),  # a label above its vertex
            np.array([-1, 1]),
            np.array([0.0, 1.0]),
            np.array([True, True]),
            np.zeros((2, 2), dtype=np.int64),
        ],
        ids=["spread", "numbered", "not-a-root", "above", "negative", "float",
             "bool", "2-D"],
    )
    def test_labels_not_in_least_form_refused(self, labels):
        with pytest.raises(InvalidInput, match="initial labels"):
            run_fp(labels, 1.0, [1.0], _NoDraws())

    @pytest.mark.parametrize("dtype", [np.int32, np.uint64])
    def test_any_integer_dtype_is_taken(self, dtype):
        labels = sample_critical_er(300, 0.0, np.random.default_rng(SEED))
        times = [2.0 * 300 ** (-1 / 3)]
        want = run_fp(labels, 0.02, times, np.random.default_rng(SEED))
        got = run_fp(labels.astype(dtype), 0.02, times, np.random.default_rng(SEED))
        assert got.events == want.events
        assert np.array_equal(got.sizes[0], want.sizes[0])

    @pytest.mark.parametrize(
        "times",
        [[], [0.5, 0.5], [0.5, 0.25], [-0.5], [math.nan], [0.5, math.nan]],
        ids=["empty", "repeat", "decrease", "negative", "nan", "nan-last"],
    )
    def test_time_list_refused(self, times):
        with pytest.raises(InvalidInput, match="recording times"):
            run_fp(np.arange(8), 1.0, times, _NoDraws())

    @pytest.mark.parametrize("rate", [math.nan, -1.0, math.inf])
    def test_rate_refused(self, rate):
        with pytest.raises(InvalidInput, match="lightning rate"):
            run_fp(np.arange(8), rate, [1.0], _NoDraws())

    @pytest.mark.parametrize("rate", [0.0, 1.0])
    def test_empty_partition_records_nothing_at_every_time(self, rate):
        # no vertex, so no pair and no strike: nothing is ever drawn
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        traj = run_fp(np.array([], dtype=np.int64), rate, [0.5, 1.0], rng)
        assert traj.events == ()
        assert [s.tolist() for s in traj.sizes] == [[], []]
        assert rng.bit_generator.state == before


class _NoDraws:
    """Stands in for a generator whose every draw fails, so that a refusal
    is shown to come before the first draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator: {name}")


class TestScaledSquaredNormBounded:
    def test_initial_scaled_s2_means_stay_bounded_across_n(self):
        # the rescaled states must live in the square-summable regime: the
        # mean squared norm at u=0, t=0 is O(1) uniformly in n
        means = []
        for n in (2_000, 8_000, 32_000):
            vals = []
            for s in range(40):
                labels = sample_critical_er(n, 0.0, np.random.default_rng([7, n, s]))
                sizes = np.bincount(labels).astype(np.float64)
                vals.append(float(np.sum((sizes * n ** (-2.0 / 3.0)) ** 2)))
            means.append(float(np.mean(vals)))
        assert all(0.1 <= m <= 5.0 for m in means)
        assert max(means) / min(means) <= 2.0


class TestAggregatedReferenceSampler:
    """``_aggregate_mcld_top`` is the package's only aggregated-rate sampler;
    these pin its rates and its law against the clocked engine."""

    def test_matches_clocked_engine_in_law(self):
        # initial (1,1,1), lam=1, t=0.3: the reachable mass multisets are
        # few, so compare category frequencies with the clocked engine
        reps = 8000
        weights = np.array([1.0, 1.0, 1.0])
        rng = np.random.default_rng(188)
        counts_a: dict[tuple, int] = {}
        for _ in range(reps):
            top = _aggregate_mcld_top(weights, 1.0, [0.3], rng, 3)[0]
            key = tuple(top[top > 0].tolist())
            counts_a[key] = counts_a.get(key, 0) + 1
        base = ClockField(188)
        counts_b: dict[tuple, int] = {}
        for r in range(reps):
            s = run_clocked(ordered(weights), base.child(r), 1.0, [0.3]).states[-1]
            counts_b[s.masses] = counts_b.get(s.masses, 0) + 1
        keys = sorted(set(counts_a) | set(counts_b))
        assert len(keys) <= 12
        a = np.array([counts_a.get(k, 0) for k in keys])
        b = np.array([counts_b.get(k, 0) for k in keys])
        tv = 0.5 * np.abs(a - b).sum() / reps
        assert tv <= 0.03
        keep = (a + b) >= 10
        chi = scipy.stats.chi2_contingency(np.vstack([a[keep], b[keep]]))
        assert chi.pvalue > 0.01

    def test_merge_pair_law_asymmetric(self):
        # (3,2,1) run just long enough for one event, lam=0: first merge has
        # pair law 6:3:2; read the outcome off the surviving multiset
        rng = np.random.default_rng(77)
        counts = {5.0: 0, 4.0: 0, 3.0: 0}
        trials = 6000
        while sum(counts.values()) < trials:
            top = _aggregate_mcld_top(np.array([3.0, 2.0, 1.0]), 0.0, [0.02], rng, 3)[0]
            if len(top[top > 0]) == 2:
                counts[float(max(top))] += 1
        observed = np.array([counts[5.0], counts[4.0], counts[3.0]])
        expected = np.array([6.0, 3.0, 2.0]) / 11.0 * trials
        chi = scipy.stats.chisquare(observed, expected)
        assert chi.pvalue > 0.01

    def test_pair_law_when_one_component_dominates(self):
        # (5, 1, 0.5, 0.25), lam=0: sum(w^2) / W^2 = 0.58, so every merge is
        # drawn exactly, pair (a, b) at rate w_a w_b.  The state at s is
        # unchanged, one of six single merges, or past a second merge; the
        # law of a single merge p with rate r_p, from total rate R to R'_p
        # after it, is r_p (exp(-R'_p s) - exp(-R s)) / (R - R'_p)
        w = [5.0, 1.0, 0.5, 0.25]
        s, trials = 0.12, 6000
        rates = {(a, b): w[a] * w[b] for a in range(4) for b in range(a + 1, 4)}
        total = sum(rates.values())
        law, outcomes = [math.exp(-total * s)], [tuple(w)]
        for (a, b), r in rates.items():
            after = [x for k, x in enumerate(w) if k not in (a, b)] + [w[a] + w[b]]
            rest = (sum(after) ** 2 - sum(x * x for x in after)) / 2.0
            law.append(r * (math.exp(-rest * s) - math.exp(-total * s)) / (total - rest))
            outcomes.append(tuple(sorted(after, reverse=True)))
        law.append(1.0 - sum(law))
        counts = dict.fromkeys(outcomes + ["more"], 0)
        rng = np.random.default_rng(41)
        for _ in range(trials):
            top = _aggregate_mcld_top(np.array(w), 0.0, [s], rng, 4)[0]
            key = tuple(top[top > 0].tolist())
            counts[key if key in counts else "more"] += 1
        chi = scipy.stats.chisquare(list(counts.values()), np.array(law) * trials)
        assert chi.pvalue > 0.01

    @pytest.mark.parametrize(
        "weights, seed, unit_time",
        [([24299.17, 721.79, 721.79, 0.01], 3233, 1e6), ([1e8, 1.0], 0, None)],
    )
    def test_dominant_component_merges_without_spinning(self, weights, seed, unit_time):
        # a restarted pair draw would collide with chance 1 - 8e-7 and
        # 1 - 2e-8 here, so each merge would cost about 1e6 and 5e7 draws
        weights = np.array(weights)
        t = unit_time / weights.sum() ** 2 if unit_time else 1e-5
        with deadline(0.1):
            rows = _aggregate_mcld_top(weights, 0.0, [t], np.random.default_rng(seed), 2)
        assert rows[0, 0] == pytest.approx(weights.sum(), rel=1e-12)

    def test_first_event_channel_law(self):
        # (2,1), lam=0.5: merge, delete-2 and delete-1 at rates 2 : 1 : 0.5.
        # A single event leaves (3), (1) or (2); a second one leaves (), so
        # the state at s has an exact five-way law built from those rates
        s, trials = 0.3, 4000
        rng = np.random.default_rng(99)
        outcomes = {(2.0, 1.0): 0, (3.0,): 0, (1.0,): 0, (2.0,): 0, (): 0}
        for _ in range(trials):
            top = _aggregate_mcld_top(np.array([2.0, 1.0]), 0.5, [s], rng, 2)[0]
            outcomes[tuple(top[top > 0].tolist())] += 1

        def first_only(rate, after):
            # first event through a channel of this rate before s (total
            # rate 3.5), then no event at the remaining rate ``after``
            return rate * math.exp(-after * s) * -math.expm1(-(3.5 - after) * s) / (
                3.5 - after
            )

        law = [
            math.exp(-3.5 * s),
            first_only(2.0, 1.5),  # merge, then (3) burns at rate 1.5
            first_only(1.0, 0.5),  # the 2 burns, then (1) burns at rate 0.5
            first_only(0.5, 1.0),  # the 1 burns, then (2) burns at rate 1.0
        ]
        law.append(1.0 - sum(law))
        chi = scipy.stats.chisquare(
            list(outcomes.values()), np.array(law) * trials
        )
        assert chi.pvalue > 0.01

    def test_holding_time_law(self):
        # first event time from (2,1), lam=0.5 is Exp(3.5): the state is
        # still (2,1) at s with probability exp(-3.5 s)
        times, trials = [0.05, 0.2, 0.5], 4000
        rng = np.random.default_rng(123)
        unchanged = np.zeros(len(times))
        for _ in range(trials):
            rows = _aggregate_mcld_top(np.array([2.0, 1.0]), 0.5, times, rng, 2)
            unchanged += [row.tolist() == [2.0, 1.0] for row in rows]
        for s, hits in zip(times, unchanged):
            p = math.exp(-3.5 * s)
            sem = math.sqrt(p * (1.0 - p) / trials)
            assert abs(hits / trials - p) <= 4.0 * sem

    def test_absorbing_single_component_no_deletion(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        rows = _aggregate_mcld_top(np.array([3.0]), 0.0, [1.0, 10.0], rng, 2)
        assert rows.tolist() == [[3.0, 0.0], [3.0, 0.0]]
        assert rng.bit_generator.state == before  # no event was drawn

    def test_rank1_law_matches_clocked_engine_at_dust_scale(self):
        # power-law support of 64 masses, lam=1, t=1: two-sample KS on the
        # largest surviving mass, aggregated sampler against clocked engine
        weights = 0.6 * np.arange(1, 65, dtype=np.float64) ** -0.6
        reps = 3000
        rng = np.random.default_rng(2024)
        aggregated = [
            _aggregate_mcld_top(weights, 1.0, [1.0], rng, 1)[0, 0]
            for _ in range(reps)
        ]
        base, start = ClockField(2024), ordered(weights)
        clocked = []
        for r in range(reps):
            state = run_clocked(start, base.child(r), 1.0, [1.0]).states[-1]
            clocked.append(state.masses[0] if len(state) else 0.0)
        ks = scipy.stats.ks_2samp(aggregated, clocked)
        assert ks.pvalue > 0.01


class TestCompareReport:
    def test_time_zero_reduces_to_initial_scaled_laws(self):
        # no dynamics: the comparison is between scaled critical component
        # laws across sizes, which nearly coincide
        rep = fp_mcld_compare(
            n_list=[2000, 4000],
            lam_rescaled=0.0,
            u=0.0,
            t_list=[0.0],
            replicas=60,
            top_r=1,
            seed=SEED,
            n_ref=8000,
        )
        for n in (2000, 4000):
            assert rep.ks_vs_reference[n][0][0] <= 0.35

    def test_small_smoke_and_determinism(self):
        kwargs = dict(
            n_list=[300, 900],
            lam_rescaled=1.0,
            u=0.0,
            t_list=[0.5],
            replicas=12,
            top_r=2,
            seed=SEED,
            n_ref=2000,
        )
        rep1 = fp_mcld_compare(**kwargs)
        rep2 = fp_mcld_compare(**kwargs)
        assert rep1.ks_vs_reference == rep2.ks_vs_reference
        assert rep1 == rep1 and rep1 != rep2 and len({rep1, rep2}) == 2
        assert rep1.samples[300].shape == (12, 1, 2)
        for stats in rep1.ks_vs_reference.values():
            assert all(0.0 <= s <= 1.0 for s in stats[0])
        assert (300, 900) in rep1.ks_between
        d = rep1.to_json_dict()
        assert d["n_list"] == [300, 900]

    @pytest.mark.parametrize(
        "override",
        [
            {"n_list": []},
            {"n_list": [0]},
            # an fp replica of size 1 would draw the reference's stream
            {"n_list": [1]},
            {"lam_rescaled": math.nan},
            {"u": -math.inf},
            {"u": math.nan},
            {"u": "x"},
            {"t_list": []},
            {"t_list": [-0.1]},
            {"t_list": [0.5, 0.5]},
            {"replicas": 0},
            {"top_r": 0},
            {"n_ref": 0},
            {"workers": 0},
            {"seed": -1},
        ],
    )
    def test_bad_arguments_rejected(self, override):
        kwargs = dict(
            n_list=[100], lam_rescaled=1.0, u=0.0, t_list=[0.5], replicas=2,
            top_r=1, seed=SEED, n_ref=200,
        )
        with pytest.raises(InvalidInput):
            fp_mcld_compare(**{**kwargs, **override})
