import hashlib
import math
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcld import clock_field
from mcld.clock_field import (
    ClockField,
    edge_arrivals,
    pair_count,
    pair_index_decode,
    strike_arrivals,
)
from mcld.errors import InvalidInput
from mcld.feller import power_law_reference
from mcld.graphical import realize

from helpers import (
    EventClockView,
    PairHashHits,
    StubClockField,
    all_pairs_edge_arrivals,
    unit_pair_exp,
    unit_vertex_exp,
)

SEED = 20260808


class TestUnitPairExp:
    def test_symmetry(self):
        f = ClockField(SEED)
        assert unit_pair_exp(f, 3, 7) == unit_pair_exp(f, 7, 3)

    def test_determinism(self):
        a, b = ClockField(SEED), ClockField(SEED)
        assert unit_pair_exp(a, 3, 7) == unit_pair_exp(b, 3, 7)

    def test_diagonal_rejected(self):
        # a row tile hashes its diagonal and lower pairs too; however small
        # their clocks, edge_arrivals keeps only pairs with i < j
        f = StubClockField(pair_exps={(2, 2): 1e-3, (3, 3): 1e-3, (2, 3): 0.5})
        ei, ej, _ = edge_arrivals(f, np.ones(4), t=1.0)
        assert (ei.tolist(), ej.tolist()) == ([2], [3])

    def test_positive(self):
        f = ClockField(SEED)
        assert all(unit_pair_exp(f, i, i + 1) > 0 for i in range(1, 200))

    def test_mean_near_one(self):
        # 1e5 distinct pairs; Exp(1) has sd 1, so a 4-sigma band is 4/sqrt(N)
        f = ClockField(SEED)
        n = 100_000
        i = np.arange(1, n + 1, dtype=np.int64)
        vals = f.pair_exps(i, i + n)
        assert abs(vals.mean() - 1.0) <= 4.0 / math.sqrt(n)

    def test_scalar_matches_batch(self):
        f = ClockField(SEED)
        i = np.array([1, 2, 9, 1000], dtype=np.int64)
        j = np.array([5, 3, 10, 2000], dtype=np.int64)
        batch = f.pair_exps(i, j)
        for k in range(len(i)):
            assert unit_pair_exp(f, int(i[k]), int(j[k])) == batch[k]


class TestUnitVertexExp:
    def test_determinism(self):
        f = ClockField(SEED)
        assert unit_vertex_exp(f, 12) == unit_vertex_exp(f, 12)

    def test_independent_of_pair_clocks(self):
        # sample correlation between vertex clock i and pair clock (i, i+1)
        f = ClockField(SEED)
        n = 100_000
        i = np.arange(1, n + 1, dtype=np.int64)
        v = f.vertex_exps(i)
        p = f.pair_exps(i, i + 1)
        corr = np.corrcoef(v, p)[0, 1]
        assert abs(corr) <= 0.02

    def test_exp1_ks(self):
        # one-sample KS against the Exp(1) CDF, 1% critical value 1.63/sqrt(N)
        f = ClockField(SEED)
        n = 10_000
        vals = np.sort(f.vertex_exps(np.arange(1, n + 1, dtype=np.int64)))
        cdf = 1.0 - np.exp(-vals)
        ranks = np.arange(1, n + 1) / n
        stat = max(
            np.max(np.abs(cdf - ranks)), np.max(np.abs(cdf - (ranks - 1.0 / n)))
        )
        assert stat <= 1.63 / math.sqrt(n)

    def test_pair_exp1_ks(self):
        f = ClockField(SEED + 1)
        n = 10_000
        i = np.arange(1, n + 1, dtype=np.int64)
        vals = np.sort(f.pair_exps(i, i + 17))
        cdf = 1.0 - np.exp(-vals)
        ranks = np.arange(1, n + 1) / n
        stat = max(
            np.max(np.abs(cdf - ranks)), np.max(np.abs(cdf - (ranks - 1.0 / n)))
        )
        assert stat <= 1.63 / math.sqrt(n)


class TestEventClockView:
    def test_zero_mass_never_connects(self):
        view = EventClockView(masses=(1.0, 0.0), lam=1.0, field=ClockField(SEED))
        assert view.edge_time(1, 2) == math.inf

    def test_edge_time_formula(self):
        f = ClockField(SEED)
        view = EventClockView(masses=(1.0, 1.0), lam=0.0, field=f)
        assert view.edge_time(1, 2) == unit_pair_exp(f, 1, 2)

    def test_doubling_mass_halves_time(self):
        f = ClockField(SEED)
        t1 = EventClockView(masses=(1.0, 1.0), lam=0.0, field=f).edge_time(1, 2)
        t2 = EventClockView(masses=(1.0, 2.0), lam=0.0, field=f).edge_time(1, 2)
        assert t2 == pytest.approx(t1 / 2.0, rel=1e-12)

    def test_strike_time_formula(self):
        f = ClockField(SEED)
        view = EventClockView(masses=(1.0,), lam=1.0, field=f)
        assert view.strike_time(1) == unit_vertex_exp(f, 1)

    def test_no_deletion_means_no_strikes(self):
        view = EventClockView(masses=(2.0, 1.0), lam=0.0, field=ClockField(SEED))
        assert view.strike_time(1) == math.inf

    def test_strike_times_couple_across_rates(self):
        f = ClockField(SEED)
        slow = EventClockView(masses=(1.0, 0.5), lam=1.0, field=f)
        fast = EventClockView(masses=(1.0, 0.5), lam=2.0, field=f)
        for i in (1, 2):
            assert fast.strike_time(i) == pytest.approx(
                slow.strike_time(i) / 2.0, rel=1e-12
            )

    def test_beyond_support_is_zero_mass(self):
        view = EventClockView(masses=(1.0,), lam=1.0, field=ClockField(SEED))
        assert view.strike_time(5) == math.inf
        assert view.edge_time(1, 5) == math.inf


class TestCouplingInvariant:
    def test_agreement_on_shared_prefix(self):
        # two initial vectors equal on labels 1..m see identical clocks there
        f = ClockField(SEED)
        full = (1.0, 0.8, 0.6, 0.5, 0.3)
        trunc = (1.0, 0.8, 0.6, 0.0, 0.0)
        va = EventClockView(masses=full, lam=1.5, field=f)
        vb = EventClockView(masses=trunc, lam=1.5, field=f)
        for i in range(1, 4):
            assert va.strike_time(i) == vb.strike_time(i)
            for j in range(i + 1, 4):
                assert va.edge_time(i, j) == vb.edge_time(i, j)

    def test_batch_tables_agree_with_views(self):
        f = ClockField(SEED)
        masses = np.array([1.0, 0.8, 0.6, 0.5, 0.3])
        view = EventClockView(masses=tuple(masses), lam=2.0, field=f)
        ei, ej, et = edge_arrivals(f, masses, t=5.0)
        for a, b, te in zip(ei.tolist(), ej.tolist(), et.tolist()):
            assert view.edge_time(a, b) == te
        sv, st_ = strike_arrivals(f, masses, lam=2.0, t=5.0)
        for v, ts in zip(sv.tolist(), st_.tolist()):
            assert view.strike_time(v) == ts

    def test_truncation_filters_tables(self):
        f = ClockField(SEED)
        full = np.array([1.0, 0.8, 0.6, 0.5, 0.3])
        trunc = full.copy()
        trunc[3:] = 0.0
        ei_f, ej_f, et_f = edge_arrivals(f, full, t=4.0)
        ei_t, ej_t, et_t = edge_arrivals(f, trunc, t=4.0)
        keep = ej_f <= 3
        assert np.array_equal(ei_f[keep], ei_t)
        assert np.array_equal(ej_f[keep], ej_t)
        assert np.array_equal(et_f[keep], et_t)


class TestRateOverflow:
    def test_edge_rate_overflow_rejected(self):
        with pytest.raises(InvalidInput, match="t \\* m_1"):
            edge_arrivals(ClockField(SEED), np.array([1e200, 1e200]), t=1.0)

    def test_strike_rate_overflow_rejected(self):
        with pytest.raises(InvalidInput, match="lambda \\* m_1"):
            strike_arrivals(ClockField(SEED), np.array([1e300, 1.0]), lam=1e10, t=1.0)

    def test_large_finite_rates_still_run(self):
        # m_1^2 = 1e300 is finite: every pair arrives, with no error and no
        # warning (an unclipped row bound t * m_1 * m_2 * 2**52 would overflow)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ei, _, et = edge_arrivals(ClockField(SEED), np.array([1e150, 1e150]), t=1.0)
        assert len(ei) == 1 and 0.0 < et[0] <= 1.0

    @pytest.mark.parametrize("lam", [1.0, 0.5], ids=["time-overflows", "rate-underflows"])
    def test_subnormal_strike_rates_never_ring(self, lam):
        # 1/(lam * 5e-324) is past the float range, and 0.5 * 5e-324 rounds
        # to 0: the strike times read inf, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sv, st_ = strike_arrivals(ClockField(SEED), np.array([1.0, 5e-324]), lam, t=1e300)
        assert sv.tolist() == [1] and st_[0] <= 1e300


class TestChildFields:
    def test_children_distinct_and_deterministic(self):
        f = ClockField(SEED)
        a, b = f.child(0), f.child(1)
        assert a.seed != b.seed
        assert f.child(0).seed == a.seed
        assert unit_pair_exp(a, 1, 2) != unit_pair_exp(b, 1, 2)


@st.composite
def hostile_arrival_cases(draw, log_rate_lo=-3.0, log_rate_hi=3.0):
    """(masses, t): non-increasing masses with ties, zero tails and
    magnitudes from 1e-150 to 1e150, and t up to the finite-rate limit.

    Unless t is pushed to that limit, t * m_1 * m_k lies between
    10**log_rate_lo and 10**log_rate_hi for a drawn vertex k.
    """
    pool = draw(st.lists(st.floats(-150.0, 150.0), min_size=1, max_size=5))
    logs = draw(st.lists(st.sampled_from(pool), max_size=40))
    zeros = draw(st.integers(0, 4))
    masses = np.array(sorted((10.0 ** x for x in logs), reverse=True) + [0.0] * zeros)
    if not logs:
        return masses, draw(st.floats(0.0, 10.0))
    m1 = float(masses[0])
    limit = sys.float_info.max / (m1 * m1)
    while not math.isfinite(limit * (m1 * m1)):
        limit = math.nextafter(limit, 0.0)
    if not draw(st.booleans()):
        return masses, limit
    mk = float(masses[draw(st.integers(0, len(logs) - 1))])
    t = 10.0 ** draw(st.floats(log_rate_lo, log_rate_hi)) / (m1 * mk)
    return masses, min(t, limit)


class _LowLatticeField(PairHashHits, ClockField):
    """Pair hashes on the lattice points 0..15 with arbitrary low 12 bits, so
    that pair thresholds of a few lattice steps meet the row bound exactly.
    Its hits are the mixin's whole-tile ones, so it checks the row bounds and
    float tests of ``edge_arrivals``; the tile kernel's own boundary is
    :class:`TestPairHitsBoundary`'s."""

    __slots__ = ()

    def _pair_hash(self, i, j):
        h = super()._pair_hash(i, j)
        return ((h >> np.uint64(60)) << np.uint64(12)) | (h & np.uint64(0xFFF))


def _assert_matches_oracle(field, masses, t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = edge_arrivals(field, masses, t)
    want = all_pairs_edge_arrivals(field, masses, t)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


_TILES = st.sampled_from([1, 2, 3, 7, 16, 45, 1 << 15])
_LOG_LATTICE_STEP = -52 * math.log10(2.0)


class TestRowTiledEnumeration:
    @settings(max_examples=300, deadline=None)
    @given(case=hostile_arrival_cases(), seed=st.integers(0, 2 ** 64 - 1), tile=_TILES)
    @example(case=(np.array([2.0]), 1.0), seed=1, tile=1 << 15)
    @example(case=(np.array([1e150, 1e150, 0.0]), 1.0), seed=2, tile=1)
    @example(case=(np.full(9, 0.5), 20.0), seed=3, tile=7)
    def test_equals_all_pairs_oracle(self, case, seed, tile):
        # small tiles force several tiles per call and a ragged last one
        with mock.patch.object(clock_field, "_TILE_PAIRS", tile):
            _assert_matches_oracle(ClockField(seed), *case)

    @settings(max_examples=200, deadline=None)
    @given(
        case=hostile_arrival_cases(_LOG_LATTICE_STEP - 1.0, _LOG_LATTICE_STEP + 1.3),
        seed=st.integers(0, 2 ** 64 - 1),
    )
    def test_row_bound_boundary_equals_oracle(self, case, seed):
        _assert_matches_oracle(_LowLatticeField(seed), *case)

    def test_reference_replica_pinned(self):
        # sha256 of (i, j, time) for criterion 7's support, recorded from the
        # linear-index enumeration that row tiling replaced
        masses = np.asarray(power_law_reference(0.6, 4096).masses, dtype=np.float64)
        ei, ej, et = edge_arrivals(ClockField(808).child(0), masses, 1.0)
        digest = hashlib.sha256()
        for arr, dtype in ((ei, "<i8"), (ej, "<i8"), (et, "<f8")):
            digest.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        assert len(ei) == 2236
        assert digest.hexdigest() == (
            "24b2865bd5eb03cf84bb051322c26a457489c98111efd78b4a39967259dbc452"
        )


class TestPairHitsBoundary:
    # one tile: rows 1..39 against columns 2..40, every row at the same bound
    N_POS = 40

    @staticmethod
    def _tile_hashes(field, n_pos):
        rows = np.arange(1, n_pos, dtype=np.uint64)
        cols = np.arange(2, n_pos + 1, dtype=np.uint64)
        return field._pair_hash(rows[:, None], cols[None, :])

    def _assert_whole_tile_hits(self, field, h, bound):
        """``field``'s hits at ``bound`` on every row are the pairs of the
        tile hashes ``h`` at most ``bound``; returns their hashes."""
        i, j, got = field._pair_hits(self.N_POS, np.full(self.N_POS - 1, bound, dtype=np.uint64))
        want = np.flatnonzero(h <= bound)
        assert np.array_equal((i - 1) * (self.N_POS - 1) + (j - 2), want)
        assert np.array_equal(got, h.ravel()[want])
        return got

    @pytest.mark.parametrize("band", ["at", "one_below", "same_top_31_bits"])
    def test_hits_equal_the_whole_tile_test(self, band):
        f = ClockField(SEED)
        h = self._tile_hashes(f, self.N_POS)
        h_star = np.sort(h.ravel())[h.size // 2]
        low33 = np.uint64((1 << 33) - 1)
        bound = {
            "at": h_star,
            "one_below": h_star - np.uint64(1),
            # passes the 31-bit prefilter with h* itself, which the exact
            # per-row test must then reject
            "same_top_31_bits": h_star & ~low33,
        }[band]
        assert bound >> np.uint64(33) == h_star >> np.uint64(33)
        got = self._assert_whole_tile_hits(f, h, bound)
        assert (h_star in got) == (band == "at")

    @pytest.mark.parametrize("tile", [1, 7, 45, 300, 1 << 15])
    def test_descending_row_bounds_across_tiles(self, tile):
        # every row's bound is at, one below, or in the loose band of a hash
        # realized in that row, and no bound is above the previous row's, so
        # a tile's later rows pass its prefilter but must meet their own bound
        f = ClockField(SEED)
        n = self.N_POS
        h = self._tile_hashes(f, n)
        upper = np.triu(np.ones((n - 1, n - 1), dtype=bool))  # j > i
        low33 = np.uint64((1 << 33) - 1)
        h_max = np.empty(n - 1, dtype=np.uint64)
        anchors = []
        previous = np.uint64(2 ** 64 - 1)
        for r in range(n - 1):
            row = h[r, r:]
            below = row[row <= previous]
            if below.size == 0:
                h_max[r] = previous
                continue
            h_star = below.max()
            band = len(anchors) % 3
            h_max[r] = (h_star, h_star - np.uint64(1), h_star & ~low33)[band]
            anchors.append((r, h_star, band))
            previous = h_max[r]
        # the bounds take distinct realized values along most rows
        assert len(anchors) >= 20
        assert np.all(np.diff(h_max.astype(object)) <= 0)
        with mock.patch.object(clock_field, "_TILE_PAIRS", tile):
            i, j, got = f._pair_hits(n, h_max)
        assert np.all(h[i - 1, j - 2] == got)
        assert np.all(got <= h_max[i - 1])
        above = j > i
        want = np.flatnonzero(upper & (h <= h_max[:, None]))
        assert np.array_equal(((i - 1) * (n - 1) + (j - 2))[above], want)
        for r, h_star, band in anchors:
            hit = np.any((i == r + 1) & (got == h_star))
            assert hit == (band == 0)

    def _halving_bounds(self, h):
        """Row bounds that halve every other row, each at most its row's
        largest hash below the halving cap, never above the row before."""
        h_max = np.empty(self.N_POS - 1, dtype=np.uint64)
        previous = np.uint64(2 ** 64 - 1)
        for r in range(self.N_POS - 1):
            cap = np.uint64(2 ** 64 - 1) >> np.uint64(r // 2)
            below = h[r][h[r] <= cap]
            h_max[r] = min(below.max() if below.size else cap, previous)
            previous = h_max[r]
        return h_max

    @pytest.mark.parametrize("tile", [1, 7, 300, 1 << 15])
    def test_bounds_falling_by_more_than_half_in_a_tile(self, tile):
        # tiles of many rows have bounds that fall by more than half, so
        # their rows are prefiltered one by one
        f = ClockField(SEED)
        n = self.N_POS
        h = self._tile_hashes(f, n)
        h_max = self._halving_bounds(h)
        with mock.patch.object(clock_field, "_TILE_PAIRS", tile):
            i, j, got = f._pair_hits(n, h_max)
        assert np.all(h[i - 1, j - 2] == got)
        upper = np.triu(np.ones((n - 1, n - 1), dtype=bool))  # j > i
        want = np.flatnonzero(upper & (h <= h_max[:, None]))
        assert want.size > n
        above = j > i
        assert np.array_equal(((i - 1) * (n - 1) + (j - 2))[above], want)

    def test_each_row_finishes_only_the_hashes_its_own_bound_passes(self):
        # one tile: the last step keeps the top 31 bits, so a hash finishes
        # exactly when those bits are not above its own row's
        f = ClockField(SEED)
        h = self._tile_hashes(f, self.N_POS)
        h_max = self._halving_bounds(h)
        finished = []
        finalize = ClockField._finalize

        def counted(field, hashes):
            finished.append(hashes.size)
            return finalize(field, hashes)

        with mock.patch.object(ClockField, "_finalize", counted):
            f._pair_hits(self.N_POS, h_max)
        top = np.uint64(33)
        own = int(np.sum((h >> top) <= (h_max >> top)[:, None]))
        first_row = int(np.sum((h >> top) <= (h_max[0] >> top)))
        assert sum(finished) == own < first_row // 4

    def test_corrupted_field_salts_every_hash_of_the_tile(self):
        # no prefilter: the hits are those of the salted whole-tile hashes,
        # salted in the same order as through _pair_hash
        h = self._tile_hashes(ClockField(SEED, _corrupt=True), self.N_POS)
        self._assert_whole_tile_hits(ClockField(SEED, _corrupt=True), h, np.uint64(1 << 63))

    def test_corrupted_field_tables_differ_between_calls(self):
        f = ClockField(SEED, _corrupt=True)
        masses = np.full(self.N_POS, 1.0)
        first = realize(masses, f, 1.0, 1.0)
        second = realize(masses, f, 1.0, 1.0)
        assert not (
            np.array_equal(first.edge_i, second.edge_i)
            and np.array_equal(first.edge_j, second.edge_j)
            and np.array_equal(first.edge_time, second.edge_time)
        )


class TestPairEnumeration:
    @pytest.mark.parametrize("n", [2, 3, 7, 50, 311])
    def test_decode_roundtrip(self, n):
        e = np.arange(pair_count(n), dtype=np.int64)
        i, j = pair_index_decode(e, n)
        assert np.all(i < j)
        assert np.all((1 <= i) & (j <= n))
        # re-encode
        base = (i - 1) * (2 * n - i) // 2
        assert np.array_equal(base + (j - i - 1), e)


class TestLatticeBoundaries:
    def test_extreme_hashes_stay_strictly_positive_and_finite(self):
        from mcld.clock_field import _to_unit_exp

        lo = _to_unit_exp(np.zeros(1, dtype=np.uint64))
        hi = _to_unit_exp(np.full(1, 2 ** 64 - 1, dtype=np.uint64))
        assert 0.0 < lo[0] < hi[0] < math.inf


class TestCorruptionHook:
    def test_corrupted_field_is_not_pure(self):
        f = ClockField(SEED, _corrupt=True)
        first = unit_pair_exp(f, 1, 2)
        second = unit_pair_exp(f, 1, 2)
        assert first != second

    def test_corrupted_field_salts_two_dimensional_hashes(self):
        rows = np.arange(1, 4, dtype=np.uint64)[:, None]
        cols = np.arange(2, 7, dtype=np.uint64)[None, :]
        sound = ClockField(SEED)._pair_hash(rows, cols)
        corrupted = ClockField(SEED, _corrupt=True)._pair_hash(rows, cols)
        assert sound.shape == corrupted.shape == (3, 5)
        # the first salt is mix64(0) = 0; every later one changes its hash
        assert np.count_nonzero(sound != corrupted) == sound.size - 1

    def test_normal_field_is_pure(self):
        f = ClockField(SEED)
        assert unit_pair_exp(f, 1, 2) == unit_pair_exp(f, 1, 2)
