import math

import numpy as np
import pytest
import scipy.stats

from mcld import acceptance
from mcld.clock_field import ClockField
from mcld.errors import InvalidInput
from mcld.feller import feller_sweep, ks_two_sample, power_law_reference
from mcld.graphical import realize, truncated_realization
from mcld.mass_state import dist, truncate
from mcld.truncation import report_from_split, split_from_realization

from helpers import coupled_distance

SEED = 5772


class TestCoupledDistance:
    def test_identical_initials_give_zero(self):
        v = power_law_reference(0.6, 32)
        for seed in range(10):
            assert coupled_distance(v, v, 1.0, 1.0, seed) == 0.0

    def test_pure_function_of_inputs(self):
        v = power_law_reference(0.6, 24)
        w = truncate(v, 10)
        d1 = coupled_distance(v, w, 0.7, 0.9, SEED)
        d2 = coupled_distance(v, w, 0.7, 0.9, SEED)
        assert d1 == d2

    @pytest.mark.parametrize("seed", range(25))
    def test_truncation_distance_within_sandwich_bound(self, seed):
        # cross-module check: the coupled distance obeys the bracket bound
        # computed by the truncation machinery on the same seed
        v = power_law_reference(0.6, 48)
        m = 12
        d = coupled_distance(v, truncate(v, m), 1.0, 1.0, seed)
        rep = report_from_split(
            split_from_realization(realize(v, ClockField(seed), 1.0, 1.0), m)
        )
        assert d == pytest.approx(rep.distance, abs=1e-12)
        assert d <= 3.0 * math.sqrt(rep.gap) + 1e-9

    @pytest.mark.parametrize("seed", range(25))
    def test_deletion_free_case_obeys_plain_nested_bound(self, seed):
        # lam=0: the truncated graph is contained in the full graph, so the
        # one-sided comparison bound applies directly
        v = power_law_reference(0.6, 48)
        m = 12
        f = ClockField(seed)
        full = realize(v, f, 0.0, 1.0)
        trunc = truncated_realization(full, m)
        d = dist(full.state, trunc.state)
        assert d <= math.sqrt(
            max(full.state.norm_sq() - trunc.state.norm_sq(), 0.0)
        ) + 1e-9


class TestPowerLawReference:
    def test_support_zero_is_the_empty_state(self):
        assert power_law_reference(0.6, 0).masses == ()

    @pytest.mark.parametrize(
        "exponent, support, message",
        [
            (-1000, 5, "^bad power law exponent -1000: "),  # 3.0 ** 1000 overflows
            (-1, 3, "non-increasing"),  # an increasing vector is refused, not sorted
            (0.6, 2.5, "^support must be an integer, got 2.5$"),
            (0.6, -1, "^support must be at least 0$"),
        ],
    )
    def test_bad_arguments_refused(self, exponent, support, message):
        with pytest.raises(InvalidInput, match=message):
            power_law_reference(exponent, support)


class TestFellerSweep:
    def test_full_level_distance_zero(self):
        ref = power_law_reference(0.6, 64)
        report = feller_sweep([64], 1.0, 1.0, replicas=20, reference=ref, seed=SEED)
        assert all(d == 0.0 for d in report.distances[64])

    def test_levels_beyond_reference_rejected(self):
        ref = power_law_reference(0.6, 64)
        with pytest.raises(InvalidInput):
            feller_sweep([128], 1.0, 1.0, replicas=5, reference=ref)
        with pytest.raises(InvalidInput):
            feller_sweep([-1], 1.0, 1.0, replicas=5, reference=ref)
        with pytest.raises(InvalidInput):
            feller_sweep([8], 1.0, 1.0, replicas=0, reference=ref)

    @pytest.mark.parametrize("levels", [[], [16, 16]])
    def test_empty_or_repeated_levels_rejected(self, levels):
        # the same check, and message, as truncation_report's
        ref = power_law_reference(0.6, 64)
        with pytest.raises(InvalidInput, match="nonempty and distinct"):
            feller_sweep(levels, 1.0, 1.0, 3, ref, seed=1)

    def test_sweep_matches_coupled_distance(self):
        # the restriction fast path must be pathwise identical to two
        # independent realizations under the same seed
        ref = power_law_reference(0.6, 40)
        report = feller_sweep([10, 20], 1.0, 1.0, replicas=5, reference=ref, seed=SEED)
        base = ClockField(SEED)
        for n in (10, 20):
            for r in range(5):
                direct = coupled_distance(
                    ref, truncate(ref, n), 1.0, 1.0, base.child(r).seed
                )
                assert report.distances[n][r] == pytest.approx(direct, abs=1e-12)

    def test_median_decay_small_ladder(self):
        ref = power_law_reference(0.6, 256)
        report = feller_sweep(
            [16, 128], 1.0, 1.0, replicas=60, reference=ref, seed=SEED
        )
        assert report.quantiles[128][0] <= report.quantiles[16][0]

    def test_deletion_free_decay(self):
        ref = power_law_reference(0.6, 256)
        report = feller_sweep(
            [16, 128], 0.0, 1.0, replicas=60, reference=ref, seed=SEED + 1
        )
        assert report.quantiles[128][0] <= report.quantiles[16][0]

    def test_added_rungs_leave_other_rungs_unchanged(self):
        # every rung reads the same per-replica full realization, so the
        # ladder can grow without moving the distances of the rungs it had
        ref = power_law_reference(0.6, 64)
        small = feller_sweep([8, 32], 1.0, 1.0, replicas=6, reference=ref, seed=SEED)
        big = feller_sweep(
            [8, 20, 32, 56], 1.0, 1.0, replicas=6, reference=ref, seed=SEED
        )
        assert any(d > 0.0 for d in small.distances[32])
        for n in (8, 32):
            assert big.distances[n] == small.distances[n]
            assert big.quantiles[n] == small.quantiles[n]


class TestCriterion7Ladder:
    """Criterion 7's reference: power law 0.6 on support 4096, threshold 0.2."""

    def test_base_rungs_start_above_threshold(self):
        ref = power_law_reference(0.6, 4096)
        assert acceptance.FELLER_BASE_RUNGS == (256, 1024, 2048)
        for m in acceptance.FELLER_BASE_RUNGS:
            assert dist(ref, truncate(ref, m)) > 0.2

    def test_top_rung_is_first_within_half_threshold(self):
        ref = power_law_reference(0.6, 4096)
        ladder = acceptance.feller_ladder(ref)
        assert ladder == (256, 1024, 2048, 3887)
        assert dist(ref, truncate(ref, 3887)) <= 0.1
        assert dist(ref, truncate(ref, 3886)) > 0.1


class TestKsTwoSample:
    def test_identical_samples(self):
        assert ks_two_sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_disjoint_supports(self):
        assert ks_two_sample([0.0, 0.1], [5.0, 6.0]) == 1.0

    def test_hand_enumerated(self):
        # CDFs differ by exactly 1/3 just below 4
        assert ks_two_sample([1, 2, 3], [1, 2, 4]) == pytest.approx(1.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            ks_two_sample([], [1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=40)
        b = rng.normal(loc=0.3, size=55)
        ours = ks_two_sample(a, b)
        theirs = scipy.stats.ks_2samp(a, b).statistic
        assert ours == pytest.approx(theirs, abs=1e-12)
