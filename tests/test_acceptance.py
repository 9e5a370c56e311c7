"""Acceptance suite: one test per criterion, each at its pinned seed and
tolerance.  Failures print the full detail payload.  Where a criterion's
payload is a pinned anchor, the test also asserts its exact values: a
speed-up or refactor that moves any of them changes behaviour."""

import dataclasses

from mcld import acceptance
from mcld.multigraph import classify_bad

from helpers import fail_sandwich_at


def _check(result):
    print(result.line())
    assert result.passed, result.details
    return result.details


def test_criterion_1_pathwise_equivalence():
    details = _check(acceptance.criterion_pathwise())
    assert details["cases"] == 1000
    assert details["max_entrywise_error"] == 1.0658141036401503e-14


def test_criterion_2_sandwich_inequality():
    details = _check(acceptance.criterion_sandwich())
    assert details["reports"] == 1500
    assert details["worst_distance_minus_bound"] == -48.613405381105494


def test_criterion_3_good_component_identity():
    details = _check(acceptance.criterion_good_components())
    assert details == {"violations": 0, "reports": 1500}


def test_sandwich_bundle_counts_an_invariant_violation(monkeypatch):
    fail_sandwich_at(monkeypatch, 64)
    bundle = acceptance._sandwich_bundle.__wrapped__()  # past the cache
    assert bundle["holds"] is False
    assert bundle["reports"] == 1000


def test_criterion_4_bad_set_oracle():
    _check(acceptance.criterion_bad_set_oracle())


def test_criterion_4_catches_a_classifier_blind_to_upper_damage(monkeypatch):
    # negative control: a classifier that never sees a struck upper
    # component must disagree with the trail enumeration somewhere
    def blind(cm):
        return classify_bad(dataclasses.replace(cm, damaged_upper=(False,) * cm.n_upper))

    monkeypatch.setattr(acceptance, "classify_multigraph", blind)
    result = acceptance.criterion_bad_set_oracle()
    assert result.passed is False
    assert result.details["mismatches"] > 0


def test_criterion_5_analytic_bounds():
    details = _check(acceptance.criterion_bound_checks())
    doubling = details["doubling"]
    assert (doubling["mean"], doubling["sem"]) == (
        0.9534120000000003,
        0.002906209977142589,
    )
    bipartite = details["bipartite"]
    assert (bipartite["mean_excess"], bipartite["sem"], bipartite["bound"]) == (
        0.4289098916312836,
        0.002479361308912942,
        0.8000000000000002,
    )
    gap = details["frozen_gap"]
    assert (gap["mean_gap"], gap["sem"], gap["alpha"], gap["beta"], gap["bound"]) == (
        0.3809143654407379,
        0.002724316202369255,
        1.0,
        0.09500000000000001,
        1.1400000000000001,
    )


def test_criterion_6_connectivity_bound():
    details = _check(acceptance.criterion_connectivity_bound())
    assert details["p_hat"] == 0.04196


def test_criterion_7_feller_decay():
    details = _check(acceptance.criterion_feller_decay())
    assert details["ladder"] == [256, 1024, 2048, 3887]
    assert details["medians"] == [
        1.9001085501408947,
        1.7026059237665385,
        1.3003003964490603,
        0.15910737195680733,
    ]
    assert details["min_distance_2048"] == 0.33020540713541985
    assert details["exceedance_256"] == 1.0
    assert details["exceedance_2048"] == 1.0
    assert details["exceedance_3887"] == 0.406


def test_criterion_8_fp_scaling_trend():
    details = _check(acceptance.criterion_fp_scaling())
    assert details["ks_rank1_n2e4"] == 0.061999999999999944
    assert details["ks_rank1_n8e4"] == 0.040000000000000036
    assert details["ref_level"] == 42340


def test_criterion_9_trajectory_sanity():
    details = _check(acceptance.criterion_trajectory_sanity())
    assert details["max_mass_balance_error"] == 1.0658141036401503e-14


def test_criterion_10_determinism():
    _check(acceptance.criterion_determinism())
