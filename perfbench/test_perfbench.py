"""Negative controls for the benchmark's output checks, and tests of its tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mcld import feller, graphical  # noqa: E402
from mcld.clock_field import ClockField  # noqa: E402


def _corrupt(seed):
    return ClockField(seed, _corrupt=True)


def test_simulate_checks_pass_and_fail_on_corrupted_clocks(tmp_path):
    wl = workloads.Simulate(1, str(tmp_path))
    calls = wl.prepare(0)
    outs = wl.run(calls)
    corrupted = workloads.Simulate(1, str(tmp_path), clock_factory=_corrupt)
    assert any("differ" in p for p in corrupted.check_deep(calls, outs))
    assert wl.check_deep(calls, outs) == []
    assert wl.check(calls, outs) == []


def _sandwich_reports(tmp_path, t: str) -> list[dict]:
    wl = workloads.Sandwich(1, str(tmp_path))
    argv, out = wl.prepare(0)
    argv[argv.index("--t") + 1] = t
    wl.run((argv, out))
    reports = []
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            reports.append(json.load(fh))
    return reports


def test_sandwich_reports_pass_and_a_raised_distance_is_rejected(tmp_path):
    reports = _sandwich_reports(tmp_path, "1")
    assert len(reports) == 15
    assert all(workloads.check_report(rep) == [] for rep in reports)
    raised = dict(reports[0], distance=3.0 * math.sqrt(reports[0]["gap"]) + 1e-6)
    assert any("distance" in p for p in workloads.check_report(raised))


def test_bound_terms_are_recomputed(tmp_path):
    # at t = 1 the workload's reports all have t^2*alpha*beta > 1/2; a short
    # horizon brings the hypothesis, and with it the bound terms, into play
    reports = _sandwich_reports(tmp_path, "0.05")
    with_terms = [rep for rep in reports if rep["bound_terms"] is not None]
    assert with_terms
    assert all(workloads.check_report(rep, t=0.05) == [] for rep in reports)
    rep = with_terms[0]
    b1, b2 = rep["bound_terms"]
    wrong = dict(rep, bound_terms=[b1, b2 * (1 + 1e-9)])
    assert any("bound_terms" in p for p in workloads.check_report(wrong, t=0.05))
    assert workloads.check_report(dict(rep, bound_terms=None), t=0.05)
    assert workloads.check_report(rep, t=1.0)  # present where it must not be


def test_fp_check_recomputes_ks(tmp_path):
    wl = workloads.FrozenPercolation(1, str(tmp_path))
    inputs = wl.prepare(0)
    assert wl.check(inputs, wl.run(inputs)) == []

    inputs = wl.prepare(1)
    out = wl.run(inputs)
    path = os.path.join(out, "comparison.json")
    with open(path, encoding="utf-8") as fh:
        comparison = json.load(fh)
    stats = comparison["ks_between"]["20000:80000"]["1"]
    stats[0] = 0.25 if stats[0] != 0.25 else 0.75
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(comparison, fh)
    assert any(p.startswith("ks ") for p in wl.check(inputs, out))


def test_clock_field_oracle_matches_and_detects_corruption(tmp_path):
    wl = workloads.FellerLadder(1, str(tmp_path))
    masses = feller.power_law_reference(0.6, 300)
    sound = graphical.realize(masses, ClockField(77), 1.0, 1.0)
    assert len(sound.edge_i) > 0
    assert wl.check_clock_field(77, sound) == []
    corrupt = graphical.realize(masses, _corrupt(77), 1.0, 1.0)
    assert wl.check_clock_field(77, corrupt)


def test_oracle_child_seed_matches_the_program():
    for seed, k in ((0, 0), (808, 3), ((1 << 64) - 1, 12345)):
        assert ClockField(seed).child(k).seed == oracle.child_seed(seed, k)


def test_oracle_ks_matches_a_direct_sup():
    rng = np.random.default_rng(5)
    a, b = rng.integers(0, 6, 17).tolist(), rng.integers(0, 6, 11).tolist()
    grid = sorted(set(a + b))
    direct = max(
        abs(sum(x <= g for x in a) / len(a) - sum(x <= g for x in b) / len(b))
        for g in grid
    )
    assert oracle.ks_two_sample(a, b) == direct


def test_nested_spans_give_self_times():
    now = [0.0]
    tracer = tracing.Tracer(clock=lambda: now[0])

    def inner():
        now[0] += 2.0

    inner = tracer.wrap("inner", inner)

    def outer():
        now[0] += 1.0
        inner()
        now[0] += 3.0
        inner()

    tracer.wrap("outer", outer)()
    calls, self_s = tracer.totals()
    assert calls == {"outer": 1, "inner": 2}
    assert self_s == {"outer": 4.0, "inner": 4.0}
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]


def test_missing_sites_are_reported_and_install_is_undone():
    tracer = tracing.Tracer()
    original = graphical.realize
    tracer.install([
        ("graphical", "realize", "graphical.realize", None),
        ("graphical", "no_such_function", "graphical.none", None),
    ])
    assert graphical.realize is not original
    assert tracer.missing == ["graphical.no_such_function"]
    tracer.uninstall()
    assert graphical.realize is original


def test_benchmark_json_lists_the_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == list(tracing.LAYER_METRICS)


def test_speed_gauge_reads_and_its_process_ends():
    with calibration.Gauge(0.5) as gauge:
        readings = [gauge.read() for _ in range(3)]
        assert all(0.0 < r < 100.0 for r in readings)
    assert gauge._proc.poll() == 0
