"""Acceptance criteria: every check the package must pass, pinned to fixed
seeds and tolerances so reruns are bit-for-bit comparable.

Each criterion returns a :class:`CriterionResult`; the CLI selftest and the
pytest acceptance module both consume these.  Heavy shared computations are
cached per process.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest

import numpy as np

from .clock_field import ClockField, edge_arrivals
from .errors import InvariantViolation
from .events import deleted_mass_up_to, run_clocked
from .feller import feller_sweep, power_law_reference
from .frozen_percolation import fp_mcld_compare
from .graphical import _least_labels, s2_growth_estimate, state_at
from .mass_state import dist, ordered, truncate
from .multigraph import ComponentMultigraph, classify_bad_bruteforce
from .multigraph import classify_bad as classify_multigraph
from .truncation import (
    bipartite_s2_samples,
    frozen_split_gap_samples,
    SANDWICH_TOL,
    tail_truncation_index,
    truncation_report,
)

__all__ = ["CriterionResult", "CRITERIA", "QUICK", "run_criteria"]

SEED_PATHWISE = 101
SEED_SANDWICH = 202
SEED_BADSET = 303
SEED_GROWTH = 404
SEED_GAP = 505
SEED_BIPARTITE = 606
SEED_CONNECT = 707
SEED_FELLER = 808
SEED_FP = 880

PATHWISE_TOL = 1e-12
MASS_BALANCE_TOL = 1e-9


@dataclass
class CriterionResult:
    name: str
    passed: bool
    runtime_s: float
    details: dict

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return f"{flag} {self.name} ({self.runtime_s:.1f}s)"


def _timed(fn):
    def wrapper(*args, **kwargs) -> CriterionResult:
        start = time.time()
        name, passed, details = fn(*args, **kwargs)
        return CriterionResult(
            name=name, passed=passed, runtime_s=time.time() - start, details=details
        )

    return wrapper


# ---------------------------------------------------------------------------
# criteria 1 and 9: pathwise equivalence and trajectory sanity


def _pathwise_case(k: int, corrupt: bool) -> dict:
    rng = np.random.default_rng([SEED_PATHWISE, k])
    support = int(rng.integers(1, 51))
    masses = ordered(rng.uniform(0.0, 1.0, support) + 1e-9)
    lam = (0.0, 0.5, 2.0)[k % 3]
    t = (0.2, 1.0)[k % 2]
    field = ClockField(SEED_PATHWISE * 1000 + k, _corrupt=corrupt)

    traj_probe = run_clocked(masses, field, lam, (t,))
    event_times = sorted({e.time for e in traj_probe.events})
    grid = sorted(
        set(event_times)
        | {(a + b) / 2 for a, b in zip(event_times, event_times[1:])}
        | {t}
    )
    traj = run_clocked(masses, field, lam, grid)

    max_err = 0.0
    for g, clocked_state in zip(grid, traj.states):
        graphical_state = state_at(masses, field, lam, g)
        # zero-padded, as in dist: a missing component is an error of its
        # whole mass, which keeps the detail finite and serializable
        for a, b in zip_longest(graphical_state, clocked_state, fillvalue=0.0):
            max_err = max(max_err, abs(a - b))

    balance_err = max(
        abs(masses.total_mass() - st.total_mass() - deleted_mass_up_to(traj, g))
        for g, st in zip(grid, traj.states)
    )

    constant = True
    for k2, g in enumerate(grid[:-1]):
        between = [e for e in traj.events if g < e.time <= grid[k2 + 1]]
        if not between and traj.states[k2] != traj.states[k2 + 1]:
            constant = False
    return {
        "max_err": max_err,
        "balance_err": balance_err,
        "constant": constant,
        "events": len(traj.events),
    }


@lru_cache(maxsize=2)
def _pathwise_bundle(corrupt: bool = False) -> tuple[dict, ...]:
    return tuple(_pathwise_case(k, corrupt) for k in range(1000))


@_timed
def criterion_pathwise(corrupt: bool = False):
    cases = _pathwise_bundle(corrupt)
    worst = max(c["max_err"] for c in cases)
    passed = worst <= PATHWISE_TOL
    return (
        "1-pathwise-equivalence",
        passed,
        {"cases": len(cases), "max_entrywise_error": worst, "tolerance": PATHWISE_TOL},
    )


@_timed
def criterion_trajectory_sanity(corrupt: bool = False):
    cases = _pathwise_bundle(corrupt)
    worst_balance = max(c["balance_err"] for c in cases)
    all_constant = all(c["constant"] for c in cases)
    passed = worst_balance <= MASS_BALANCE_TOL and all_constant
    return (
        "9-trajectory-sanity",
        passed,
        {
            "max_mass_balance_error": worst_balance,
            "piecewise_constant": all_constant,
            "tolerance": MASS_BALANCE_TOL,
        },
    )


# ---------------------------------------------------------------------------
# criteria 2 and 3: sandwich inequality and good-component identity


@lru_cache(maxsize=1)
def _sandwich_bundle() -> dict:
    worst_slack = -math.inf
    violations = 0
    holds = True
    reports = 0
    for _, _, rep in truncation_report(
        power_law_reference(0.6, 512), SEED_SANDWICH, 1.0, 1.0, (16, 64, 256), 500
    ):
        if isinstance(rep, InvariantViolation):
            holds = False
            continue
        reports += 1
        worst_slack = max(worst_slack, rep.distance - 3.0 * math.sqrt(rep.gap))
        holds &= rep.holds
        violations += rep.good_violations
    return {
        "worst_slack": worst_slack,
        "violations": violations,
        "holds": holds,
        "reports": reports,
    }


@_timed
def criterion_sandwich():
    b = _sandwich_bundle()
    passed = b["holds"] and b["worst_slack"] <= SANDWICH_TOL
    return (
        "2-sandwich-inequality",
        passed,
        {
            "reports": b["reports"],
            "worst_distance_minus_bound": b["worst_slack"],
            "tolerance": SANDWICH_TOL,
        },
    )


@_timed
def criterion_good_components():
    """Good lower components meet both intact sets alike.

    Counted only on reports whose sandwich inclusions held.  Restricted to a
    good component, two of those (inner within full-intact, full-intact
    within outer) already imply the identity, so this cannot fail today.
    """
    b = _sandwich_bundle()
    return (
        "3-good-component-identity",
        b["violations"] == 0,
        {"violations": b["violations"], "reports": b["reports"]},
    )


# ---------------------------------------------------------------------------
# criterion 4: bad-set classifier against the trail enumerator


def _random_multigraph(rng) -> ComponentMultigraph:
    n_lower = int(rng.integers(1, 5))
    n_upper = int(rng.integers(0, 8 - n_lower + 1))
    n_edges = int(rng.integers(0, 11)) if n_upper else 0
    edges = tuple(
        (int(rng.integers(0, n_lower)), int(rng.integers(0, n_upper)))
        for _ in range(n_edges)
    )
    return ComponentMultigraph(
        n_lower=n_lower,
        n_upper=n_upper,
        edges=edges,
        damaged_lower=tuple(bool(rng.integers(0, 2)) for _ in range(n_lower)),
        damaged_upper=tuple(bool(rng.integers(0, 2)) for _ in range(n_upper)),
    )


@_timed
def criterion_bad_set_oracle():
    rng = np.random.default_rng(SEED_BADSET)
    mismatches = 0
    for _ in range(1000):
        cm = _random_multigraph(rng)
        if classify_multigraph(cm) != classify_bad_bruteforce(cm):
            mismatches += 1
    return ("4-bad-set-oracle", mismatches == 0, {"instances": 1000, "mismatches": mismatches})


# ---------------------------------------------------------------------------
# criterion 5: analytic bound checks


@_timed
def criterion_bound_checks():
    details = {}
    # (a) squared-norm doubling at the boundary of its hypothesis
    growth = s2_growth_estimate(
        ordered([0.1] * 50), ClockField(SEED_GROWTH), 1.0, 10_000
    )
    details["doubling"] = {
        "mean": growth.mean,
        "sem": growth.sem,
        "bound": 1.0,
        "ok": growth.mean <= 1.0 + 3.0 * growth.sem,
    }
    # (b) bipartite excess bound at a=1, b=0.1, t=1
    x = np.full(20, math.sqrt(1.0 / 20))
    y = np.full(20, math.sqrt(0.1 / 20))
    bip = bipartite_s2_samples(x, y, 1.0, SEED_BIPARTITE, replicas=10_000)
    details["bipartite"] = {
        "mean_excess": bip.mean_excess,
        "sem": bip.sem,
        "bound": bip.bound,
        "ok": bip.mean_excess <= bip.bound + 3.0 * bip.sem,
    }
    # (c) two-term gap bound with frozen split graphs (alpha ~ 1, beta ~ 0.1)
    lower = tuple(math.sqrt(0.5 / 40) for _ in range(40))
    upper = tuple(math.sqrt(0.095 / 30) for _ in range(30))
    gap = frozen_split_gap_samples(
        ordered(lower + upper), 1.0, 1.0, 40, SEED_GAP, replicas=10_000
    )
    details["frozen_gap"] = {
        "alpha": gap.alpha,
        "beta": gap.beta,
        "mean_gap": gap.mean_gap,
        "sem": gap.sem,
        "bound": gap.bound,
        "ok": gap.mean_gap <= gap.bound + 3.0 * gap.sem,
    }
    passed = all(v["ok"] for v in details.values())
    return ("5-analytic-bounds", passed, details)


# ---------------------------------------------------------------------------
# criterion 6: two-point connectivity bound


@_timed
def criterion_connectivity_bound():
    n, t = 20, 1.0
    masses = np.full(n, math.sqrt(0.5 / n))  # t * s2 = 0.5
    bound = masses[0] * masses[1] * t / (1.0 - t * 0.5)
    base = ClockField(SEED_CONNECT)
    replicas = 100_000
    # one block-diagonal union: replica r's label v becomes r * (n + 1) + v
    ends = [edge_arrivals(base.child(r), masses, t)[:2] for r in range(replicas)]
    ei, ej = (np.concatenate(e) for e in zip(*ends))
    shift = np.repeat(np.arange(replicas) * (n + 1), [len(e) for e, _ in ends])
    least = _least_labels(replicas * (n + 1) - 1, ei + shift, ej + shift)
    hits = int(np.count_nonzero(least[1 :: n + 1] == least[2 :: n + 1]))
    p_hat = hits / replicas
    sem = math.sqrt(p_hat * (1.0 - p_hat) / replicas)
    return (
        "6-connectivity-bound",
        p_hat <= bound + 3.0 * sem,
        {"p_hat": p_hat, "bound": bound, "sem": sem, "replicas": replicas},
    )


# ---------------------------------------------------------------------------
# criterion 7: coupled-distance decay along the truncation ladder


FELLER_BASE_RUNGS = (256, 1024, 2048)
FELLER_EPS = 0.2


def feller_ladder(reference) -> tuple[int, ...]:
    """Criterion 7's truncation ladder: the base rungs plus a top rung.

    The top rung is the first level whose initial gap ``||x - x^(m)||`` is at
    most ``FELLER_EPS / 2``.  On the criterion's reference every base rung
    starts with a gap above ``FELLER_EPS``, and the coupled distance at time
    t seldom falls far below the initial gap, so the exceedance probability
    is 1.0 on all of them; only a rung that starts inside the threshold can
    show it fall.
    """
    return FELLER_BASE_RUNGS + (
        tail_truncation_index(reference, (FELLER_EPS / 2) ** 2),
    )


@_timed
def criterion_feller_decay():
    reference = power_law_reference(0.6, 4096)
    ladder = feller_ladder(reference)
    report = feller_sweep(
        ladder,
        lam=1.0,
        t=1.0,
        replicas=500,
        reference=reference,
        seed=SEED_FELLER,
    )
    first, base_top, top = ladder[0], FELLER_BASE_RUNGS[-1], ladder[-1]
    medians = [report.quantiles[n][0] for n in ladder]
    monotone = all(a >= b for a, b in zip(medians, medians[1:]))
    p_first = report.exceedance(first, FELLER_EPS)
    p_top = report.exceedance(top, FELLER_EPS)
    halved = p_top <= 0.5 * p_first
    return (
        "7-feller-decay",
        monotone and halved,
        {
            "ladder": list(ladder),
            "initial_gap": [dist(reference, truncate(reference, n)) for n in ladder],
            "medians": medians,
            "median_trend_ok": monotone,
            f"exceedance_{first}": p_first,
            f"exceedance_{base_top}": report.exceedance(base_top, FELLER_EPS),
            f"exceedance_{top}": p_top,
            "exceedance_halved": halved,
            f"min_distance_{base_top}": min(report.distances[base_top]),
            "p90": [report.quantiles[n][1] for n in ladder],
        },
    )


# ---------------------------------------------------------------------------
# criterion 8: frozen percolation scaling trend


@_timed
def criterion_fp_scaling():
    report = fp_mcld_compare(
        n_list=[20_000, 80_000],
        lam_rescaled=1.0,
        u=0.0,
        t_list=[1.0],
        replicas=500,
        top_r=3,
        seed=SEED_FP,
        n_ref=320_000,
        workers=min(2, os.cpu_count() or 1),  # the report does not depend on it
    )
    ks_small = report.ks_vs_reference[20_000][0][0]
    ks_large = report.ks_vs_reference[80_000][0][0]
    passed = ks_large < ks_small and ks_large <= 0.1
    return (
        "8-fp-scaling-trend",
        passed,
        {
            "ks_rank1_n2e4": ks_small,
            "ks_rank1_n8e4": ks_large,
            "threshold": 0.1,
            "ref_level": report.ref_level,
        },
    )


# ---------------------------------------------------------------------------
# criterion 10: byte-identical reruns


@_timed
def criterion_determinism():
    import tempfile
    from pathlib import Path

    from . import cli

    def run_all(outdir: Path) -> dict[str, bytes]:
        cli.main(
            [
                "simulate",
                "--masses", "1,0.8,0.5",
                "--lambda", "1",
                "--t", "0.9",
                "--seed", "11",
                "--out-dir", str(outdir / "sim"),
            ]
        )
        cli.main(
            [
                "truncation",
                "--gen", "powerlaw:0.6:64",
                "--lambda", "1",
                "--t", "1",
                "--truncate", "16,32",
                "--seed", "12",
                "--replicas", "5",
                "--out-dir", str(outdir / "trunc"),
            ]
        )
        cli.main(
            [
                "fp",
                "--n-list", "200,400",
                "--lambda", "1",
                "--u", "0",
                "--t", "0.5",
                "--replicas", "4",
                "--top-r", "2",
                "--seed", "13",
                "--n-ref", "800",
                "--out-dir", str(outdir / "fp"),
            ]
        )
        return {
            str(p.relative_to(outdir)): p.read_bytes()
            for p in sorted(outdir.rglob("*"))
            if p.is_file()
        }

    with tempfile.TemporaryDirectory() as tmp:
        first = run_all(Path(tmp) / "a")
        second = run_all(Path(tmp) / "b")
    same_names = set(first) == set(second)
    same_bytes = same_names and all(first[k] == second[k] for k in first)
    return (
        "10-determinism",
        same_bytes,
        {"files": sorted(first), "identical": same_bytes},
    )


# ---------------------------------------------------------------------------
# quick metric suite (selftest helper, not one of the numbered criteria)


@_timed
def metric_suite():
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(200):
        a = ordered(rng.uniform(0, 2, rng.integers(0, 8)))
        b = ordered(rng.uniform(0, 2, rng.integers(0, 8)))
        c = ordered(rng.uniform(0, 2, rng.integers(0, 8)))
        ok &= dist(a, b) == dist(b, a)
        ok &= dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12
        ok &= (dist(a, b) == 0.0) == (a == b)
        ok &= ordered(a.masses) == a
    return ("0-metric-suite", bool(ok), {"triples": 200})


CRITERIA = {
    "1-pathwise-equivalence": criterion_pathwise,
    "2-sandwich-inequality": criterion_sandwich,
    "3-good-component-identity": criterion_good_components,
    "4-bad-set-oracle": criterion_bad_set_oracle,
    "5-analytic-bounds": criterion_bound_checks,
    "6-connectivity-bound": criterion_connectivity_bound,
    "7-feller-decay": criterion_feller_decay,
    "8-fp-scaling-trend": criterion_fp_scaling,
    "9-trajectory-sanity": criterion_trajectory_sanity,
    "10-determinism": criterion_determinism,
}

QUICK = (
    "0-metric-suite",
    "1-pathwise-equivalence",
    "9-trajectory-sanity",
    "2-sandwich-inequality",
    "3-good-component-identity",
)


def run_criteria(names=None, corrupt_clocks: bool = False) -> list[CriterionResult]:
    """Run the requested criteria in order, printing one line per result."""
    results = []
    for name in names or CRITERIA:
        if name == "0-metric-suite":
            result = metric_suite()
        elif name in ("1-pathwise-equivalence", "9-trajectory-sanity"):
            result = CRITERIA[name](corrupt_clocks)
        else:
            result = CRITERIA[name]()
        print(result.line(), flush=True)
        results.append(result)
    return results
