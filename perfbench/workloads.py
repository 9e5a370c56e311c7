"""The benchmark's four workloads and the checks on their outputs.

A workload makes its inputs from the seed, one round at a time: round 0 is
the warm-up, rounds 1, 2, ... are timed.  Every round of a workload finishes
the same number of replicas (``replicas_per_round``).  ``check`` runs on
every round's outputs outside the timed interval, returns a list of problems
and removes the round's output files; ``check_deep`` adds the costlier
independent recomputations and runs once, on the warm-up round, before its
``check``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import shutil

import numpy as np

import oracle
from mcld import acceptance, cli, feller, graphical, mass_state
from mcld.clock_field import ClockField

LAM, T = 1.0, 1.0
SANDWICH_TOL = 1e-9  # the sandwich inequality's slack, as the program states it
PATHWISE_TOL = 1e-12
MASS_BALANCE_TOL = 1e-9


class RoundFailed(RuntimeError):
    """The program refused or failed a round (e.g. a nonzero CLI exit)."""


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RoundFailed(f"mcld {argv[0]} exited {code}")


class Workload:
    replicas_per_round = 1
    numpy_share = 0.5  # of a round's time in long numpy loops (calibration.py)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def round_seed(self, k: int) -> int:
        return self.seed * 100_000 + k

    def check_deep(self, inputs, outputs) -> list[str]:
        return []


class FellerLadder(Workload):
    """One coupled sweep replica per round over criterion 7's ladder."""

    replicas_per_round = 1
    numpy_share = 0.9  # edge_arrivals, per the traced run
    SAMPLED_PAIRS = 2000

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.reference = feller.power_law_reference(0.6, 4096)
        self.ladder = acceptance.feller_ladder(self.reference)

    def prepare(self, k: int) -> int:
        return self.round_seed(k)

    def run(self, sweep_seed: int):
        return feller.feller_sweep(
            self.ladder, LAM, T, 1, reference=self.reference, seed=sweep_seed
        )

    def check(self, sweep_seed: int, report) -> list[str]:
        problems = []
        if report.seeds != (oracle.child_seed(sweep_seed, 0),):
            problems.append(f"seed {sweep_seed}: replica seed differs from the PRF spec")
        for m in self.ladder:
            d = report.distances[m]
            if len(d) != 1 or not (math.isfinite(d[0]) and d[0] >= 0.0):
                problems.append(f"seed {sweep_seed}: bad distance at rung {m}: {d}")
        return problems

    def check_deep(self, sweep_seed: int, report) -> list[str]:
        field = ClockField(sweep_seed).child(0)
        full = graphical.realize(self.reference, field, LAM, T)
        problems = self.check_clock_field(field.seed, full)
        for m in self.ladder:
            truncated = graphical.truncated_realization(full, m)
            initial = mass_state.truncate(self.reference, m)
            direct = graphical.realize(initial, field, LAM, T)
            if truncated.state != direct.state:
                problems.append(f"prefix coupling broken at rung {m}")
            if mass_state.dist(full.state, truncated.state) != report.distances[m][0]:
                problems.append(f"sweep distance at rung {m} differs from its realization")
        return problems

    def check_clock_field(self, seed: int, full) -> list[str]:
        """Recompute kept edges, a sample of all pairs and every strike with
        the pure-Python PRF.  Kept times must agree to within 2 ulp (numpy's
        and libm's log1p can differ by one ulp)."""
        masses = full.masses
        problems = []
        edges = dict(zip(zip(full.edge_i.tolist(), full.edge_j.tolist()),
                         full.edge_time.tolist()))
        for (i, j), got in edges.items():
            want = oracle.pair_exp(seed, i, j) / (masses[i - 1] * masses[j - 1])
            if not (oracle.within_ulps(got, want, 2) and want <= T * (1 + 1e-15)):
                problems.append(f"edge ({i}, {j}) time {got!r}, PRF gives {want!r}")
        rng = np.random.default_rng([self.seed, 0xC10C])
        n = len(masses)
        a = rng.integers(1, n + 1, self.SAMPLED_PAIRS).tolist()
        b = rng.integers(1, n + 1, self.SAMPLED_PAIRS).tolist()
        for i, j in {(min(x, y), max(x, y)) for x, y in zip(a, b) if x != y}:
            want = oracle.pair_exp(seed, i, j) / (masses[i - 1] * masses[j - 1])
            if oracle.within_ulps(want, T, 4):
                continue  # too close to the horizon to call
            if (want <= T) != ((i, j) in edges):
                problems.append(f"pair ({i}, {j}) at {want!r}: presence disagrees")
        strikes = dict(zip(full.strike_vertex.tolist(), full.strike_time.tolist()))
        for v in range(1, n + 1):
            want = oracle.vertex_exp(seed, v) / (LAM * masses[v - 1])
            if oracle.within_ulps(want, T, 4):
                continue
            got = strikes.get(v)
            if (want <= T) != (got is not None) or (
                got is not None and not oracle.within_ulps(got, want, 2)
            ):
                problems.append(f"strike at {v}: table {got!r}, PRF gives {want!r}")
        return problems


def check_report(rep: dict, lam: float = LAM, t: float = T) -> list[str]:
    """Problems in one truncation report, recomputed from its JSON."""
    where = f"report m={rep.get('m')}"
    problems = []
    alpha, beta = rep["alpha"], rep["beta"]
    s2_hat, s2_check = rep["s2_hat"], rep["s2_check"]
    gap, distance = rep["gap"], rep["distance"]
    if rep["holds"] is not True:
        problems.append(f"{where}: holds is {rep['holds']!r}")
    if not distance <= 3.0 * math.sqrt(gap) + SANDWICH_TOL:
        problems.append(f"{where}: distance {distance!r} > 3*sqrt(gap {gap!r})")
    if not s2_hat <= s2_check:
        problems.append(f"{where}: s2_hat {s2_hat!r} > s2_check {s2_check!r}")
    if gap != max(s2_check - s2_hat, 0.0):
        problems.append(f"{where}: gap {gap!r} is not s2_check - s2_hat")
    terms = rep["bound_terms"]
    if t * t * alpha * beta <= 0.5:
        want = oracle.bound_terms(alpha, beta, t, lam)
        if terms is None or len(terms) != 2 or not all(
            math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0) for g, w in zip(terms, want)
        ):
            problems.append(f"{where}: bound_terms {terms!r}, expected {list(want)!r}")
    elif terms is not None:
        problems.append(f"{where}: bound_terms present although t^2*alpha*beta > 1/2")
    return problems


class Sandwich(Workload):
    """``mcld truncation`` in-process: replicas x 3 levels of sandwich reports."""

    replicas_per_round = 5
    LEVELS = (16, 64, 256)

    def prepare(self, k: int) -> tuple[list[str], str]:
        out = os.path.join(self.workdir, f"sandwich-{k}")
        argv = [
            "truncation", "--gen", "powerlaw:0.6:512", "--lambda", "1", "--t", "1",
            "--truncate", ",".join(map(str, self.LEVELS)),
            "--replicas", str(self.replicas_per_round),
            "--seed", str(self.round_seed(k)), "--out-dir", out,
        ]
        return argv, out

    def run(self, inputs) -> str:
        argv, out = inputs
        _cli(argv)
        return out

    def check(self, inputs, out: str) -> list[str]:
        expected = {
            f"report_m{m}_r{r}.json"
            for m in self.LEVELS
            for r in range(self.replicas_per_round)
        }
        found = set(os.listdir(out))
        problems = []
        if found != expected:
            problems.append(f"{out}: unexpected or missing {sorted(found ^ expected)}")
        for name in sorted(found & expected):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                problems += check_report(json.load(fh))
        shutil.rmtree(out)
        return problems


class Simulate(Workload):
    """``mcld simulate`` in-process: one forward trajectory per replica."""

    replicas_per_round = 5
    SUPPORT, EXPONENT = 512, 0.6
    GRID = (0.25, 0.5, 1.0)

    def __init__(self, seed: int, workdir: str, clock_factory=ClockField):
        super().__init__(seed, workdir)
        self.clock_factory = clock_factory
        self.initial = [float(i) ** -self.EXPONENT for i in range(1, self.SUPPORT + 1)]

    def prepare(self, k: int) -> list[tuple[list[str], int, str]]:
        calls = []
        for r in range(self.replicas_per_round):
            seed = self.round_seed(k) * 10 + r
            out = os.path.join(self.workdir, f"simulate-{k}-{r}")
            argv = [
                "simulate", "--gen", f"powerlaw:{self.EXPONENT}:{self.SUPPORT}",
                "--lambda", "1", "--grid", ",".join(map(str, self.GRID)),
                "--seed", str(seed), "--out-dir", out,
            ]
            calls.append((argv, seed, out))
        return calls

    def run(self, calls) -> list[str]:
        for argv, _, _ in calls:
            _cli(argv)
        return [out for _, _, out in calls]

    @staticmethod
    def _read(out: str):
        with open(os.path.join(out, "trajectory.csv"), encoding="utf-8", newline="") as fh:
            rows = [(float(r["time"]), int(r["rank"]), float(r["mass"]))
                    for r in csv.DictReader(fh)]
        with open(os.path.join(out, "events.json"), encoding="utf-8") as fh:
            log = json.load(fh)
        with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        return rows, log, summary

    def check(self, calls, outs) -> list[str]:
        problems = []
        total = math.fsum(self.initial)
        for (_, seed, _), out in zip(calls, outs):
            rows, log, summary = self._read(out)
            where = f"simulate seed {seed}"
            states = {g: [m for t, _, m in rows if t == g] for g in self.GRID}
            if {t for t, _, _ in rows} - set(self.GRID):
                problems.append(f"{where}: trajectory rows off the grid")
            times = [e["time"] for e in log]
            if times != sorted(times) or (times and times[-1] > self.GRID[-1]):
                problems.append(f"{where}: event log out of order or past the horizon")
            if len(log) != summary["events"]:
                problems.append(f"{where}: summary and log disagree on the event count")
            for g, masses in states.items():
                ordered = all(a >= b for a, b in zip(masses, masses[1:]))
                if not ordered or any(m <= 0.0 for m in masses):
                    problems.append(f"{where}: state at {g} not positive, non-increasing")
                deleted = math.fsum(
                    e["weight"] for e in log if e["kind"] == "delete" and e["time"] <= g
                )
                if abs(total - math.fsum(masses) - deleted) > MASS_BALANCE_TOL * total:
                    problems.append(f"{where}: mass not conserved at {g}")
            final = states[self.GRID[-1]]
            if summary["final_state"] != final or abs(
                summary["deleted_mass"]
                - math.fsum(e["weight"] for e in log if e["kind"] == "delete")
            ) > MASS_BALANCE_TOL * total:
                problems.append(f"{where}: summary disagrees with the trajectory and log")
            shutil.rmtree(out)
        return problems

    def check_deep(self, calls, outs) -> list[str]:
        """Criterion 1's pathwise equality on the warm-up round: the graphical
        construction, run apart from the CLI's forward engine, gives the same
        state at every grid time."""
        problems = []
        for (_, seed, _), out in zip(calls, outs):
            rows, _, _ = self._read(out)
            field = self.clock_factory(seed)
            for g in self.GRID:
                clocked = [m for t, _, m in rows if t == g]
                graph = graphical.state_at(self.initial, field, LAM, g).masses
                if len(clocked) != len(graph) or any(
                    abs(a - b) > PATHWISE_TOL for a, b in zip(clocked, graph)
                ):
                    problems.append(
                        f"simulate seed {seed}: run_clocked and state_at differ at {g}"
                    )
        return problems


class FrozenPercolation(Workload):
    """``mcld fp`` in-process at criterion 8's sizes."""

    replicas_per_round = 2
    N_LIST = (20_000, 80_000)
    TOP_R = 3

    def prepare(self, k: int) -> tuple[list[str], str]:
        out = os.path.join(self.workdir, f"fp-{k}")
        argv = [
            "fp", "--n-list", ",".join(map(str, self.N_LIST)), "--n-ref", "320000",
            "--t", "1", "--top-r", str(self.TOP_R), "--workers", "1",
            "--replicas", str(self.replicas_per_round),
            "--seed", str(self.round_seed(k)), "--out-dir", out,
        ]
        return argv, out

    def run(self, inputs) -> str:
        argv, out = inputs
        _cli(argv)
        return out

    def check(self, inputs, out: str) -> list[str]:
        problems = []
        samples: dict[tuple[int, int, str], list[float]] = {}
        with open(os.path.join(out, "samples.csv"), encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                n, rank = int(row["n"]), int(row["rank"])
                mass = float(row["scaled_mass"])
                size = mass / n ** (-2.0 / 3.0)
                if abs(size - round(size)) > 1e-6 * max(1.0, size) or not 0 <= size <= n:
                    problems.append(f"n={n}: {mass!r} is not k*n^(-2/3) with 0 <= k <= n")
                group = samples.setdefault((n, int(row["replica"]), row["t"]), [])
                if rank != len(group) + 1:
                    problems.append(f"n={n}: ranks out of order")
                group.append(mass)
        groups = len(self.N_LIST) * self.replicas_per_round
        if len(samples) != groups or any(len(g) != self.TOP_R for g in samples.values()):
            problems.append(f"{out}: samples.csv lacks {groups} complete top-r rows")
        for key, group in samples.items():
            if any(a < b for a, b in zip(group, group[1:])):
                problems.append(f"{key}: top-r row {group} increases")
        rows_at: dict[tuple[int, str], list[list[float]]] = {}
        for (n, _, t), group in samples.items():
            rows_at.setdefault((n, t), []).append(group)
        with open(os.path.join(out, "comparison.json"), encoding="utf-8") as fh:
            comparison = json.load(fh)
        for a, b in zip(self.N_LIST, self.N_LIST[1:]):
            for t, stats in comparison["ks_between"][f"{a}:{b}"].items():
                for rank, got in enumerate(stats):
                    want = oracle.ks_two_sample(
                        [g[rank] for g in rows_at[a, t]], [g[rank] for g in rows_at[b, t]]
                    )
                    if abs(got - want) > 1e-12:
                        problems.append(f"ks {a}:{b} t={t} rank {rank + 1}: {got!r}, not {want!r}")
        shutil.rmtree(out)
        return problems


WORKLOADS = {
    "feller_ladder": FellerLadder,
    "sandwich": Sandwich,
    "simulate": Simulate,
    "fp": FrozenPercolation,
}
