"""Spans around the calls into mcld's layers, recorded from outside the program.

Each layer function is replaced, at the module attribute through which its
callers look it up, by a wrapper that records a span: name, start, end,
parent span and self time (duration minus the time covered by child spans
and by the tracer's own bookkeeping for them).  Spans stay in memory until
the run writes them out.  Hooks add counts at the same boundaries, so ratios
such as nanoseconds per hashed pair are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self.spans: list[tuple[str, float, float, int, float]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self._open: list[list] = []  # [span index, time covered by children]
        self._installed: list[tuple[object, str, object]] = []

    def parent_name(self) -> str | None:
        """Name of the innermost open span (the caller of a finished child);
        an open span's slot holds just its name."""
        return self.spans[self._open[-1][0]] if self._open else None

    def wrap(self, name: str, fn, hook=None):
        clock, spans, open_ = self._clock, self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter = clock()
            idx = len(spans)
            parent = open_[-1][0] if open_ else -1
            spans.append(name)  # placeholder until the span closes
            frame = [idx, 0.0]
            open_.append(frame)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, start, end, parent, end - start - frame[1])
                if ok and hook is not None:
                    hook(self, args, result)
                if open_:
                    open_[-1][1] += clock() - enter
            return result

        return traced

    def install(self, sites) -> None:
        """Wrap every (module, attribute, span name, hook) site that exists;
        record the ones that do not in ``missing``."""
        for module, attr, name, hook in sites:
            try:
                mod = importlib.import_module(f"mcld.{module}")
            except ImportError:
                mod = None
            if mod is None or not callable(getattr(mod, attr, None)):
                self.missing.append(f"{module}.{attr}")
                continue
            original = getattr(mod, attr)
            self._installed.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._installed:
            mod, attr, original = self._installed.pop()
            setattr(mod, attr, original)

    def totals(self) -> tuple[Counter, defaultdict]:
        calls: Counter = Counter()
        self_s: defaultdict[str, float] = defaultdict(float)
        for name, _, _, _, own in self.spans:
            calls[name] += 1
            self_s[name] += own
        return calls, self_s

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        ids = {n: k for k, n in enumerate(names)}
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "self_s"],
            "names": names,
            "spans": [[ids[n], a, b, p, own] for n, a, b, p, own in self.spans],
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# hooks: counts taken at the layer boundaries


def _edge_hook(tracer: Tracer, args, result) -> None:
    _, masses, t = args[:3]
    n_pos = int(np.count_nonzero(np.asarray(masses, dtype=np.float64) > 0.0))
    if t > 0.0:
        tracer.counts["clock_field.pairs_hashed"] += n_pos * (n_pos - 1) // 2
    tracer.counts["clock_field.edges_kept"] += len(result[0])
    if tracer.parent_name() == "events.run_clocked":
        tracer.counts["events.arrivals_queued"] += len(result[0])


def _strike_hook(tracer: Tracer, args, result) -> None:
    if tracer.parent_name() == "events.run_clocked":
        tracer.counts["events.arrivals_queued"] += len(result[0])


def _count(key: str, measure):
    def hook(tracer: Tracer, args, result) -> None:
        tracer.counts[key] += measure(args, result)

    return hook


_run_clocked_hook = _count("events.events_applied", lambda a, r: len(r.events))


def _bytes_written(args, result) -> int:
    return os.path.getsize(args[0])


# (module whose attribute callers look up, attribute, span name, hook).  A
# function is wrapped once per module that imports it, so every call goes
# through exactly one wrapper.
SITES = (
    ("graphical", "edge_arrivals", "clock_field.edge_arrivals", _edge_hook),
    ("events", "edge_arrivals", "clock_field.edge_arrivals", _edge_hook),
    ("graphical", "strike_arrivals", "clock_field.strike_arrivals", _strike_hook),
    ("events", "strike_arrivals", "clock_field.strike_arrivals", _strike_hook),
    ("graphical", "realize", "graphical.realize", None),
    ("feller", "realize", "graphical.realize", None),
    ("truncation", "realize", "graphical.realize", None),
    ("feller", "truncated_realization", "graphical.truncated_realization", None),
    ("truncation", "truncated_realization", "graphical.truncated_realization", None),
    ("events", "run_clocked", "events.run_clocked", _run_clocked_hook),
    ("cli", "run_clocked", "events.run_clocked", _run_clocked_hook),
    ("truncation", "truncation_report", "truncation.truncation_report", None),
    ("cli", "truncation_report", "truncation.truncation_report", None),
    ("truncation", "split_from_realization", "truncation.split_from_realization", None),
    ("truncation", "report_from_split", "truncation.report_from_split", None),
    ("truncation", "component_multigraph", "truncation.component_multigraph",
     _count("truncation.cross_edges", lambda a, r: len(r.edges))),
    ("truncation", "sandwich_graphs", "truncation.sandwich_graphs", None),
    ("truncation", "_classify_multigraph", "multigraph.classify_bad",
     _count("multigraph.bad_components", lambda a, r: len(r))),
    ("feller", "dist", "mass_state.dist", None),
    ("truncation", "dist", "mass_state.dist", None),
    ("feller", "feller_sweep", "feller.feller_sweep", None),
    ("frozen_percolation", "sample_critical_er", "frozen_percolation.sample_critical_er",
     _count("frozen_percolation.er_vertices", lambda a, r: a[0])),
    ("frozen_percolation", "run_fp", "frozen_percolation.run_fp",
     _count("frozen_percolation.fp_events", lambda a, r: len(r.events))),
    ("cli", "reference_replica_rows", "frozen_percolation.reference_replica_rows",
     _count("frozen_percolation.ref_support", lambda a, r: r[1])),
    ("cli", "ks_two_sample", "feller.ks_two_sample", None),
    ("serialize", "write_json", "serialize.write_json",
     _count("serialize.bytes_written", _bytes_written)),
    ("serialize", "write_csv", "serialize.write_csv",
     _count("serialize.bytes_written", _bytes_written)),
    ("cli", "cmd_truncation", "cli.cmd_truncation", None),
    ("cli", "cmd_fp", "cli.cmd_fp", None),
)

# Per-layer metrics in the order BENCHMARK.json lists them: (name, unit,
# better).  ``calls`` are totals over the traced run; every other count and
# self time is per replica of the workload, so it does not grow with speed.
LAYER_METRICS = (
    ("clock_field.edge_arrivals.calls", "count", "lower"),
    ("clock_field.edge_arrivals.self_s", "s/replica", "lower"),
    ("clock_field.pairs_hashed", "count/replica", "lower"),
    ("clock_field.edges_kept", "count/replica", "lower"),
    ("clock_field.ns_per_pair", "ns", "lower"),
    ("clock_field.edges_per_mpair", "count/Mpair", "higher"),
    ("clock_field.strike_arrivals.self_s", "s/replica", "lower"),
    ("graphical.realize.calls", "count", "lower"),
    ("graphical.realize.self_s", "s/replica", "lower"),
    ("graphical.realize.calls_per_replica", "count/replica", "lower"),
    ("graphical.truncated_realization.calls", "count", "lower"),
    ("graphical.truncated_realization.self_s", "s/replica", "lower"),
    ("events.run_clocked.calls", "count", "lower"),
    ("events.run_clocked.self_s", "s/replica", "lower"),
    ("events.arrivals_queued", "count/replica", "lower"),
    ("events.events_applied", "count/replica", "lower"),
    ("events.applied_per_arrival", "ratio", "higher"),
    ("truncation.split_from_realization.self_s", "s/replica", "lower"),
    ("truncation.report_from_split.self_s", "s/replica", "lower"),
    ("truncation.component_multigraph.self_s", "s/replica", "lower"),
    ("truncation.sandwich_graphs.self_s", "s/replica", "lower"),
    ("truncation.truncation_report.calls", "count", "lower"),
    ("truncation.cross_edges", "count/replica", "lower"),
    ("multigraph.classify_bad.self_s", "s/replica", "lower"),
    ("multigraph.bad_components", "count/replica", "lower"),
    ("feller.feller_sweep.self_s", "s/replica", "lower"),
    ("mass_state.dist.calls", "count", "lower"),
    ("mass_state.dist.self_s", "s/replica", "lower"),
    ("frozen_percolation.sample_critical_er.calls", "count", "lower"),
    ("frozen_percolation.sample_critical_er.self_s", "s/replica", "lower"),
    ("frozen_percolation.er_vertices", "count/replica", "lower"),
    ("frozen_percolation.run_fp.calls", "count", "lower"),
    ("frozen_percolation.run_fp.self_s", "s/replica", "lower"),
    ("frozen_percolation.fp_events", "count/replica", "lower"),
    ("frozen_percolation.reference_replica_rows.self_s", "s/replica", "lower"),
    ("frozen_percolation.ref_support", "count/replica", "lower"),
    ("feller.ks_two_sample.self_s", "s/replica", "lower"),
    ("serialize.write_json.calls", "count", "lower"),
    ("serialize.write_json.self_s", "s/replica", "lower"),
    ("serialize.write_csv.calls", "count", "lower"),
    ("serialize.write_csv.self_s", "s/replica", "lower"),
    ("serialize.bytes_written", "B/replica", "lower"),
    ("cli.cmd_truncation.self_s", "s/replica", "lower"),
    ("cli.cmd_fp.self_s", "s/replica", "lower"),
    ("traced.replicas", "count", "higher"),
    ("traced.replicas_per_s", "1/s", "higher"),
    ("traced.missing_sites", "count", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, replicas: int, replicas_per_s: float) -> dict:
    """Every per-layer metric of LAYER_METRICS; a layer the workload never
    calls reads 0."""
    calls, self_s = tracer.totals()
    counts = tracer.counts
    pairs = counts["clock_field.pairs_hashed"]
    derived = {
        "clock_field.ns_per_pair": _ratio(self_s["clock_field.edge_arrivals"] * 1e9, pairs),
        "clock_field.edges_per_mpair": _ratio(counts["clock_field.edges_kept"] * 1e6, pairs),
        "events.applied_per_arrival": _ratio(
            counts["events.events_applied"], counts["events.arrivals_queued"]
        ),
        "graphical.realize.calls_per_replica": calls["graphical.realize"] / replicas,
        "traced.replicas": replicas,
        "traced.replicas_per_s": replicas_per_s,
        "traced.missing_sites": len(tracer.missing),
    }
    out = {}
    for name, unit, _ in LAYER_METRICS:
        if name in derived:
            value = derived[name]
        elif name.endswith(".calls"):
            value = calls[name[: -len(".calls")]]
        elif name.endswith(".self_s"):
            value = self_s[name[: -len(".self_s")]] / replicas
        else:
            value = counts[name] / replicas
        out[name] = {"value": value, "unit": unit}
    return out
