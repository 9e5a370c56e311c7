"""The benchmark under ``perfbench/`` wraps module attributes of the package
by name and reads a few fields of its results.  A refactor that renames or
drops one of them would not fail any other test; it would only leave a
benchmark run with missing spans or a failing round.  These tests load the
benchmark's tracer by path and check that view of the package."""

import dataclasses
import importlib.util
import pathlib

import pytest

from mcld import acceptance, frozen_percolation, graphical, mass_state
from mcld.feller import CouplingReport
from mcld.frozen_percolation import FPTrajectory

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# sites the benchmark lists although the CLI looks these functions up
# elsewhere; the tracer records them as missing on every run
KNOWN_MISSING = {"cli.reference_replica_rows", "cli.ks_two_sample"}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_is_found(tracing):
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.SITES)
        assert set(tracer.missing) <= KNOWN_MISSING, tracer.missing
    finally:
        tracer.uninstall()
    # uninstalling puts every original back
    assert not hasattr(graphical.realize, "__wrapped__")


def test_reference_draw_is_traced(tracing):
    # the fp reference draws its G(n, p) through sample_critical_er, so the
    # tracer's span and vertex count cover it
    n_ref = 2000
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.SITES)
        frozen_percolation.reference_replica_rows(n_ref, 1.0, 0.0, [1.0], 3, 0, 0, 0.0)
    finally:
        tracer.uninstall()
    calls, _ = tracer.totals()
    assert calls["frozen_percolation.sample_critical_er"] == 1
    assert tracer.counts["frozen_percolation.er_vertices"] == n_ref


@pytest.mark.parametrize(
    "module, name",
    [
        (graphical, "truncated_realization"),
        (graphical, "state_at"),
        (mass_state, "truncate"),
        (mass_state, "dist"),
        (acceptance, "feller_ladder"),
    ],
)
def test_functions_the_workloads_call_exist(module, name):
    assert callable(getattr(module, name, None))


@pytest.mark.parametrize(
    "cls, field", [(CouplingReport, "seeds"), (FPTrajectory, "events")]
)
def test_fields_the_workloads_read_exist(cls, field):
    assert field in {f.name for f in dataclasses.fields(cls)}
