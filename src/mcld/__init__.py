"""Seed-reproducible simulator and verification harness for the
multiplicative coalescent with linear deletion: graphical and event-driven
engines over a shared exponential clock field, truncation sandwich bounds,
and the finite-n frozen percolation pre-limit with its rescaling."""

from .clock_field import ClockField
from .errors import InvalidInput, InvariantViolation
from .events import deleted_mass_up_to, run_clocked
from .feller import feller_sweep, ks_two_sample, power_law_reference
from .frozen_percolation import fp_mcld_compare, run_fp, sample_critical_er
from .graphical import (
    GraphRealization,
    realize,
    s2_growth_estimate,
    state_at,
    truncated_realization,
)
from .mass_state import OrderedMassVector, dist, ordered, truncate
from .multigraph import ComponentMultigraph, classify_bad_bruteforce
from .trajectory import Event, Trajectory
from .truncation import (
    SplitRealization,
    TruncationReport,
    bipartite_bound,
    component_multigraph,
    feller_budget,
    good_component_check,
    sandwich_graphs,
    truncation_bound,
    truncation_report,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
