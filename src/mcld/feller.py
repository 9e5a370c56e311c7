"""Coupled-distance experiments: continuity of the time-t state in the
initial condition, made observable.

Two initial vectors run against the same clock field give a per-seed
distance; as a truncated initial vector grows toward its reference, these
distances shrink.  The sweep reports distance quantiles along a ladder of
truncation levels, which is the desk-scale surrogate for convergence in
probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .clock_field import ClockField
from .errors import InvalidInput
from .graphical import realize, truncated_realization
from .mass_state import OrderedMassVector, dist, level_list, ordered

__all__ = [
    "power_law_reference",
    "CouplingReport",
    "feller_sweep",
    "ks_two_sample",
]


def power_law_reference(exponent: float, support: int) -> OrderedMassVector:
    """Masses i**(-exponent), i = 1..support.

    With exponent in (1/2, 1] this is square-summable but not summable, the
    infinite-total-mass regime where the truncation machinery earns its keep.
    """
    if support < 1:
        raise InvalidInput("support must be positive")
    return ordered(float(i) ** (-exponent) for i in range(1, support + 1))


@dataclass(frozen=True)
class CouplingReport:
    seeds: tuple[int, ...]  # derived per-replica field seeds
    distances: dict[int, tuple[float, ...]]
    quantiles: dict[int, tuple[float, float]]  # (median, 0.9-quantile)

    def exceedance(self, n: int, threshold: float) -> float:
        """Empirical probability that the coupled distance exceeds threshold."""
        samples = self.distances[n]
        return sum(1 for d in samples if d > threshold) / len(samples)


def feller_sweep(
    n_list: Sequence[int],
    lam: float,
    t: float,
    replicas: int,
    reference: OrderedMassVector,
    seed: int = 0,
) -> CouplingReport:
    """Coupled distances between a reference state and its truncations.

    One clock evaluation per replica serves every level: a truncated run's
    edges and strikes are exactly the reference tables filtered to the kept
    labels, so the sweep is pathwise identical to realizing each truncation
    on its own while doing a fraction of the work.
    """
    n_list = level_list(n_list, len(reference))
    if replicas < 1:
        raise InvalidInput("need at least one replica")
    base = ClockField(seed)
    samples: dict[int, list[float]] = {n: [] for n in n_list}
    child_seeds = []
    for r in range(replicas):
        child = base.child(r)
        child_seeds.append(child.seed)
        full = realize(reference, child, lam, t)
        for n in n_list:
            truncated = truncated_realization(full, n)
            samples[n].append(dist(full.state, truncated.state))
    distances = {n: tuple(v) for n, v in samples.items()}
    quantiles = {
        n: (
            float(np.quantile(np.asarray(v), 0.5)),
            float(np.quantile(np.asarray(v), 0.9)),
        )
        for n, v in distances.items()
    }
    return CouplingReport(
        seeds=tuple(child_seeds),
        distances=distances,
        quantiles=quantiles,
    )


def ks_two_sample(samples_a, samples_b) -> float:
    """Sup distance between the two empirical CDFs."""
    a = np.sort(np.asarray(samples_a, dtype=np.float64))
    b = np.sort(np.asarray(samples_b, dtype=np.float64))
    if len(a) == 0 or len(b) == 0:
        raise InvalidInput("both samples must be nonempty")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / len(a)
    cdf_b = np.searchsorted(b, grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))
