"""Time-stamped state sequences and their export columns.

A trajectory holds the states recorded at a caller-supplied list of times,
the last of which ends the run, with the complete merge/delete event log.
Paths are piecewise constant and right-continuous: the state recorded at an
event time already includes the event.  ``mcld simulate`` writes the states
as :meth:`Trajectory.csv_columns` and the events as they are, all records
rendered by :mod:`mcld.serialize` with one formatting operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidInput
from .mass_state import OrderedMassVector

__all__ = ["Event", "Trajectory"]


class Event(NamedTuple):
    """One merge or deletion.

    ``components`` carries the component ids involved: for a merge the two
    pre-merge ids, for a deletion the deleted component's id.  Ids are the
    smallest vertex label of the component (rank position for samplers that
    have no vertex labels).  ``weight`` is the merged weight respectively
    the deleted weight.  In JSON an event is the object with the keys
    ``time``, ``kind``, ``components`` and ``weight``.
    """

    time: float
    kind: str  # "merge" | "delete"
    components: tuple[int, ...]
    weight: float


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]  # the run ends at the last
    states: tuple[OrderedMassVector, ...]
    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.states):
            raise InvalidInput("one state per grid time required")

    def csv_columns(self) -> tuple[list[float], list[int], list[float]]:
        """The columns time, rank and mass, one row per mass of each state;
        empty states give no rows."""
        times, ranks, masses = [], [], []
        for t, state in zip(self.times, self.states):
            times += [t] * len(state)
            ranks += range(1, len(state) + 1)
            masses += state.masses
        return times, ranks, masses
