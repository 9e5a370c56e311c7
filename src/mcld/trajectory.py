"""Time-stamped state sequences and their export formats.

A trajectory holds the states recorded at a caller-supplied list of times,
the last of which ends the run, with the complete merge/delete event log.
Paths are piecewise constant and right-continuous: the state recorded at an
event time already includes the event.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidInput
from .mass_state import OrderedMassVector

__all__ = ["Event", "Trajectory"]


@dataclass(frozen=True)
class Event:
    """One merge or deletion.

    ``components`` carries the component ids involved: for a merge the two
    pre-merge ids, for a deletion the deleted component's id.  Ids are the
    smallest vertex label of the component (rank position for samplers that
    have no vertex labels).  ``weight`` is the merged weight respectively
    the deleted weight.
    """

    time: float
    kind: str  # "merge" | "delete"
    components: tuple[int, ...]
    weight: float

    def to_json_dict(self) -> dict:
        return {
            "time": self.time,
            "kind": self.kind,
            "components": list(self.components),
            "weight": self.weight,
        }


@dataclass(frozen=True)
class Trajectory:
    times: tuple[float, ...]  # the run ends at the last
    states: tuple[OrderedMassVector, ...]
    events: tuple[Event, ...]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.states):
            raise InvalidInput("one state per grid time required")

    def csv_rows(self) -> Iterator[tuple[float, int, float]]:
        """Rows (time, rank, mass); empty states emit no rows."""
        for t, state in zip(self.times, self.states):
            for rank, mass in enumerate(state, start=1):
                yield (t, rank, mass)

    def events_json(self) -> list[dict]:
        return [e.to_json_dict() for e in self.events]
