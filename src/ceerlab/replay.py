"""Rebuild construction state from a run log.

This is the one place a `RunLog` turns back into state.  `start` builds
the empty result a log's header describes through its construction
module's own `start` (`dark`, `sigma3`, `star` or `indexset`), the one the
run calls once it has written its header, so each header check is made
there, for the run and for replay alike.  `steps` applies each record
through the construction's `apply_record`, the writer the engine calls on
each record the run logs.  So a fully replayed log holds the run's own
result in every field but one: sigma3's join-table pairs, which the log
only counts.
"""
from __future__ import annotations

from typing import Iterator

from . import dark, indexset, sigma3, star
from .engine import ActionRecord, ConstructionRun, RunLog

__all__ = ["CONSTRUCTIONS", "start", "steps", "census_checkpoints"]

# construction name -> (its module's `start`, which builds the empty result
# a header describes, and its record writer `apply_record`)
CONSTRUCTIONS = {
    "dark-ring": (dark.start, dark.apply_record),
    "dark-group": (dark.start, dark.apply_record),
    "sigma3": (sigma3.start, sigma3.apply_record),
    "star-universal": (star.start, star.apply_record),
    "sug-indexset": (indexset.start, indexset.apply_record),
}


def start(log: RunLog) -> ConstructionRun:
    """The empty result the log's header describes; a malformed header
    raises here, before any record is applied."""
    begin, _ = CONSTRUCTIONS[log.header["construction"]]
    return begin(log)


def steps(log: RunLog, result: ConstructionRun
          ) -> Iterator[tuple[ActionRecord, ConstructionRun]]:
    """Each record of the log with `result` once the construction's writer
    has applied it; the same result object is yielded every time."""
    _, apply = CONSTRUCTIONS[result.construction]
    for rec in log.records:
        apply(result, rec)
        yield rec, result


def census_checkpoints(log: RunLog) -> list[int]:
    """Stage 0, the last stage and every stage at which the log acted."""
    pts = {0, log.header["params"]["stages"]}
    pts.update(rec.stage for rec in log.records)
    return sorted(pts)
