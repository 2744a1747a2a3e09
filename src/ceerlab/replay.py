"""The construction table, and log replay through it.

`CONSTRUCTIONS` maps each construction name to its module (`dark`,
`sigma3`, `star` or `indexset`), and each module exports the same four
functions: `start(log)`, the empty result a log's header describes, with
every header check; `apply_record(result, record)`, the writer the engine
calls on each record a run logs; `summary(result)`, the lines `ceerlab run`
prints after its shared head; and `run_scenario(scn, params)`, the run a
parsed scenario describes.  Adding a construction takes one module and one
line here.

This is the one place a `RunLog` turns back into state: `start` and `steps`
replay a log through its construction's `start` and `apply_record`, as the
run built it.  So a fully replayed log holds the run's own result in every
field but one: sigma3's join-table pairs, which the log only counts.
"""
from __future__ import annotations

from typing import Iterator

from . import dark, indexset, sigma3, star
from .engine import ActionRecord, ConstructionRun, RunLog

__all__ = ["CONSTRUCTIONS", "start", "steps", "census_checkpoints"]

CONSTRUCTIONS = {
    "dark-ring": dark,
    "dark-group": dark,
    "sigma3": sigma3,
    "star-universal": star,
    "sug-indexset": indexset,
}


def start(log: RunLog) -> ConstructionRun:
    """The empty result the log's header describes; a malformed header
    raises here, before any record is applied."""
    return CONSTRUCTIONS[log.header["construction"]].start(log)


def steps(log: RunLog, result: ConstructionRun
          ) -> Iterator[tuple[ActionRecord, ConstructionRun]]:
    """Each record of the log with `result` once the construction's writer
    has applied it; the same result object is yielded every time."""
    apply = CONSTRUCTIONS[result.construction].apply_record
    for rec in log.records:
        apply(result, rec)
        yield rec, result


def census_checkpoints(log: RunLog) -> list[int]:
    """Stage 0, the last stage and every stage at which the log acted."""
    pts = {0, log.header["params"]["stages"]}
    pts.update(rec.stage for rec in log.records)
    return sorted(pts)
