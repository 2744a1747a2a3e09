"""The construction table, and log replay through it.

`CONSTRUCTIONS` maps each construction name to its module (`dark`,
`sigma3`, `star` or `indexset`), and each module exports the same four
functions: `start(log)`, the empty result a log's header describes, with
every header check; `apply_record(result, record)`, the writer the engine
calls on each record a run logs; `summary(result)`, the lines `ceerlab run`
prints after the shared head `summarize` adds; and `run_scenario(scn,
params)`, the run a parsed scenario describes.  Each module also exports
`SUITES`, the `verify` suites that check its logs: suite name -> (what the
empty-log warning calls the suite, or None to run its checks on an empty
log too, and its `checks(log, result)` on the result `start` opens).
Adding a construction takes one module and one line here; adding a suite
takes one function in one module.

This is the one place a `RunLog` turns back into state: `start` and `steps`
replay a log through its construction's `start` and `apply_record`, as the
run built it.  So a fully replayed log holds the run's own result in every
field but one: sigma3's join-table pairs, which the log only counts.
"""
from __future__ import annotations

from typing import Callable, Iterator

from . import dark, indexset, sigma3, star
from .ceers import StageRegressionError
from .engine import ActionRecord, ConstructionRun, RunLog
from .groups import TriangularityError

__all__ = ["CONSTRUCTIONS", "start", "steps", "census_checkpoints",
           "refused", "triangularity", "summarize"]

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


def refused(log: RunLog,
            result: ConstructionRun) -> tuple[ActionRecord, ValueError] | None:
    """Apply each record of the log to `result`; the first record whose
    relation or stage the presentation refuses, with its error, or None."""
    applied = 0
    try:
        for applied, _ in enumerate(steps(log, result), start=1):
            pass
    except (TriangularityError, StageRegressionError) as exc:
        return log.records[applied], exc
    return None


def triangularity(log: RunLog, result: ConstructionRun,
                  slot: Callable[[ActionRecord], str],
                  relators: Callable[[ConstructionRun], dict[str, int]]
                  ) -> tuple[bool, list[str]]:
    """The `triangularity` suite: each relation the log adds to a
    presentation must be triangular and in stage order.  `slot` names the
    presentation a refused record adds to; `relators` counts each
    presentation's relators, by name, on the fully replayed result."""
    failure = refused(log, result)
    if failure:
        return False, [f"{slot(failure[0])}: FAIL: {failure[1]}"]
    counts = relators(result)
    if not any(counts.values()):
        return True, ["warning: no relators in log; triangularity passes "
                      "vacuously"]
    return True, [f"{name}: {count} relators triangular, stages nondecreasing"
                  for name, count in sorted(counts.items())]


def summarize(result: ConstructionRun) -> list[str]:
    """The lines `ceerlab run` prints for a result: construction, stages,
    records and each requirement's actions, then its module's `summary`."""
    by_req: dict[str, list[str]] = {}
    for rec in result.log.records:
        by_req.setdefault(rec.requirement, []).append(f"{rec.action}@{rec.stage}")
    return [f"construction: {result.construction}",
            f"stages: {result.stages}",
            f"records: {len(result.log.records)}",
            *(f"  {req}: {' '.join(acts[:3])} ... ({len(acts)} actions)"
              if len(acts) > 8 else f"  {req}: {' '.join(acts)}"
              for req, acts in by_req.items()),
            *CONSTRUCTIONS[result.construction].summary(result)]
