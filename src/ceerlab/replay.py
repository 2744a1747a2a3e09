"""Rebuild construction state from a run log.

This is the one place a `RunLog` turns back into state: `start` builds the
empty result a log's header describes, `steps` applies each record through
the construction's `apply_record`, the writer the engine calls on each
record the run logs, and `rebuild` returns the finished result.  So a
replayed log holds the run's own result, except what the log does not
carry: sigma3's join-table pairs (it counts them), the universal table of
a sug group slot (a replayed slot's is empty) and a star run's
witness-pool bound (a replayed output table is bounded by the index
ceiling).
"""
from __future__ import annotations

from typing import Iterator

from . import dark, indexset, sigma3, star
from .algebra import MAXDEG_CEILING, HomogeneousIdeal
from .ceers import INDEX_CEILING, CeerTable
from .engine import ActionRecord, ConstructionRun, RunLog
from .groups import StagedPresentation

__all__ = ["CONSTRUCTIONS", "start", "steps", "rebuild", "census_checkpoints"]


def _dark(params: dict) -> dict:
    maxdeg = params["maxdeg"]
    if not 0 <= maxdeg <= MAXDEG_CEILING:
        raise ValueError(f"bad maxdeg {maxdeg}: must lie in "
                         f"[0, {MAXDEG_CEILING}]")
    return {"ideal": HomogeneousIdeal(p=params["modulus"], maxdeg=maxdeg)}


def _sigma3(params: dict) -> dict:
    return {"table": CeerTable(bound=params["join_bound"]),
            "universal": CeerTable(bound=params["universal_bound"])}


def _star(params: dict) -> dict:
    base, levels = params["base"], params["levels"]
    star.check_size(base, levels)
    return {"presentation": StagedPresentation(ngens=base ** (levels + 1)),
            "table": CeerTable(bound=INDEX_CEILING),
            "universal": CeerTable.from_pairs(params["universal"],
                                              params["universal_bound"]),
            "base": base, "levels": levels}


def _sug(params: dict) -> dict:
    return {"coded_universal": CeerTable(bound=params["coded_bound"])}


# construction name -> (its result type, the fields of an empty result
# built from the header's params, its record writer)
CONSTRUCTIONS = {
    "dark-ring": (dark.DarkRunResult, _dark, dark.apply_record),
    "dark-group": (dark.DarkRunResult, _dark, dark.apply_record),
    "sigma3": (sigma3.Sigma3Result, _sigma3, sigma3.apply_record),
    "star-universal": (star.StarResult, _star, star.apply_record),
    "sug-indexset": (indexset.SugResult, _sug, indexset.apply_record),
}


def start(log: RunLog) -> ConstructionRun:
    """The empty result the log's header describes; a malformed header
    raises here, before any record is applied."""
    name, params = log.header["construction"], log.header["params"]
    result_type, fields, _ = CONSTRUCTIONS[name]
    return result_type(name, params, params["stages"], log, **fields(params))


def steps(log: RunLog, result: ConstructionRun
          ) -> Iterator[tuple[ActionRecord, ConstructionRun]]:
    """Each record of the log with `result` once the construction's writer
    has applied it; the same result object is yielded every time."""
    *_, apply = CONSTRUCTIONS[result.construction]
    for rec in log.records:
        apply(result, rec)
        yield rec, result


def rebuild(log: RunLog) -> ConstructionRun:
    """The result of the run that wrote the log."""
    result = start(log)
    for _ in steps(log, result):
        pass
    return result


def census_checkpoints(log: RunLog) -> list[int]:
    """Stage 0, the last stage and every stage at which the log acted."""
    pts = {0, log.header["params"]["stages"]}
    pts.update(rec.stage for rec in log.records)
    return sorted(pts)
