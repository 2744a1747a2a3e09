"""Rebuild construction state from a run log.

This is the one place a `RunLog` turns back into state, and the state is
built from the types the constructions themselves use: relator streams
per presentation, a star log's `StagedPresentation` (relations, levels
and generator statuses), its universal table and census checkpoints, and
a dark log's `DarkRunResult`, record by record.  Each construction's
state has one writer, which the engine calls on each record the run logs
and replay calls on each record it reads: `star.apply_record` for a star
presentation, `dark.apply_record` for a dark result, and
`sigma3.apply_record` and `indexset.apply_record` for a sigma3 or sug
result's columns, slots and restraints.  Replaying a log therefore
rebuilds the run's own state by construction.
"""
from __future__ import annotations

from typing import Any, Iterator

from . import dark, star
from .algebra import MAXDEG_CEILING, HomogeneousIdeal
from .ceers import CeerTable
from .engine import ActionRecord, RunLog
from .groups import StagedPresentation

__all__ = [
    "relator_streams",
    "star_presentation",
    "universal_table",
    "census_checkpoints",
    "dark_steps",
]

# (lhs, the record's own [index, exponent] entries, stage)
Relator = tuple[int, list[list[int]], int]

def relator_streams(log: RunLog) -> dict[str, list[Relator]]:
    """Relation streams keyed by presentation (slot id, or 'main')."""
    streams: dict[str, list[Relator]] = {}
    if log.header.get("construction") == "sug-indexset":
        for rec in log.records:
            slot = rec.details.get("slot")
            if slot is None:
                continue
            target = streams.setdefault(slot, [])
            for inner in rec.details.get("inner", ()):
                target.extend(star.record_relators(inner, inner["stage"]))
    else:
        target = streams.setdefault("main", [])
        for rec in log.records:
            target.extend(star.record_relators(rec.details, rec.stage))
    return streams


def star_presentation(log: RunLog) -> StagedPresentation:
    """A star log's presentation: its relations, levels and statuses, each
    record applied as the run applied it.

    Raises TriangularityError or StageRegressionError when the log's
    relation stream could not have come from a run.
    """
    params = log.header["params"]
    base = params["base"]
    pres = StagedPresentation(ngens=base ** (params["levels"] + 1))
    for rec in log.records:
        star.apply_record(pres, base, rec)
    return pres


def universal_table(params: dict[str, Any]) -> CeerTable:
    """The universal table a star log's header carries."""
    return CeerTable.from_pairs(params["universal"], params["universal_bound"])


def census_checkpoints(log: RunLog) -> list[int]:
    """Stage 0, the last stage and every stage at which the log acted."""
    pts = {0, log.header["params"]["stages"]}
    pts.update(rec.stage for rec in log.records)
    return sorted(pts)


def dark_steps(log: RunLog) -> Iterator[tuple[ActionRecord, dark.DarkRunResult]]:
    """Each record of a dark log with the run's result once `dark.apply_record`
    has applied it; the same result object is yielded every time."""
    params = log.header["params"]
    p, maxdeg = params["modulus"], params["maxdeg"]
    if not 0 <= maxdeg <= MAXDEG_CEILING:
        raise ValueError(f"bad maxdeg {maxdeg}: must lie in "
                         f"[0, {MAXDEG_CEILING}]")
    result = dark.DarkRunResult(log.header["construction"], params,
                                params["stages"], log,
                                ideal=HomogeneousIdeal(p=p, maxdeg=maxdeg))
    for rec in log.records:
        dark.apply_record(result, rec)
        yield rec, result
