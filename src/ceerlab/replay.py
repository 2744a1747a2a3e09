"""Rebuild construction state from a run log.

This is the one place a `RunLog` turns back into state, and the state is
built from the types the constructions themselves use: relator streams
per presentation, a star log's `StagedPresentation` (relations, levels
and generator statuses), its universal table and census checkpoints, and
a dark log's `HomogeneousIdeal`, record by record.  Replaying a log
written by a run gives the run's own relation list, census and ideal.
"""
from __future__ import annotations

from typing import Any, Iterator

from .algebra import HomogeneousIdeal, Poly
from .ceers import CeerTable
from .engine import ActionRecord, RunLog
from .groups import StagedPresentation
from .star import level_letters

__all__ = [
    "relator_streams",
    "star_presentation",
    "universal_table",
    "census_checkpoints",
    "dark_steps",
]

Relator = tuple[int, tuple[tuple[int, int], ...], int]

# record keys naming generators whose status the record sets
_STATUS_KEYS = (("freed", "free"), ("collapsed", "collapsed"),
                ("determined", "determined"))


def _relators(obj: dict[str, Any]) -> list[Relator]:
    """The relators one record (or one sug inner record) adds, in order."""
    stage = obj["stage"]
    rels = list(obj.get("relators", ()))
    for srv in obj.get("served", ()):
        rels.extend(srv.get("relators", ()))
    return [(int(rel["lhs"]), tuple((int(i), int(e)) for i, e in rel["rhs"]),
             stage) for rel in rels]


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
                target.extend(_relators(inner))
    else:
        target = streams.setdefault("main", [])
        for rec in log.records:
            target.extend(_relators(rec.to_obj()))
    return streams


def star_presentation(log: RunLog) -> StagedPresentation:
    """A star log's presentation: its relations, levels and statuses.

    Raises TriangularityError or StageRegressionError when the log's
    relation stream could not have come from a run.
    """
    params = log.header["params"]
    base = params["base"]
    pres = StagedPresentation(ngens=base ** (params["levels"] + 1))
    for rec in log.records:
        obj, stage = rec.to_obj(), rec.stage
        init = rec.action == "init-level"
        if init:
            for g in level_letters(base, obj["level"]):
                pres.set_level(g, obj["level"])
                pres.set_status(g, "level", stage)
        for key, status in _STATUS_KEYS:
            for g in obj.get(key, ()):
                pres.set_status(g, status, stage)
        if init:
            for rel in obj.get("relators", ()):
                pres.set_status(rel["lhs"], "determined", stage)
        for srv in obj.get("served", ()):
            for rel in srv.get("relators", ()):
                pres.set_status(rel["lhs"], "collapsed", stage)
        for lhs, rhs, s in _relators(obj):
            pres.add_relation(lhs, rhs, s)
    return pres


def universal_table(params: dict[str, Any]) -> CeerTable:
    """The universal table a star log's header carries."""
    return CeerTable.from_pairs(params["universal"], params["universal_bound"])


def census_checkpoints(log: RunLog) -> list[int]:
    """Stage 0, the last stage and every stage at which the log acted."""
    pts = {0, log.header["params"]["stages"]}
    pts.update(rec.stage for rec in log.records)
    return sorted(pts)


def dark_steps(log: RunLog) -> Iterator[tuple[ActionRecord, HomogeneousIdeal]]:
    """Each record of a dark log with the ideal once that record is applied.

    The same ideal object is yielded every time, growing as seed and
    collapse records add their relators.
    """
    params = log.header["params"]
    p = params["modulus"]
    ideal = HomogeneousIdeal(p=p, maxdeg=params["maxdeg"])
    for rec in log.records:
        if rec.action in ("seed-ideal", "collapse-pair"):
            for text in rec.details["relators"]:
                ideal.add_generator(Poly.parse(text, p))
        yield rec, ideal
