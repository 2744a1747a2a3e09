"""Builds a stage-enumerated join whose columns chase a universal table.

The produced relation is a uniform join: index <j, n> codes element n of
column j.  Coding requirements respond to growth in their trigger
column by copying the current universal approximation into a private
join column (choosing a column whose codes clear every live restraint),
while restraint requirements freeze the oracle use of halted functional
stubs.  Acting reinitializes all lower-priority strategies.

The requirements only decide and log.  `start` builds the empty result a
header describes, and `apply_record` alone turns a logged record into the
result's columns, used columns and restraints, for the run as each record
is logged and for replay of a finished log.  The join table's copied pairs
are the exception: the log carries only their count, so `_CodingReq.act`
writes them.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import isqrt
from typing import Any, Mapping

from . import replay
from .ceers import CeerTable, FunctionalStub, StageSet, check_bound
from .engine import ActionRecord, ConstructionRun, PriorityEngine, Requirement, RunLog
from .pairing import pair

__all__ = ["Sigma3Result", "run_sigma3_ceer", "start", "apply_record",
           "run_scenario", "summary", "RECORDS", "HEADER", "SUITES"]


@dataclass
class Sigma3Result(ConstructionRun):
    table: CeerTable
    columns: dict[int, int] = field(default_factory=dict)
    restraints: dict[int, int | None] = field(default_factory=dict)
    used_columns: set[int] = field(default_factory=set)

    def restraint_ceiling(self, k: int) -> int:
        """Largest live restrained use of an L_m outranking C_k.  The ranks
        are C_k = 2k and L_m = 2m + 1, so those are the L_m with m < k."""
        return max((use for m, use in self.restraints.items()
                    if m < k and use is not None), default=-1)


# the header params `start` reads, as `replay` describes
HEADER = dict.fromkeys(("stages", "universal_bound", "join_bound"),
                       replay.as_is)


def start(log: RunLog) -> Sigma3Result:
    """The empty result a sigma3 header describes: its join table, once both
    bounds are checked (the universal table is the coding requirements')."""
    params = log.header["params"]
    table = CeerTable(bound=params["join_bound"])
    check_bound(params["universal_bound"])
    return Sigma3Result(log.header["construction"], params, params["stages"],
                        log, table=table)


# what `apply_record` reads of every record: its requirement's index and
# the requirements it injures
_EVERY = {"requirement": replay.requirement,
          "reinitialized": replay.optional(replay.each(replay.requirement))}
_COLUMN = {"column": replay.nonnegative, **_EVERY}
# the records `apply_record` reads, by kind and action, as `replay` describes
RECORDS = {("C", "choose-column"): _COLUMN, ("C", "copy-column"): _COLUMN,
           ("L", "place-restraint"): {"use": replay.nonnegative, **_EVERY}}


def apply_record(result: Sigma3Result, record: ActionRecord) -> None:
    """Apply one logged sigma3 record to its result: the column it chooses
    (now used for good) or copies into, the restraint it places, and the
    restraints of the L_m it injures.  The run calls this on each record it
    logs and replay on each record it reads, once `replay.decode` has
    checked it against `RECORDS`, so both build the same state."""
    details = record.details
    if record.action in ("choose-column", "copy-column"):
        result.columns[int(record.requirement[1:])] = details["column"]
        if record.action == "choose-column":
            result.used_columns.add(details["column"])
    elif record.action == "place-restraint":
        result.restraints[int(record.requirement[1:])] = details["use"]
    for name in details.get("reinitialized", ()):
        if name.startswith("L"):
            result.restraints[int(name[1:])] = None


class _CodingReq(Requirement):
    kind = "C"

    def __init__(self, k: int, column: StageSet | None, result: Sigma3Result,
                 universal: CeerTable):
        super().__init__(f"C{k}")
        self.k = k
        self.column = column
        self.result = result
        self.universal = universal
        self.consumed = 0
        self.join_column: int | None = None

    def ready(self, stage: int) -> bool:
        return self.column is not None and self.column.count_at(stage) > self.consumed

    def _fresh_column(self) -> int:
        ceiling = self.result.restraint_ceiling(self.k)
        # the least j whose first code pair(j, 0) = j(j+1)/2 passes the ceiling
        j = (isqrt(8 * ceiling + 1) + 1) // 2 if ceiling >= 0 else 0
        while j in self.result.used_columns:
            j += 1
        return j

    def act(self, stage: int) -> dict[str, Any]:
        self.consumed += 1
        details: dict[str, Any] = {"action": "copy-column"}
        if self.join_column is None:
            self.join_column = self._fresh_column()
            details["action"] = "choose-column"
        j = self.join_column
        table = self.result.table
        # each assert merges two classes, so the count depends only on the
        # two partitions, not on the order of the universal pairs
        copied = 0
        for a, b, s in self.universal.pairs:
            if s > stage:
                break
            ca, cb = pair(j, a), pair(j, b)
            if not table.related(ca, cb, stage):
                table.assert_pair(ca, cb, stage)
                copied += 1
        details["column"] = j
        details["pairs_copied"] = copied
        return details

    def reinitialize(self) -> None:
        self.join_column = None


class _RestraintReq(Requirement):
    kind = "L"

    def __init__(self, m: int, stub: FunctionalStub | None,
                 result: Sigma3Result):
        super().__init__(f"L{m}")
        self.m = m
        self.stub = stub
        self.result = result

    def _evaluate(self, stage: int) -> int | None:
        table = self.result.table
        return self.stub.evaluate(
            lambda a, b: a < table.bound and b < table.bound
            and table.related(a, b, stage),
            stage,
        )

    def ready(self, stage: int) -> bool:
        if self.stub is None:
            return False
        use = self._evaluate(stage)
        return use is not None and use != self.result.restraints.get(self.m)

    def act(self, stage: int) -> dict[str, Any]:
        return {"action": "place-restraint", "use": self._evaluate(stage)}


def run_sigma3_ceer(
    trigger_columns: Mapping[int, StageSet],
    universal: CeerTable,
    functionals: Mapping[int, FunctionalStub],
    stages: int = 100,
) -> Sigma3Result:
    """Run the column-coding construction for a bounded number of stages.

    trigger_columns feed the coding requirements; `universal` is the
    stage table the active column keeps catching up with; functional
    stubs drive the restraint requirements.
    """
    max_use = max((f.use for f in functionals.values()), default=0)
    col_cap = stages + isqrt(2 * max_use + 4) + 2
    params = {
        "stages": stages,
        "universal_bound": universal.bound,
        "join_bound": pair(col_cap, max(universal.bound, 1)) + 1,
    }
    log = RunLog({"construction": "sigma3", "params": params})
    result = start(log)
    top = max(list(trigger_columns) + list(functionals), default=-1)
    reqs: list[Requirement] = []
    for idx in range(top + 1):
        reqs.append(_CodingReq(idx, trigger_columns.get(idx), result,
                               universal))
        reqs.append(_RestraintReq(idx, functionals.get(idx), result))
    PriorityEngine(reqs, log, partial(apply_record, result)).run(stages)
    return result


def run_scenario(scn, params: dict[str, Any]) -> Sigma3Result:
    """The run a sigma3 scenario's sections and merged `params` describe."""
    stages = params.get("stages", 100)
    universal = scn.table("universal", params.get("ubound"))
    triggers = scn.int_columns("wcolumn", stages)
    return run_sigma3_ceer(triggers, universal, scn.functionals(),
                           stages=stages)


def summary(result: Sigma3Result) -> list[str]:
    """The run summary's lines on the chosen columns and the restraints."""
    lines = [f"column C{k} -> {result.columns[k]}"
             for k in sorted(result.columns)]
    lines.extend(f"restraint L{m}: use={result.restraints[m]}"
                 for m in sorted(result.restraints))
    return lines


SUITES: dict[str, tuple] = {}  # no `verify` suite checks a sigma3 log
