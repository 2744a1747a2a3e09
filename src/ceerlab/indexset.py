"""Priority construction populating group and table slots for an index set.

Three requirement families interleave as C_0, L_0, D_0, C_1, ...:

 * C_k advances a private embedded copy of the star construction, one
   inner stage per trigger; its result is a fresh group slot g<l>.
 * D_d, d = <k, k'>, watches two columns and, each time both grow,
   copies the next listed pair of a fixed coded universal table into a
   fresh table slot h<l>.
 * L_m freezes the slot set of a halted summing functional stub.

Acting reinitializes every lower-priority requirement; reinitialized
C/D strategies abandon their slot and later restart in a fresh one that
clears all live higher-priority restraints.  All slots are declared
abelian-ambient at stage 0.

The requirements only decide and log.  `start` builds the empty result a
header describes, and `apply_record` alone turns a logged record into the
result's assignments, group and table slots and restraints, for the run as
each record is logged and for replay of a finished log.  A group slot is
the star result `star.empty_result` opens from the header's shape, with an
empty universal table: `star.apply_record` applies each inner record to
it, and the C requirement's star construction only decides them.  That
construction lays out its stage 0 when it is built, and the `open-slot`
record carries those records; each `advance-slot` carries one inner stage.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Mapping

from . import star
from .ceers import CeerTable, StageRegressionError, StageSet, check_bound
from .engine import ActionRecord, ConstructionRun, PriorityEngine, Requirement, RunLog
from .pairing import unpair
from .star import PhiEntry, StarConstruction, StarResult

__all__ = ["SumFunctionalStub", "SugResult", "run_sug_indexset", "start",
           "apply_record", "run_scenario", "summary", "SUITES"]


@dataclass(frozen=True)
class SumFunctionalStub:
    """Total-on-its-slots functional model: halts once, with fixed use.

    `slots` names the group/table slots whose join the functional reads;
    evaluate() reports the use when the stub has converged.
    """

    ident: int
    converge_stage: int
    use: int
    slots: tuple[str, ...]

    def evaluate(self, stage: int) -> int | None:
        return self.use if stage >= self.converge_stage else None


@dataclass
class SugResult(ConstructionRun):
    group_slots: dict[str, StarResult] = field(default_factory=dict)
    table_slots: dict[str, CeerTable] = field(default_factory=dict)
    assignments: dict[str, str] = field(default_factory=dict)
    restraints: dict[int, tuple[str, ...] | None] = field(default_factory=dict)


def start(log: RunLog) -> SugResult:
    """The empty result a sug header describes, once its `coded_bound`, the
    bound of every table slot, and the star shape of every group slot are
    checked."""
    params = log.header["params"]
    check_bound(params["coded_bound"])
    star.check_size(params["star_base"], params["star_levels"])
    return SugResult(log.header["construction"], params, params["stages"], log)


# the actions each requirement family logs, by the kind its records carry
_ACTIONS = {"init": ("declare-abelian",), "C": ("open-slot", "advance-slot"),
            "D": ("open-slot", "code-pair"), "L": ("place-restraint",)}


def apply_record(result: SugResult, record: ActionRecord) -> None:
    """Apply one logged sug record to its result: the slot it opens, the
    inner star records it applies to a group slot, the coded pair it copies
    into a table slot (ValueError out of stage order: a pair is not a
    relation), the restraint it places and the restraints of the L_m it
    injures.  The run and replay call this on each record, alike.  Raises
    ValueError on a record whose kind is not its requirement's family or
    whose action that family never logs."""
    details, kind, action = record.details, record.kind, record.action
    req = record.requirement
    family = req[:1] if isinstance(req, str) and req != "init" else req
    if kind != family or action not in _ACTIONS.get(family, ()):
        raise ValueError(f"{req!r} logs no record of kind {kind!r} and "
                         f"action {action!r}")
    if action == "open-slot":
        result.assignments[req] = details["slot"]
        if kind == "D":
            result.table_slots[details["slot"]] = CeerTable(
                bound=result.params["coded_bound"])
        else:
            result.group_slots[details["slot"]] = star.empty_result(
                f"star@{details['slot']}", result.params, result.log,
                result.params["star_base"], result.params["star_levels"])
    elif action == "place-restraint":
        result.restraints[int(req[1:])] = tuple(details["slots"])
    if kind == "C":
        group = result.group_slots[details["slot"]]
        for inner in details["inner"]:
            star.apply_record(group, ActionRecord.from_obj(inner))
    if kind == "D" and details["pair"] is not None:
        a, b = details["pair"]
        try:
            result.table_slots[details["slot"]].assert_pair(a, b, record.stage)
        except StageRegressionError as exc:
            raise ValueError(f"table slot {exc}") from None
    for name in details.get("reinitialized", ()):
        if name.startswith("L"):
            result.restraints[int(name[1:])] = None


def _fresh_slot(result: SugResult, family: str, above: int) -> str:
    """The least slot of a family that is not open yet and that no live
    restraint of an L_m with m < `above` names.  L_m (rank 3m + 1) outranks
    C_k (3k) when m < k and D_d (3d + 2) when m < d + 1."""
    opened = result.group_slots if family == "g" else result.table_slots
    blocked = {slot for m, slots in result.restraints.items()
               if m < above and slots is not None for slot in slots}
    ell = 0
    while f"{family}{ell}" in opened or f"{family}{ell}" in blocked:
        ell += 1
    return f"{family}{ell}"


class _GroupBuilderReq(Requirement):
    kind = "C"

    def __init__(self, k: int, column: StageSet | None, result: SugResult,
                 template: dict[str, Any]):
        super().__init__(f"C{k}")
        self.k = k
        self.column = column
        self.result = result
        self.template = template
        self.consumed = 0
        self.slot: str | None = None
        self.instance: StarConstruction | None = None

    def ready(self, stage: int) -> bool:
        return self.column is not None and self.column.count_at(stage) > self.consumed

    def act(self, stage: int) -> dict[str, Any]:
        self.consumed += 1
        if self.slot is None:
            self.slot = _fresh_slot(self.result, "g", self.k)
            # this record's writer applies the inner records it carries
            self.instance = StarConstruction(**self.template,
                                             apply=lambda record: None)
            return {"action": "open-slot", "slot": self.slot,
                    "inner": [r.to_obj() for r in self.instance.log.records]}
        self.instance.attach(self.result.group_slots[self.slot])
        record = self.instance.step()
        inner = [record.to_obj()] if record is not None else []
        return {"action": "advance-slot", "slot": self.slot,
                "inner_stage": self.instance.stage, "inner": inner}

    def reinitialize(self) -> None:
        self.slot = None


class _PairCodingReq(Requirement):
    kind = "D"

    def __init__(self, d: int, left: StageSet | None, right: StageSet | None,
                 result: SugResult, coded: CeerTable):
        super().__init__(f"D{d}")
        self.d = d
        self.watches = unpair(d)
        self.left = left
        self.right = right
        self.result = result
        self.coded_pairs = coded.pairs
        self.consumed_left = 0
        self.consumed_right = 0
        self.slot: str | None = None

    def ready(self, stage: int) -> bool:
        if self.left is None or self.right is None:
            return False
        if (self.slot is not None and self.result.table_slots[self.slot]
                .pair_count >= len(self.coded_pairs)):
            return False
        return (self.left.count_at(stage) > self.consumed_left
                and self.right.count_at(stage) > self.consumed_right)

    def act(self, stage: int) -> dict[str, Any]:
        self.consumed_left += 1
        self.consumed_right += 1
        details: dict[str, Any] = {"action": "code-pair",
                                   "watches": list(self.watches)}
        if self.slot is None:
            self.slot = _fresh_slot(self.result, "h", self.d + 1)
            details["action"] = "open-slot"
            copied = 0
        else:
            copied = self.result.table_slots[self.slot].pair_count
        details["slot"] = self.slot
        # the slot's table holds just the coded pairs copied into it, in order
        if copied < len(self.coded_pairs):
            details["pair"] = list(self.coded_pairs[copied][:2])
        else:
            details["pair"] = None
        return details

    def reinitialize(self) -> None:
        self.slot = None


class _SumRestraintReq(Requirement):
    kind = "L"

    def __init__(self, m: int, stub: SumFunctionalStub | None,
                 result: SugResult):
        super().__init__(f"L{m}")
        self.m = m
        self.stub = stub
        self.result = result

    def ready(self, stage: int) -> bool:
        if self.stub is None or self.stub.evaluate(stage) is None:
            return False
        return self.result.restraints.get(self.m) != self.stub.slots

    def act(self, stage: int) -> dict[str, Any]:
        return {"action": "place-restraint", "use": self.stub.use,
                "slots": list(self.stub.slots)}


def run_sug_indexset(
    v_columns: Mapping[int, StageSet],
    u_columns: Mapping[int, StageSet],
    coded: CeerTable,
    sum_functionals: Mapping[int, SumFunctionalStub],
    star_universal: CeerTable,
    star_phis: Mapping[int, Mapping[int, PhiEntry]],
    star_base: int = 6,
    star_levels: int = 1,
    stages: int = 120,
) -> SugResult:
    """Run the slot-filling construction for a bounded number of stages."""
    params = {
        "stages": stages,
        "star_base": star_base,
        "star_levels": star_levels,
        "coded_bound": coded.bound,
    }
    log = RunLog({"construction": "sug-indexset", "params": params})
    result = start(log)
    template = dict(universal=star_universal, phis=star_phis, base=star_base,
                    levels=star_levels, stages=stages)
    top = max(
        list(v_columns) + list(u_columns) + list(sum_functionals),
        default=-1,
    )
    reqs: list[Requirement] = []
    for idx in range(top + 1):
        reqs.append(_GroupBuilderReq(idx, v_columns.get(idx), result,
                                     template))
        reqs.append(_SumRestraintReq(idx, sum_functionals.get(idx), result))
        left, right = unpair(idx)
        reqs.append(_PairCodingReq(idx, v_columns.get(left),
                                   u_columns.get(right), result,
                                   coded))
    apply_record(result, log.add(
        0, "init", "init", "declare-abelian",
        note="all group and table slots carry abelian word problems"))
    PriorityEngine(reqs, log, partial(apply_record, result)).run(stages)
    return result


def run_scenario(scn, params: dict[str, Any]) -> SugResult:
    """The run a sug scenario's sections and merged `params` describe."""
    stages = params.get("stages", 120)
    v_columns = scn.int_columns("vcolumn", stages)
    u_columns = scn.int_columns("ucolumn", stages)
    coded = scn.table("coded-universal", params.get("coded_bound"))
    functionals = scn.sum_functionals()
    template = scn.section("star-template")
    t_params = template.params if template is not None else {}
    star_levels = t_params.get("levels", 1)
    star_universal = scn.table("star-universal", floor=star_levels + 1)
    return run_sug_indexset(
        v_columns, u_columns, coded, functionals,
        star_universal, scn.phis("star-phi"), star_levels=star_levels,
        star_base=t_params.get("base", 6), stages=stages,
    )


def summary(result: SugResult) -> list[str]:
    """The run summary's lines on slot assignments and restraints."""
    lines = [f"slot {req} -> {result.assignments[req]}"
             for req in sorted(result.assignments)]
    lines.extend(f"restraint L{m}: " + (",".join(r) if r else "none")
                 for m, r in sorted(result.restraints.items()))
    return lines


def _triangularity(log: RunLog, result: SugResult) -> tuple[bool, list[str]]:
    """Each group slot's relations are triangular and in stage order."""
    from . import replay  # replay imports this module
    return replay.triangularity(
        log, result, lambda record: record.details["slot"],
        lambda run: dict.fromkeys(run.table_slots, 0) | {
            name: len(group.presentation.relations)
            for name, group in run.group_slots.items()})


# the `verify` suites of sug logs, as `replay` describes
SUITES = {"triangularity": (None, _triangularity)}
