"""A deterministic finite-injury stage loop with replayable JSON logs.

The engine owns nothing domain-specific: it scans a fixed priority list
once per stage, lets the highest-priority ready requirement act, applies
the injury discipline, and records everything.  Requirements decide and
log; the construction's writer, handed to the engine at creation, is the
one function that mutates the construction state, and the engine applies
each record it logs through it.  Replaying a log through the same writer
therefore rebuilds the run's state.

Log format: line-oriented JSON.  The first line is a header object; each
further line is one record with at least {"stage", "requirement",
"kind", "action"}.  Identical inputs must produce byte-identical logs,
so records are emitted with sorted keys and no timestamps.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = [
    "ActionRecord",
    "RunLog",
    "Requirement",
    "PriorityEngine",
    "ConstructionRun",
]


_RECORD_KEYS = ("stage", "requirement", "kind", "action")


@dataclass(frozen=True)
class ActionRecord:
    stage: int
    requirement: str
    kind: str
    action: str
    details: dict[str, Any] = field(default_factory=dict)

    def to_obj(self) -> dict[str, Any]:
        obj = {
            "stage": self.stage,
            "requirement": self.requirement,
            "kind": self.kind,
            "action": self.action,
        }
        obj.update(self.details)
        return obj

    @classmethod
    def from_obj(cls, obj: dict[str, Any]) -> "ActionRecord":
        details = {k: v for k, v in obj.items() if k not in _RECORD_KEYS}
        return cls(obj["stage"], obj["requirement"], obj["kind"], obj["action"], details)


def _dump_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class RunLog:
    """Header plus an append-only list of action records.  A loaded log also
    keeps `lines`: the line number of its header and of each record, as
    `loads` counts them, blank lines included."""

    def __init__(self, header: dict[str, Any]):
        self.header = dict(header)
        self.records: list[ActionRecord] = []
        self.lines: list[int] = []

    def add(
        self,
        stage: int,
        requirement: str,
        kind: str,
        action: str,
        **details: Any,
    ) -> ActionRecord:
        rec = ActionRecord(stage, requirement, kind, action, details)
        self.records.append(rec)
        return rec

    def dumps(self) -> str:
        lines = [_dump_json(self.header)]
        lines.extend(_dump_json(r.to_obj()) for r in self.records)
        return "\n".join(lines) + "\n"

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "RunLog":
        objs, lines = [], []
        for n, ln in enumerate(text.splitlines(), start=1):
            if ln.strip():
                lines.append(n)
                try:
                    objs.append(json.loads(ln))
                except RecursionError:
                    raise ValueError(f"log line {n} nests too deeply") from None
                if not isinstance(objs[-1], dict):
                    raise ValueError(f"log line {n} is not a JSON object")
                missing = [k for k in _RECORD_KEYS if k not in objs[-1]]
                if len(objs) > 1:  # a record, not the header
                    if missing:
                        raise ValueError(f"log line {n} lacks {missing[0]!r}")
                    if type(objs[-1]["stage"]) is not int:  # a bool is no stage
                        raise ValueError(f"log line {n}: stage is not an "
                                         "integer")
        if not objs:
            raise ValueError("empty log")
        log = cls(objs[0])
        log.records.extend(ActionRecord.from_obj(obj) for obj in objs[1:])
        log.lines = lines
        return log

    @classmethod
    def load(cls, path: str) -> "RunLog":
        with open(path) as fh:
            return cls.loads(fh.read())


class Requirement:
    """Base class: a named strategy slot in the priority list.

    Subclasses implement ready/act; act returns a details dict for the
    log.  `injures_lower` controls the default discipline (acting
    reinitializes every strictly lower-priority requirement); strategies
    with bespoke injury rules set it False and reinitialize explicitly.
    A requirement's priority is its place in the engine's list, and
    `reinitialize` takes no arguments: an injury restarts it, whoever acted.
    """

    kind = "requirement"
    injures_lower = True

    def __init__(self, name: str):
        self.name = name

    def ready(self, stage: int) -> bool:
        raise NotImplementedError

    def act(self, stage: int) -> dict[str, Any]:
        raise NotImplementedError

    def reinitialize(self) -> None:
        pass

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class PriorityEngine:
    """One action per stage, highest-priority ready requirement first.

    `apply` is the construction's writer: the engine calls it on each record
    it logs, once the record is complete."""

    def __init__(self, requirements: Iterable[Requirement], log: RunLog,
                 apply: Callable[[ActionRecord], None]):
        self.requirements = list(requirements)
        self.log = log
        self.apply = apply

    def run_stage(self, stage: int) -> ActionRecord | None:
        for req in self.requirements:
            if not req.ready(stage):
                continue
            details = req.act(stage)
            if req.injures_lower:
                # looked up only when one acts: most stages only poll
                lower = self.requirements[self.requirements.index(req) + 1:]
                for injured in lower:
                    injured.reinitialize()
                if lower:
                    details.setdefault("reinitialized", [r.name for r in lower])
            record = self.log.add(
                stage, req.name, req.kind, details.pop("action"), **details
            )
            self.apply(record)
            return record
        return None

    def run(self, stages: int) -> None:
        """Run stages 1..stages."""
        for s in range(1, stages + 1):
            self.run_stage(s)


# Ceiling on a run's stage count.  The engine visits every stage; run at
# 100,000 stages in-process on a 2-vCPU x86-64 machine, the shipped
# scenarios cost 0.8 us (dark-group) to 4.5 us (sigma3) a stage, so a run at
# the ceiling takes under 0.5 s.
STAGE_CEILING = 100_000


@dataclass
class ConstructionRun:
    """Shared shape of a finished run: parameters, stage count, and log."""

    construction: str
    params: dict[str, Any]
    stages: int
    log: RunLog

    def __post_init__(self) -> None:
        # every result is built through here, for a run and for replay alike
        if (type(self.stages) is not int  # a bool is no stage count
                or not 0 <= self.stages <= STAGE_CEILING):
            raise ValueError(f"bad stages {self.stages!r}: must be an "
                             f"integer in [0, {STAGE_CEILING}]")
