"""A deterministic finite-injury stage loop with replayable JSON logs.

The engine owns nothing domain-specific: it scans a fixed priority list
once per stage, lets the highest-priority ready requirement act, applies
the injury discipline, and records everything.  Requirements mutate the
construction state they were handed at creation; the engine only
guarantees ordering, one action per stage, and an audit trail.

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
    """Header plus an append-only list of action records."""

    def __init__(self, header: dict[str, Any]):
        self.header = dict(header)
        self.records: list[ActionRecord] = []

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

    def records_for(
        self, requirement: str | None = None, action: str | None = None
    ) -> list[ActionRecord]:
        out = []
        for r in self.records:
            if requirement is not None and r.requirement != requirement:
                continue
            if action is not None and r.action != action:
                continue
            out.append(r)
        return out

    def dumps(self) -> str:
        lines = [_dump_json(self.header)]
        lines.extend(_dump_json(r.to_obj()) for r in self.records)
        return "\n".join(lines) + "\n"

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "RunLog":
        objs = []
        for n, ln in enumerate(text.splitlines(), start=1):
            if ln.strip():
                try:
                    objs.append(json.loads(ln))
                except RecursionError:
                    raise ValueError(f"log line {n} nests too deeply") from None
                if not isinstance(objs[-1], dict):
                    raise ValueError(f"log line {n} is not a JSON object")
                missing = [k for k in _RECORD_KEYS if k not in objs[-1]]
                if len(objs) > 1 and missing:  # a record, not the header
                    raise ValueError(f"log line {n} lacks {missing[0]!r}")
        if not objs:
            raise ValueError("empty log")
        log = cls(objs[0])
        log.records.extend(ActionRecord.from_obj(obj) for obj in objs[1:])
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
    """

    kind = "requirement"
    injures_lower = True

    def __init__(self, name: str):
        self.name = name
        self.rank = -1

    def ready(self, stage: int) -> bool:
        raise NotImplementedError

    def act(self, stage: int) -> dict[str, Any]:
        raise NotImplementedError

    def reinitialize(self, stage: int, by: str) -> None:
        pass

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} rank={self.rank}>"


class PriorityEngine:
    """One action per stage, highest-priority ready requirement first."""

    def __init__(self, requirements: Iterable[Requirement], log: RunLog):
        self.requirements = list(requirements)
        for rank, req in enumerate(self.requirements):
            req.rank = rank
        self.log = log

    def lower_than(self, req: Requirement) -> list[Requirement]:
        return self.requirements[req.rank + 1 :]

    def run_stage(self, stage: int) -> ActionRecord | None:
        for req in self.requirements:
            if not req.ready(stage):
                continue
            details = req.act(stage)
            if req.injures_lower:
                injured = []
                for lower in self.lower_than(req):
                    lower.reinitialize(stage, req.name)
                    injured.append(lower.name)
                if injured:
                    details.setdefault("reinitialized", injured)
            return self.log.add(
                stage, req.name, req.kind, details.pop("action"), **details
            )
        return None

    def run(
        self,
        stages: int,
        after_stage: Callable[[int], bool | None] | None = None,
    ) -> None:
        """Run stages 1..stages; stop early once after_stage returns true."""
        for s in range(1, stages + 1):
            self.run_stage(s)
            if after_stage is not None and after_stage(s):
                return


@dataclass
class ConstructionRun:
    """Shared shape of a finished run: parameters, stage count, and log."""

    construction: str
    params: dict[str, Any]
    stages: int
    log: RunLog
