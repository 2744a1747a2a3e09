"""The construction table, and log replay through it.

`CONSTRUCTIONS` maps each construction name to its module (`dark`,
`sigma3`, `star` or `indexset`), imported the first time its name is
looked up: `name in CONSTRUCTIONS` and iterating over the names import
none, so a command loads only the constructions it runs (`run` its
scenario's, `probe` none, `verify` all four, as its unknown-suite message
lists every suite).  Each module exports the same four functions:
`start(log)`, the empty result a log's header describes, with every
header check; `apply_record(result, record)`, the writer the engine
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

Replay decodes every value it reads.  Each module declares, once, what it
reads of a log: `HEADER`, the header params its `start` reads, and
`RECORDS`, (kind, action) -> the fields its `apply_record` and its suites
read of such a record, each with one of the readers below.  `start`
decodes the header against `HEADER` and `steps` each record against
`RECORDS` just before it applies it, so the first fault in log order wins;
what is inside a relator alone is read where the presentation stores it
(`_Relators`).
A value no run writes raises ValueError("line N: FIELD: what was
expected"), FIELD a path such as `inner[0].relators[2].rhs[1]` and N the
line as `RunLog.loads` numbers it; a record whose kind is not its
requirement's family (the letter of `C3`, or the whole of `init`), or that
its construction never logs, raises ValueError("'C3' logs no record of kind
... and action ..."), its line unnamed.  Adding a field is one entry in
its module's table; the run, which applies only records it built, decodes
nothing.
"""
from __future__ import annotations

import re
import reprlib
from importlib import import_module
from itertools import chain, count
from types import ModuleType
from typing import Any, Callable, Iterator, Mapping

from .ceers import StageRegressionError
from .engine import ActionRecord, ConstructionRun, RunLog
from .groups import TriangularityError

__all__ = ["CONSTRUCTIONS", "start", "steps", "census_checkpoints",
           "refused", "triangularity", "summarize", "integer", "nonnegative",
           "text", "requirement", "pair", "triple", "as_is", "optional",
           "fields", "each", "records", "relators", "expected", "decode"]


class _Modules(Mapping[str, ModuleType]):
    """Construction name -> its module, imported on first lookup, when the
    module's name in the table is replaced by the module."""

    def __init__(self, modules: dict[str, str | ModuleType]):
        self._modules = modules

    def __getitem__(self, name: str) -> ModuleType:
        module = self._modules[name]
        if isinstance(module, str):
            module = self._modules[name] = import_module(f".{module}",
                                                         __package__)
        return module

    def __contains__(self, name: object) -> bool:
        return name in self._modules  # Mapping's own would import the module

    def __iter__(self) -> Iterator[str]:
        return iter(self._modules)

    def __len__(self) -> int:
        return len(self._modules)


CONSTRUCTIONS = _Modules({
    "dark-ring": "dark",
    "dark-group": "dark",
    "sigma3": "sigma3",
    "star-universal": "star",
    "sug-indexset": "indexset",
})


# -- the record decoder ------------------------------------------------------


class _Fault(ValueError):
    """A value no run writes: what a run writes there, and the path to the
    value, which each reader that holds it prefixes as the fault passes."""

    def __init__(self, what: str, *path: str):
        super().__init__(what)
        self.what, self.path = what, list(path)

    def __str__(self) -> str:
        return f"{''.join(self.path).lstrip('.')}: {self.what}"


def expected(what: str, value: Any) -> ValueError:
    """The refusal of `value`, where a run writes `what`."""
    return _Fault(f"expected {what}, got {reprlib.repr(value)}")


# Every reader is called as `reader(value, entries)` and raises a fault on
# a value no run writes; `entries` asks the readers that hold relators to
# read what is inside them too (`_Relators`), and the others pass it on or
# ignore it.


def as_is(value: Any, entries: bool = False) -> None:
    """Any value: the module's `start` checks it, with its own message."""


def integer(value: Any, entries: bool = False) -> None:
    """An int; a bool is none."""
    if type(value) is not int:
        raise expected("an integer", value)


def nonnegative(value: Any, entries: bool = False) -> None:
    """An int >= 0; a bool is none."""
    if type(value) is not int or value < 0:
        raise expected("a nonnegative integer", value)


def text(value: Any, entries: bool = False) -> None:
    """A string."""
    if type(value) is not str:
        raise expected("a string", value)


_NAME = re.compile(r"init|[A-Za-z][0-9]+")


def requirement(value: Any, entries: bool = False) -> None:
    """A requirement name: `init`, or a letter and its index's digits."""
    if type(value) is not str or not _NAME.fullmatch(value):
        raise expected("'init' or a letter and digits", value)


def _ints(size: int, what: str) -> Callable[[Any, bool], None]:
    """A reader of `size` ints, as a JSON array."""
    def read(value: Any, entries: bool = False) -> None:
        if (type(value) is not list or len(value) != size
                or any(type(item) is not int for item in value)):
            raise expected(what, value)
    return read


pair = _ints(2, "a pair of integers")
triple = _ints(3, "a triple of integers")
_index_exponent = _ints(2, "an [index, exponent] pair of integers")


class optional:
    """A field that a record may leave out, read by `reader` when given."""

    def __init__(self, reader: Any):
        self.reader = reader


def _fields(spec: dict[str, Any], obj: dict[str, Any], entries: bool) -> None:
    for key, reader in spec.items():
        if key in obj:
            if type(reader) is optional:
                reader = reader.reader
            try:
                reader(obj[key], entries)
            except _Fault as fault:
                fault.path.insert(0, f".{key}")
                raise
        elif type(reader) is not optional:
            raise _Fault("missing", f".{key}")


class fields:
    """An object with the fields `spec` declares, each with its reader."""

    def __init__(self, spec: dict[str, Any]):
        self.spec = spec

    def __call__(self, value: Any, entries: bool = False) -> None:
        if type(value) is not dict:
            raise expected("an object", value)
        _fields(self.spec, value, entries)


class each:
    """A list, each of whose items `reader` reads."""

    def __init__(self, reader: Any):
        self.reader = reader

    def __call__(self, value: Any, entries: bool = False) -> None:
        if type(value) is not list:
            raise expected("a list", value)
        reader = self.reader
        for k, item in enumerate(value):
            try:
                reader(item, entries)
            except _Fault as fault:
                fault.path.insert(0, f"[{k}]")
                raise


def _spec(table: dict[tuple[str, str], dict[str, Any]], req: Any, kind: Any,
          action: Any) -> dict[str, Any]:
    """The fields of a record of the table with that requirement, kind and
    action; ValueError if its kind is not the requirement's family or the
    table lists no such record."""
    family = req.rstrip("0123456789") if type(req) is str else None
    spec = table.get((kind, action)) if (
        kind == family and type(action) is str) else None
    if spec is None:
        raise ValueError(f"{req!r} logs no record of kind {kind!r} and "
                         f"action {action!r}")
    return spec


# what every inner record holds, as every record of a log does
_RECORD = fields(dict.fromkeys(("requirement", "kind", "action"), as_is)
                 | {"stage": integer})


class records(each):
    """A list of records, as `ActionRecord.to_obj` writes them, of the
    construction whose `RECORDS` is `table`: sug's `inner` lists star's."""

    def __init__(self, table: dict[tuple[str, str], dict[str, Any]]):
        super().__init__(_RECORD)
        self.table = table

    def __call__(self, value: Any, entries: bool = False) -> None:
        super().__call__(value, entries)
        for k, obj in enumerate(value):
            try:
                spec = _spec(self.table, obj["requirement"], obj["kind"],
                             obj["action"])
                _fields(spec, obj, entries)
            except _Fault as fault:
                fault.path.insert(0, f"[{k}]")
                raise
            except ValueError as exc:  # a record its construction never logs
                raise _Fault(str(exc), f"[{k}]") from None


class _Relators(each):
    """A list of relators {lhs: int, rhs: [[int, int], ...]}.  Relators are
    most of a star log, so what is inside one is read once, where the
    presentation stores it: `StagedPresentation.add_relation` raises
    TypeError on a left-hand side or a right-hand entry that is not an int
    (and `apply_record` a TypeError or a KeyError on a relator that is no
    object with both sides), and `steps` then decodes the record again,
    with `entries`, to name it."""

    def __call__(self, value: Any, entries: bool = False) -> None:
        if entries:
            super().__call__(value, entries)
        elif type(value) is not list:
            raise expected("a list of relators", value)


relators = _Relators(fields({"lhs": integer, "rhs": each(_index_exponent)}))


def decode(table: dict[tuple[str, str], dict[str, Any]],
           record: ActionRecord, line: int, entries: bool = False) -> None:
    """Check a record, on log line `line`, against its module's `RECORDS`;
    with `entries`, what is inside each relator too."""
    spec = _spec(table, record.requirement, record.kind, record.action)
    try:
        _fields(spec, {**record.details, "requirement": record.requirement},
                entries)
    except _Fault as fault:
        raise ValueError(f"line {line}: {fault}") from None


def start(log: RunLog) -> ConstructionRun:
    """The empty result the log's header describes, once its params are
    decoded against the module's `HEADER`; a malformed header raises here,
    before any record is applied."""
    module = CONSTRUCTIONS[log.header["construction"]]
    try:
        fields(module.HEADER)(log.header.get("params"))
    except _Fault as fault:
        fault.path.insert(0, "params")
        raise ValueError(f"line {log.lines[0] if log.lines else 1}: "
                         f"{fault}") from None
    return module.start(log)


def steps(log: RunLog, result: ConstructionRun
          ) -> Iterator[tuple[ActionRecord, ConstructionRun]]:
    """Each record of the log, decoded, with `result` once the
    construction's writer has applied it; the same result object is
    yielded every time."""
    module = CONSTRUCTIONS[result.construction]
    apply, table = module.apply_record, module.RECORDS
    # the lines `RunLog.loads` numbered, then, for records it did not read,
    # the lines `dumps` would write them on
    lines = chain(log.lines[1:], count(max(len(log.lines), 1) + 1))
    for line, rec in zip(lines, log.records):
        decode(table, rec, line)
        try:
            apply(result, rec)
        except (TypeError, KeyError):  # a relator that is not as it reads
            decode(table, rec, line, entries=True)
            raise
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
