"""Engine behavior: priority order, injury discipline, log round trips."""
import importlib
import inspect
import pkgutil

import pytest

import ceerlab
from ceerlab.engine import (
    ActionRecord,
    ConstructionRun,
    PriorityEngine,
    Requirement,
    RunLog,
)
from helpers import records_for


class Toy(Requirement):
    kind = "T"

    def __init__(self, name, at, injures=True):
        super().__init__(name)
        self.at = set(at)
        self.injures_lower = injures
        self.acted_at = []
        self.injuries = 0

    def ready(self, stage):
        return stage in self.at

    def act(self, stage):
        self.acted_at.append(stage)
        return {"action": "tick", "n": len(self.acted_at)}

    def reinitialize(self):
        self.injuries += 1


def build(*reqs, apply=lambda record: None):
    log = RunLog({"construction": "toy", "params": {}})
    return PriorityEngine(list(reqs), log, apply), log


def test_one_action_per_stage_highest_priority_wins():
    a = Toy("A", {1, 2})
    b = Toy("B", {2, 3})
    engine, log = build(a, b)
    engine.run(3)
    assert [r.requirement for r in log.records] == ["A", "A", "B"]
    assert a.acted_at == [1, 2]
    assert b.acted_at == [3]


def test_action_injures_all_lower_priority():
    a = Toy("A", {2})
    b = Toy("B", {1})
    c = Toy("C", set())
    engine, log = build(a, b, c)
    engine.run(2)
    # B acting at stage 1 injures only C; A at stage 2 injures both
    assert (a.injuries, b.injuries, c.injuries) == (0, 1, 2)
    assert [(rec.requirement, rec.details["reinitialized"])
            for rec in log.records] == [("B", ["C"]), ("A", ["B", "C"])]


def test_non_injuring_requirement_leaves_lower_alone():
    a = Toy("A", {1}, injures=False)
    b = Toy("B", set())
    engine, log = build(a, b)
    engine.run(1)
    assert b.injuries == 0
    assert "reinitialized" not in log.records[0].details


def test_idle_stage_adds_no_record():
    a = Toy("A", {3})
    engine, log = build(a)
    assert engine.run_stage(1) is None
    assert engine.run_stage(2) is None
    assert engine.run_stage(3) is not None
    assert len(log.records) == 1


def test_writer_applies_each_logged_record_once_in_order():
    seen = []

    def apply(record):
        # the record is logged and complete, injuries included, when applied
        seen.append((record, len(log.records),
                     record.details.get("reinitialized")))

    a = Toy("A", {2, 4})
    b = Toy("B", {1, 3})
    c = Toy("C", set())
    engine, log = build(a, b, c, apply=apply)
    engine.run(4)
    assert [rec for rec, _, _ in seen] == log.records
    assert [n for _, n, _ in seen] == [1, 2, 3, 4]
    assert [inj for _, _, inj in seen] == [["C"], ["B", "C"], ["C"],
                                           ["B", "C"]]
    assert engine.run_stage(5) is None  # nothing acts, nothing is applied
    assert len(seen) == 4


def test_record_details_carried_into_log():
    a = Toy("A", {1, 2})
    engine, log = build(a)
    engine.run(2)
    assert log.records[0].details["n"] == 1
    assert log.records[1].details["n"] == 2
    assert log.records[0].kind == "T"
    assert log.records[0].action == "tick"


def test_records_for_filters():
    a = Toy("A", {1})
    b = Toy("B", {2})
    engine, log = build(a, b)
    engine.run(2)
    assert len(records_for(log)) == 2
    assert [r.stage for r in records_for(log, requirement="B")] == [2]
    assert len(records_for(log, action="tick")) == 2
    assert records_for(log, action="nope") == []


def test_action_record_obj_round_trip():
    rec = ActionRecord(7, "R3", "R", "move", {"slot": 2, "items": [1, 2]})
    obj = rec.to_obj()
    assert obj["stage"] == 7 and obj["slot"] == 2
    back = ActionRecord.from_obj(obj)
    assert back == rec


def test_log_dump_load_round_trip(tmp_path):
    a = Toy("A", {1, 2})
    engine, log = build(a)
    engine.run(2)
    path = tmp_path / "toy.jsonl"
    log.dump(str(path))
    back = RunLog.load(str(path))
    assert back.header == log.header
    assert back.records == log.records


def test_log_bytes_deterministic():
    def once():
        engine, log = build(Toy("A", {1, 3}), Toy("B", {2}))
        engine.run(3)
        return log.dumps()

    first, second = once(), once()
    assert first == second
    # sorted keys, compact separators, no timestamps
    assert '"action":"tick"' in first
    assert " " not in first.splitlines()[1]


def test_loads_rejects_empty_and_accepts_header_only():
    with pytest.raises(ValueError):
        RunLog.loads("   \n  ")
    log = RunLog.loads('{"construction":"toy"}\n')
    assert log.header == {"construction": "toy"}
    assert log.records == []


@pytest.mark.parametrize("token", ["Infinity", "-Infinity", "NaN", "1e309",
                                   "2.5", "2.0", "true", "null", '"3"'])
def test_loads_refuses_a_record_stage_that_is_no_integer(token):
    record = ('{"action":"tick","kind":"toy","requirement":"R0","stage":%s}'
              % token)
    text = '{"construction":"toy"}\n' + record.replace(token, "1") + "\n"
    assert RunLog.loads(text).records[0].stage == 1
    with pytest.raises(ValueError,
                       match="^log line 3: stage is not an integer$"):
        RunLog.loads(text + record + "\n")


def test_construction_run_shape():
    log = RunLog({"construction": "toy"})
    run = ConstructionRun("toy", {"k": 1}, 10, log)
    assert run.construction == "toy"
    assert run.params == {"k": 1}
    assert run.stages == 10
    assert run.log is log


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_requirements_keep_the_base_signatures():
    """Each `ready`, `act` and `reinitialize` a `ceerlab` requirement defines
    takes the base class's parameters.  The engine calls `reinitialize` only
    when a requirement is injured, so a wrong one would go unseen until a
    run injures it."""
    for info in pkgutil.iter_modules(ceerlab.__path__):
        if info.name != "__main__":  # running it runs the command
            importlib.import_module(f"ceerlab.{info.name}")
    found = [cls for cls in _subclasses(Requirement)
             if cls.__module__.startswith("ceerlab.")]
    assert {cls.__module__ for cls in found} == {
        "ceerlab.dark", "ceerlab.indexset", "ceerlab.sigma3", "ceerlab.star"}
    for cls in found:
        for method in ("ready", "act", "reinitialize"):
            if method in vars(cls):
                assert (list(inspect.signature(vars(cls)[method]).parameters)
                        == list(inspect.signature(
                            getattr(Requirement, method)).parameters)), (
                    cls.__qualname__, method)
