"""Log replay: the state rebuilt from a log equals the live run's state."""
import ast
import glob
import os

import pytest

import ceerlab
from ceerlab import replay
from ceerlab.engine import ActionRecord, RunLog
from ceerlab.scenario import load_scenario

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def scenario(name):
    return os.path.join(SCENARIOS, name)


@pytest.mark.parametrize(
    "overrides", [None, {"levels": 3, "base": 6}, {"levels": 3, "base": 10}],
    ids=["shipped", "levels-3-base-6", "levels-3-base-10"])
def test_star_replay_matches_live_run(overrides):
    scn = load_scenario(scenario("star-universal-basic.txt"))
    live = scn.run(overrides)
    if overrides is None:
        log = RunLog.load(scenario("star-universal-basic.log.jsonl"))
    else:
        log = RunLog.loads(live.log.dumps())
    pres = replay.star_presentation(log)
    assert pres.relations == live.presentation.relations
    assert pres.level == live.presentation.level
    assert pres.status == live.presentation.status
    points = replay.census_checkpoints(log)
    assert points[0] == 0 and points[-1] == live.stages
    for s in points:
        for j in range(live.levels + 1):
            assert pres.census_at(j, s) == live.census(j, s), (s, j)
    uni = replay.universal_table(log.header["params"])
    assert (uni.bound, uni.pairs) == (live.universal.bound, live.universal.pairs)
    stream = replay.relator_streams(log)["main"]
    assert stream == [(r.lhs, r.rhs, r.stage) for r in live.presentation.relations]


@pytest.mark.parametrize("name", ["dark-ring-basic", "dark-group-basic"])
def test_dark_replay_matches_live_run(name):
    live = load_scenario(scenario(f"{name}.txt")).run()
    log = RunLog.load(scenario(f"{name}.log.jsonl"))
    steps = list(replay.dark_steps(log))
    assert [rec for rec, _ in steps] == log.records
    ideal = steps[-1][1]
    assert ideal.generators == live.ideal.generators
    assert ideal.counts() == live.ideal.counts()
    assert (ideal.p, ideal.maxdeg) == (live.ideal.p, live.ideal.maxdeg)


def test_sug_streams_match_the_slot_presentations():
    live = load_scenario(scenario("sug-basic.txt")).run()
    log = RunLog.load(scenario("sug-basic.log.jsonl"))
    streams = replay.relator_streams(log)
    assert live.group_slots and set(live.group_slots) <= set(streams)
    for slot, stream in streams.items():
        if slot in live.group_slots:
            rels = live.group_slots[slot].state.pres.relations
            assert stream == [(r.lhs, r.rhs, r.stage) for r in rels], slot
            _assert_slot_census_matches(log, slot, live.group_slots[slot])
        else:  # a table slot: no presentation, no relators
            assert stream == [], slot


def _assert_slot_census_matches(log, slot, instance):
    """A sug group slot's inner records, replayed as a star log, give the
    slot's own census at every checkpoint."""
    inner = RunLog({"construction": "star-universal",
                    "params": instance.log.header["params"]})
    for rec in log.records:
        if rec.details.get("slot") == slot:
            inner.records.extend(ActionRecord.from_obj(obj)
                                 for obj in rec.details.get("inner", ()))
    assert inner.records, slot
    pres = replay.star_presentation(inner)
    live = instance.state.pres
    for s in replay.census_checkpoints(inner):
        for j in range(instance.levels + 1):
            assert pres.census_at(j, s) == live.census_at(j, s), (slot, s, j)


def test_a_star_presentation_has_one_writer():
    """Outside `StagedPresentation` itself, only `star.apply_record` sets a
    level or a status or adds a relation; `validate_relation_stream` adds
    relations to a throwaway presentation of its own."""
    writers = set()
    for path in glob.glob(os.path.join(os.path.dirname(ceerlab.__file__),
                                       "*.py")):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            defs = top.body if isinstance(top, ast.ClassDef) else [top]
            for fn in defs:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr in ("set_level", "set_status",
                                                   "add_relation")):
                        writers.add((module, fn.name))
    assert writers == {("star", "apply_record"),
                       ("groups", "validate_relation_stream")}
