"""Log replay: the state rebuilt from a log equals the live run's state."""
import ast
import glob
import os

import pytest

import ceerlab
from ceerlab import replay
from ceerlab.algebra import Poly
from ceerlab.ceers import StageSet
from ceerlab.cli import _summarize
from ceerlab.dark import run_dark_group, run_dark_ring
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


def _trigger(*stages):
    return StageSet([(i, s) for i, s in enumerate(stages)])


DARK_RUNS = {
    "dark-ring-basic": lambda: load_scenario(
        scenario("dark-ring-basic.txt")).run(),
    "dark-group-basic": lambda: load_scenario(
        scenario("dark-group-basic.txt")).run(),
    # D0 collapses at stage 2 and injures L1, whose stage-1 banking goes
    "injury": lambda: run_dark_ring(
        u_columns={1: _trigger(1, 3)},
        w_columns={0: StageSet([(Poly.y(2), 2), (Poly.y(2), 2)])},
        stages=4, maxdeg=16),
    # two degree-10 seeds fail the audit before any stage runs
    "gs-failure-at-stage-0": lambda: run_dark_group(
        u_columns={0: _trigger(1)}, w_columns={}, stages=10, maxdeg=14,
        unit_exponent=10),
}


@pytest.mark.parametrize("name", sorted(DARK_RUNS))
def test_dark_replay_matches_live_run(name):
    """Replaying a dumped dark log through `dark.apply_record` gives the run's
    own result, and the run's summary reads the same from either."""
    live = DARK_RUNS[name]()
    log = RunLog.loads(live.log.dumps())
    steps = list(replay.dark_steps(log))
    assert [rec for rec, _ in steps] == log.records
    result = steps[-1][1]
    ideal = result.ideal
    assert ideal.generators == live.ideal.generators
    assert ideal.counts() == live.ideal.counts()
    assert (ideal.p, ideal.maxdeg) == (live.ideal.p, live.ideal.maxdeg)
    assert result.transversals == live.transversals
    assert result.protected == live.protected
    assert result.witnesses == live.witnesses
    assert result.gs_failure == live.gs_failure
    assert _summarize(result) == _summarize(live)


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


def _callers(*methods):
    """(module, function or Class.method) of every definition in the package
    that calls one of `methods` as an attribute."""
    callers = set()
    for path in glob.glob(os.path.join(os.path.dirname(ceerlab.__file__),
                                       "*.py")):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                defs = [(f"{top.name}.", fn) for fn in top.body]
            else:
                defs = [("", top)]
            for prefix, fn in defs:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for node in ast.walk(fn):
                    if (isinstance(node, ast.Call)
                            and isinstance(node.func, ast.Attribute)
                            and node.func.attr in methods):
                        callers.add((module, prefix + fn.name))
    return callers


def test_a_star_presentation_has_one_writer():
    """Outside `StagedPresentation` itself, only `star.apply_record` sets a
    level or a status or adds a relation; `validate_relation_stream` adds
    relations to a throwaway presentation of its own."""
    assert _callers("set_level", "set_status", "add_relation") == {
        ("star", "apply_record"), ("groups", "validate_relation_stream")}


def test_a_dark_ideal_has_one_writer():
    """Only `dark.apply_record` adds a generator to an ideal, besides the
    ideal's own constructor listing the generators it is given."""
    assert _callers("add_generator") == {
        ("dark", "apply_record"), ("algebra", "HomogeneousIdeal.__init__")}
