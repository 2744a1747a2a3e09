"""Log replay: the state rebuilt from a log equals the live run's state."""
import os

import pytest

from ceerlab import replay
from ceerlab.engine import RunLog
from ceerlab.scenario import load_scenario
from ceerlab.star import census_at

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def scenario(name):
    return os.path.join(SCENARIOS, name)


@pytest.mark.parametrize("overrides", [None, {"levels": 3, "base": 6}],
                         ids=["shipped", "levels-3-base-6"])
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
    points = replay.census_checkpoints(log)
    assert points[0] == 0 and points[-1] == live.stages
    for s in points:
        for j in range(live.levels + 1):
            assert census_at(pres, live.base, j, s) == live.census(j, s), (s, j)
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
    streams = replay.relator_streams(RunLog.load(scenario("sug-basic.log.jsonl")))
    assert live.group_slots and set(live.group_slots) <= set(streams)
    for slot, stream in streams.items():
        if slot in live.group_slots:
            rels = live.group_slots[slot].state.pres.relations
            assert stream == [(r.lhs, r.rhs, r.stage) for r in rels], slot
        else:  # a table slot: no presentation, no relators
            assert stream == [], slot
