"""The per-level census history against per-generator status event lists."""
import os
import random

import pytest

from ceerlab.groups import StagedPresentation
from ceerlab.scenario import load_scenario
from ceerlab.star import level_letters
from oracles import StatusEvents

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
STATUSES = ("level", "free", "determined", "collapsed")


@pytest.mark.parametrize("seed", range(20))
def test_census_matches_event_lists_on_random_streams(seed):
    rng = random.Random(seed)
    base, levels = rng.choice((2, 4, 6)), rng.randint(0, 2)
    pres = StagedPresentation(ngens=base ** (levels + 1))
    oracle = StatusEvents()
    for j in range(levels + 1):
        if rng.random() < 0.8:  # a level never laid out has no counts
            pres.set_level(j, level_letters(base, j), 0)
            for g in level_letters(base, j):
                oracle.set_status(g, "level", 0)
    stage = 0
    for _ in range(rng.randint(0, 60)):
        stage += rng.choice((0, 0, 1, 3))
        gen = rng.randrange(pres.ngens)
        if pres.level_of(gen) is not None:
            status = rng.choice(STATUSES)
            pres.set_status(gen, status, stage)
            oracle.set_status(gen, status, stage)
    for s in range(stage + 2):
        for j in range(levels + 1):
            assert pres.census_at(j, s) == oracle.census(base, j, s), (s, j)


@pytest.mark.parametrize("overrides", [None, {"levels": 3, "base": 6}],
                         ids=["shipped", "levels-3-base-6"])
def test_census_matches_event_lists_on_star_runs(overrides, monkeypatch):
    oracle = StatusEvents()
    set_level = StagedPresentation.set_level
    set_status = StagedPresentation.set_status

    def tee_level(pres, level, gens, stage):
        set_level(pres, level, gens, stage)
        for g in gens:
            oracle.set_status(g, "level", stage)

    def tee_status(pres, gen, status, stage):
        set_status(pres, gen, status, stage)
        oracle.set_status(gen, status, stage)

    monkeypatch.setattr(StagedPresentation, "set_level", tee_level)
    monkeypatch.setattr(StagedPresentation, "set_status", tee_status)
    scn = load_scenario(os.path.join(SCENARIOS, "star-universal-basic.txt"))
    res = scn.run(overrides)
    assert oracle.events
    for s in range(res.stages + 1):
        for j in range(res.levels + 1):
            assert res.census(j, s) == oracle.census(res.base, j, s), (s, j)

