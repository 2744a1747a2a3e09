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
        level = pres.level_of(gen)
        if level is not None:
            status = rng.choice(STATUSES)
            pres.set_statuses(level, [gen], status, stage)
            oracle.set_status(gen, status, stage)
    for s in range(stage + 2):
        for j in range(levels + 1):
            assert pres.census_at(j, s) == oracle.census(base, j, s), (s, j)


@pytest.mark.parametrize("overrides", [None, {"levels": 3, "base": 6}],
                         ids=["shipped", "levels-3-base-6"])
def test_census_matches_event_lists_on_star_runs(overrides, monkeypatch):
    oracle = StatusEvents()
    set_level = StagedPresentation.set_level
    set_statuses = StagedPresentation.set_statuses

    def tee_level(pres, level, gens, stage):
        set_level(pres, level, gens, stage)
        for g in gens:
            oracle.set_status(g, "level", stage)

    def tee_statuses(pres, level, gens, status, stage):
        set_statuses(pres, level, gens, status, stage)
        for g in gens:
            oracle.set_status(g, status, stage)

    monkeypatch.setattr(StagedPresentation, "set_level", tee_level)
    monkeypatch.setattr(StagedPresentation, "set_statuses", tee_statuses)
    scn = load_scenario(os.path.join(SCENARIOS, "star-universal-basic.txt"))
    res = scn.run(overrides)
    assert oracle.events
    for s in range(res.stages + 1):
        for j in range(res.levels + 1):
            assert res.census(j, s) == oracle.census(res.base, j, s), (s, j)


@pytest.mark.parametrize("seed", range(10))
def test_census_matches_event_lists_when_a_level_changes_at_once(seed):
    """`set_statuses` gives several letters of one level a status in one
    call, as a collapse does, mixed with single-letter calls."""
    rng = random.Random(seed)
    base, levels = rng.choice((2, 4, 6)), rng.randint(0, 2)
    pres = StagedPresentation(ngens=base ** (levels + 1))
    oracle = StatusEvents()
    for j in range(levels + 1):
        pres.set_level(j, level_letters(base, j), 0)
        for g in level_letters(base, j):
            oracle.set_status(g, "level", 0)
    stage = 0
    for _ in range(rng.randint(0, 30)):
        stage += rng.choice((0, 0, 1, 3))
        status = rng.choice(STATUSES)
        j = rng.randint(0, levels)
        if rng.random() < 0.5:
            letters = level_letters(base, j)
            gens = rng.sample(letters, rng.randint(0, min(3, len(letters))))
            pres.set_statuses(j, gens, status, stage)
        else:
            gens = [rng.choice(level_letters(base, j))]
            pres.set_statuses(j, gens, status, stage)
        for g in gens:
            oracle.set_status(g, status, stage)
    for s in range(stage + 2):
        for j in range(levels + 1):
            assert pres.census_at(j, s) == oracle.census(base, j, s), (s, j)


def test_set_statuses_names_letters_of_its_level():
    pres = StagedPresentation(ngens=16)
    pres.set_level(1, level_letters(4, 1), 0)
    with pytest.raises(ValueError, match="x3 is not a letter of level 1"):
        pres.set_statuses(1, [4, 3], "collapsed", 1)
    # an index no letter can have is named as such
    with pytest.raises(ValueError, match="generator index -1 is negative"):
        pres.set_statuses(1, [-1], "collapsed", 1)
    with pytest.raises(ValueError, match=r"x16 is not materialized \(ngens=16\)"):
        pres.set_statuses(1, [16], "collapsed", 1)
    with pytest.raises(ValueError, match="^level 0 is not laid out$"):
        pres.set_statuses(0, [0], "collapsed", 1)
