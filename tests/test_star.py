"""Level-word construction: init layout, case dispatch, collapses, budget."""
import os

import pytest

from ceerlab import replay
from ceerlab.ceers import CeerTable
from ceerlab.engine import RunLog
from ceerlab.groups import (
    CyclicFactor,
    FreeProduct,
    FreeProductWord,
    StagedAbelianFactor,
    fp_reduce,
)
from ceerlab.scenario import load_scenario, parse_scenario
from ceerlab.star import (
    BudgetError,
    PhiEntry,
    StarConstruction,
    check_size,
    level_letters,
    level_words_equal_at,
    run_star_universal,
)


def uni_table(bound=3, *pairs_at):
    t = CeerTable(bound=bound)
    for a, b, s in pairs_at:
        t.assert_pair(a, b, s)
    return t


def entry(word, at=0):
    return PhiEntry(at, tuple(word))


def test_level_letters_ranges():
    assert level_letters(10, 0) == list(range(10))
    assert level_letters(10, 1) == list(range(10, 100))
    assert level_letters(6, 2) == list(range(36, 216))


def test_initialization_pins_two_leads_per_level():
    con = StarConstruction(uni_table(), {}, base=10, levels=2, stages=1)
    recs = con.initialize()
    assert [r.details["level"] for r in recs] == [0, 1, 2]
    assert recs[0].details["generators"] == [0, 9]
    assert recs[2].details["generators"] == [100, 999]
    # each level loses its even and odd lead to a product relation
    assert con.state.pres.census_at(0, 0) == {
        "level": 8, "free": 0, "determined": 2, "collapsed": 0,
    }
    assert con.state.pres.census_at(1, 0) == {
        "level": 88, "free": 0, "determined": 2, "collapsed": 0,
    }
    lead = recs[0].details["relators"][0]
    assert lead["lhs"] == 8
    assert lead["rhs"] == [[g, -1] for g in (0, 2, 4, 6)]


def test_initialize_and_step_guards():
    con = StarConstruction(uni_table(), {}, base=6, levels=1, stages=1)
    with pytest.raises(RuntimeError):
        con.step()
    con.initialize()
    with pytest.raises(RuntimeError):
        con.initialize()
    assert con.step() is None


def test_generator_ceiling():
    check_size(10, 4)  # 100,000 generators: at the ceiling
    check_size(2, 15)
    for base, levels in [(10, 5), (2, 16), (100_002, 0), (10, 10 ** 12)]:
        with pytest.raises(ValueError, match="above the ceiling 100000"):
            check_size(base, levels)
    with pytest.raises(ValueError, match="base must be"):
        check_size(1, 10 ** 12)


def test_parameter_validation():
    with pytest.raises(ValueError):
        StarConstruction(uni_table(), {}, base=5, levels=1)
    with pytest.raises(ValueError):
        StarConstruction(uni_table(), {}, base=2, levels=1)
    phis = {0: {0: entry([(9999, 1)]), 1: entry([])}}
    with pytest.raises(ValueError):
        StarConstruction(uni_table(), phis, base=6, levels=1)


def test_case_0_identical_words_stay_unrelated():
    w = [(6, 1), (8, 1)]
    res = run_star_universal(
        uni_table(), {0: {0: entry(w), 1: entry(w)}}, base=6, levels=1, stages=3,
    )
    recs = res.log.records_for(requirement="R0")
    assert [(r.stage, r.action) for r in recs] == [(1, "case-0")]
    assert recs[0].details["witnesses"] == [0, 1]
    assert not res.table.related(0, 1, 3)


def test_stub_convergence_stage_gates_action():
    w = [(6, 1)]
    res = run_star_universal(
        uni_table(), {0: {0: entry(w, at=4), 1: entry([])}},
        base=6, levels=1, stages=6,
    )
    recs = res.log.records_for(requirement="R0")
    assert recs[0].stage == 4


def test_case_3b_frees_an_odd_pair():
    # exponents constant (zero) on evens, differing on the first two odds
    res = run_star_universal(
        uni_table(), {0: {0: entry([(7, 1)]), 1: entry([])}},
        base=6, levels=1, stages=3,
    )
    rec = res.log.records_for(requirement="R0")[0]
    assert rec.action == "case-3b"
    assert rec.details["layout"] == "standard"
    assert rec.details["freed"] == [7, 9]
    assert rec.details["collapsed"] == [8, 10]
    assert res.free_generators == {7, 9}
    assert res.table.related(0, 1, rec.stage)
    # the freed pair is mutually inverse from its stage on
    pres = res.presentation
    canon = res.log  # keep names close; canonical check below
    from ceerlab.groups import staged_abelian_wp
    assert staged_abelian_wp(pres, [(9, 1), (7, 1)], rec.stage) == ()


def test_case_3a_tail_layout():
    # evens 6..30 carry 1, even 32 carries 0: the differing pair is the
    # last two evens, so the block reaches back one odd generator
    w = [(g, 1) for g in range(6, 31, 2)]
    res = run_star_universal(
        uni_table(), {0: {0: entry(w), 1: entry([])}},
        base=6, levels=1, stages=3,
    )
    rec = res.log.records_for(requirement="R0")[0]
    assert rec.action == "case-3a"
    assert rec.details["layout"] == "tail"
    assert rec.details["freed"] == [30, 32]
    assert rec.details["collapsed"] == [29, 31]


def test_case_2_commit_and_restart_after_collapse():
    # R1 first settles on a level-1 word; the universal table then merges
    # levels 0 and 1, which restarts R1 on fresh witnesses
    stub = {
        0: entry([(6, 1)]), 1: entry([]),
        2: entry([(6, 1)]), 3: entry([]),
    }
    res = run_star_universal(
        uni_table(3, (0, 1, 4)), {1: stub}, base=6, levels=1, stages=6,
    )
    moves = [r for r in res.log.records if r.requirement != "init"]
    assert [(r.stage, r.requirement, r.action) for r in moves] == [
        (1, "R1", "case-2"),
        (4, "U", "collapse-level"),
        (5, "R1", "case-2"),
    ]
    first, collapse, second = moves
    assert first.details == {"witnesses": [0, 1], "top_level": 1}
    assert collapse.details["reinitialized"] == ["R1"]
    served = collapse.details["served"][0]
    assert served["pair"] == [0, 1]
    # six relators map onto level 0, the other 22 active generators die
    rhs_sizes = [len(r["rhs"]) for r in served["relators"]]
    assert rhs_sizes.count(1) == 6 and rhs_sizes.count(0) == 22
    assert second.details == {"witnesses": [2, 3], "top_level": 0}
    assert res.collapsed_levels == {1}
    assert res.table.related(0, 1, 1)
    assert res.table.related(2, 3, 5)
    assert level_words_equal_at(res.presentation, 6, 0, 1, 4)
    assert not level_words_equal_at(res.presentation, 6, 0, 1, 3)


def test_collapse_above_commitment_level_does_not_restart():
    # R0 commits inside level 0; merging levels 1 and 2 is outside its
    # [0, e]^2 window, so the commitment survives
    stub = {0: entry([(0, 1)]), 1: entry([])}
    res = run_star_universal(
        uni_table(3, (1, 2, 3)), {0: stub}, base=6, levels=2, stages=4,
    )
    moves = [r for r in res.log.records if r.requirement != "init"]
    assert [(r.requirement, r.action) for r in moves] == [
        ("R0", "case-2"), ("U", "collapse-level"),
    ]
    assert "reinitialized" not in moves[1].details
    assert res.table.related(0, 1, 4)


def test_shipped_timeline_base_ten():
    """Three-level run: a tie-break, an even freeing, a free-letter hit,
    then a universal collapse of level 1 onto level 0."""
    w0 = tuple((g, 1) for g in range(100, 998)) + ((10, 1),)
    phis = {
        0: {0: entry(w0), 1: entry([])},
        1: {2: entry([(10, 1)]), 3: entry([])},
    }
    res = run_star_universal(
        uni_table(3, (0, 1, 5)), phis, base=10, levels=2, stages=6,
    )
    moves = [
        (r.stage, r.requirement, r.action)
        for r in res.log.records if r.requirement != "init"
    ]
    assert moves == [
        (1, "R0", "case-3c"),
        (2, "R0", "case-3a"),
        (3, "R1", "case-1"),
        (5, "U", "collapse-level"),
    ]
    tie, free_even, free_hit, collapse = (
        r for r in res.log.records if r.requirement != "init"
    )
    assert tie.details["determined"] == [996, 997]
    assert tie.details["level"] == 2
    assert free_even.details["freed"] == [10, 12]
    assert free_even.details["collapsed"] == [11, 13]
    assert free_even.details["layout"] == "standard"
    assert free_hit.details["free_letters"] == [10]
    assert free_hit.details["witnesses"] == [2, 3]
    assert res.table.related(0, 1, 2) and not res.table.related(0, 1, 1)
    assert res.table.related(2, 3, 3)
    assert res.census(0, 6) == {
        "level": 8, "free": 0, "determined": 2, "collapsed": 0,
    }
    assert res.census(1, 6) == {
        "level": 0, "free": 2, "determined": 2, "collapsed": 86,
    }
    assert res.census(2, 6) == {
        "level": 896, "free": 0, "determined": 4, "collapsed": 0,
    }
    assert level_words_equal_at(res.presentation, res.base, 0, 1, 5)
    assert not level_words_equal_at(res.presentation, res.base, 0, 1, 4)
    assert not level_words_equal_at(res.presentation, res.base, 0, 2, 6)
    assert not level_words_equal_at(res.presentation, res.base, 1, 2, 6)


def test_tie_break_strictly_shrinks_the_active_level():
    w0 = tuple((g, 1) for g in range(100, 998)) + ((10, 1),)
    phis = {0: {0: entry(w0), 1: entry([])}}
    con = StarConstruction(uni_table(), phis, base=10, levels=2, stages=3)
    con.initialize()
    before = len(con.state.current[2])
    rec = con.step()
    assert rec.action == "case-3c"
    assert len(con.state.current[2]) == before - 2
    # the requirement stays live and re-dispatches next stage
    rec2 = con.step()
    assert rec2.requirement == "R0"
    assert rec2.action == "case-3a"


def test_witness_pool_is_bounded():
    con = StarConstruction(uni_table(), {}, base=6, levels=1, stages=1)
    assert con.state.take_witnesses() == (0, 1)
    assert con.state.take_witnesses() == (2, 3)
    with pytest.raises(BudgetError):
        for _ in range(10):
            con.state.take_witnesses()


def test_log_header_and_determinism():
    stub = {0: {0: entry([(7, 1)]), 1: entry([])}}

    def once():
        return run_star_universal(
            uni_table(3, (0, 1, 4)), stub, base=6, levels=1, stages=5,
        ).log.dumps()

    assert once() == once()
    res = run_star_universal(
        uni_table(3, (0, 1, 4)), stub, base=6, levels=1, stages=5,
    )
    params = res.log.header["params"]
    assert params["base"] == 6 and params["levels"] == 1
    assert params["universal"] == [[0, 1, 4]]


def _old_level_words_equal(pres, base, i, j, stage):
    """Level words i and j compared as fp_reduce(wi^-1 * wj) == 1."""
    product = FreeProduct({"G": StagedAbelianFactor(pres, stage),
                           "A": CyclicFactor(2)})

    def level_word(level):
        sylls = []
        for idx in level_letters(base, level):
            sylls += [("A", 1), ("G", ((idx, 1),))]
        return FreeProductWord(product, tuple(sylls))

    return fp_reduce(level_word(i).inverse() * level_word(j)).is_identity()


@pytest.mark.parametrize("overrides", [None, {"levels": 3, "base": 6}],
                         ids=["shipped", "levels-3-base-6"])
def test_level_words_equal_at_matches_the_joined_word(overrides):
    scenarios = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    if overrides is None:
        log = RunLog.load(os.path.join(scenarios,
                                       "star-universal-basic.log.jsonl"))
    else:
        scn = load_scenario(os.path.join(scenarios, "star-universal-basic.txt"))
        log = scn.run(overrides).log
    params = log.header["params"]
    base, levels = params["base"], params["levels"]
    pres = replay.star_presentation(log)
    verdicts = set()
    for s in replay.census_checkpoints(log):
        for i in range(levels + 1):
            for j in range(i, levels + 1):
                eq = level_words_equal_at(pres, base, i, j, s)
                assert eq == _old_level_words_equal(pres, base, i, j, s), (s, i, j)
                verdicts.add((i == j, eq))
    assert verdicts == {(True, True), (False, True), (False, False)}


LONG_PHI = """\
construction = star-universal
stages = 40
base = 10
levels = 3

[universal]
5: 0 1

[phi 0]
0: 0 xrange:1000:9998 x10
1: 0

[phi 1]
0..60/even: 0 x10
1..59/odd: 0
"""


def test_long_phi_word_at_levels_three():
    """An 8,999-letter witness word over level 3: the case analysis scans
    its exponents once per parity, not once per generator."""
    res = parse_scenario(LONG_PHI).run()
    moves = [(r.stage, r.requirement, r.action)
             for r in res.log.records if r.requirement != "init"]
    assert moves == [(1, "R0", "case-3c"), (2, "R0", "case-3a"),
                     (3, "R1", "case-1"), (5, "U", "collapse-level")]
    assert res.log.records[4].details["determined"] == [9996, 9997]
    assert res.census(3, 40) == {
        "level": 8996, "free": 0, "determined": 4, "collapsed": 0,
    }
    assert parse_scenario(LONG_PHI).run().log.dumps() == res.log.dumps()
