"""Level-word construction: init layout, case dispatch, collapses, budget."""
import os
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceerlab import groups as groups_module
from ceerlab import indexset, replay
from ceerlab import star as star_module
from ceerlab.ceers import CeerTable, StageSet
from ceerlab.engine import ActionRecord, RunLog
from ceerlab.groups import (
    CyclicFactor,
    FreeProduct,
    FreeProductWord,
    StagedPresentation,
    _to_vec,
    fp_reduce,
    staged_abelian_wp,
)
from ceerlab.indexset import run_sug_indexset
from ceerlab.scenario import load_scenario, parse_scenario
from ceerlab.star import (
    BudgetError,
    _CollapseCoding,
    PhiEntry,
    StarConstruction,
    apply_record,
    check_size,
    level_forms,
    level_letters,
    run_star_universal,
)
from helpers import (
    StagedAbelianFactor,
    expand_form,
    free_generators,
    level_normal_form,
    level_words_equal_at,
    rebuild,
    records_for,
    reference_level_forms,
)


def uni_table(bound=3, *pairs_at):
    t = CeerTable(bound=bound)
    for a, b, s in pairs_at:
        t.assert_pair(a, b, s)
    return t


def entry(word, at=0):
    return PhiEntry(at, tuple(word))


def test_level_letters_ranges():
    assert level_letters(10, 0) == range(10)
    assert level_letters(10, 1) == range(10, 100)
    assert level_letters(6, 2) == range(36, 216)
    assert isinstance(level_letters(6, 2), range)


def test_initialization_pins_two_leads_per_level():
    con = StarConstruction(uni_table(), {}, base=10, levels=2, stages=1)
    recs = con.log.records
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
    assert con.step() is None  # nothing is ready: stage 1 logs nothing
    assert len(con.log.records) == 3


def test_generator_ceiling():
    check_size(10, 4)  # 100,000 generators: at the ceiling
    check_size(6, 5)
    with pytest.raises(ValueError, match="reserve budget fails at level 0"):
        check_size(2, 15)  # under the ceiling, but its reserve runs dry
    for base, levels in [(10, 5), (2, 16), (100_002, 0), (10, 10 ** 12)]:
        with pytest.raises(ValueError, match="above the ceiling 100000"):
            check_size(base, levels)
    with pytest.raises(ValueError, match="base must be"):
        check_size(1, 10 ** 12)
    with pytest.raises(ValueError, match="base must be"):
        check_size(7, 1)
    with pytest.raises(ValueError, match="^levels must be a nonnegative"):
        check_size(6, -1)


def test_parameter_validation():
    with pytest.raises(ValueError):
        StarConstruction(uni_table(), {}, base=5, levels=1)
    with pytest.raises(ValueError):
        StarConstruction(uni_table(), {}, base=2, levels=1)
    phis = {0: {0: entry([(9999, 1)]), 1: entry([])}}
    with pytest.raises(ValueError):
        StarConstruction(uni_table(), phis, base=6, levels=1)
    # a row's arguments share one entry, checked once; the message still
    # names the first argument of the row that fails
    good, bad = entry([(6, 1)]), entry([(7, 1), (36, 1)])
    phis = {0: {0: good, 2: good, 4: good, 1: bad, 3: bad}}
    with pytest.raises(ValueError, match=r"^phi_0\(1\) mentions x36, outside "
                       "the 36-generator presentation$"):
        StarConstruction(uni_table(), phis, base=6, levels=1)


def test_diag_requirements_keep_the_stub_they_are_given():
    phis = {0: {0: entry([(7, 1)]), 1: entry([])}, 2: {0: entry([])}}
    con = StarConstruction(uni_table(), phis, base=6, levels=1, stages=3)
    assert [req.e for req in con.state.diag] == [0, 1, 2]
    assert con.state.diag[0].stub is phis[0]
    assert con.state.diag[2].stub is phis[2]


def test_sug_group_slots_share_one_stub(monkeypatch):
    built = []

    def capture(*args, **kwargs):
        built.append(StarConstruction(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(indexset, "StarConstruction", capture)
    phis = {0: {0: entry([(6, 1)]), 1: entry([])}}
    universal = uni_table()
    res = run_sug_indexset(
        {0: StageSet([(0, 1)]), 1: StageSet([(0, 2)])}, {}, CeerTable(bound=5),
        {}, universal, phis, star_base=6, star_levels=1, stages=3)
    assert len(res.group_slots) == len(built) == 2
    for con in built:
        (req,) = con.state.diag
        assert req.stub is phis[0]
        assert con.state.universal is universal


def test_case_0_identical_words_stay_unrelated():
    w = [(6, 1), (8, 1)]
    res = run_star_universal(
        uni_table(), {0: {0: entry(w), 1: entry(w)}}, base=6, levels=1, stages=3,
    )
    recs = records_for(res.log, requirement="R0")
    assert [(r.stage, r.action) for r in recs] == [(1, "case-0")]
    assert recs[0].details["witnesses"] == [0, 1]
    assert not res.table.related(0, 1, 3)


def test_stub_convergence_stage_gates_action():
    w = [(6, 1)]
    res = run_star_universal(
        uni_table(), {0: {0: entry(w, at=4), 1: entry([])}},
        base=6, levels=1, stages=6,
    )
    recs = records_for(res.log, requirement="R0")
    assert recs[0].stage == 4


def test_case_3b_frees_an_odd_pair():
    # exponents constant (zero) on evens, differing on the first two odds
    res = run_star_universal(
        uni_table(), {0: {0: entry([(7, 1)]), 1: entry([])}},
        base=6, levels=1, stages=3,
    )
    rec = records_for(res.log, requirement="R0")[0]
    assert rec.action == "case-3b"
    assert rec.details["layout"] == "standard"
    assert rec.details["freed"] == [7, 9]
    assert rec.details["collapsed"] == [8, 10]
    assert free_generators(res) == {7, 9}
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
    rec = records_for(res.log, requirement="R0")[0]
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


def polled_collapses(universal, levels, stages):
    """The poll the collapse schedule replaced: from stage 1 on, ask the
    universal table about every level pair not yet queued, in (i, j) order.
    Returns the queued pairs as (stage, i, j)."""
    top = min(levels, universal.bound - 1)
    known, queued = set(), []
    for stage in range(1, stages + 1):
        for i in range(top + 1):
            for j in range(i + 1, top + 1):
                if (i, j) not in known and universal.related(i, j, stage):
                    known.add((i, j))
                    queued.append((stage, i, j))
    return queued


def scheduled_collapses(universal, levels, stages):
    """The pairs the collapse requirement queues, stage by stage, as
    (stage, i, j); every level still holds a generator, so none is idle."""
    pres = SimpleNamespace(census_at=lambda level, stage: {"level": 1})
    coding = _CollapseCoding(SimpleNamespace(universal=universal, pres=pres),
                             levels)
    queued = []
    for stage in range(1, stages + 1):
        seen = len(coding.queue)
        coding.ready(stage)
        queued += [(stage, i, j) for i, j in coding.queue[seen:]]
    return queued


@pytest.mark.parametrize("levels,pairs,bound,expected", [
    # related at stage 0, due at stage 1; level 3 lies outside the table
    (3, [(0, 2, 0), (2, 1, 3)], 3, [(1, 0, 2), (3, 0, 1), (3, 1, 2)]),
    # levels 0 and 1 meet only through index 5, past the top level
    (2, [(0, 5, 2), (5, 1, 4)], 6, [(4, 0, 1)]),
    # a table with no pairs relates no two levels
    (2, [], 4, []),
], ids=["stage-0-and-bound-below-levels", "transitive", "never"])
def test_collapse_schedule_cases(levels, pairs, bound, expected):
    uni = uni_table(bound, *pairs)
    assert polled_collapses(uni, levels, 6) == expected
    assert scheduled_collapses(uni, levels, 6) == expected


def test_collapse_schedule_matches_polling_on_random_tables():
    rng = random.Random(19)
    seen = set()
    for _ in range(300):
        levels = rng.randint(1, 6)
        uni = CeerTable(bound=rng.randint(1, levels + 4))
        stage = 0
        for _ in range(rng.randint(0, 2 * uni.bound)):
            stage += rng.choice((0, 0, 1, 3))
            uni.assert_pair(rng.randrange(uni.bound), rng.randrange(uni.bound),
                            stage)
        polled = polled_collapses(uni, levels, stage + 2)
        assert scheduled_collapses(uni, levels, stage + 2) == polled
        direct = {(min(a, b), max(a, b)) for a, b, _ in uni.pairs}
        top = min(levels, uni.bound - 1)
        seen.add("bound-below-levels" if top < levels else "bound-above")
        seen.update("transitive" if (i, j) not in direct else "direct"
                    for _, i, j in polled)
        if any(uni.first_related_stage(i, j) == 0 for _, i, j in polled):
            seen.add("stage-0")
        if len(polled) < top * (top + 1) // 2:
            seen.add("never")
    assert seen == {"bound-below-levels", "bound-above", "transitive",
                    "direct", "stage-0", "never"}


@pytest.mark.parametrize("name", ["star-universal-basic.txt", "sug-basic.txt"])
def test_runs_never_poll_the_universal_table(name, monkeypatch):
    calls = []
    related = CeerTable.related

    def counted(self, a, b, stage):
        calls.append((a, b, stage))
        return related(self, a, b, stage)

    monkeypatch.setattr(CeerTable, "related", counted)
    scenarios = os.path.join(os.path.dirname(__file__), "..", "scenarios")
    load_scenario(os.path.join(scenarios, name)).run()
    assert calls == []


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
    before = len(con.state.active(2))
    rec = con.step()
    assert rec.action == "case-3c"
    assert len(con.state.active(2)) == before - 2
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
    pres = rebuild(log).presentation
    verdicts = set()
    for s in replay.census_checkpoints(log):
        for i in range(levels + 1):
            for j in range(i, levels + 1):
                eq = level_words_equal_at(pres, base, i, j, s)
                assert eq == _old_level_words_equal(pres, base, i, j, s), (s, i, j)
                verdicts.add((i == j, eq))
    assert verdicts == {(True, True), (False, True), (False, False)}


# -- sparse level forms against the letter-by-letter reference ------------


def forms_by_stage(pres, base, levels, stages):
    """Each stage's sparse level forms, checked against `level_normal_form`
    for every level."""
    result = SimpleNamespace(presentation=pres, base=base, levels=levels)
    out = {}
    for point, forms in level_forms(result, stages):
        for j, form in enumerate(forms):
            assert (expand_form(form)
                    == level_normal_form(pres, base, j, point)), (point, j)
        out[point] = forms
    return out


def presentation(ngens, relations):
    pres = StagedPresentation(ngens=ngens)
    for lhs, rhs, stage in relations:
        pres.add_relation(lhs, rhs, stage)
    return pres


A = ("A", 1)


def test_sparse_form_of_a_trivial_first_or_last_letter():
    # base 4: level 0 is x0..x3, level 1 is x4..x15
    pres = presentation(16, [(4, (), 1), (15, (), 2), (0, (), 3), (3, (), 3)])
    forms = forms_by_stage(pres, 4, 1, range(5))
    assert forms[0] == ((range(0, 4),), (range(4, 16),))
    # A 1 A x5 ... cancels the two A's: the form opens with a G syllable
    assert forms[1][1] == (("G", ((5, 1),)), range(6, 16))
    # ... A x14 A 1 leaves one A at the end
    assert forms[2][1] == (("G", ((5, 1),)), range(6, 15), A)
    assert forms[3][0] == (("G", ((1, 1),)), range(2, 3), A)


def test_sparse_form_of_a_cascade():
    """Adjacent letters x12 and x13 = x12^-1 keep the A between them.  But
    x10 = 1 lets x9 and x11 = x9^-1 meet and cancel, so x8 and x12 merge;
    once x12 = x8^-1 they cancel too, and the cascade leaves x7 and x13
    in one syllable."""
    pres = presentation(16, [(13, ((12, -1),), 1)])
    assert forms_by_stage(pres, 4, 1, range(2))[1][1] == (
        range(4, 13), A, ("G", ((12, -1),)), range(14, 16))
    pres = presentation(16, [(10, (), 1), (11, ((9, -1),), 1),
                             (12, ((8, -1),), 2)])
    forms = forms_by_stage(pres, 4, 1, range(3))
    assert forms[1][1] == (range(4, 8), A, ("G", ((8, 1), (12, 1))),
                           range(13, 16))
    assert forms[2][1] == (range(4, 7), A, ("G", ((7, 1), (13, 1))),
                           range(14, 16))
    # a cascade that leaves one A at the end of a level, and a merge of a
    # run's last letter with a longer word
    pres = presentation(16, [(2, (), 1), (3, ((1, -1),), 1),
                             (6, (), 1), (7, ((5, -1), (0, 2)), 1)])
    forms = forms_by_stage(pres, 4, 1, range(2))
    assert forms[1] == ((range(0, 1), A), (range(4, 5), A,
                                           ("G", ((0, 2),)), range(8, 16)))


def test_sparse_form_of_a_collapsed_level_equals_its_target():
    """Level 1 mapped one-for-one onto level 0 and the rest killed: its
    single-letter syllables fold into the runs of level 0's form, and the
    lead relator x3 = x1^-1 of level 0 is carried to the image of x7."""
    lead = [(3, ((1, -1),), 0)]
    collapse = [(4 + k, ((k, 1),), 2) for k in range(4)]
    collapse += [(k, (), 2) for k in range(8, 16)]
    pres = presentation(16, lead + collapse)
    forms = forms_by_stage(pres, 4, 1, range(3))
    assert forms[1][0] == (range(0, 3), A, ("G", ((1, -1),)))
    assert forms[1][0] != forms[1][1]
    assert forms[2][0] == forms[2][1] == forms[1][0]


@st.composite
def triangular_streams(draw):
    """A presentation of two or three small levels and a stream of
    triangular relations in stage order: kills, maps onto one of the four
    letters just below (often inverse, so cascades happen) and short words."""
    base, levels = draw(st.sampled_from(((2, 1), (2, 2), (4, 1))))
    ngens = base ** (levels + 1)
    relations, stage = [], 0
    for lhs in draw(st.lists(st.integers(0, ngens - 1), unique=True,
                             max_size=ngens)):
        stage += draw(st.integers(0, 1))
        kind = draw(st.sampled_from(("kill", "map", "word"))) if lhs else "kill"
        if kind == "kill":
            rhs = ()
        elif kind == "map":
            rhs = ((lhs - draw(st.integers(1, min(lhs, 4))),
                    draw(st.sampled_from((1, -1)))),)
        else:
            rhs = tuple(draw(st.lists(st.tuples(
                st.integers(0, lhs - 1), st.integers(-2, 2)), max_size=3)))
        relations.append((lhs, rhs, stage))
    return base, levels, relations


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(triangular_streams())
def test_sparse_forms_match_the_reference_on_random_streams(stream):
    base, levels, relations = stream
    pres = presentation(base ** (levels + 1), relations)
    forms_by_stage(pres, base, levels, range(relations[-1][2] + 2
                                             if relations else 1))


@pytest.mark.parametrize("levels,base", [(3, 6), (3, 10)])
def test_sparse_forms_match_the_reference_on_star_scale_logs(levels, base):
    scn = load_scenario(os.path.join(os.path.dirname(__file__), "..",
                                     "scenarios", "star-universal-basic.txt"))
    log = scn.run({"levels": levels, "base": base}).log
    result = rebuild(log)
    forms = forms_by_stage(result.presentation, base, levels,
                           replay.census_checkpoints(log))
    assert len(forms) == 6


# -- level forms by substitution against the re-reducing reference --------


SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def star_log(levels=None, base=None):
    """The shipped star log, or the star scenario's log at a scale, with
    its replayed result and census checkpoints."""
    if levels is None:
        log = RunLog.load(os.path.join(SCENARIOS,
                                       "star-universal-basic.log.jsonl"))
    else:
        scn = load_scenario(os.path.join(SCENARIOS, "star-universal-basic.txt"))
        log = scn.run({"levels": levels, "base": base}).log
    return rebuild(log), replay.census_checkpoints(log)


STAR_LOGS = {"shipped": (), "levels-3-base-6": (3, 6),
             "levels-3-base-10": (3, 10), "levels-4-base-10": (4, 10)}


@pytest.mark.parametrize("name", sorted(STAR_LOGS))
def test_level_forms_match_the_re_reducing_reference_on_star_logs(name):
    result, points = star_log(*STAR_LOGS[name])
    got = list(level_forms(result, points))
    assert got == list(reference_level_forms(result, points))
    assert [point for point, _ in got] == list(points)


@pytest.mark.parametrize("name", sorted(STAR_LOGS))
def test_level_forms_make_no_staged_abelian_wp_call_on_star_logs(
        name, monkeypatch):
    """Every relator a star run logs has a canonical right-hand side, so
    carrying vectors by substitution never asks for a normal form."""
    result, points = star_log(*STAR_LOGS[name])
    calls = []

    def counted(*args):
        calls.append(args)
        return staged_abelian_wp(*args)

    monkeypatch.setattr(star_module, "staged_abelian_wp", counted)
    monkeypatch.setattr(groups_module, "staged_abelian_wp", counted)
    assert len(list(level_forms(result, points))) == len(points)
    assert calls == []
    star_module.staged_abelian_wp(result.presentation, (), 0)
    assert len(calls) == 1  # the counter is live where `star` looks


def seeded_relation_stream(rng, ngens):
    """Triangular relations on half of `ngens` letters in a shuffled order,
    in stage order: right-hand sides of up to four letters below the
    left-hand side, shuffled, with exponents from -2 to 2 and repeats, and
    a quarter of them x_k times the inverse of x_k's own right-hand side,
    which cancels to empty."""
    relations, stage, defined = [], 0, {}
    for lhs in rng.sample(range(1, ngens), ngens // 2):
        stage += rng.randrange(2)
        older = [k for k in defined if k < lhs]
        if older and rng.random() < 0.25:
            k = rng.choice(older)
            rhs = [(k, 1)] + [(i, -e) for i, e in defined[k]]
        else:
            rhs = [(rng.randrange(lhs), rng.choice((-2, -1, 0, 1, 2)))
                   for _ in range(rng.randint(0, 4))]
            rhs += rhs[:rng.randrange(2)]
        rng.shuffle(rhs)
        defined[lhs] = rhs
        relations.append((lhs, tuple(rhs), stage))
    return relations


def test_level_forms_match_the_reference_on_seeded_streams():
    seen = set()
    for seed in range(30):
        rng = random.Random(seed)
        base, levels = rng.choice(((2, 2), (4, 1), (4, 2)))
        relations = seeded_relation_stream(rng, base ** (levels + 1))
        pres = presentation(base ** (levels + 1), relations)
        points = range(relations[-1][2] + 2)
        forms_by_stage(pres, base, levels, points)
        result = SimpleNamespace(presentation=pres, base=base, levels=levels)
        assert (list(level_forms(result, points))
                == list(reference_level_forms(result, points))), seed
        later = {lhs: stage for lhs, _, stage in relations}
        for _, rhs, stage in relations:
            letters = [i for i, _ in rhs]
            seen.update(
                case for case, hit in [
                    ("unsorted", letters != sorted(letters)),
                    ("repeated", len(set(letters)) < len(letters)),
                    ("zero exponent", any(e == 0 for _, e in rhs)),
                    ("left-hand side later",
                     any(later.get(i, -1) > stage for i in letters)),
                    ("cancels to empty", bool(_to_vec(rhs))
                     and not staged_abelian_wp(pres, rhs, stage)),
                ] if hit)
    assert seen == {"unsorted", "repeated", "zero exponent",
                    "left-hand side later", "cancels to empty"}


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


def test_apply_record_refuses_a_level_outside_the_presentation():
    result = replay.start(RunLog({"construction": "star-universal", "params": {
        "base": 10, "levels": 2, "stages": 1, "universal": [],
        "universal_bound": 3}}))
    pres = result.presentation
    assert pres.ngens == 10 ** 3
    for level in (-1, 3, 10 ** 9):
        record = ActionRecord(0, "init", "init", "init-level",
                              {"level": level, "relators": []})
        with pytest.raises(ValueError, match=(
                f"init-level record names level {level}, outside the "
                "1000-generator presentation")):
            apply_record(result, record)
    assert pres.status == {} and pres.levels == {}
    apply_record(result, ActionRecord(0, "init", "init", "init-level",
                                      {"level": 2, "relators": []}))
    assert pres.census_at(2, 0)["level"] == 900
