"""Slot-filling construction: embedded groups, pair coding, restraints."""
from ceerlab.ceers import CeerTable, StageSet
from ceerlab.indexset import SumFunctionalStub, run_sug_indexset
from ceerlab.star import PhiEntry, StarConstruction
from helpers import records_for


def stageset(*stages):
    return StageSet([(i, s) for i, s in enumerate(stages)])


def star_uni():
    t = CeerTable(bound=3)
    t.assert_pair(0, 1, 4)
    return t


STAR_PHIS = {0: {0: PhiEntry(0, ((6, 1),)), 1: PhiEntry(0, ())}}


def coded(*pairs_at):
    t = CeerTable(bound=5)
    for a, b, s in pairs_at:
        t.assert_pair(a, b, s)
    return t


def run(v, u, coded_uni=None, stubs=None, stages=12):
    return run_sug_indexset(
        v_columns=v,
        u_columns=u,
        coded=coded_uni if coded_uni is not None else coded(),
        sum_functionals=stubs or {},
        star_universal=star_uni(),
        star_phis=STAR_PHIS,
        star_base=6,
        star_levels=1,
        stages=stages,
    )


def test_declare_abelian_comes_first():
    res = run({}, {}, stages=2)
    rec = res.log.records[0]
    assert (rec.stage, rec.requirement, rec.action) == (0, "init", "declare-abelian")
    assert "abelian" in rec.details["note"]


def test_embedded_star_matches_standalone_run():
    res = run({1: stageset(1, 2, 3, 4)}, {}, stages=5)
    recs = records_for(res.log, requirement="C1")
    assert [r.action for r in recs] == ["open-slot"] + ["advance-slot"] * 3
    assert all(r.details["slot"] == "g0" for r in recs)

    twin = StarConstruction(star_uni(), STAR_PHIS, base=6, levels=1, stages=5)
    init_records = [r.to_obj() for r in twin.log.records]
    assert recs[0].details["inner"] == init_records
    for i, rec in enumerate(recs[1:], start=1):
        step = twin.step()
        expected = [step.to_obj()] if step is not None else []
        assert rec.details["inner"] == expected
        assert rec.details["inner_stage"] == i
    assert res.assignments["C1"] == "g0"
    assert recs[-1].details["inner_stage"] == 3
    slot = res.group_slots["g0"].presentation
    assert slot.relations == twin.result.presentation.relations


def test_pair_coder_copies_the_listed_prefix_in_order():
    uni = coded((0, 1, 1), (2, 3, 2), (1, 4, 3))
    res = run({1: stageset(1, 2, 3, 4)}, {0: stageset(*range(1, 10))},
              coded_uni=uni, stages=12)
    # D1 watches v1 and u0 but only runs once C1 stops eating stages
    recs = records_for(res.log, requirement="D1")
    assert [(r.stage, r.action) for r in recs] == [
        (5, "open-slot"), (6, "code-pair"), (7, "code-pair"),
    ]
    assert [r.details["pair"] for r in recs] == [[0, 1], [2, 3], [1, 4]]
    assert all(r.details["watches"] == [1, 0] for r in recs)
    table = res.table_slots["h0"]
    assert table.pairs == ((0, 1, 5), (2, 3, 6), (1, 4, 7))
    # exhausted coders never act again even though both columns keep growing
    assert all(r.stage <= 7 for r in recs)


def test_slot_choice_avoids_live_restraints():
    stubs = {0: SumFunctionalStub(0, converge_stage=1, use=40,
                                  slots=("g0", "h0"))}
    uni = coded((0, 1, 1))
    res = run({1: stageset(2, 3)}, {0: stageset(1, 2, 3, 4)},
              coded_uni=uni, stubs=stubs, stages=6)
    assert res.restraints[0] == ("g0", "h0")
    assert res.assignments["C1"] == "g1"
    assert res.assignments["D1"] == "h1"
    l0 = records_for(res.log, requirement="L0")[0]
    assert l0.stage == 1
    assert l0.details["use"] == 40
    assert l0.details["slots"] == ["g0", "h0"]


def test_restraint_injury_moves_later_work_to_fresh_slots():
    stubs = {0: SumFunctionalStub(0, converge_stage=6, use=40, slots=("g9",))}
    uni = coded((0, 1, 1), (2, 3, 2))
    res = run({1: stageset(1, 2, 3, 8, 9)}, {0: stageset(*range(1, 11))},
              coded_uni=uni, stubs=stubs, stages=10)
    moves = [(r.stage, r.requirement, r.action, r.details.get("slot"))
             for r in res.log.records if r.requirement != "init"]
    assert moves == [
        (1, "C1", "open-slot", "g0"),
        (2, "C1", "advance-slot", "g0"),
        (3, "C1", "advance-slot", "g0"),
        (4, "D1", "open-slot", "h0"),
        (5, "D1", "code-pair", "h0"),
        (6, "L0", "place-restraint", None),
        (7, "D1", "open-slot", "h1"),
        (8, "C1", "open-slot", "g1"),
        (9, "C1", "advance-slot", "g1"),
        (10, "D1", "open-slot", "h2"),
    ]
    l0 = records_for(res.log, requirement="L0")[0]
    assert l0.details["reinitialized"] == ["D0", "C1", "L1", "D1"]
    # the group builder's restart at 8 knocks the coder out of h1 as well,
    # so the coded prefix starts over in h2; abandoned slots survive for
    # the record and assignments track the replacements
    assert set(res.group_slots) == {"g0", "g1"}
    assert set(res.table_slots) == {"h0", "h1", "h2"}
    assert res.assignments == {"C1": "g1", "D1": "h2"}
    assert res.table_slots["h0"].pairs == ((0, 1, 4), (2, 3, 5))
    assert res.table_slots["h1"].pairs == ((0, 1, 7),)
    assert res.table_slots["h2"].pairs == ((0, 1, 10),)


def test_group_builder_ignores_and_clears_lower_restraints():
    # slot choice only respects restraints of strictly higher priority:
    # C0 takes g0 even though L0 named it, and the injury re-places L0
    stubs = {0: SumFunctionalStub(0, converge_stage=1, use=7, slots=("g0",))}
    res = run({0: stageset(3)}, {}, stubs=stubs, stages=4)
    moves = [(r.stage, r.requirement, r.action)
             for r in res.log.records if r.requirement != "init"]
    assert moves == [
        (1, "L0", "place-restraint"),
        (3, "C0", "open-slot"),
        (4, "L0", "place-restraint"),
    ]
    open_rec = records_for(res.log, requirement="C0")[0]
    assert open_rec.details["slot"] == "g0"
    assert open_rec.details["reinitialized"] == ["L0", "D0"]
    assert res.restraints[0] == ("g0",)


def test_deterministic_log():
    def once():
        uni = coded((0, 1, 1), (2, 3, 2))
        stubs = {0: SumFunctionalStub(0, converge_stage=6, use=40,
                                      slots=("g9",))}
        return run({1: stageset(1, 2, 3, 8, 9)}, {0: stageset(*range(1, 11))},
                   coded_uni=uni, stubs=stubs, stages=10).log.dumps()

    assert once() == once()


def test_header_params():
    res = run({}, {}, stages=3)
    params = res.log.header["params"]
    assert params == {
        "stages": 3, "star_base": 6, "star_levels": 1, "coded_bound": 5,
    }
    assert res.params["coded_bound"] == 5
