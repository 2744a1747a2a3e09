"""Column-coding construction: column choice, catch-up copying, restraints."""
import random

from ceerlab.ceers import CeerTable, FunctionalStub, StageSet
from ceerlab.pairing import pair
from ceerlab.scenario import parse_scenario
from ceerlab.sigma3 import run_sigma3_ceer
from helpers import records_for


def universal(bound, *pairs_at):
    uni = CeerTable(bound=bound)
    for a, b, s in pairs_at:
        uni.assert_pair(a, b, s)
    return uni


def trigger(*stages):
    return StageSet([(i, s) for i, s in enumerate(stages)])


def column_pairs(res, j, stage):
    """Related pairs (a, b), a < b, inside join column j at a stage."""
    bound = res.log.header["params"]["universal_bound"]
    return {(a, b) for a in range(bound) for b in range(a + 1, bound)
            if res.table.related(pair(j, a), pair(j, b), stage)}


def test_default_stage_count_is_one_hundred():
    """A sigma3 scenario with no `stages` line, and a direct call with no
    stage count, both run 100 stages."""
    res = parse_scenario("construction = sigma3\n[universal]\n1: 0 1\n").run()
    assert (res.stages, res.log.header["params"]["stages"]) == (100, 100)
    assert run_sigma3_ceer({}, universal(2), {}).stages == 100


def test_first_coder_takes_column_zero():
    uni = universal(2, (0, 1, 1))
    res = run_sigma3_ceer({0: trigger(1)}, uni, {}, stages=2)
    assert res.columns == {0: 0}
    rec = res.log.records[0]
    assert (rec.stage, rec.requirement, rec.action) == (1, "C0", "choose-column")
    assert rec.details["column"] == 0
    assert rec.details["pairs_copied"] == 1
    assert res.table.related(pair(0, 0), pair(0, 1), 1)


def test_coders_avoid_used_columns():
    uni = universal(2, (0, 1, 1))
    res = run_sigma3_ceer({0: trigger(1), 1: trigger(2)}, uni, {}, stages=3)
    assert res.columns == {0: 0, 1: 1}


def test_column_choice_clears_live_restraint():
    # a live restraint with use 9 forces pair(j, 0) > 9, so j = 4
    uni = universal(2, (0, 1, 1))
    stub = FunctionalStub(0, converge_stage=1, use=9, required_pairs=())
    res = run_sigma3_ceer({1: trigger(2)}, uni, {0: stub}, stages=3)
    assert res.restraints[0] == 9
    assert res.columns == {1: 4}
    assert res.table.related(pair(4, 0), pair(4, 1), 2)


def test_copying_catches_up_with_universal():
    uni = universal(3, (0, 1, 1), (1, 2, 3))
    res = run_sigma3_ceer({0: trigger(1, 2, 3, 4, 5, 6)}, uni, {}, stages=6)
    recs = records_for(res.log, requirement="C0")
    assert [r.action for r in recs] == ["choose-column"] + ["copy-column"] * 5
    # the stage-3 copy adds one pair; closure supplies the third
    assert [r.details["pairs_copied"] for r in recs] == [1, 0, 1, 0, 0, 0]
    for s in (1, 2):
        assert column_pairs(res, 0, s) == {(0, 1)}
    for s in range(3, 7):
        assert column_pairs(res, 0, s) == {(0, 1), (0, 2), (1, 2)}


def test_restraint_injury_forces_new_column():
    uni = universal(2, (0, 1, 1))
    stub = FunctionalStub(0, converge_stage=5, use=20, required_pairs=())
    res = run_sigma3_ceer({1: trigger(1, 7)}, uni, {0: stub}, stages=8)
    timeline = [(r.stage, r.requirement, r.action) for r in res.log.records]
    assert timeline == [
        (1, "C1", "choose-column"),
        (5, "L0", "place-restraint"),
        (7, "C1", "choose-column"),
    ]
    restraint = res.log.records[1]
    assert restraint.details["use"] == 20
    assert restraint.details["reinitialized"] == ["C1", "L1"]
    # pair(6, 0) = 21 is the first column code above the restraint
    assert res.columns[1] == 6
    assert res.table.related(pair(6, 0), pair(6, 1), 7)


def test_stub_waits_for_pairs_in_the_join_table():
    # the functional's oracle pairs are codes of the coded column, so it
    # cannot halt until the coder has copied the universal pair
    uni = universal(2, (0, 1, 1))
    stub = FunctionalStub(1, converge_stage=1, use=9,
                          required_pairs=((pair(0, 0), pair(0, 1)),))
    res = run_sigma3_ceer({0: trigger(2)}, uni, {1: stub}, stages=4)
    timeline = [(r.stage, r.requirement, r.action) for r in res.log.records]
    assert timeline == [
        (2, "C0", "choose-column"),
        (3, "L1", "place-restraint"),
    ]
    assert res.restraints[1] == 9
    # the empty slot above was reinitialized along the way
    assert res.restraints.get(0) is None


def test_restraint_only_reannounced_on_change():
    stub = FunctionalStub(0, converge_stage=2, use=7, required_pairs=())
    res = run_sigma3_ceer({}, universal(1), {0: stub}, stages=6)
    recs = records_for(res.log, requirement="L0")
    assert [r.stage for r in recs] == [2]
    assert res.restraints == {0: 7}


def test_join_table_bound_covers_the_column_walk():
    uni = universal(2, (0, 1, 1))
    stub = FunctionalStub(0, converge_stage=1, use=9, required_pairs=())
    res = run_sigma3_ceer({1: trigger(2)}, uni, {0: stub}, stages=3)
    assert res.log.header["params"]["join_bound"] == res.table.bound
    assert res.table.bound > pair(4, uni.bound - 1)
    assert res.log.header["params"]["universal_bound"] == 2


def test_shipped_style_walk_respects_growing_restraint():
    # the coder below a restraint strategy re-chooses after each injury,
    # never reusing a column and always clearing the current ceiling
    uni = universal(2, (0, 1, 1))
    stub = FunctionalStub(
        0, converge_stage=3, use=9,
        required_pairs=((pair(0, 0), pair(0, 1)),),
    )
    res = run_sigma3_ceer(
        {0: trigger(1), 1: trigger(2, 5, 8)}, uni, {0: stub}, stages=9,
    )
    chooses = [
        r for r in records_for(res.log, requirement="C1")
        if r.action == "choose-column"
    ]
    cols = [r.details["column"] for r in chooses]
    assert cols[0] == 1
    assert cols == sorted(set(cols))
    assert all(pair(j, 0) > 9 for j in cols[1:])
    assert res.columns[1] == cols[-1]


def copy_by_scan(table, uni, j, stage):
    """The column copy as a scan of every universal pair (a, b), a < b,
    related at the stage; the construction walks the universal pairs
    instead.  Returns the number of pairs it asserts."""
    copied = 0
    for a in range(uni.bound):
        for b in range(a + 1, uni.bound):
            if not uni.related(a, b, stage):
                continue
            ca, cb = pair(j, a), pair(j, b)
            if not table.related(ca, cb, stage):
                table.assert_pair(ca, cb, stage)
                copied += 1
    return copied


def test_copy_counts_and_columns_match_a_scan_of_every_pair():
    rng = random.Random(53)
    for trial in range(30):
        ubound = rng.randint(1, 9)
        uni = CeerTable(bound=ubound)
        stage = 0
        for _ in range(rng.randint(0, 10)):
            stage += rng.randint(0, 3)
            uni.assert_pair(rng.randrange(ubound), rng.randrange(ubound), stage)
        stages = stage + rng.randint(1, 6)
        triggers = {k: trigger(*sorted(rng.randint(0, stages)
                                       for _ in range(rng.randint(1, 6))))
                    for k in range(rng.randint(1, 3))}
        stubs = {m: FunctionalStub(m, converge_stage=rng.randint(0, stages),
                                   use=rng.randint(0, 30))
                 for m in range(rng.randint(0, 2))}
        res = run_sigma3_ceer(triggers, uni, stubs, stages=stages)
        # the scan, replayed on the log's (column, stage) sequence
        shadow = CeerTable(bound=res.table.bound)
        for rec in res.log.records:
            if rec.requirement.startswith("C"):
                copied = copy_by_scan(shadow, uni, rec.details["column"],
                                      rec.stage)
                assert copied == rec.details["pairs_copied"], (trial, rec)
        for j in {rec.details["column"] for rec in res.log.records
                  if rec.requirement.startswith("C")}:
            for s in range(stages + 1):
                for a in range(ubound):
                    for b in range(a + 1, ubound):
                        ca, cb = pair(j, a), pair(j, b)
                        assert (res.table.related(ca, cb, s)
                                == shadow.related(ca, cb, s)), (trial, j, s)


def test_huge_universal_bound_copies_only_named_pairs():
    uni = universal(10 ** 11, (0, 1, 1), (1, 5, 3))
    res = run_sigma3_ceer({0: trigger(1, 3)}, uni, {}, stages=4)
    assert [r.details["pairs_copied"] for r in res.log.records] == [1, 1]
    assert res.table.related(pair(0, 0), pair(0, 5), 3)
    assert not res.table.related(pair(0, 0), pair(0, 2), 4)
