"""Dark quotient constructions: banking, collapse, audit, injury."""
import json
from fractions import Fraction

import pytest

from ceerlab.algebra import HorizonError, Monomial, Poly
from ceerlab.ceers import StageSet
from ceerlab.cli import main
from ceerlab.dark import run_dark
from helpers import records_for


def monomial_by_index(i):
    # global enumeration: degree blocks in order, 2^k words per degree
    deg = (i + 1).bit_length() - 1
    return Monomial(deg, i - ((1 << deg) - 1))


def monomial_stream(total, rate, p=2):
    return StageSet(
        [(Poly.monomial(monomial_by_index(i), p), i // rate) for i in range(total)]
    )


def trigger(*stages):
    return StageSet([(i, s) for i, s in enumerate(stages)])


@pytest.fixture(scope="module")
def ring_result():
    return run_dark(
        "ring",
        u_columns={0: trigger(1, 2)},
        w_columns={0: monomial_stream(2240, 32), 1: monomial_stream(2240, 32)},
        stages=70,
        maxdeg=16,
    )


@pytest.fixture(scope="module")
def group_result():
    m = Poly.monomial(Monomial(14, 0b01011), 2)  # x^10 y x y y
    f = Poly.parse("xx", 2)
    return run_dark(
        "group",
        u_columns={0: trigger(1, 2, 5)},
        w_columns={0: StageSet([(f, 3), (f + m, 3)])},
        stages=6,
        maxdeg=18,
        unit_exponent=11,
    )


class TestRingTimeline:
    """Two light strategies' worth of triggers plus two full word columns."""

    @pytest.fixture
    def result(self, ring_result):
        return ring_result

    def test_exactly_four_actions(self, result):
        recs = result.log.records
        assert [(r.stage, r.requirement, r.action) for r in recs] == [
            (1, "L0", "enumerate-witness"),
            (2, "L0", "enumerate-witness"),
            (64, "D0", "collapse-pair"),
            (65, "D1", "collapse-pair"),
        ]

    def test_banked_degrees_start_fresh(self, result):
        first, second = records_for(result.log, requirement="L0")
        assert first.details["degree"] == 1
        assert first.details["monomial"] == "x"
        assert first.details["protected"] == [1]
        assert second.details["degree"] == 2
        assert second.details["monomial"] == "xx"
        assert second.details["protected"] == [1, 2]
        assert result.protected[0] == [1, 2]
        assert [e["degree"] for e in result.transversals[0]] == [1, 2]

    def test_first_collapse_merges_first_degree_eleven_pair(self, result):
        # floor max(0+10, protected 2) = 10: everything above degree 10
        # vanishes in the truncated quotient, so the first agreeing pair
        # is the first two words of degree 11
        rec = records_for(result.log, requirement="D0")[0]
        assert rec.details["pair_indices"] == [2047, 2048]
        assert rec.details["degree_floor"] == 10
        assert rec.details["relator_degrees"] == [11]
        assert rec.details["reinitialized"] == ["L1", "D1"]

    def test_second_collapse_finds_already_merged_pair(self, result):
        # floor 11 keeps degree 11 visible, but the first collapse already
        # identified those two words, so the difference adds nothing new
        rec = records_for(result.log, requirement="D1")[0]
        assert rec.details["pair_indices"] == [2047, 2048]
        assert rec.details["degree_floor"] == 11
        assert rec.details["relator_degrees"] == []

    def test_collapse_witnesses_are_ideal_members(self, result):
        assert set(result.witnesses) == {0, 1}
        for w in result.witnesses.values():
            assert result.ideal.member(w["f"] - w["g"])
        assert result.witnesses[0]["degree_floor"] == 10
        assert [c.degree() for c in result.witnesses[0]["added"]] == [11]

    def test_audit_never_fails(self, result):
        assert result.gs_failure is None
        assert records_for(result.log, action="gs-failure") == []

    def test_relators_exceed_active_protections(self, result):
        rec = records_for(result.log, requirement="D0")[0]
        assert min(rec.details["relator_degrees"]) > max(result.protected[0])

    def test_deterministic_log(self, result):
        again = run_dark(
            "ring",
            u_columns={0: trigger(1, 2)},
            w_columns={0: monomial_stream(2240, 32), 1: monomial_stream(2240, 32)},
            stages=70,
            maxdeg=16,
        )
        assert again.log.dumps() == result.log.dumps()

    def test_header_params(self, result):
        assert result.log.header["construction"] == "dark-ring"
        assert result.log.header["params"]["epsilon"] == "1/4"
        assert result.log.header["params"]["maxdeg"] == 16


class TestGroupTimeline:
    """Seeded exponent 11; one collapse that adds a genuine high relator."""

    @pytest.fixture
    def result(self, group_result):
        return group_result

    def test_seed_record(self, result):
        rec = result.log.records[0]
        assert (rec.stage, rec.requirement, rec.action) == (0, "init", "seed-ideal")
        assert rec.details["relators"] == ["*".join("x" * 11), "*".join("y" * 11)]

    def test_bankings_skip_ideal_members(self, result):
        # degree 12 starts after the exponent-11 seeds; x^12 and x^11·y are
        # already members, so the first surviving word is x^10·y·x
        entries = result.transversals[0]
        assert [e["degree"] for e in entries] == [12, 13, 15]
        assert entries[0]["monomial"] == "x" * 10 + "yx"
        assert entries[1]["monomial"] == "x" * 10 + "yxx"
        assert entries[2]["monomial"] == "x" * 10 + "yxxxx"

    def test_banked_words_use_unit_alphabet(self, result):
        words = result.unit_words(0)
        assert words[0] == ("X",) * 10 + ("Y", "X")
        assert all(set(w) <= {"X", "Y"} for w in words)

    def test_collapse_adds_component_above_floor(self, result):
        rec = records_for(result.log, requirement="D0")[0]
        assert rec.stage == 3
        # floor = protected degrees 12, 13 from the two earlier bankings
        assert rec.details["degree_floor"] == 13
        assert rec.details["relator_degrees"] == [14]
        assert result.ideal.member(Poly.monomial(Monomial(14, 0b01011), 2))

    def test_post_collapse_banking_avoids_new_relator(self, result):
        # fresh degree jumps past the degree-14 relator to 15, and the
        # first surviving degree-15 word dodges both seed runs
        rec = records_for(result.log, requirement="L0")[2]
        assert rec.stage == 5
        assert rec.details["degree"] == 15
        assert rec.details["monomial"] == "x" * 10 + "yxxxx"

    def test_audit_passes_with_exponent_eleven(self, result):
        assert result.gs_failure is None


def test_audit_aborts_run_before_any_action():
    # two seeds of degree 10 against epsilon 1/4: budget 6561/4096 < 2
    res = run_dark(
        "group",
        u_columns={0: trigger(1)},
        w_columns={},
        stages=10,
        maxdeg=14,
        unit_exponent=10,
    )
    assert res.gs_failure == {
        "stage": 0,
        "degree": 10,
        "count": 2,
        "bound": "6561/4096",
    }
    actions = [r.action for r in res.log.records]
    assert actions == ["seed-ideal", "gs-failure"]
    assert res.transversals == {}


def test_unit_exponent_must_be_at_least_two():
    with pytest.raises(ValueError):
        run_dark("group", {}, {}, stages=1, unit_exponent=1)


def test_bad_epsilon_reported_as_audit_failure():
    res = run_dark("ring", {0: trigger(1)}, {}, stages=1, epsilon=Fraction(0))
    assert res.gs_failure is not None
    assert res.gs_failure["stage"] == 0
    assert "epsilon" in res.gs_failure["reason"]
    assert res.transversals == {}


def test_banking_beyond_horizon_raises():
    with pytest.raises(HorizonError):
        run_dark(
            "ring",
            u_columns={0: trigger(1, 2, 3, 4)},
            w_columns={},
            stages=4,
            maxdeg=3,
        )


def test_collapse_injury_discards_banked_witnesses():
    y = Poly.y(2)
    res = run_dark(
        "ring",
        u_columns={1: trigger(1, 3)},
        w_columns={0: StageSet([(y, 2), (y, 2)])},
        stages=4,
        maxdeg=16,
    )
    recs = [(r.stage, r.requirement, r.action) for r in res.log.records]
    assert recs == [
        (1, "L1", "enumerate-witness"),
        (2, "D0", "collapse-pair"),
        (3, "L1", "enumerate-witness"),
    ]
    d0 = records_for(res.log, requirement="D0")[0]
    assert d0.details["reinitialized"] == ["L1", "D1"]
    assert d0.details["relator_degrees"] == []
    # the stage-1 banking is gone; the replacement gets a new degree
    assert [e["degree"] for e in res.transversals[1]] == [2]
    assert res.protected[1] == [2]


def test_collapse_strategy_acts_exactly_once():
    y = Poly.y(2)
    col = StageSet([(y, 1), (y, 1), (y, 2), (y, 3)])
    res = run_dark("ring", {}, {0: col}, stages=5, maxdeg=16)
    assert len(records_for(res.log, requirement="D0")) == 1


SCALE_GROUP = """\
construction = dark-group
stages = 300
maxdeg = 32
modulus = 2
unit_exponent = 13
epsilon = 1/4

[ucolumn 0]
mode = steady
period = 10
start = 1
count = 17

[wcolumn 0]
150: yyyyyyyyyyyyyxyxxyxyxyxyxyxyxy
160: yyyyyyyyyyyyyyxyyxyxyxyxyxyxyx
"""


def test_dark_group_at_maxdeg_32(tmp_path, capsys):
    """A dark-group run far past where per-degree slices could be built:
    17 bankings up to degree 31 and a collapse relator of degree 30."""
    path = tmp_path / "scale.txt"
    path.write_text(SCALE_GROUP)
    first, second = tmp_path / "a.log.jsonl", tmp_path / "b.log.jsonl"
    assert main(["run", str(path), "--out", str(first)]) == 0
    assert main(["run", str(path), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    records = [json.loads(line) for line in first.read_text().splitlines()[1:]]
    assert [r["relator_degrees"] for r in records
            if r["action"] == "collapse-pair"] == [[30]]
    banked = [r["degree"] for r in records if r["action"] == "enumerate-witness"]
    assert len(banked) == 17 and max(banked) == 31
    capsys.readouterr()
    assert main(["verify", str(first), "membership"]) == 0
    assert "suite membership: PASS" in capsys.readouterr().out
