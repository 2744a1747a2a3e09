"""Scenario text format: grammar, coercion, stream modes, runner wiring."""
import bisect
import glob
import os
import re
import tracemalloc
from fractions import Fraction

import pytest

from ceerlab.scenario import (
    CONSTRUCTIONS,
    STAGE_CEILING,
    ScenarioError,
    load_scenario,
    parse_scenario,
)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def test_top_level_parameters_coerced():
    scn = parse_scenario(
        """
        # a comment line
        construction = dark-ring

        stages = 5
        modulus = 3
        epsilon = 1/3
        note = keep me verbatim
        """
    )
    assert scn.construction == "dark-ring"
    assert scn.params["stages"] == 5
    assert scn.params["modulus"] == 3
    assert scn.params["epsilon"] == Fraction(1, 3)
    assert scn.params["note"] == "keep me verbatim"
    assert scn.sections == []


def test_sections_collect_params_and_rows():
    scn = parse_scenario(
        """
        construction = sigma3
        [universal]
        1: 0 1
        [wcolumn 2]
        mode = steady
        start = 3
        """
    )
    uni = scn.section("universal")
    assert uni.rows == [(4, "1", "0 1")]
    col = scn.section("wcolumn", 2)
    assert col.params == {"mode": "steady", "start": "3"}
    assert scn.section("wcolumn", 0) is None
    assert [s.name for s in scn.sections_named("wcolumn")] == ["wcolumn"]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("stages = 1", "missing top-level 'construction"),
        ("construction = torus", "unknown construction"),
        ("construction = sigma3\nstages = ten", "must be an integer"),
        ("construction = sigma3\nepsilon = zero", "bad epsilon"),
        ("construction = sigma3\n[bad header]extra", "bad section header"),
        ("construction = sigma3\n[universal]\n[universal]", "duplicate section"),
        ("construction = sigma3\nstages = 1\nstages = 2", "duplicate key"),
        ("construction = sigma3\n[universal]\nmode = a\nmode = b",
         "duplicate key"),
        ("construction = sigma3\n5: 0 1", "row outside any section"),
        ("construction = sigma3\n!?", "cannot parse"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ScenarioError, match=fragment):
        parse_scenario(text)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario("construction = sigma3\n[universal]\nbroken row !")


def test_sigma3_rows_and_inferred_bound():
    scn = parse_scenario(
        """
        construction = sigma3
        stages = 6
        [universal]
        2: 1 2
        1: 0 1
        [wcolumn 0]
        2: 0
        3: 1
        """
    )
    res = scn.run()
    # the universal bound is one past the largest mentioned index, and
    # rows are applied in stage order regardless of listing order
    assert res.universal.bound == 3
    assert res.universal.related(0, 1, 1)
    assert res.universal.related(1, 2, 2)
    assert not res.universal.related(1, 2, 1)
    assert [r.stage for r in res.log.records] == [2, 3]


def test_sigma3_explicit_bound_and_steady_stream():
    scn = parse_scenario(
        """
        construction = sigma3
        stages = 6
        ubound = 9
        [universal]
        1: 0 1
        [wcolumn 0]
        mode = steady
        period = 2
        start = 1
        count = 3
        """
    )
    res = scn.run()
    assert res.universal.bound == 9
    assert [r.stage for r in res.log.records] == [1, 3, 5]


def test_pair_row_outside_bound_rejected():
    scn = parse_scenario(
        "construction = sigma3\nubound = 3\n[universal]\n1: 0 9\n"
    )
    with pytest.raises(ScenarioError, match="outside bound"):
        scn.run()


def test_stage_ceiling_is_checked_once_overrides_merge():
    scn = load_scenario(os.path.join(SCENARIO_DIR, "sug-basic.txt"))
    assert scn.run({"stages": STAGE_CEILING}).stages == STAGE_CEILING
    for bad in ({"stages": STAGE_CEILING + 1}, {"stages": -1}):
        with pytest.raises(ScenarioError, match="bad stages"):
            scn.run(bad)
    scn = parse_scenario("construction = sigma3\nstages = -1\n")
    with pytest.raises(ScenarioError, match="bad stages -1"):
        scn.run()
    assert scn.run({"stages": 2}).stages == 2


def test_pair_row_needs_two_parts():
    scn = parse_scenario("construction = sigma3\n[universal]\n1: 4\n")
    with pytest.raises(ScenarioError, match="needs 'a b'"):
        scn.run()


def test_functional_section_wiring():
    scn = parse_scenario(
        """
        construction = sigma3
        stages = 4
        [universal]
        1: 0 1
        [functional 1]
        converge = 2
        use = 5
        pairs = 0-2
        """
    )
    res = scn.run()
    # the restraint waits for the required join-table pair, which nothing
    # supplies here, so it never lands
    assert res.restraints.get(1) is None

    scn2 = parse_scenario(
        """
        construction = sigma3
        stages = 4
        [universal]
        1: 0 1
        [functional 1]
        converge = 2
        use = 5
        """
    )
    assert scn2.run().restraints[1] == 5


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("[functional 0]\nuse = 5", "functional needs converge"),
        ("[functional 0]\nconverge = 2", "functional needs use"),
        ("[functional 0]\nconverge = 2\nuse = 5\npairs = 3", "bad pair '3'"),
    ],
)
def test_functional_section_errors(body, fragment):
    scn = parse_scenario(f"construction = sigma3\n{body}\n")
    with pytest.raises(ScenarioError, match=fragment):
        scn.run()


def test_dark_ring_poly_rows_run():
    scn = parse_scenario(
        """
        construction = dark-ring
        stages = 3
        maxdeg = 12
        [wcolumn 0]
        1: y
        1: y
        """
    )
    res = scn.run()
    recs = res.log.records_for(requirement="D0")
    assert [(r.stage, r.action) for r in recs] == [(1, "collapse-pair")]
    assert recs[0].details["relators"] == []


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("[wcolumn 0]\n1: zz", "bad polynomial"),
        ("[wcolumn 0]\nbad: x", "bad stage"),
        ("[wcolumn 0]\nmode = waves", "unknown stream mode"),
        ("[wcolumn 0]\nmode = monomials\nrate = 0", "rate must be >= 1"),
        ("[ucolumn 0]\nmode = steady\nperiod = 0", "period must be >= 1"),
        ("[ucolumn 0]\n1: x", "bad integer payload"),
    ],
)
def test_stream_errors(body, fragment):
    scn = parse_scenario(f"construction = dark-ring\nstages = 2\n{body}\n")
    with pytest.raises(ScenarioError, match=fragment):
        scn.run()


def test_monomial_stream_respects_maxdeg_and_rate():
    from ceerlab.scenario import _poly_stream

    scn = parse_scenario(
        "construction = dark-ring\n[wcolumn 0]\nmode = monomials\nrate = 2\n"
    )
    sec = scn.section("wcolumn", 0)
    stream = _poly_stream(sec, stages=50, maxdeg=2, p=2)
    entries = stream.entries()
    # 1, x, y and the four degree-2 words; degree 3 is past the horizon
    assert len(entries) == 7
    assert [s for _, s in entries] == [i // 2 for i in range(7)]
    assert max(poly.degree() for poly, _ in entries) == 2

    shorter = _poly_stream(sec, stages=1, maxdeg=9, p=2)
    # the stage budget caps the enumeration before the degree bound does
    assert len(shorter.entries()) == 4


def _eager_monomials(rate, stages, maxdeg, p):
    """The monomial column as a list, built the way the scenario layer once
    built it: every entry up front."""
    from ceerlab.algebra import Monomial, Poly

    entries = []
    idx = 0
    while idx // rate <= stages:
        deg = (idx + 1).bit_length() - 1
        m = Monomial(deg, idx + 1 - (1 << deg))
        if m.deg > maxdeg:
            break
        entries.append((Poly.monomial(m, p=p), idx // rate))
        idx += 1
    return entries


def _eager_steady(start, period, count):
    return [(i, start + i * period) for i in range(count)]


def _assert_column_is(col, ref, top_stage):
    stages = [s for _, s in ref]
    assert len(col) == len(ref)
    for s in range(min(stages + [0]) - 2, top_stage + 3):
        seen = bisect.bisect_right(stages, s)
        assert col.count_at(s) == seen, s
        assert col.at_stage(s) == list(dict.fromkeys(v for v, _ in ref[:seen]))
    for i, entry in enumerate(ref):
        assert col[i] == entry
        assert col[i - len(ref)] == entry
    for i in (len(ref), -len(ref) - 1):
        with pytest.raises(IndexError):
            col[i]
    assert col.entries() == tuple(ref)
    assert list(col) == ref


@pytest.mark.parametrize("stages", [-1, 0, 1, 3, 9])
@pytest.mark.parametrize("maxdeg", [0, 1, 2, 4])
@pytest.mark.parametrize("rate", [1, 2, 3, 40])
def test_monomial_column_matches_eager_builder(rate, maxdeg, stages):
    from ceerlab.scenario import _poly_stream

    scn = parse_scenario("construction = dark-ring\n[wcolumn 0]\n"
                         f"mode = monomials\nrate = {rate}\n")
    col = _poly_stream(scn.section("wcolumn", 0), stages, maxdeg, 3)
    _assert_column_is(col, _eager_monomials(rate, stages, maxdeg, 3), stages)


@pytest.mark.parametrize("stages", [-1, 0, 6])
@pytest.mark.parametrize("count", [None, -2, 0, 1, 7])
@pytest.mark.parametrize("period", [1, 2, 5])
@pytest.mark.parametrize("start", [-3, 0, 1, 4])
def test_steady_column_matches_eager_builder(start, period, count, stages):
    from ceerlab.scenario import _int_stream

    body = f"mode = steady\nperiod = {period}\nstart = {start}\n"
    if count is not None:
        body += f"count = {count}\n"
    scn = parse_scenario(f"construction = sigma3\n[wcolumn 0]\n{body}")
    col = _int_stream(scn.section("wcolumn", 0), stages)
    n = stages if count is None else count
    _assert_column_is(col, _eager_steady(start, period, n),
                      start + max(n, 0) * period)


def test_huge_generated_columns_hold_constant_state():
    from ceerlab.scenario import _int_stream, _poly_stream

    big = 10 ** 12
    mono = parse_scenario("construction = dark-ring\n[wcolumn 0]\n"
                          "mode = monomials\nrate = 3\n").section("wcolumn", 0)
    steady = parse_scenario("construction = sigma3\n[wcolumn 0]\n"
                            f"mode = steady\nperiod = 7\ncount = {big}\n"
                            ).section("wcolumn", 0)
    tracemalloc.start()
    try:
        cols = (_poly_stream(mono, big, 64, 2), _int_stream(steady, 5))
        texts = [repr(c) for c in cols]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024, peak
    assert all(len(t) < 200 for t in texts)
    col, st = cols
    assert col.count_at(-1) == 0
    assert col.count_at(0) == 3
    assert col.count_at(big) == col.count_at(10 ** 30) == 3 * (big + 1)
    assert col[3 * big + 2][1] == big
    assert col[-1] == col[3 * big + 2]
    with pytest.raises(IndexError):
        col[3 * (big + 1)]
    # past the degree horizon of 64 the column stops, however many stages
    wide = _poly_stream(mono, 10 ** 30, 64, 2)
    assert wide.count_at(10 ** 30) == 2 ** 65 - 1
    assert wide[-1][0].degree() == 64
    assert st.count_at(0) == 0
    assert st.count_at(1) == st.count_at(7) == 1
    assert st.count_at(8) == 2
    assert st.count_at(1 + 7 * (big - 1)) == st.count_at(10 ** 30) == big
    assert st[big - 1] == (big - 1, 1 + 7 * (big - 1))


def test_phi_words_and_argspecs():
    scn = parse_scenario(
        """
        construction = star-universal
        stages = 3
        base = 6
        levels = 1
        [phi 0]
        0: 0 x7
        1: 0
        [phi 1]
        2..6/even: 0 xrange:6:8 x8^-1
        3..5/odd: 1
        """
    )
    res = scn.run()
    moves = [r for r in res.log.records if r.requirement != "init"]
    # phi_0 word x7 lands the odd freeing case on witnesses (0, 1)
    assert moves[0].action == "case-3b"
    assert moves[0].details["witnesses"] == [0, 1]
    # phi_1: (x6 x7 x8^-1) against the empty word, canonical support is
    # level 1 > e on both parities with differing odd exponents
    assert moves[1].requirement == "R1"
    assert moves[1].details["witnesses"] == [2, 3]


@pytest.mark.parametrize(
    "rows,fragment",
    [
        ("0: 0 y7", "bad word token"),
        ("0: 0 xrange:9:5", "empty range"),
        ("0: 0 xrange:0:100001", "range end 100001 in 'xrange:0:100001' is "
         "above the generator ceiling 100000"),
        ("0: zz x7", "bad converge stage"),
        ("q: 0", "bad argument spec"),
        ("7/even: 0", "parity filter needs a range"),
        ("9..3: 0", "empty argument range"),
        ("0..200000/even: 0", "argument range '0..200000/even' holds 100001 "
         "arguments, above the generator ceiling 100000"),
        ("0..2: 0\n1: 0", "argument 1 defined twice"),
    ],
)
def test_phi_grammar_errors(rows, fragment):
    scn = parse_scenario(
        f"construction = star-universal\nstages = 1\n[phi 0]\n{rows}\n"
    )
    with pytest.raises(ScenarioError, match=fragment):
        scn.run()


def test_indexed_sections_need_indices():
    scn = parse_scenario("construction = sigma3\n[wcolumn]\n1: 0\n")
    with pytest.raises(ScenarioError, match="needs an index"):
        scn.run()


def test_sug_runner_wires_star_template_and_slots():
    scn = parse_scenario(
        """
        construction = sug-indexset
        stages = 4
        [vcolumn 0]
        1: 0
        [ucolumn 0]
        1: 0
        [coded-universal]
        1: 0 1
        [sumfunctional 1]
        converge = 2
        use = 9
        slots = g0, h0
        [star-template]
        base = 6
        levels = 1
        [star-universal]
        2: 0 1
        [star-phi 0]
        0: 0 x6
        1: 0
        """
    )
    res = scn.run()
    assert res.log.header["params"]["star_base"] == 6
    assert res.restraints[1] == ("g0", "h0")
    assert res.assignments["C0"] == "g0"
    inner = res.group_slots["g0"]
    assert inner.base == 6


def test_run_overrides_take_effect_and_ignore_none():
    scn = parse_scenario(
        "construction = sigma3\nstages = 9\n[universal]\n1: 0 1\n"
    )
    res = scn.run(overrides={"stages": 2, "ubound": None})
    assert res.stages == 2
    assert res.log.header["params"]["stages"] == 2


def test_shipped_scenarios_parse():
    paths = sorted(glob.glob(os.path.join(SCENARIO_DIR, "*.txt")))
    assert len(paths) == 5
    seen = set()
    for path in paths:
        scn = load_scenario(path)
        assert scn.construction in CONSTRUCTIONS
        seen.add(scn.construction)
    assert seen == set(CONSTRUCTIONS)


def test_readme_example_parses_and_runs():
    with open(os.path.join(SCENARIO_DIR, "..", "README.md")) as fh:
        readme = fh.read()
    blocks = re.findall(r"```ini\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    scn = parse_scenario(blocks[0])
    assert scn.construction == "dark-ring"
    assert [s.params for s in scn.sections_named("wcolumn")] == [
        {"mode": "monomials", "rate": "32"}]
    result = scn.run()
    assert result.gs_failure is None
    actions = [r.action for r in result.log.records]
    assert actions.count("enumerate-witness") == 2
    assert "collapse-pair" in actions
