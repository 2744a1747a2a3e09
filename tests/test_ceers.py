import ast
import heapq
import io
import json
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ceerlab import ceers
from ceerlab.ceers import (
    INDEX_CEILING,
    BoundError,
    CeerTable,
    IndexCeilingError,
    FunctionalStub,
    PartialityError,
    ReductionFn,
    ReductionReport,
    StageRegressionError,
    StageSet,
    product,
    pullback,
    uniform_join,
    verify_reduction,
)
from ceerlab.pairing import pair, unpair

from helpers import (
    BlockWriter,
    child_env,
    pairwise_verify_reduction,
    reference_assert_pair,
    reference_classes_at,
    reference_related,
    reference_roots_at,
    reference_table_dump,
    reference_table_load,
    report_text,
    table_outcome,
    table_state,
)
from oracles import (
    StagedClosure,
    join_related,
    product_related,
    pullback_related,
)


def random_table(rng: random.Random, bound: int, n_pairs: int,
                 max_stage: int, named: int | None = None) -> CeerTable:
    """Random pairs among the indices below `named` (default: the bound)."""
    t = CeerTable(bound=bound)
    named = bound if named is None else named
    stage = 0
    for _ in range(n_pairs):
        stage += rng.randint(0, max(1, max_stage // n_pairs))
        t.assert_pair(rng.randrange(named), rng.randrange(named), stage)
    return t


def closure_of(t: CeerTable) -> StagedClosure:
    return StagedClosure([(a, b, s) for a, b, s in t.pairs], t.bound)


# -- StageSet -------------------------------------------------------------


def test_stageset_entries_and_counts():
    s = StageSet([("b", 1), ("a", 3), ("a", 5)])
    assert s.entries() == (("b", 1), ("a", 3), ("a", 5))
    assert s.count_at(0) == 0
    assert s.count_at(1) == 1
    assert s.count_at(3) == 2
    assert s.count_at(5) == 3
    # at_stage dedups but keeps first-appearance order
    assert s.at_stage(5) == ["b", "a"]
    assert len(s) == 3


def test_stageset_from_rows_sorts_by_stage_stably():
    s = StageSet.from_rows([("x", 7), ("y", 2), ("z", 7), ("w", 1)])
    assert s.entries() == (("w", 1), ("y", 2), ("x", 7), ("z", 7))


def test_stageset_add_monotone():
    s = StageSet()
    s.add(1, 4)
    with pytest.raises(ValueError):
        s.add(2, 3)


def test_generated_stageset_index_bounds():
    """A generated set of n entries answers indices 0..n-1 and refuses n,
    even where its values go on; its stages answer -n..-1 too."""
    s = StageSet.generated(range(100), 5, start=2, period=3, rate=2)
    assert [s[i] for i in range(5)] == [(0, 2), (1, 2), (2, 5), (3, 5), (4, 8)]
    assert s.entries() == tuple(s[i] for i in range(5))
    assert [s[i][1] for i in range(-5, 0)] == [2, 2, 5, 5, 8]
    for i in (5, 6, -6):
        with pytest.raises(IndexError, match="StageSet index out of range"):
            s[i]


# -- CeerTable ------------------------------------------------------------


def test_table_snapshot_semantics():
    t = CeerTable(bound=8)
    t.assert_pair(0, 1, 2)
    t.assert_pair(1, 2, 5)
    assert t.related(0, 1, 2)
    assert not t.related(0, 1, 1)
    assert t.related(0, 2, 5)
    assert not t.related(0, 2, 4)
    assert t.related(3, 3, 0)
    assert t.first_related_stage(0, 2) == 5
    assert t.first_related_stage(0, 3) is None


def test_table_stage_regression_rejected():
    t = CeerTable(bound=4)
    t.assert_pair(0, 1, 5)
    with pytest.raises(ValueError):
        t.assert_pair(2, 3, 4)
    # same stage and later stages stay fine
    t.assert_pair(2, 3, 5)
    t.assert_pair(0, 3, 9)


def test_table_index_bounds():
    """An index outside the bound is a BoundError: an IndexError, and a
    ValueError as the command line's refusals of input are."""
    t = CeerTable(bound=4)
    with pytest.raises(IndexError):
        t.assert_pair(0, 4, 1)
    with pytest.raises(IndexError):
        t.related(-1, 0, 0)
    with pytest.raises(ValueError, match="^index 4 out of bound 4$"):
        t.assert_pair(0, 4, 1)


def test_classes_at():
    t = CeerTable(bound=6)
    t.assert_pair(0, 1, 1)
    t.assert_pair(2, 3, 2)
    t.assert_pair(1, 4, 5)
    assert t.classes_at(0) == [[0], [1], [2], [3], [4], [5]]
    assert t.classes_at(2) == [[0, 1], [2, 3], [4], [5]]
    assert t.classes_at(5) == [[0, 1, 4], [2, 3], [5]]


def test_related_matches_closure_oracle():
    rng = random.Random(7)
    for trial in range(25):
        t = random_table(rng, bound=12, n_pairs=10, max_stage=30)
        oracle = closure_of(t)
        for s in list(t.stages()) + [0, 100]:
            for a in range(12):
                for b in range(12):
                    assert t.related(a, b, s) == oracle.related(a, b, s)


def oracle_roots(oracle: StagedClosure, stage: int) -> list[int]:
    """Least member of each index's oracle class at the stage."""
    return [next(m for m in range(oracle.bound) if oracle.related(n, m, stage))
            for n in range(oracle.bound)]


def test_interleaved_writes_and_reads_match_oracle():
    # Reads at earlier, equal and later stages between writes, with
    # repeated stages so that a write can land at a stage already read.
    rng = random.Random(23)
    for trial in range(60):
        bound = rng.randint(1, 12)
        t = CeerTable(bound=bound)
        stage = 0
        for _ in range(rng.randint(0, 16)):
            stage += rng.randint(0, 3)
            t.assert_pair(rng.randrange(bound), rng.randrange(bound), stage)
            oracle = closure_of(t)
            for s in (rng.randint(0, stage), stage, stage + rng.randint(1, 3)):
                roots = oracle_roots(oracle, s)
                assert t.roots_at(s) == tuple(roots), (trial, s)
                classes: dict[int, list[int]] = {}
                for n, r in enumerate(roots):
                    classes.setdefault(r, []).append(n)
                assert t.classes_at(s) == [classes[r] for r in sorted(classes)]
                for a in range(bound):
                    for b in range(bound):
                        assert t.related(a, b, s) == oracle.related(a, b, s)
            a, b = rng.randrange(bound), rng.randrange(bound)
            expected = 0 if a == b else next(
                (s for s in t.stages() if oracle.related(a, b, s)), None)
            assert t.first_related_stage(a, b) == expected, (trial, a, b)


def test_cold_reads_keep_no_per_stage_memory():
    rng = random.Random(31)
    bound = 20_000
    t = CeerTable(bound=bound)
    for k in range(2000):
        t.assert_pair(rng.randrange(bound), rng.randrange(bound), k // 5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for s in range(0, 400, 2):
            t.related(rng.randrange(bound), rng.randrange(bound), s)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 1 << 20


def test_index_ceiling_refuses_a_pair_before_growing():
    t = CeerTable(bound=10 ** 12)
    t.assert_pair(0, INDEX_CEILING - 1, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for a, b in ((0, INDEX_CEILING), (10 ** 11, 3)):
            with pytest.raises(IndexCeilingError, match=(
                    rf"pair \({a}, {b}\) names index {max(a, b)}, not below "
                    "the table index ceiling 1000000")):
                t.assert_pair(a, b, 2)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 1 << 20
    assert t.pairs == ((0, INDEX_CEILING - 1, 1),)
    assert isinstance(IndexCeilingError("x"), ValueError)


def test_huge_bound_stores_only_named_indices():
    big = 10 ** 12
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        t = CeerTable(bound=big)
        t.assert_pair(3, 7, 1)
        t.assert_pair(7, 12, 4)
        answers = [
            t.related(3, 12, 4), t.related(3, 12, 3),
            t.related(3, big // 2, 9), t.related(big - 1, big // 2, 9),
            t.related(big - 1, big - 1, 0),
            t.first_related_stage(3, 12), t.first_related_stage(12, big - 1),
            t.first_related_stage(big - 1, big // 2),
            t.first_related_stage(big - 1, big - 1),
        ]
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert answers == [True, False, False, False, True, 4, None, None, 0]
    assert grown < 1 << 20
    with pytest.raises(IndexError):
        t.related(0, big, 0)


def test_unnamed_top_indices_are_singletons_in_every_view():
    rng = random.Random(41)
    for trial in range(40):
        bound = rng.randint(1, 14)
        t = random_table(rng, bound, rng.randint(0, 8), 12,
                         named=rng.randint(1, bound))
        oracle = closure_of(t)
        for s in sorted(set(t.stages()) | {0, 99}):
            classes = oracle.classes(s)
            assert t.classes_at(s) == classes, (trial, s)
            roots = [0] * bound
            for c in classes:
                for n in c:
                    roots[n] = c[0]
            assert t.roots_at(s) == tuple(roots), (trial, s)


def _snapshot_case(kind: str, seed: int) -> CeerTable:
    rng = random.Random(f"snapshot-{kind}-{seed}")
    if kind == "bound-0":
        return CeerTable(bound=0)
    if kind == "no-pairs":
        return CeerTable(bound=rng.randint(1, 9))
    if kind == "unnamed-tail":
        # pairs name only the indices below 12 of a bound up to 40
        return random_table(rng, rng.randint(12, 40), rng.randint(1, 20), 30,
                            named=12)
    if kind == "same-stage-path":
        # 1 hangs under 0, then 0 under 2, all at stage 5: the path from 1
        # climbs two edges stamped 5; the rest lands at stages 5 and 8
        t = CeerTable(bound=rng.randint(6, 12))
        for a, b, s in ((0, 1, 5), (2, 3, 5), (2, 0, 5), (4, 5, 5), (5, 1, 8)):
            t.assert_pair(a, b, s)
        return t
    if kind == "random":
        bound = rng.randint(1, 60)
        return random_table(rng, bound, rng.randint(1, 80), 40,
                            named=rng.randint(1, bound))
    assert kind == "ceer-workload"
    # the ceer benchmark's ingest shape: 12 pairs at each of stages 1-280
    return CeerTable.from_pairs(
        [(rng.randrange(4000), rng.randrange(4000), s)
         for s in range(1, 281) for _ in range(12)], 4000)


def _snapshot_stages(t: CeerTable) -> list:
    """Stages below the first pair, at each pair's stage (as an int and as a
    float), halfway to the next one and past the last."""
    stages = t.stages()
    if not stages:
        return [-1, 0, 0.5, 3]
    out = [stages[0] - 1, stages[0] - 0.5, stages[-1] + 1, stages[-1] + 0.5]
    for lo, hi in zip(stages, stages[1:] + (stages[-1] + 2,)):
        out += [lo, float(lo), (lo + hi) / 2]
        if hi - lo > 1:
            out.append(lo + 1)
    return out


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", ["bound-0", "no-pairs", "unnamed-tail",
                                  "same-stage-path", "random", "ceer-workload"])
def test_snapshots_match_the_three_pass_reference(kind, seed):
    t = _snapshot_case(kind, seed)
    if kind == "same-stage-path":
        assert t._parent[1] == 0 and t._parent[0] == 2
        assert t._stamp[1] == t._stamp[0] == 5
    stages = _snapshot_stages(t)
    if kind == "ceer-workload":
        stages = stages[:4] + stages[4::25]  # the ends and every 25th
    for s in stages:
        assert t.roots_at(s) == reference_roots_at(t, s), s
        assert t.classes_at(s) == reference_classes_at(t, s), s


def test_snapshots_climb_inline(monkeypatch):
    rng = random.Random(67)
    t = random_table(rng, bound=300, n_pairs=400, max_stage=100, named=250)
    want_classes = reference_classes_at(t, 50)
    want_roots = reference_roots_at(t, 50)
    calls: dict[str, int] = {}
    for name in ("_top", "roots_at"):
        def counted(*args, real=getattr(CeerTable, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(CeerTable, name, counted)
    assert t.classes_at(50) == want_classes
    assert calls == {}
    assert t.roots_at(50) == want_roots
    assert calls == {"roots_at": 1}


def test_dump_load_round_trip():
    rng = random.Random(3)
    t = random_table(rng, bound=10, n_pairs=8, max_stage=20)
    text = t.dumps()
    back = CeerTable.loads(text)
    assert back.pairs == t.pairs
    # inferred bound covers the data
    top = max(max(a, b) for a, b, _ in t.pairs)
    assert back.bound == top + 1
    wide = CeerTable.loads(text, bound=64)
    assert wide.bound == 64
    assert wide.pairs == t.pairs


def test_dump_load_empty():
    t = CeerTable(bound=5)
    buf = io.StringIO()
    t.dump(buf)
    back = CeerTable.load(io.StringIO(buf.getvalue()))
    assert back.pairs == ()


def test_load_refuses_a_line_nested_too_deeply():
    text = "[" * 100_000 + "]" * 100_000 + "\n"
    with pytest.raises(ValueError, match="^dump line 1 nests too deeply$"):
        CeerTable.loads(text)


def _dump_case(kind: str, seed: int) -> CeerTable:
    rng = random.Random(f"dump-{kind}-{seed}")
    if kind == "empty":
        return CeerTable(bound=5)
    if kind == "ceiling":
        # index 0 and the last one under the ceiling, stages 0 to 10**40
        t = CeerTable(bound=INDEX_CEILING)
        t.assert_pair(0, INDEX_CEILING - 1, 0)
        for s in sorted(rng.randrange(10 ** rng.randint(1, 40))
                        for _ in range(50)):
            t.assert_pair(rng.choice((0, INDEX_CEILING - 1, rng.randrange(99))),
                          rng.choice((0, INDEX_CEILING - 1)), s)
        t.assert_pair(INDEX_CEILING - 1, 0, 10 ** 40)
        return t
    assert kind in ("block", "block+1")
    n = 4096 if kind == "block" else 4097
    return random_table(rng, bound=300, n_pairs=n, max_stage=10 * n)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("kind", ["empty", "ceiling", "block", "block+1"])
def test_dump_matches_the_per_pair_reference(kind, seed):
    t = _dump_case(kind, seed)
    ref = io.StringIO()
    reference_table_dump(t, ref)
    # compared as lists of lines: a failure then names the first bad line
    # instead of diffing whole texts
    want = ref.getvalue().splitlines(keepends=True)
    assert t.dumps().splitlines(keepends=True) == want
    fp = BlockWriter(-(-t.pair_count // 4096))
    t.dump(fp)
    assert "".join(fp.parts).splitlines(keepends=True) == want


# -- CeerTable.load and assert_pair against their references ---------------


def _written(pairs, bound=50):
    t = CeerTable(bound)
    for a, b, s in pairs:
        t.assert_pair(a, b, s)
    return t.dumps()


_LINE = '{"a": %s, "b": %s, "s": %s}\n'
LOAD_CASES = {
    # dumps written by `dump`
    "empty": "",
    "one-line": _written([(3, 7, 2)]),
    "no-final-newline": _written([(0, 1, 0), (2, 1, 4), (5, 6, 4)])[:-1],
    "block": CeerTable.dumps(random_table(random.Random(36), 50, 4096, 800)),
    "block+1": CeerTable.dumps(random_table(random.Random(37), 50, 4097,
                                            800)),
    "negative-stages": _written([(0, 1, -9), (1, 2, -9), (3, 2, -1)]),
    # hand-made lines, each among writer lines
    "reordered-keys": _LINE % (0, 1, 1) + '{"s": 2, "b": 3, "a": 1}\n',
    "compact": '{"a":0,"b":1,"s":1}\n' + _LINE % (1, 2, 3),
    "leading-space": " " + _LINE % (0, 1, 1),
    "crlf": _LINE % (0, 1, 1) + _LINE[:-1] % (2, 1, 2) + "\r\n",
    "trailing-spaces": _LINE[:-1] % (0, 1, 1) + "  \n" + _LINE % (1, 2, 2),
    "trailing-space-no-newline": _LINE[:-1] % (0, 1, 1) + " ",
    "two-newlines-in-a-row": _LINE % (0, 1, 1) + "\n" + _LINE % (1, 2, 2),
    "blank-lines": "\n   \n" + _LINE % (0, 4, 1) + "\t\n",
    "minus-zero": _LINE % ("-0", 1, "-0"),
    "leading-zero-index": _LINE % ("01", 1, 1),
    "leading-zero-stage": _LINE % (0, 1, "007"),
    "arabic-indic-digit": _LINE % ("١", 1, 1),
    "arabic-indic-stage": _LINE % (0, 1, "2٢"),
    "plus-sign": _LINE % ("+1", 2, 1),
    "huge-stage": _LINE % (0, 1, 10 ** 40) + _LINE % (1, 2, 10 ** 40 + 1),
    "huge-index": _LINE % (10 ** 40, 1, 1),
    "5000-digit-index": _LINE % ("7" * 5000, 1, 1),
    "5000-digit-stage": _LINE % (0, 1, "7" * 5000),
    "unsorted-stages": (_LINE % (0, 1, 5) + _LINE % (2, 3, 1)
                        + _LINE % (1, 2, 3) + _LINE % (4, 0, 1)),
    "negative-index": _LINE % (-1, 1, 1),
    "index-at-ceiling": _LINE % (0, INDEX_CEILING, 1),
    "float-stage": _LINE % (0, 1, 1) + _LINE % (1, 2, "1.5"),
    "exponent-index": _LINE % ("1e2", 1, 1),
    "true-index": _LINE % ("true", 1, 1),
    "string-stage": _LINE % (0, 1, '"3"'),
    "missing-key": '{"a": 0, "b": 1}\n',
    "extra-key": '{"a": 0, "b": 1, "s": 1, "t": 2}\n',
    "junk": _LINE % (0, 1, 1) + "{\n",
    "list": "[]\n",
    "null": "null\n",
}


def _blocks(text):
    """The blocks of lines `CeerTable.load` reads from the text."""
    fp, out = io.StringIO(text), []
    while lines := fp.readlines(ceers._LOAD_BLOCK):
        out.append(lines)
    return out


# writer lines past one full block: the first block is every line the first
# `readlines` call gives, and the lines after it are at stage `_AFTER`
_WRITER = CeerTable.dumps(random_table(random.Random(39), 50, 4000, 800))
_BLOCK = "".join(_blocks(_WRITER)[0])
_AFTER = int(_BLOCK.splitlines()[-1].split()[-1][:-1])
_MORE = "".join(_LINE % (n % 7, n % 5, _AFTER) for n in range(6))
# (text, the line each block after the first starts with, or None for a
# writer line): a full block, then hand-made lines in the second one
BLOCK_CASES = {
    "one-block": _BLOCK,
    "block+1": _BLOCK + _LINE % (3, 4, _AFTER),
    "block+last-line-no-newline": _BLOCK + _MORE + _LINE[:-1] % (3, 4, _AFTER),
    "block+crlf": _BLOCK + _MORE + _LINE[:-1] % (2, 1, _AFTER) + "\r\n"
                  + _MORE,
    "block+reordered-keys": (_BLOCK + _MORE + '{"s": %d, "b": 3, "a": 1}\n'
                             % _AFTER + _MORE),
    "block+junk": _BLOCK + _MORE + "{\n" + _MORE,
    "block+float-stage": _BLOCK + _MORE + _LINE % (0, 1, "1.5"),
    "block+5000-digit-index": _BLOCK + _MORE + _LINE % ("7" * 5000, 1, _AFTER),
    # the digit limit is met before the junk after it, line by line too
    "block+5000-digit-index-then-junk": (
        _BLOCK + _LINE % ("7" * 5000, 1, _AFTER) + "{\n"),
    "block+index-past-bound-60": _BLOCK + _MORE + _LINE % (70, 1, _AFTER),
    "block+unsorted-stages": _BLOCK + _LINE % (1, 2, 3) + _MORE
                             + _LINE % (4, 0, -2),
    "block+negative-stages": "".join(
        _LINE % (a, b, s - 10 ** 6) for a, b, s in
        CeerTable.loads(_BLOCK + _MORE).pairs),
    "block+index-at-ceiling": _BLOCK + _MORE + _LINE % (INDEX_CEILING, 1,
                                                        _AFTER),
}


def test_block_cases_cross_a_block_boundary():
    """Every block case but the first fills a block and goes on into a
    second; a hand-made line sits in the second block, and the writer lines
    of the first take the block path."""
    assert len(_blocks(BLOCK_CASES["one-block"])) == 1
    for case, text in BLOCK_CASES.items():
        blocks = _blocks(text)
        assert len(blocks) == (1 if case == "one-block" else 2), case
        assert ceers._DUMP_BLOCK.fullmatch("".join(blocks[0])), case
    assert _blocks(BLOCK_CASES["block+1"])[1] == [_LINE % (3, 4, _AFTER)]
    for case in ("block+crlf", "block+reordered-keys", "block+junk",
                 "block+float-stage", "block+last-line-no-newline",
                 "block+5000-digit-index-then-junk"):
        assert not ceers._DUMP_BLOCK.fullmatch(
            "".join(_blocks(BLOCK_CASES[case])[1])), case


@pytest.mark.parametrize("bound", [None, 4, 60])
@pytest.mark.parametrize("case", sorted(BLOCK_CASES))
def test_load_across_blocks_matches_the_json_reference(case, bound):
    text = BLOCK_CASES[case]
    want = table_outcome(
        lambda: reference_table_load(io.StringIO(text), bound))
    assert table_outcome(lambda: CeerTable.loads(text, bound)) == want


def test_load_of_a_dump_that_names_the_last_index_below_the_ceiling():
    """A second block that names INDEX_CEILING - 1 loads to the state of
    the reference, forest and all (compared without the partitions)."""
    text = _BLOCK + _LINE % (INDEX_CEILING - 1, 2, _AFTER)
    got = CeerTable.loads(text)
    assert got.bound == INDEX_CEILING
    assert table_state(got) == table_state(
        reference_table_load(io.StringIO(text)))


@pytest.mark.parametrize("bound", [None, 4, 60])
@pytest.mark.parametrize("case", sorted(LOAD_CASES))
def test_load_matches_the_json_reference(case, bound):
    text = LOAD_CASES[case]
    want = table_outcome(
        lambda: reference_table_load(io.StringIO(text), bound))
    assert table_outcome(lambda: CeerTable.loads(text, bound)) == want


def test_load_differential_cases_take_both_branches():
    """The cases above reach the matched lines, the JSON ones and errors."""
    assert CeerTable.loads(LOAD_CASES["minus-zero"]).pairs == ((0, 1, 0),)
    assert CeerTable.loads(LOAD_CASES["crlf"]).pairs == ((0, 1, 1), (2, 1, 2))
    for case in ("leading-zero-index", "arabic-indic-digit", "plus-sign"):
        with pytest.raises(json.JSONDecodeError):
            CeerTable.loads(LOAD_CASES[case])
    with pytest.raises(ValueError, match=r"^Exceeds the limit \(4300 digits"):
        CeerTable.loads(LOAD_CASES["5000-digit-index"])


def _raised(call):
    """The exception's type and message, or None if `call` returns."""
    try:
        call()
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    return None


def _fresh(pairs, bound):
    t = CeerTable(bound)
    for a, b, s in pairs:
        reference_assert_pair(t, a, b, s)
    return t


# (pairs already asserted, bound, the call's arguments)
ASSERT_CASES = {
    "both-out-of-bound": ([], 5, (7, 9, 0)),
    "second-out-of-bound": ([], 5, (1, 5, 0)),
    "first-negative": ([], 5, (-1, 2, 0)),
    "second-negative": ([(0, 1, 0)], 5, (2, -3, 0)),
    "first-str": ([], 5, ("1", 2, 0)),
    "second-str": ([], 5, (1, "2", 0)),
    "first-out-second-str": ([], 5, (9, "x", 0)),
    "first-str-second-out": ([], 5, ("x", 9, 0)),
    "stage-regression": ([(0, 1, 5)], 5, (2, 3, 4)),
    "ceiling": ([], INDEX_CEILING + 5, (0, INDEX_CEILING, 0)),
    "ceiling-both": ([], INDEX_CEILING + 5,
                     (INDEX_CEILING + 1, INDEX_CEILING, 0)),
    "below-ceiling": ([(0, 1, 0)], INDEX_CEILING + 5,
                      (INDEX_CEILING - 1, 1, 1)),
    "grow-second": ([(0, 3, 0)], 20, (2, 9, 1)),
    "grow-first": ([(0, 3, 0)], 20, (9, 2, 1)),
    "grow-from-empty": ([], 20, (4, 4, 0)),
    "same-index": ([(0, 3, 0)], 20, (3, 3, 0)),
    "already-related": ([(0, 1, 0), (1, 2, 0)], 20, (2, 0, 0)),
    "equal-stamps-path": ([(0, 1, 5), (2, 3, 5), (1, 3, 5), (4, 5, 5)], 20,
                          (3, 5, 5)),
    "equal-stamps-smaller-side": ([(0, 1, 5), (1, 2, 5), (3, 4, 5)], 20,
                                  (4, 2, 5)),
    "later-stage": ([(0, 1, 5), (2, 3, 5)], 20, (1, 3, 6)),
    "float-index-named": ([(0, 3, 0)], 20, (1.5, 2, 0)),
    "float-index-growing": ([(0, 3, 0)], 20, (1, 7.5, 0)),
    "bool-index": ([(0, 3, 0)], 20, (True, 2, 1)),
    "float-stage": ([(0, 3, 0)], 20, (1, 2, 2.5)),
    "none-stage-first": ([], 20, (1, 2, None)),
}


@pytest.mark.parametrize("case", sorted(ASSERT_CASES))
def test_assert_pair_matches_the_helper_call_reference(case):
    pairs, bound, args = ASSERT_CASES[case]
    got, want = _fresh(pairs, bound), _fresh(pairs, bound)
    assert (_raised(lambda: got.assert_pair(*args)), table_state(got)) == (
        _raised(lambda: reference_assert_pair(want, *args)),
        table_state(want))


def _assert_stream(seed):
    """A bound and 300 calls' arguments with many equal stages, and whether
    each call's are bad: an index out of bound or no int, or a stage below
    the one before."""
    rng = random.Random(f"assert-{seed}")
    bound = rng.choice((8, 30, 200))
    stage = rng.randint(-5, 5)
    calls = []
    for _ in range(300):
        stage += rng.choice((0, 0, 0, 1, 2))
        a, b, s = rng.randrange(bound), rng.randrange(bound), stage
        roll = rng.random()
        if roll < 0.03:
            a = rng.choice((-1, bound, "0", 1.0))
        elif roll < 0.06:
            s = stage - rng.randint(1, 3)
        calls.append(((a, b, s), roll < 0.06))
    return bound, calls


@pytest.mark.parametrize("seed", range(20))
def test_assert_pair_streams_match_the_helper_call_reference(seed):
    """Streams of calls with many equal stages, bad entries among them."""
    bound, calls = _assert_stream(seed)
    got, want = CeerTable(bound), CeerTable(bound)
    for (a, b, s), _ in calls:
        got_out = _raised(lambda: got.assert_pair(a, b, s))
        want_out = _raised(lambda: reference_assert_pair(want, a, b, s))
        assert (got_out, table_state(got)) == (want_out, table_state(want))
    assert table_outcome(lambda: got) == table_outcome(lambda: want)


def _chained(rows, bound):
    """The table a chain of `reference_assert_pair` calls builds."""
    t = CeerTable(bound)
    for a, b, s in rows:
        reference_assert_pair(t, a, b, s)
    return t


@pytest.mark.parametrize("seed", range(20))
def test_from_pairs_matches_the_helper_call_chain(seed):
    """`from_pairs` of the streams above, bad entries and all, and of their
    good pairs alone, as tuples and as lists: the whole forest, or the first
    bad pair's error, as a chain of reference calls gives it."""
    bound, calls = _assert_stream(seed)
    rows = [args for args, _ in calls]
    good = [args for args, bad in calls if not bad]
    assert any(bad for _, bad in calls) or seed not in (0, 1)
    for pairs in (rows, good, [list(p) for p in good]):
        want = table_outcome(lambda: _chained(pairs, bound))
        assert table_outcome(lambda: CeerTable.from_pairs(pairs, bound)) == want
    assert isinstance(table_outcome(lambda: CeerTable.from_pairs(good, bound))[0],
                      tuple)


# (pairs, bound): entries the merge loop must leave to `assert_pair`
FROM_PAIRS_CASES = {
    "empty": ([], 5),
    "negative-index": ([(0, 1, 0), (-1, 2, 1)], 5),
    "index-at-bound": ([(0, 1, 0), (2, 5, 1)], 5),
    "ceiling": ([(0, 1, 0), (0, INDEX_CEILING, 1)], INDEX_CEILING + 5),
    "stage-regression": ([(0, 1, 5), (1, 2, 4)], 5),
    "negative-bound": ([(0, 1, 0)], -1),
    "bool-index": ([(0, 1, 0), (True, 2, 1)], 5),
    "float-stage": ([(0, 1, 0), (1, 2, 2.5), (2, 3, 3)], 5),
    "str-stage": ([(0, 1, 0), (1, 2, "3")], 5),
    "short-row": ([(0, 1, 0), (1, 2)], 5),
    "long-row": ([(0, 1, 0), [1, 2, 3, 4]], 5),
    "int-row": ([(0, 1, 0), 7], 5),
    "str-row": ([(0, 1, 0), "012"], 5),
    "dict-rows": ([{0: "a", 1: "b", 2: "c"}], 5),
    "mixed-tuples-and-lists": ([(0, 1, 0), [1, 2, 1], (3, 4, 1)], 5),
    "generator": ((p for p in [(0, 1, 0), (2, 1, 3)]), 5),
}


@pytest.mark.parametrize("case", sorted(FROM_PAIRS_CASES))
def test_from_pairs_cases_match_the_helper_call_chain(case):
    pairs, bound = FROM_PAIRS_CASES[case]
    pairs = list(pairs)
    want = table_outcome(lambda: _chained(pairs, bound))
    assert table_outcome(lambda: CeerTable.from_pairs(iter(pairs), bound)) == want


def test_load_decodes_writer_lines_without_json_or_top(monkeypatch):
    """A dump as `dump` writes it costs no JSON decoder call, no per-line
    `_DUMP_LINE` match and no `_top` call; a hand-made line costs one
    decoder call and one match per line of its block."""
    t = random_table(random.Random(38), bound=4000, n_pairs=3360,
                     max_stage=3360)
    negative = _written([(0, 1, -30), (1, 2, -7), (4, 3, -7), (2, 4, 0)])
    text = t.dumps()
    lines = text.splitlines(keepends=True)
    lines[1700] = '{"s": %d, "a": %d, "b": %d}\n' % tuple(
        t.pairs[1700][i] for i in (2, 0, 1))
    calls: dict[str, int] = {}
    real_loads, real_top, real_line = json.loads, CeerTable._top, ceers._DUMP_LINE

    def counted_loads(*args, **kwargs):
        calls["json.loads"] = calls.get("json.loads", 0) + 1
        return real_loads(*args, **kwargs)

    def counted_top(*args):
        calls["_top"] = calls.get("_top", 0) + 1
        return real_top(*args)

    class CountedLine:
        def fullmatch(self, line):
            calls["_DUMP_LINE"] = calls.get("_DUMP_LINE", 0) + 1
            return real_line.fullmatch(line)

    monkeypatch.setattr(ceers.json, "loads", counted_loads)
    monkeypatch.setattr(CeerTable, "_top", counted_top)
    monkeypatch.setattr(ceers, "_DUMP_LINE", CountedLine())
    assert len(lines) == 3360
    assert table_state(CeerTable.loads(text)) == table_state(
        reference_table_load(io.StringIO(text)))
    calls.clear()
    assert CeerTable.loads(text).pairs == t.pairs
    assert CeerTable.loads(negative).pairs == ((0, 1, -30), (1, 2, -7),
                                              (4, 3, -7), (2, 4, 0))
    assert calls == {}
    # the block that holds line 1700 is read line by line, and only it
    blocks = _blocks("".join(lines))
    assert len(blocks) == 2
    assert CeerTable.loads("".join(lines)).pairs == t.pairs
    assert calls == {"json.loads": 1, "_DUMP_LINE": len(
        next(block for block in blocks if lines[1700] in block))}
    calls.clear()
    u = CeerTable(300)
    for a, b, s in t.pairs:
        u.assert_pair(a % 300, b % 300, s)
    assert calls == {}


def test_related_climbs_inline(monkeypatch):
    """`related` answers as the `_top`-based reference does, with no `_top`
    call."""
    rng = random.Random(40)
    t = random_table(rng, bound=300, n_pairs=500, max_stage=100, named=200)
    queries = [(rng.randrange(300), rng.randrange(300), rng.randrange(-1, 102))
               for _ in range(2000)]
    want = [reference_related(t, *q) for q in queries]
    calls = []
    monkeypatch.setattr(CeerTable, "_top", lambda *args: calls.append(args))
    assert [t.related(*q) for q in queries] == want
    assert calls == [] and any(want) and not all(want)


@pytest.mark.parametrize("seed", range(12))
def test_related_matches_the_helper_call_reference(seed):
    """Seeded tables, each naming about half its bound, queried at equal
    indices, indices past the named ones and stages -1, `inf` and NaN among
    others; and the same error on an index out of bound or of another
    type."""
    rng = random.Random(f"related-{seed}")
    bound = rng.choice((3, 9, 60, 400))
    t = random_table(rng, bound, rng.randint(0, 2 * bound), 50,
                     named=bound // 2 + 1)
    stages = [-1, 0, t.last_stage, float("inf"), float("nan"),
              *(rng.randrange(51) for _ in range(4))]
    kinds = set()
    for _ in range(300):
        a = rng.randrange(bound)
        b = a if rng.random() < 0.1 else rng.randrange(bound)
        s = rng.choice(stages)
        kinds.add("equal" if a == b else
                  "past" if max(a, b) >= len(t._stamp) else "named")
        assert t.related(a, b, s) == reference_related(t, a, b, s)
    assert kinds >= {"equal", "past"}
    for a, b in ((-1, 0), (0, bound), (bound, -1), (0, -3), ("1", 0),
                 (0, "x"), (1.5, 0), (None, bound)):
        assert _raised(lambda: t.related(a, b, 0)) == _raised(
            lambda: reference_related(t, a, b, 0))


NAN = float("nan")


def test_stage_writers_refuse_nan():
    """A NaN stage, which no stage orders, is refused first or later by
    `assert_pair`, `from_pairs` and `StageSet.add`, naming the stage; a
    later stage below the last one kept is still refused after it, and the
    reads at NaN keep their answers."""
    t = CeerTable(5)
    with pytest.raises(StageRegressionError,
                       match="^pair at stage nan, which no stage orders$"):
        t.assert_pair(0, 1, NAN)
    assert table_state(t) == table_state(CeerTable(5))
    t.assert_pair(0, 1, 4)
    with pytest.raises(StageRegressionError,
                       match="^pair at stage nan after stage 4$"):
        t.assert_pair(1, 2, NAN)
    with pytest.raises(StageRegressionError,
                       match="^pair at stage 1 after stage 4$"):
        t.assert_pair(1, 2, 1)
    t.assert_pair(1, 2, 5)
    assert table_state(t) == table_state(_chained([(0, 1, 4), (1, 2, 5)], 5))
    with pytest.raises(StageRegressionError, match="nan"):
        CeerTable(5).assert_pair(0, 1, NAN).assert_pair(1, 2, 5)
    for rows in ([(0, 1, NAN), (1, 2, 5)], [(0, 1, 4), (1, 2, NAN), (2, 3, 1)],
                 [[0, 1, 4], [1, 2, NAN]]):
        with pytest.raises(StageRegressionError, match="stage nan"):
            CeerTable.from_pairs(rows, 5)
    s = StageSet()
    with pytest.raises(StageRegressionError,
                       match="^entry at stage nan, which no stage orders$"):
        s.add("x", NAN)
    s.add("a", 4)
    with pytest.raises(StageRegressionError,
                       match="^entry at stage nan after stage 4$"):
        s.add("b", NAN)
    with pytest.raises(StageRegressionError,
                       match="^entry at stage 1 after stage 4$"):
        s.add("c", 1)
    s.add("d", 5)
    assert s.entries() == (("a", 4), ("d", 5))
    with pytest.raises(StageRegressionError, match="stage nan"):
        StageSet([("a", 4), ("b", NAN), ("c", 1)])
    assert (t.related(0, 1, NAN), t.related(2, 2, NAN)) == (False, True)
    assert t.classes_at(NAN) == [[n] for n in range(5)]
    assert (s.count_at(NAN), s.at_stage(NAN)) == (0, [])


# -- stages no int reaches ---------------------------------------------------

# the stage views of a table, two stage sets, a census and a canonical
# vector; the table's last pair is at stage 5 and every other last entry is
# at or before stage 14
_STAGE_VIEWS = """\
from ceerlab.ceers import CeerTable, StageSet
from ceerlab.groups import StagedPresentation, staged_abelian_wp


def views(stage):
    small = CeerTable(4).assert_pair(0, 1, 1)
    table = CeerTable(7).assert_pair(0, 1, 1).assert_pair(3, 4, 3)
    table.assert_pair(1, 3, 5)
    pres = StagedPresentation(8)
    pres.set_level(0, range(8), 0)
    pres.add_relation(3, [(1, 1)], 2)
    pres.set_statuses(0, [5], "free", 4)
    pres.add_relation(6, [(3, 2), (0, -1)], 4)
    return {
        "related": (small.related(0, 1, stage),
                    [table.related(a, b, stage)
                     for a in range(7) for b in range(7)]),
        "roots_at": (small.roots_at(stage), table.roots_at(stage)),
        "classes_at": (small.classes_at(stage), table.classes_at(stage)),
        "count_at": (
            StageSet([("a", 0), ("b", 2), ("a", 2), ("c", 7)]).count_at(stage),
            StageSet.generated(range(10), 10, 2, 3, 2).count_at(stage)),
        "census_at": pres.census_at(0, stage),
        "staged_abelian_wp": staged_abelian_wp(
            pres, [(6, 1), (3, 1), (7, 1)], stage),
    }
"""
# the child arms a watchdog once ceerlab is imported: a query still running
# 1 s later dumps its stack and exits 1
_WATCHED_VIEWS = _STAGE_VIEWS + """
import faulthandler, sys
faulthandler.dump_traceback_later(1, exit=True)
print(repr(views(float(sys.argv[1]))))
"""


@pytest.mark.parametrize("token", ["inf", "1e309", "-inf", "nan"])
def test_stages_no_int_reaches_are_answered_within_a_second(token):
    space = {}
    exec(_STAGE_VIEWS, space)
    first, last = space["views"](-1), space["views"](10 ** 6)
    assert first != last and last == space["views"](14)
    # NaN, which no stage orders, is read by every view as a stage before
    # every entry
    expected = {"inf": last, "1e309": last, "-inf": first,
                "nan": first}[token]
    proc = subprocess.run(
        [sys.executable, "-c", _WATCHED_VIEWS, token],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert ast.literal_eval(proc.stdout) == expected


# -- operations vs definitional oracles ------------------------------------


def test_product_matches_oracle():
    rng = random.Random(11)
    for trial in range(8):
        left = random_table(rng, bound=5, n_pairs=4, max_stage=9)
        right = random_table(rng, bound=5, n_pairs=4, max_stage=9)
        prod = product(left, right)
        lo, ro = closure_of(left), closure_of(right)
        checkpoints = sorted(set(left.stages()) | set(right.stages()) | {0, 50})
        for n in range(min(32, prod.bound)):
            for m in range(min(32, prod.bound)):
                for s in checkpoints:
                    assert prod.related(n, m, s) == product_related(
                        lo, ro, n, m, s
                    ), (n, m, s)


def product_per_stage(left: CeerTable, right: CeerTable) -> CeerTable:
    """The product built code by code: at every stage, each code is paired
    with the first code sharing its pair of class keys, unless the two are
    already related.  The kernel walks the factors' pairs instead."""
    bl, br = left.bound, right.bound
    if bl == 0 or br == 0:
        return CeerTable(0)
    out = CeerTable(pair(bl - 1, br - 1) + 1)
    for s in sorted(set(left.stages()) | set(right.stages()) | {0}):
        rl, rr = left.roots_at(s), right.roots_at(s)
        first: dict[tuple[int, int], int] = {}
        for a in range(bl):
            for b in range(br):
                c = pair(a, b)
                c0 = first.setdefault((rl[a], rr[b]), c)
                if not out.related(c0, c, s):
                    out.assert_pair(c0, c, s)
    return out


def product_by_generators(left: CeerTable, right: CeerTable) -> CeerTable:
    """The product built generator by generator: each factor pair, walked
    merged by stage, is asserted against every index of the other factor
    unless the output already relates the two codes.  The kernel asserts
    the same pairs but reads the other factor's class leasts instead."""
    bl, br = left.bound, right.bound
    if bl == 0 or br == 0:
        return CeerTable(0)
    out = CeerTable(pair(bl - 1, br - 1) + 1)
    sides = heapq.merge(((s, 0, a, b) for a, b, s in left.pairs),
                        ((s, 1, a, b) for a, b, s in right.pairs))
    for s, side, x, y in sides:
        for k in range(bl if side else br):
            c, d = (pair(k, x), pair(k, y)) if side else (pair(x, k), pair(y, k))
            if not out.related(c, d, s):
                out.assert_pair(c, d, s)
    return out


def pullback_per_stage(f: ReductionFn, target: CeerTable,
                       bound: int | None = None) -> CeerTable:
    """The pullback built index by index: at every stage, each index is
    paired with the least one whose image shares its target class, unless
    the two are already related.  The kernel asserts the same pairs but
    walks the target's pairs instead."""
    if bound is None:
        bound = f.totality_bound
    images = [f(n) for n in range(bound)]
    for fi in images:
        target._check_index(fi)
    out = CeerTable(bound)
    for s in sorted(set(target.stages()) | {0}):
        roots = target.roots_at(s)
        first: dict[int, int] = {}
        for i, fi in enumerate(images):
            j = first.setdefault(roots[fi], i)
            if not out.related(j, i, s):
                out.assert_pair(j, i, s)
    return out


def test_product_relates_what_the_per_stage_product_relates():
    rng = random.Random(43)
    for trial in range(40):
        # unequal bounds, and factors whose top indices no pair names
        bl, br = rng.randint(0, 6), rng.randint(1, 6)
        left = (random_table(rng, bl, rng.randint(0, 6), 9,
                             named=rng.randint(1, bl)) if bl else CeerTable(0))
        right = random_table(rng, br, rng.randint(0, 6), 9,
                             named=rng.randint(1, br))
        if rng.random() < 0.5:
            left, right = right, left
        new, old = product(left, right), product_per_stage(left, right)
        assert new.bound == old.bound
        assert len(new.pairs) == len(old.pairs), trial
        new_closure = StagedClosure(new.pairs, new.bound)
        old_closure = StagedClosure(old.pairs, old.bound)
        for s in sorted(set(left.stages()) | set(right.stages()) | {0, 99}):
            assert new_closure.classes(s) == old_closure.classes(s), (trial, s)
            assert new.classes_at(s) == old.classes_at(s), (trial, s)


def walked_table(rng: random.Random, bound: int) -> CeerTable:
    """Up to ten pairs among the table's first indices, from a stage in
    -4..1 on, often several to a stage; small index ranges make redundant
    pairs and self-pairs common."""
    table = CeerTable(bound)
    if bound:
        named, stage = rng.randint(1, bound), rng.randint(-4, 1)
        for _ in range(rng.randint(0, 10)):
            stage += rng.choice((0, 0, 1, 2))
            table.assert_pair(rng.randrange(named), rng.randrange(named),
                              stage)
    return table


def built(op, *args):
    """An operation's output as its bound and pairs, or what it raised."""
    out = outcome(op, *args)
    return (out.bound, out.pairs) if isinstance(out, CeerTable) else out


def test_product_asserts_the_pairs_of_the_generator_walk():
    rng = random.Random(47)
    for trial in range(1200):
        # zero and unequal bounds, and top indices no pair names
        left = walked_table(rng, rng.randint(0, 7))
        right = walked_table(rng, rng.randint(0, 7))
        assert built(product, left, right) == built(
            product_by_generators, left, right), (trial, left.pairs,
                                                  right.pairs)


def test_pullback_asserts_the_pairs_of_the_per_stage_walk():
    rng = random.Random(53)
    raised = negative = 0
    for trial in range(1200):
        target = walked_table(rng, rng.randint(1, 8))
        # small targets give equal images; now and then an image out of
        # the target's bound, an argument missing below the bound, or a
        # bound other than the map's
        top = target.bound + (rng.random() < 0.05)
        n = rng.randint(0, 10)
        table = {i: (rng.randrange(top), 0) for i in range(n)}
        if table and rng.random() < 0.1:
            del table[rng.choice(sorted(table))]
        bound = None if rng.random() < 0.7 else rng.randint(0, n + 2)
        args = (ReductionFn(table, n), target, bound)
        got = built(pullback, *args)
        assert got == built(pullback_per_stage, *args), (trial, target.pairs,
                                                         table, bound)
        raised += not isinstance(got[1], tuple)
        negative += bool(target.pairs) and target.pairs[0][2] < 0
    assert raised > 50 and negative > 200


def test_pullback_starts_at_the_least_target_stage():
    target = CeerTable.loads('{"a": 0, "b": 1, "s": -3}\n'
                             '{"a": 1, "b": 2, "s": 2}\n')
    fn = ReductionFn({0: (0, 0), 1: (1, 0), 2: (2, 0), 3: (0, 0)}, 4)
    expected = ((0, 1, -3), (0, 3, -3), (0, 2, 2))
    assert pullback_per_stage(fn, target).pairs == expected
    assert pullback(fn, target).pairs == expected


def test_pullback_and_product_errors_are_the_walks_errors():
    target = CeerTable(3)
    cases = [
        (ReductionFn({0: (0, 0), 2: (1, 0)}, 3), None),  # partial below bound
        (ReductionFn({0: (0, 0)}, 1), 2),                # bound past the map
        (ReductionFn({0: (1, 0), 1: (5, 0), 2: (7, 0)}, 3), None),
    ]
    for fn, bound in cases:
        got = built(pullback, fn, target, bound)
        assert got == built(pullback_per_stage, fn, target, bound)
        assert got[0] in (PartialityError, BoundError)
    assert built(pullback, cases[2][0], target) == (BoundError,
                                                    "index 5 out of bound 3")
    # an output code past the table index ceiling, met at the same pair
    wide = CeerTable.loads('{"a": 0, "b": 1, "s": 0}\n'
                           '{"a": 0, "b": 1500, "s": 1}\n')
    got = built(product, wide, CeerTable(2))
    assert got == built(product_by_generators, wide, CeerTable(2))
    assert got[0] is IndexCeilingError


def test_product_and_pullback_work_follows_their_pairs(monkeypatch):
    rng = random.Random(59)
    target = CeerTable.from_pairs(
        [(rng.randrange(2000), rng.randrange(2000), s)
         for s in range(1, 401) for _ in range(2)], 2000)
    fn = ReductionFn({n: (rng.randrange(2000), 0) for n in range(600)}, 600)
    left = random_table(rng, bound=30, n_pairs=300, max_stage=400)
    right = random_table(rng, bound=40, n_pairs=8, max_stage=400)
    pulled = pullback_per_stage(fn, target).pairs
    multiplied = product_by_generators(left, right).pairs
    calls: dict[str, int] = {}
    for name in ("related", "roots_at"):
        def counted(*args, real=getattr(CeerTable, name), name=name):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)
        monkeypatch.setattr(CeerTable, name, counted)
    assert pullback(fn, target).pairs == pulled
    assert calls == {}
    assert product(left, right).pairs == multiplied
    assert calls.get("related", 0) <= len(left.pairs) + len(right.pairs)
    assert "roots_at" not in calls


def test_join_matches_oracle():
    rng = random.Random(13)
    for trial in range(8):
        cols = [random_table(rng, bound=5, n_pairs=3, max_stage=9)
                for _ in range(3)]
        joined = uniform_join(cols)
        oracles_cols = [closure_of(c) for c in cols]
        stages = sorted({s for c in cols for s in c.stages()} | {0, 50})
        for n in range(min(32, joined.bound)):
            for m in range(min(32, joined.bound)):
                for s in stages:
                    assert joined.related(n, m, s) == join_related(
                        oracles_cols, n, m, s
                    ), (n, m, s)


@pytest.mark.parametrize("hi_first", [True, False])
@pytest.mark.parametrize("j", [0, 2])
def test_uniform_join_explicit_bound_keeps_codes_below_it(j, hi_first):
    """An explicit bound keeps a pair whose higher code is bound - 1 and
    drops one whose higher code is bound, on either side of the pair."""
    lo, hi = 1, 6
    col = CeerTable(bound=8)
    col.assert_pair(*((hi, lo) if hi_first else (lo, hi)), 3)
    columns = [CeerTable(bound=8) for _ in range(j)] + [col]
    top = pair(j, hi)
    assert pair(j, lo) < top
    kept = uniform_join(columns, bound=top + 1)
    assert kept.bound == top + 1
    assert kept.pairs == (((top, pair(j, lo)) if hi_first
                           else (pair(j, lo), top)) + (3,),)
    assert kept.related(pair(j, lo), top, 3)
    dropped = uniform_join(columns, bound=top)
    assert dropped.bound == top and dropped.pairs == ()


def test_join_column_decode():
    assert unpair(pair(2, 7)) == (2, 7)


def test_pullback_matches_oracle():
    rng = random.Random(17)
    for trial in range(10):
        target = random_table(rng, bound=8, n_pairs=6, max_stage=12)
        mapping = {n: rng.randrange(8) for n in range(10)}
        fn = ReductionFn({n: (v, 0) for n, v in mapping.items()}, 10)
        pulled = pullback(fn, target)
        oracle = closure_of(target)
        for s in list(target.stages()) + [0, 99]:
            for i in range(10):
                for j in range(10):
                    assert pulled.related(i, j, s) == pullback_related(
                        mapping, oracle, i, j, s
                    )


def test_pullback_is_reduction():
    rng = random.Random(19)
    for trial in range(5):
        target = random_table(rng, bound=9, n_pairs=7, max_stage=15)
        fn = ReductionFn({n: (rng.randrange(9), 0) for n in range(12)}, 12)
        pulled = pullback(fn, target)
        report = verify_reduction(fn, pulled, target, 12, pulled.last_stage)
        assert report.ok
        assert not report.unaligned_so_far


def test_product_and_pullback_emit_one_pair_per_merge():
    rng = random.Random(29)
    for trial in range(8):
        left = random_table(rng, bound=6, n_pairs=6, max_stage=9)
        right = random_table(rng, bound=6, n_pairs=6, max_stage=9)
        target = random_table(rng, bound=8, n_pairs=6, max_stage=12)
        fn = ReductionFn({n: (rng.randrange(8), 0) for n in range(12)}, 12)
        for out in (product(left, right), pullback(fn, target)):
            merges = out.bound - len(out.classes_at(out.last_stage))
            assert len(out.pairs) == merges, (trial, out)


def test_pullback_partiality():
    t = CeerTable(bound=4)
    fn = ReductionFn({0: (0, 0), 2: (1, 0)}, 3)
    with pytest.raises(PartialityError):
        pullback(fn, t, bound=3)


def test_verify_reduction_detects_violation():
    src = CeerTable(bound=4)
    src.assert_pair(0, 1, 1)
    tgt = CeerTable(bound=4)
    fn = ReductionFn.identity(4)
    report = verify_reduction(fn, src, tgt, 4, 1)
    assert not report.ok
    assert (0, 1) in report.positive_violations
    assert "positive violation" in report_text(report)


def test_verify_reduction_unaligned_is_inconclusive():
    src = CeerTable(bound=4)
    tgt = CeerTable(bound=4)
    tgt.assert_pair(0, 1, 3)
    fn = ReductionFn.identity(4)
    report = verify_reduction(fn, src, tgt, 4, 3)
    assert report.ok
    assert (0, 1) in report.unaligned_so_far
    assert "inconclusive" in report_text(report)


# -- stubs and probes -------------------------------------------------------


def test_functional_stub_gating():
    t = CeerTable(bound=8)
    t.assert_pair(0, 1, 4)
    stub = FunctionalStub(ident=0, converge_stage=2, use=5,
                          required_pairs=((0, 1),))
    related = lambda a, b: t.related(a, b, 3)
    assert stub.evaluate(related, 1) is None       # before converge stage
    assert stub.evaluate(related, 3) is None       # pair not yet present
    related4 = lambda a, b: t.related(a, b, 4)
    assert stub.evaluate(related4, 4) == 5
    assert stub.evaluate(related4, 100) == 5       # halting is permanent


def test_functional_stub_use_covers_pairs():
    with pytest.raises(ValueError):
        FunctionalStub(ident=0, converge_stage=0, use=3,
                       required_pairs=((0, 7),))


# -- snapshot checks vs their pairwise references ----------------------------

DIFFERENTIAL = settings(derandomize=True, database=None, deadline=None,
                        max_examples=400)


@st.composite
def staged_tables(draw, least=0):
    """A table of bound least-12, empty or with pairs among its first
    indices."""
    bound = draw(st.integers(least, 12))
    named = draw(st.integers(0, bound))
    table, stage = CeerTable(bound), 0
    if named:
        index = st.integers(0, named - 1)
        for a, b, step in draw(st.lists(
                st.tuples(index, index, st.integers(0, 2)),
                min_size=named, max_size=14)):
            stage += step
            table.assert_pair(a, b, stage)
    return table


def query_stages(*tables):
    """Stages before, between and past the tables' pairs."""
    return st.integers(-1, max(t.last_stage for t in tables) + 2)


def indices(draw, table):
    """Indices of the table, or now and then indices around its bound."""
    if draw(st.integers(0, 3)):
        return st.integers(0, max(table.bound - 1, 0))
    return st.integers(-1, table.bound + 1)


def outcome(check, *args):
    """A check's return value, or the type and message of what it raised."""
    try:
        return check(*args)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)


@st.composite
def reductions(draw):
    bound = draw(st.integers(0, 12))
    source_least = bound if draw(st.integers(0, 3)) else 0
    source, target = draw(staged_tables(source_least)), draw(staged_tables())
    image = indices(draw, target)
    table = {n: (draw(image), 0) for n in range(bound)}
    if table and draw(st.integers(0, 3)) == 0:  # a map partial below bound
        del table[draw(st.sampled_from(sorted(table)))]
    fn = ReductionFn(table, bound)
    return fn, source, target, bound, draw(query_stages(source, target))


@DIFFERENTIAL
@given(reductions())
# f(1) and 1 both out of bound: the image is met first
@example((ReductionFn({0: (0, 0), 1: (5, 0)}, 2), CeerTable(1), CeerTable(1),
          2, 0))
def test_verify_reduction_matches_pairwise_walk_and_oracle(case):
    fn, source, target, bound, stage = case
    got = outcome(verify_reduction, *case)
    assert got == outcome(pairwise_verify_reduction, *case)
    if not isinstance(got, ReductionReport):
        return
    src, tgt = closure_of(source), closure_of(target)
    late, final = max(source.last_stage, stage), target.last_stage
    pairs = [(i, j) for i in range(bound) for j in range(i + 1, bound)]
    images = [(i, j) for i, j in pairs if tgt.related(fn(i), fn(j), final)]
    assert got.positive_violations == [
        (i, j) for i, j in pairs
        if src.related(i, j, stage) and (i, j) not in images]
    assert got.unaligned_so_far == [
        (i, j) for i, j in images if not src.related(i, j, late)]


@pytest.mark.parametrize("images,target_bound,bound,error", [
    # images in the target: the source's 0 is met at j = 1, before its 1
    ((0, 1, 2), 3, 3, "index 0 out of bound 0"),
    ((0, 1), 2, 2, "index 0 out of bound 0"),
    # f(1) out of the target: met before the source's 0
    ((0, 1, 2), 1, 3, "index 1 out of bound 1"),
    # f(0) out of the target: met first of all
    ((5, 1, 2), 3, 3, "index 5 out of bound 3"),
    # below bound 2 there is no pair and nothing is checked
    ((7,), 3, 1, None),
])
def test_verify_reduction_error_order_on_a_source_of_bound_0(
        images, target_bound, bound, error):
    fn = ReductionFn({n: (v, 0) for n, v in enumerate(images)}, len(images))
    case = (fn, CeerTable(bound=0), CeerTable(bound=target_bound), bound, 0)
    got = outcome(verify_reduction, *case)
    assert got == outcome(pairwise_verify_reduction, *case)
    if error is None:
        assert got == ReductionReport(bound=bound, stage=0)
    else:
        assert got == (BoundError, error)


def test_snapshot_checks_call_no_related(monkeypatch):
    rng = random.Random(31)
    source = random_table(rng, bound=40, n_pairs=30, max_stage=20)
    target = random_table(rng, bound=12, n_pairs=8, max_stage=20)
    fn = ReductionFn({n: (rng.randrange(12), 0) for n in range(40)}, 40)
    expected = pairwise_verify_reduction(fn, source, target, 40, 10)
    assert expected.positive_violations and expected.unaligned_so_far
    calls = []
    monkeypatch.setattr(CeerTable, "related",
                        lambda *args: calls.append(args))
    assert verify_reduction(fn, source, target, 40, 10) == expected
    assert calls == []
