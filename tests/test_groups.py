import itertools
import random

import pytest

from ceerlab.ceers import CeerTable
from ceerlab.groups import (
    CeerModuleGroup,
    CyclicFactor,
    FreeProduct,
    StagedPresentation,
    StageRegressionError,
    TriangularityError,
    WordCoding,
    alternating_word,
    fp_reduce,
    staged_abelian_wp,
    star_z2_to_star_h,
    validate_relation_stream,
    word_problem_table,
    z2_module_wp,
)

from helpers import (
    StagedAbelianFactor,
    reference_add_relation,
    reference_staged_abelian_wp,
)
from oracles import scan_reduce, staged_wp_dense


# -- cyclic factors and free products -----------------------------------------


def test_cyclic_factor_arithmetic():
    z5 = CyclicFactor(5)
    assert z5.mul(3, 4) == 2
    assert z5.inv(2) == 3
    assert z5.is_identity(z5.mul(2, 3))
    assert CyclicFactor(1).is_identity(0)
    with pytest.raises(ValueError):
        CyclicFactor(0)


def _cyclic_product(n: int, m: int) -> FreeProduct:
    return FreeProduct({"G": CyclicFactor(n), "H": CyclicFactor(m)})


def test_fp_reduce_basics():
    prod = _cyclic_product(2, 3)
    w = prod.word([("G", 1), ("G", 1), ("H", 1), ("H", 2)])
    assert fp_reduce(w).is_identity()
    w2 = prod.word([("G", 1), ("H", 1), ("G", 1)])
    red = fp_reduce(w2)
    assert len(red) == 3


def test_fp_reduce_matches_scan_oracle_exhaustive():
    prod = _cyclic_product(2, 3)
    identities = {"G": 0, "H": 0}
    multiply = {"G": lambda a, b: (a + b) % 2, "H": lambda a, b: (a + b) % 3}
    letters = [("G", 0), ("G", 1), ("H", 0), ("H", 1), ("H", 2)]
    for n in range(5):
        for combo in itertools.product(letters, repeat=n):
            w = prod.word(list(combo))
            got = fp_reduce(w).syllables
            want = tuple(scan_reduce(list(combo), identities, multiply))
            assert got == want, combo


def test_free_product_word_group_axioms():
    prod = _cyclic_product(4, 3)
    rng = random.Random(3)
    for _ in range(40):
        sylls = [
            ("G", rng.randrange(4)) if rng.random() < 0.5
            else ("H", rng.randrange(3))
            for _ in range(rng.randint(0, 6))
        ]
        w = prod.word(sylls)
        assert fp_reduce(w * w.inverse()).is_identity()
        assert fp_reduce(w.inverse() * w).is_identity()


def test_free_product_rejects_cross_instance():
    p1 = _cyclic_product(2, 3)
    p2 = _cyclic_product(2, 3)
    with pytest.raises(ValueError):
        p1.word([]) * p2.word([])
    with pytest.raises(KeyError):
        p1.word([("Z", 1)])


def test_alternating_word_layout():
    prod = _cyclic_product(5, 2)
    w = alternating_word([1, 2, 3], prod, g_tag="G", a_tag="H")
    assert w.syllables == (
        ("G", 1), ("H", 1), ("G", 2), ("H", 1), ("G", 3)
    )


# -- the Z/2 separator replacement ------------------------------------------


def _z2_identity(g_letters: list[int], order: int) -> bool:
    """Decide triviality of g_0 a g_1 a ... in (Z/order) * (Z/2)."""
    prod = FreeProduct({"G": CyclicFactor(order), "A": CyclicFactor(2)})
    return fp_reduce(alternating_word(g_letters, prod, a_tag="A")).is_identity()


def test_star_z2_to_star_h_biconditional_exhaustive():
    for g_order in (2, 3, 4, 5):
        for h_order in (2, 3, 4, 5):
            target = FreeProduct(
                {"G": CyclicFactor(g_order), "H": CyclicFactor(h_order)}
            )
            for h_elem in range(1, h_order):
                for n in range(1, 4):
                    for letters in itertools.product(range(g_order), repeat=n):
                        lhs = _z2_identity(list(letters), g_order)
                        image = star_z2_to_star_h(
                            list(letters), h_elem, target
                        )
                        rhs = fp_reduce(image).is_identity()
                        assert lhs == rhs, (g_order, h_order, h_elem, letters)


def test_star_z2_to_star_h_rejects_identity_separator():
    target = _cyclic_product(3, 4)
    with pytest.raises(ValueError):
        star_z2_to_star_h([1, 2], 0, target)


# -- involution modules over a ceer -------------------------------------------


def test_z2_module_wp_respects_ceer():
    t = CeerTable(bound=8)
    t.assert_pair(1, 4, 3)
    grp = CeerModuleGroup(t)
    # before the merge g_1 g_4 is nontrivial, after it cancels
    assert z2_module_wp(grp, [1, 4], 2) != frozenset()
    assert z2_module_wp(grp, [1, 4], 3) == frozenset()
    # squares vanish regardless
    assert z2_module_wp(grp, [(5, 2)], 0) == frozenset()
    assert z2_module_wp(grp, [5, 6, 5], 9) == frozenset({6})


def test_z2_module_wp_monotone():
    rng = random.Random(9)
    t = CeerTable(bound=10)
    stage = 0
    for _ in range(8):
        stage += rng.randint(0, 3)
        t.assert_pair(rng.randrange(10), rng.randrange(10), stage)
    grp = CeerModuleGroup(t)
    for _ in range(30):
        word = [rng.randrange(10) for _ in range(rng.randint(0, 6))]
        trivial_from = None
        for s in range(stage + 2):
            if z2_module_wp(grp, word, s) == frozenset():
                trivial_from = s
                break
        if trivial_from is not None:
            for s in range(trivial_from, stage + 2):
                assert z2_module_wp(grp, word, s) == frozenset()


# -- staged presentations ------------------------------------------------------


def test_presentation_triangularity_guards():
    pres = StagedPresentation(ngens=10)
    pres.add_relation(5, [(1, 2), (3, -1)], 1)
    with pytest.raises(TriangularityError):
        pres.add_relation(5, [], 2)           # second definition
    with pytest.raises(TriangularityError):
        pres.add_relation(4, [(4, 1)], 2)     # self-reference
    with pytest.raises(TriangularityError):
        pres.add_relation(3, [(7, 1)], 2)     # larger index on the right
    with pytest.raises(TriangularityError):
        pres.add_relation(3, [(1, 1), (7, 0)], 2)  # even with exponent 0
    with pytest.raises(StageRegressionError):
        pres.add_relation(7, [], 0)
    with pytest.raises(ValueError):
        pres.add_relation(11, [], 3)          # beyond ngens


def test_presentation_stage_writers_refuse_nan():
    """A NaN stage, which no stage orders, is refused by `add_relation`,
    `set_level` and `set_statuses`, naming the stage, and nothing is
    stored: a later relation below the last kept stage is still refused."""
    nan = float("nan")
    pres = StagedPresentation(ngens=10)
    with pytest.raises(StageRegressionError,
                       match="^relation stage nan below last stage 0$"):
        pres.add_relation(1, [], nan)
    pres.add_relation(1, [], 4)
    with pytest.raises(StageRegressionError,
                       match="^relation stage nan below last stage 4$"):
        pres.add_relation(2, [(1, 1)], nan)
    with pytest.raises(StageRegressionError,
                       match="^relation stage 1 below last stage 4$"):
        pres.add_relation(3, [], 1)
    with pytest.raises(StageRegressionError, match="^level stage nan "):
        pres.set_level(0, range(0, 4), nan)
    pres.set_level(0, range(0, 4), 5)
    with pytest.raises(StageRegressionError, match="^status stage nan "):
        pres.set_statuses(0, [2], "free", nan)
    pres.add_relation(2, [(1, 1)], 6)
    assert [(r.lhs, r.stage) for r in pres.relations] == [(1, 4), (2, 6)]
    assert pres.status == {} and pres._last_stage == 6
    with pytest.raises(StageRegressionError):
        validate_relation_stream([(3, (), 4), (4, (), nan), (5, (), 1)])
    assert pres.census_at(0, 6)["level"] == 4
    # NaN reads as a stage before every entry
    assert pres.census_at(0, nan) == pres.census_at(0, -1) != pres.census_at(
        0, 6)


def test_validate_relation_stream():
    good = [(3, ((1, 1),), 0), (5, ((3, -1),), 2)]
    validate_relation_stream(good)
    with pytest.raises(TriangularityError):
        validate_relation_stream([(3, ((3, 1),), 0)])
    with pytest.raises(StageRegressionError):
        validate_relation_stream([(3, (), 5), (4, (), 1)])
    with pytest.raises(TriangularityError, match="x3 already has a defining"):
        validate_relation_stream([(3, (), 0), (3, ((1, 1),), 1)])
    with pytest.raises(TriangularityError, match="mentions x4"):
        validate_relation_stream([(3, ((1, 1), (4, 0)), 0)])


def test_staged_abelian_wp_substitution():
    pres = StagedPresentation(ngens=10)
    pres.add_relation(5, [(2, 1)], 1)         # x5 = x2
    pres.add_relation(7, [(5, -1)], 3)        # x7 = x5^-1
    # before any relation applies
    assert staged_abelian_wp(pres, {7: 1, 2: 1}, 0) == ((2, 1), (7, 1))
    # x7 -> x5^-1 -> x2^-1 cancels the x2
    assert staged_abelian_wp(pres, {7: 1, 2: 1}, 3) == ()
    assert staged_abelian_wp(pres, {7: 1, 2: 1}, 1) == ((2, 1), (7, 1))
    assert staged_abelian_wp(pres, [(5, 1), (2, -1)], 1) == ()


def test_staged_abelian_wp_unique_normal_form():
    rng = random.Random(15)
    for trial in range(10):
        pres = StagedPresentation(ngens=12)
        stage = 0
        for lhs in rng.sample(range(1, 12), 5):
            rhs = [
                (i, rng.choice([-2, -1, 1, 2]))
                for i in rng.sample(range(lhs), min(lhs, rng.randint(0, 3)))
            ]
            try:
                pres.add_relation(lhs, rhs, stage)
            except TriangularityError:
                continue
            stage += 1
        for _ in range(10):
            vec = {
                i: rng.randint(-2, 2) for i in rng.sample(range(12), 4)
            }
            w = staged_abelian_wp(pres, vec, stage)
            # canonical vectors contain no substituted generators and
            # re-reducing them is the identity operation
            assert staged_abelian_wp(pres, dict(w), stage) == w
            for idx, _ in w:
                rel = pres.lhs_relation(idx)
                assert rel is None or rel.stage > stage


def test_staged_abelian_wp_matches_dense_oracle_randomized():
    rng = random.Random(8)
    for trial in range(300):
        ngens = rng.randint(1, 24)
        pres = StagedPresentation(ngens=ngens)
        stage = 0
        for lhs in rng.sample(range(ngens), rng.randint(0, ngens)):
            rhs = [(i, rng.choice((-2, -1, 1, 1, 2)))
                   for i in rng.choices(range(lhs), k=min(lhs, rng.randint(0, 3)))]
            stage += rng.choice((0, 0, 1, 2))
            pres.add_relation(lhs, rhs, stage)
        rels = [(r.lhs, r.rhs, r.stage) for r in pres.relations]
        for _ in range(8):
            word = [(rng.randrange(ngens), rng.randint(-3, 3))
                    for _ in range(rng.randint(0, 12))]
            s = rng.randint(0, stage + 1)
            want = staged_wp_dense(rels, ngens, word, s)
            assert staged_abelian_wp(pres, word, s) == want, (trial, word, s)
            vec: dict[int, int] = {}
            for i, e in word:
                vec[i] = vec.get(i, 0) + e
            assert staged_abelian_wp(pres, vec, s) == want


def _outcome(f, *args):
    """What a call gives: ("ok", repr of its value), or its exception's type
    and message."""
    try:
        return "ok", repr(f(*args))
    except Exception as exc:  # every refusal is compared, whatever its type
        return type(exc), str(exc)


def _relation_entry(rng, top, stage, defined):
    """One (lhs, rhs, stage) for a presentation of `top` letters at last
    stage `stage`: triangular, or broken in one of the ways a log can be."""
    lhs = rng.randrange(1, top)
    rhs = [(i, rng.choice((-2, -1, 0, 1, 2)))
           for i in rng.choices(range(lhs), k=rng.randint(0, 3))]
    at = rng.randint(0, len(rhs))
    new_stage = stage + rng.choice((0, 0, 0, 1, 300))
    kind = rng.randrange(16)
    if kind == 0:
        lhs = -rng.randint(1, 3)
    elif kind == 1:
        lhs = top + rng.randint(0, 2)
    elif kind == 2 and defined:
        lhs = rng.choice(sorted(defined))
    elif kind == 3:
        rhs.insert(at, (lhs, rng.choice((0, 1))))
    elif kind == 4:
        rhs.insert(at, (lhs + rng.randint(1, 3), rng.choice((0, 1))))
    elif kind == 5:
        rhs.insert(at, (-1, rng.choice((0, 1))))
    elif kind == 6:
        new_stage = stage - rng.randint(1, 2)
    elif kind == 7:
        lhs = rng.choice((str(lhs), None, float(lhs), True, [lhs]))
    elif kind == 8:
        rhs.insert(at, rng.choice(((str(lhs - 1), 1), (0.5, 1), (0, "x"),
                                   (0, 1.0), [0, 1], (0,), (0, 1, 2), None)))
    elif kind == 9:
        new_stage = rng.choice(("s", None, float(stage), stage + 0.5, True))
    elif kind == 10:
        rhs = rng.choice((5, None, "ab"))
    return lhs, rhs, new_stage


def test_add_relation_matches_the_helper_call_reference():
    """Seeded triangular streams with malformed entries mixed in: the same
    relation or the same refusal, and the same state after each entry."""
    rng = random.Random(31)
    for trial in range(250):
        ngens = rng.choice((None, rng.randint(2, 30)))
        top = 30 if ngens is None else ngens
        new, ref = StagedPresentation(ngens), StagedPresentation(ngens)
        stage = rng.choice((0, 1000))
        for _ in range(rng.randint(0, 30)):
            lhs, rhs, at = _relation_entry(rng, top, stage, ref._by_lhs)
            got = _outcome(new.add_relation, lhs, rhs, at)
            want = _outcome(reference_add_relation, ref, lhs, rhs, at)
            assert got == want, (trial, lhs, rhs, at)
            state = [(repr(p.relations), repr(p._by_lhs), repr(p._last_stage))
                     for p in (new, ref)]
            assert state[0] == state[1], (trial, lhs, rhs, at)
            if got[0] == "ok":
                assert type(new.relations[-1]) is type(ref.relations[-1])
                if isinstance(at, int):
                    stage = at


def _word(rng, top):
    """A word over `top` letters as pairs or a dict, sometimes with a bad
    letter, a letter that cancels out, or a value no word holds."""
    word = [(rng.randrange(top), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 12))]
    at = rng.randint(0, len(word))
    kind = rng.randrange(12)
    if kind == 0:
        word.insert(at, (rng.choice((-1, top, top + 5)), rng.choice((1, -2))))
    elif kind == 1:  # a bad letter that cancels out
        bad = rng.choice((-1, top))
        word[at:at] = [(bad, 1), (rng.randrange(top), 1), (bad, -1)]
    elif kind == 2:
        word.insert(at, rng.choice(((str(0), 1), (2.0, 1), (True, 1),
                                    (None, 1), ([0], 1), (0, None),
                                    (0, 0.5), (0, "x"), (0, 1, 2), (0,))))
    elif kind == 3:
        word.insert(at, (rng.randrange(top), 0))
    if rng.random() < 0.3:
        try:
            return dict(word)
        except (TypeError, ValueError):
            pass
    return word


def test_staged_abelian_wp_matches_the_two_loop_reference():
    """Seeded presentations and words, malformed ones included: the same
    canonical vector or the same refusal."""
    rng = random.Random(32)
    for trial in range(250):
        ngens = rng.choice((None, rng.randint(1, 24)))
        top = 24 if ngens is None else ngens
        pres = StagedPresentation(ngens)
        stage = 0
        for lhs in rng.sample(range(top), rng.randint(0, top)):
            rhs = [(i, rng.choice((-2, -1, 0, 1, 2)))
                   for i in rng.choices(range(lhs), k=min(lhs, rng.randint(0, 3)))]
            stage += rng.choice((0, 0, 1, 2))
            pres.add_relation(lhs, rhs, stage)
        for _ in range(12):
            word = _word(rng, top)
            s = rng.randint(0, stage + 1)
            got = _outcome(staged_abelian_wp, pres, word, s)
            assert got == _outcome(reference_staged_abelian_wp, pres, word, s), (
                trial, word, s)


def test_staged_abelian_factor_in_free_product():
    pres = StagedPresentation(ngens=6)
    pres.add_relation(3, [(1, 1)], 2)         # x3 = x1 from stage 2
    before = FreeProduct(
        {"G": StagedAbelianFactor(pres, 1), "A": CyclicFactor(2)}
    )
    after = FreeProduct(
        {"G": StagedAbelianFactor(pres, 2), "A": CyclicFactor(2)}
    )
    word = [("G", {3: 1}), ("A", 1), ("G", {1: -1})]
    # v = x3 a x1^-1: not trivial either way, but its G-syllables merge
    # only in the stage-2 product after multiplying adjacent syllables
    w_before = fp_reduce(before.word([("G", {3: 1}), ("G", {1: -1})]))
    w_after = fp_reduce(after.word([("G", {3: 1}), ("G", {1: -1})]))
    assert not w_before.is_identity()
    assert w_after.is_identity()
    assert len(fp_reduce(before.word(word))) == 3
    assert len(fp_reduce(after.word(word))) == 3


def test_status_tracking():
    pres = StagedPresentation(ngens=4)
    pres.set_level(0, range(2, 3), 0)
    pres.set_statuses(0, [2], "free", 4)
    assert pres.levels == {0: range(2, 3)}
    assert (pres.level_of(2), pres.level_of(3)) == (0, None)
    assert pres.status == {2: "free"}
    none = {"level": 0, "free": 0, "determined": 0, "collapsed": 0}
    assert pres.census_at(0, 0) == {**none, "level": 1}
    assert pres.census_at(0, 3) == {**none, "level": 1}
    assert pres.census_at(0, 4) == {**none, "free": 1}
    assert pres.census_at(1, 9) == none
    with pytest.raises(ValueError, match="level 0 is already laid out"):
        pres.set_level(0, range(3, 4), 4)
    with pytest.raises(ValueError, match="x4 is not materialized"):
        pres.set_level(1, range(3, 5), 4)
    with pytest.raises(StageRegressionError):  # one check per presentation
        pres.set_statuses(0, [2], "collapsed", 1)
    with pytest.raises(StageRegressionError):
        pres.set_level(1, range(3, 4), 1)
    assert pres.levels == {0: range(2, 3)}
    pres.add_relation(1, (), 6)
    with pytest.raises(StageRegressionError):
        pres.set_statuses(0, [2], "collapsed", 5)


# -- codings ------------------------------------------------------------------


def test_word_coding_bijection():
    coding = WordCoding(3)
    for n in range(2000):
        word = coding.decode(n)
        assert coding.encode(word) == n
        for idx, sign in word:
            assert 0 <= idx < 3 and sign in (1, -1)
    with pytest.raises(ValueError):
        coding.encode([(3, 1)])


def test_word_problem_table_first_stages():
    # toy stagewise equivalence: pair blocks merge at 1, everything at 5
    def equal_at(a: int, b: int, s: int) -> bool:
        if a == b or s >= 5:
            return True
        return s >= 1 and a // 2 == b // 2

    table = word_problem_table(equal_at, 6, 8)
    assert table.first_related_stage(2, 3) == 1
    assert table.first_related_stage(0, 3) == 5
    assert table.related(0, 4, 5)
    assert not table.related(0, 4, 4)

