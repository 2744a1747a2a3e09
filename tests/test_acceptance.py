"""End-to-end acceptance checks, one numbered test per shipped guarantee.

Each test prints a single PASS/FAIL verdict line on the real stdout so
the list stays visible under pytest's output capture.  Expected values
are recomputed from definitions (dense linear algebra, exhaustive
enumeration, stage replay of the shipped logs) or frozen as exact
rationals; nothing is read back from the code under test.
"""
from __future__ import annotations

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from ceerlab.algebra import (
    HomogeneousIdeal,
    Monomial,
    Poly,
    gs_audit,
    unit_inverse_poly,
    unit_word_to_poly,
)
from ceerlab.ceers import (
    CeerTable,
    ReductionFn,
    product,
    pullback,
    uniform_join,
    verify_reduction,
)
from ceerlab.cli import main as cli_main
from ceerlab.groups import (
    CeerModuleGroup,
    CyclicFactor,
    FreeProduct,
    WordCoding,
    alternating_word,
    star_z2_to_star_h,
    validate_relation_stream,
    word_problem_table,
    z2_module_wp,
)
from ceerlab.scenario import load_scenario
from helpers import level_words_equal_at, records_for, report_text
from oracles import StagedClosure, gs_bound, join_related, product_related, span_member

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _announce(number: int, verdict: str, text: str) -> None:
    print(f"ACCEPTANCE {number}: {verdict} - {text}", flush=True)


@contextmanager
def criterion(capfd, number: int, text: str):
    """Run one numbered check, emitting its verdict past pytest's capture."""
    try:
        yield
    except BaseException:
        with capfd.disabled():
            _announce(number, "FAIL", text)
        raise
    with capfd.disabled():
        _announce(number, "PASS", text)


# -- 1: ideal membership vs the dense span oracle ------------------------------


def _random_homogeneous(rng: random.Random, p: int, degree: int) -> Poly:
    while True:
        coeffs = {}
        for code in range(1 << degree):
            if rng.random() < 0.35:
                coeffs[Monomial(degree, code)] = rng.randrange(1, p)
        if coeffs:
            return Poly(p, coeffs)


def _random_poly(rng: random.Random, p: int, maxdeg: int, terms: int) -> Poly:
    coeffs = {}
    for _ in range(terms):
        d = rng.randrange(0, maxdeg + 1)
        coeffs[Monomial(d, rng.randrange(1 << d))] = rng.randrange(1, p)
    return Poly(p, coeffs)


def _random_member(rng: random.Random, gens: list[Poly], p: int, room: int) -> Poly:
    total = Poly.zero(p)
    for _ in range(rng.randrange(1, 3)):
        g = rng.choice(gens)
        slack = room - g.degree()
        a = rng.randrange(0, slack + 1)
        b = rng.randrange(0, slack - a + 1)
        u = Poly.monomial(Monomial(a, rng.randrange(1 << a)), p)
        v = Poly.monomial(Monomial(b, rng.randrange(1 << b)), p)
        total = total + u * g * v
    return total


def test_01_membership_matches_span_oracle(capfd):
    with criterion(capfd, 1, "ideal membership agrees with the dense span-closure oracle"):
        rng = random.Random(415)
        t0 = time.monotonic()
        compared = 0
        for trial in range(16):
            p = (2, 3)[trial % 2]
            gens = [
                _random_homogeneous(rng, p, rng.randrange(1, 5))
                for _ in range(rng.randrange(0, 4))
            ]
            ideal = HomogeneousIdeal(p=p, maxdeg=8, generators=gens)
            probes = [Poly.zero(p), Poly.one(p), *gens]
            if gens:
                probes.append(_random_member(rng, gens, p, room=8))
                probes.append(
                    _random_member(rng, gens, p, room=6)
                    + _random_poly(rng, p, 5, terms=2)
                )
            probes.append(_random_poly(rng, p, 6, terms=3))
            probes.append(_random_poly(rng, p, 8, terms=2))
            for f in probes:
                assert ideal.member(f) == span_member(f, gens, p), (
                    f"disagreement on trial {trial}: {f}"
                )
                compared += 1
        elapsed = time.monotonic() - t0
        assert compared >= 100
        assert elapsed < 60.0, f"membership sweep took {elapsed:.1f}s"


# -- 2: slice dimensions --------------------------------------------------------


def test_02_slice_dimensions_exact(capfd):
    with criterion(capfd, 2, "free-algebra slice dimensions are exactly 2^k"):
        free = HomogeneousIdeal(p=2, maxdeg=12)
        for k in range(13):
            assert free.quotient_dim(k) == 1 << k
        for n in (10, 13):
            gens = [
                Poly.monomial(Monomial(n, 0), 2),
                Poly.monomial(Monomial(n, (1 << n) - 1), 2),
            ]
            ideal = HomogeneousIdeal(p=2, maxdeg=n - 1, generators=gens)
            for k in range(n):
                assert ideal.quotient_dim(k) == 1 << k


# -- 3: relator budget audit ----------------------------------------------------


def test_03_budget_audit_exact_threshold(capfd):
    with criterion(capfd, 3, "relator budget audit passes/fails at the exact threshold"):
        eps = Fraction(1, 4)
        generous = {k: max(0, k - 10) for k in range(41)}
        verdict = gs_audit(generous, eps, 40)
        assert verdict.ok and verdict.failed_degree is None
        # recompute the bound the other way for every populated degree
        for k in range(11, 41):
            assert Fraction(k - 10) <= gs_bound(eps, k)

        verdict = gs_audit({10: 2}, eps, 40)
        assert not verdict.ok
        assert verdict.failed_degree == 10
        assert verdict.count == 2
        assert verdict.bound == Fraction(6561, 4096)
        assert verdict.bound == gs_bound(eps, 10)
        assert Fraction(2) > verdict.bound


# -- 4: truncated geometric inverse ----------------------------------------------


def test_04_unit_inverse_identity(capfd):
    with criterion(capfd, 4, "alternating sum inverts 1+x in the truncated quotient"):
        for p in (2, 3):
            for n in (10, 13):
                for letter, gen in (("X", Poly.x), ("Y", Poly.y)):
                    seed = Monomial(n, 0 if letter == "X" else (1 << n) - 1)
                    ideal = HomogeneousIdeal(
                        p=p, maxdeg=n, generators=[Poly.monomial(seed, p)]
                    )
                    prod = (Poly.one(p) + gen(p)) * unit_inverse_poly(letter, n, p)
                    leftover = prod - Poly.one(p)
                    # exact in the free algebra: only the degree-n term survives
                    assert set(leftover.homogeneous_components()) <= {n}
                    assert ideal.quotient_reduce(leftover).is_zero()
                    assert ideal.quotient_reduce(prod) == Poly.one(p)


# -- 5: separator substitution biconditional -------------------------------------


def test_05_separator_substitution_biconditional(capfd):
    with criterion(capfd, 5, "separator substitution preserves triviality both ways"):
        t0 = time.monotonic()
        checked = 0
        for gorder in range(2, 6):
            with_z2 = FreeProduct({"G": CyclicFactor(gorder), "A": CyclicFactor(2)})
            for horder in range(2, 6):
                target = FreeProduct(
                    {"G": CyclicFactor(gorder), "H": CyclicFactor(horder)}
                )
                for h in range(1, horder):
                    for n in range(5):
                        for letters in itertools.product(
                            range(gorder), repeat=n + 1
                        ):
                            w = alternating_word(letters, with_z2)
                            fw = star_z2_to_star_h(letters, h, target)
                            assert w.is_identity() == fw.is_identity(), (
                                f"G=Z/{gorder}, H=Z/{horder}, h={h}, {letters}"
                            )
                            checked += 1
        elapsed = time.monotonic() - t0
        assert checked == 10 * sum(
            sum(g ** (n + 1) for n in range(5)) for g in range(2, 6)
        )
        assert elapsed < 120.0, f"exhaustive sweep took {elapsed:.1f}s"


# -- 6: dark ring scenario --------------------------------------------------------


def _replay_budget_counts(result) -> dict[int, dict[int, int]]:
    """Per-stage generator counts per degree, rebuilt from the log alone."""
    p = result.ideal.p
    growth: dict[int, list[int]] = {}
    for rec in result.log.records:
        degs = list(rec.details.get("relator_degrees", ()))
        if rec.action == "seed-ideal":
            degs = [Poly.parse(t, p).degree() for t in rec.details["relators"]]
        if degs:
            growth.setdefault(rec.stage, []).extend(degs)
    counts: dict[int, int] = {}
    snapshot: dict[int, dict[int, int]] = {}
    for s in range(result.stages + 1):
        for d in growth.get(s, ()):
            counts[d] = counts.get(d, 0) + 1
        snapshot[s] = dict(counts)
    return snapshot


def test_06_dark_ring_scenario(capfd):
    with criterion(capfd, 6, "dark ring run collapses each infinite column once, audited"):
        result = load_scenario(str(SCENARIOS / "dark-ring-basic.txt")).run()
        assert result.gs_failure is None
        # both word columns are unbounded streams; one collapse action each
        collapses = records_for(result.log, action="collapse-pair")
        assert sorted(r.requirement for r in collapses) == ["D0", "D1"]
        assert sorted(result.witnesses) == [0, 1]
        for wit in result.witnesses.values():
            assert result.ideal.member(wit["f"] - wit["g"])
        eps = Fraction(result.params["epsilon"])
        maxdeg = result.params["maxdeg"]
        for stage, counts in _replay_budget_counts(result).items():
            verdict = gs_audit(counts, eps, maxdeg)
            assert verdict.ok, f"budget broken at stage {stage}"
        final = _replay_budget_counts(result)[result.stages]
        assert final == result.ideal.counts()


# -- 7: dark group scenario --------------------------------------------------------


def _unit_quotient_image(word, n, ideal):
    """Image of the word in the quotient, certified at the cheapest horizon.

    A nonidentity verdict at a low horizon persists at every higher one,
    so escalate only while the image still looks trivial.
    """
    img = None
    for horizon in (8, 14, ideal.maxdeg):
        img = unit_word_to_poly(word, n, ideal, horizon=horizon)
        if img != Poly.one(ideal.p):
            return img
    return img


def test_07_dark_group_scenario(capfd):
    with criterion(capfd, 7, "dark group run banks >= 10 pairwise-distinct unit words"):
        result = load_scenario(str(SCENARIOS / "dark-group-basic.txt")).run()
        assert result.gs_failure is None
        n = result.params["unit_exponent"]
        words = result.unit_words(0)
        assert len(words) >= 10
        assert len(set(words)) == len(words)
        one = Poly.one(result.ideal.p)
        for u, v in itertools.combinations(words, 2):
            w = u + tuple(f"{letter}^-1" for letter in reversed(v))
            assert _unit_quotient_image(w, n, result.ideal) != one, (u, v)
        # replay: every relator lands strictly above each surviving protection
        active: dict[str, set[int]] = {}
        collapse_seen = 0
        for rec in result.log.records:
            det = rec.details
            if rec.action == "enumerate-witness":
                active[rec.requirement] = set(det["protected"])
            elif rec.action == "collapse-pair":
                collapse_seen += 1
                for name in det.get("reinitialized", ()):
                    active.pop(name, None)
                surviving = set().union(*active.values()) if active else set()
                assert all(det["degree_floor"] >= d for d in surviving)
                for reldeg in det["relator_degrees"]:
                    assert reldeg > det["degree_floor"]
                    assert all(reldeg > d for d in surviving)
        assert collapse_seen


# -- 8: star scenario ---------------------------------------------------------------


def test_08_star_scenario(capfd):
    with criterion(capfd, 8, "star run: triangular stream, level words, census floor"):
        result = load_scenario(str(SCENARIOS / "star-universal-basic.txt")).run()
        stages = result.stages
        assert stages == 500

        # (a) the whole relation stream is triangular with nondecreasing stages
        validate_relation_stream(
            (r.lhs, r.rhs, r.stage) for r in result.presentation.relations
        )

        # (b) levels 0 and 1 carry one word exactly from the collapse stage on
        assert result.universal.pairs == ((0, 1, 5),)
        pres, base = result.presentation, result.base
        equal_at = [s for s in range(stages + 1)
                    if level_words_equal_at(pres, base, 0, 1, s)]
        assert equal_at == list(range(5, stages + 1))
        assert not level_words_equal_at(pres, base, 0, 2, stages)
        assert not level_words_equal_at(pres, base, 1, 2, stages)

        # (c) every level that still heads its class keeps > base**j live letters
        uni = result.universal
        for s in range(stages + 1):
            for j in range(result.levels + 1):
                if any(uni.related(i, j, s) for i in range(j)):
                    continue
                census = result.census(j, s)
                assert census["level"] > result.base ** j, (s, j, census)

        # (d) the tie-break branch fired and shrank the live block by two
        tie_breaks = records_for(result.log, action="case-3c")
        assert tie_breaks
        for rec in tie_breaks:
            level = rec.details["level"]
            before = result.census(level, rec.stage - 1)
            after = result.census(level, rec.stage)
            assert after["level"] == before["level"] - 2
            assert after["determined"] == before["determined"] + 2
        assert records_for(result.log, action="case-1")


# -- 9: relation algebra vs definitions ----------------------------------------------


def _random_table(rng: random.Random, bound: int, merges: int, top: int) -> CeerTable:
    table = CeerTable(bound=bound)
    for s in sorted(rng.randrange(0, top + 1) for _ in range(merges)):
        a, b = rng.randrange(bound), rng.randrange(bound)
        if a != b:
            table.assert_pair(a, b, s)
    return table


def _partition(table: CeerTable, stage: int) -> set[frozenset[int]]:
    return {frozenset(c) for c in table.classes_at(stage)}


def test_09_relation_algebra_matches_definitions(capfd):
    with criterion(capfd, 9, "product/join/pullback agree with brute-force definitions"):
        rng = random.Random(90210)
        for _ in range(3):
            left = _random_table(rng, 5, merges=5, top=8)
            right = _random_table(rng, 4, merges=4, top=8)
            prod = product(left, right)
            assert prod.bound == 32
            lo = StagedClosure(list(left.pairs), 5)
            ro = StagedClosure(list(right.pairs), 4)
            for s in range(10):
                for a in range(32):
                    for b in range(a, 32):
                        assert prod.related(a, b, s) == product_related(
                            lo, ro, a, b, s
                        ), (a, b, s)

        for _ in range(3):
            cols = [
                _random_table(rng, 4, merges=4, top=8),
                _random_table(rng, 3, merges=3, top=8),
                _random_table(rng, 4, merges=4, top=8),
            ]
            joined = uniform_join(cols, bound=32)
            oracle_cols = [
                StagedClosure(list(c.pairs), c.bound) for c in cols
            ]
            for s in range(10):
                for a in range(32):
                    for b in range(a, 32):
                        assert joined.related(a, b, s) == join_related(
                            oracle_cols, a, b, s
                        ), (a, b, s)

        # generator map into the involution-module word problem
        coding = WordCoding(16)
        for trial in range(20):
            table = _random_table(rng, 16, merges=rng.randrange(3, 10), top=12)
            group = CeerModuleGroup(table)
            final = table.last_stage

            def equal_at(a: int, b: int, s: int) -> bool:
                return z2_module_wp(group, coding.decode(a), s) == z2_module_wp(
                    group, coding.decode(b), s
                )

            target = word_problem_table(equal_at, bound=32, stages=final)
            gen_map = ReductionFn(
                table={k: (coding.encode(((k, 1),)), 0) for k in range(16)},
                totality_bound=16,
            )
            report = verify_reduction(gen_map, table, target, bound=16, stage=final)
            assert report.ok, f"trial {trial}: {report_text(report)}"
            assert not report.positive_violations
            assert not report.unaligned_so_far
            assert _partition(pullback(gen_map, target, bound=16), final) == (
                _partition(table, final)
            )


# -- 10: deterministic reruns ----------------------------------------------------------


def test_10_scenario_reruns_byte_identical(tmp_path, capfd):
    with criterion(capfd, 10, "every shipped scenario rerun is byte-identical"):
        shipped = sorted(SCENARIOS.glob("*.txt"))
        assert len(shipped) == 5
        for scenario in shipped:
            reference = scenario.with_name(scenario.stem + ".log.jsonl")
            fresh = tmp_path / reference.name
            rc = cli_main(["run", str(scenario), "--out", str(fresh)])
            assert rc == 0, scenario.name
            assert fresh.read_bytes() == reference.read_bytes(), scenario.name
