import random
from fractions import Fraction

import pytest

from ceerlab.algebra import (
    EncodingError,
    HomogeneousIdeal,
    HorizonError,
    Monomial,
    Poly,
    gs_audit,
    monomial_to_unit_word,
    unit_inverse_poly,
    unit_word_to_poly,
)

from helpers import truncate
from oracles import gs_bound, mono_mul, slice_echelon, span_member


def random_homogeneous(rng: random.Random, deg: int, p: int) -> Poly:
    coeffs = {}
    for code in range(1 << deg):
        c = rng.randrange(p)
        if c:
            coeffs[Monomial(deg, code)] = c
    if not coeffs:
        coeffs[Monomial(deg, rng.randrange(1 << deg))] = 1
    return Poly(p, coeffs)


def random_poly(rng: random.Random, maxdeg: int, p: int, terms: int) -> Poly:
    out = Poly.zero(p)
    for _ in range(terms):
        d = rng.randint(0, maxdeg)
        m = Monomial(d, rng.randrange(1 << d))
        out = out + Poly.monomial(m, p, c=rng.randrange(1, p))
    return out


# -- monomials --------------------------------------------------------------


def test_monomial_word_round_trip():
    for word in ["", "x", "y", "xy", "yx", "xxy", "yxyx", "xyyxx"]:
        m = Monomial.from_word(word)
        assert m.word == word
        assert m.deg == len(word)
    assert Monomial.from_word("xy") == Monomial(2, 1)
    assert Monomial.from_word("yx") == Monomial(2, 2)


def test_monomial_mul_is_concatenation():
    rng = random.Random(5)
    for _ in range(100):
        u = Monomial(rng.randint(0, 5), 0)
        u = Monomial(u.deg, rng.randrange(1 << u.deg) if u.deg else 0)
        v = Monomial(rng.randint(0, 5), 0)
        v = Monomial(v.deg, rng.randrange(1 << v.deg) if v.deg else 0)
        prod = u * v
        assert prod.word == u.word + v.word
        assert (prod.deg, prod.code) == mono_mul((u.deg, u.code),
                                                 (v.deg, v.code))


def test_monomial_code_range_checked():
    with pytest.raises(ValueError):
        Monomial(2, 4)
    with pytest.raises(ValueError):
        Monomial(-1, 0)


# -- polynomials -------------------------------------------------------------


def test_poly_parse_str_round_trip():
    for text in ["0", "1", "x", "x*y + y", "2*x + 1", "x*x*x"]:
        f = Poly.parse(text, 3)
        assert Poly.parse(str(f), 3) == f


def test_poly_parse_compact_runs():
    assert Poly.parse("xxy", 2) == Poly.parse("x*x*y", 2)
    assert Poly.parse("x - y", 3) == Poly.parse("x + 2*y", 3)


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # superscript 2, Arabic-Indic 3
def test_poly_parse_reads_ascii_digits_only(digit):
    # str.isdigit accepts both: int() then failed on one and read the
    # other as the coefficient 3
    for text in (f"{digit}*x", f"x*{digit}", digit):
        with pytest.raises(EncodingError, match=f"^bad factor '{digit}' in "):
            Poly.parse(text, 5)


def test_poly_mod_p():
    f = Poly.parse("x + x", 2)
    assert f.is_zero()
    g = Poly.parse("x + x + x", 3)
    assert g.is_zero()


def test_poly_ring_axioms_sampled():
    rng = random.Random(23)
    for p in (2, 3):
        for _ in range(15):
            f = random_poly(rng, 3, p, 3)
            g = random_poly(rng, 3, p, 3)
            h = random_poly(rng, 3, p, 3)
            assert (f + g) + h == f + (g + h)
            assert f + g == g + f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f - f == Poly.zero(p)


def test_poly_mul_is_noncommutative():
    x, y = Poly.x(2), Poly.y(2)
    assert x * y != y * x


def test_mul_truncated_matches_full():
    rng = random.Random(31)
    for _ in range(10):
        f = random_poly(rng, 4, 2, 4)
        g = random_poly(rng, 4, 2, 4)
        assert f.mul_truncated(g, 5) == truncate(f * g, 5)


def test_homogeneous_components():
    f = Poly.parse("1 + x + x*y + y*x", 2)
    comps = f.homogeneous_components()
    assert sorted(comps) == [0, 1, 2]
    assert comps[2] == Poly.parse("x*y + y*x", 2)
    assert sum(comps.values(), Poly.zero(2)) == f


def test_modulus_guard():
    with pytest.raises(ValueError):
        Poly.x(2) + Poly.x(3)
    with pytest.raises(ValueError):
        HomogeneousIdeal(p=4)
    with pytest.raises(ValueError):
        Poly.x(6)


# -- free algebra dimensions ---------------------------------------------


def test_free_algebra_dims():
    free = HomogeneousIdeal(p=2, maxdeg=12)
    for k in range(13):
        assert free.quotient_dim(k) == 2 ** k


# -- ideal membership vs the dense oracle -----------------------------------


def test_member_matches_oracle_randomized():
    rng = random.Random(41)
    for p in (2, 3):
        for trial in range(6):
            gens = [
                random_homogeneous(rng, rng.randint(1, 4), p)
                for _ in range(rng.randint(1, 3))
            ]
            ideal = HomogeneousIdeal(p=p, maxdeg=6, generators=gens)
            # members by construction: two-sided combinations of generators
            for _ in range(4):
                g = gens[rng.randrange(len(gens))]
                lm = Monomial(rng.randint(0, 2), 0)
                lm = Monomial(lm.deg, rng.randrange(1 << lm.deg) if lm.deg else 0)
                rm = Monomial(rng.randint(0, 2), 0)
                rm = Monomial(rm.deg, rng.randrange(1 << rm.deg) if rm.deg else 0)
                f = Poly.monomial(lm, p) * g * Poly.monomial(rm, p)
                if f.degree() is not None and f.degree() <= 6:
                    assert ideal.member(f)
                    assert span_member(f, gens, p)
            # arbitrary polynomials: verdicts must agree either way
            for _ in range(6):
                f = random_poly(rng, 6, p, 4)
                assert ideal.member(f) == span_member(f, gens, p)


def test_member_requires_matching_modulus():
    ideal = HomogeneousIdeal(p=2, maxdeg=4)
    with pytest.raises(ValueError):
        ideal.member(Poly.x(3))


def test_member_beyond_horizon():
    ideal = HomogeneousIdeal(p=2, maxdeg=4)
    with pytest.raises(HorizonError):
        ideal.member(Poly.parse("xxxxx", 2))


def test_generator_validation():
    ideal = HomogeneousIdeal(p=2, maxdeg=8)
    with pytest.raises(ValueError):
        ideal.add_generator(Poly.zero(2))
    with pytest.raises(ValueError):
        ideal.add_generator(Poly.parse("1 + x", 2))


def test_incremental_folding_matches_batch():
    rng = random.Random(47)
    gens = [random_homogeneous(rng, rng.randint(2, 4), 2) for _ in range(4)]
    batch = HomogeneousIdeal(p=2, maxdeg=7, generators=gens)
    incremental = HomogeneousIdeal(p=2, maxdeg=7)
    probes = [random_poly(rng, 7, 2, 4) for _ in range(6)]
    for i, g in enumerate(gens):
        incremental.add_generator(g)
        # interleave queries so folding has to catch up mid-stream
        incremental.quotient_dim(3 + i)
    assert incremental.version == batch.version == 4
    for k in range(8):
        assert incremental.quotient_dim(k) == batch.quotient_dim(k)
    for f in probes:
        assert incremental.member(f) == batch.member(f)
        assert incremental.quotient_reduce(f) == batch.quotient_reduce(f)


def test_quotient_reduce_properties():
    rng = random.Random(53)
    gens = [random_homogeneous(rng, 2, 3), random_homogeneous(rng, 3, 3)]
    ideal = HomogeneousIdeal(p=3, maxdeg=6, generators=gens)
    for _ in range(10):
        f = random_poly(rng, 6, 3, 5)
        r = ideal.quotient_reduce(f)
        # idempotent, and the residual difference is a member
        assert ideal.quotient_reduce(r) == r
        assert ideal.member(f - r)
        assert ideal.member(f) == r.is_zero()
    g = random_poly(rng, 6, 3, 5)
    h = random_poly(rng, 6, 3, 5)
    assert ideal.quotient_reduce(g + h) == ideal.quotient_reduce(
        ideal.quotient_reduce(g) + ideal.quotient_reduce(h)
    )


def test_quotient_reduce_horizon_truncates():
    ideal = HomogeneousIdeal(p=2, maxdeg=8)
    f = Poly.parse("x + xxxx", 2)
    assert ideal.quotient_reduce(f, horizon=2) == Poly.x(2)
    with pytest.raises(HorizonError):
        ideal.quotient_reduce(f, horizon=9)


def test_quotient_dim_with_single_relator():
    ideal = HomogeneousIdeal(
        p=2, maxdeg=4, generators=[Poly.parse("xx + xy", 2)]
    )
    # degree 2: one relator kills one dimension of the four
    assert ideal.quotient_dim(2) == 3
    # degree 3: shifts x*r, y*r, r*x, r*y are linearly independent
    assert ideal.quotient_dim(3) == 8 - 4


def sparse_homogeneous(rng: random.Random, deg: int, p: int, terms: int) -> Poly:
    return Poly(p, {Monomial(deg, rng.randrange(1 << deg)): rng.randrange(1, p)
                    for _ in range(terms)})


def test_kernel_matches_slice_echelon_oracle_randomized():
    """Normal forms, membership, quotient dimensions and first nonmembers
    against the per-degree slice echelons, with generators interleaved
    between queries.  Every round of queries ends at the horizon, so each
    later generator arrives below a degree already completed."""
    rng = random.Random(67)
    maxdeg = 7
    seen = {"member": 0, "nonmember": 0, "nonstandard_nonmember": 0}
    for p in (2, 3, 5, 7):
        for _ in range(20):
            ideal = HomogeneousIdeal(p=p, maxdeg=maxdeg)
            gens = []
            for _ in range(rng.randint(1, 3)):
                g = sparse_homogeneous(rng, rng.randint(2, 5), p, rng.randint(1, 3))
                ideal.add_generator(g)
                gens.append(g)
                for k in rng.sample(range(maxdeg), 2) + [maxdeg]:
                    oracle = slice_echelon(gens, p, k)
                    assert ideal.quotient_dim(k) == (1 << k) - oracle.rank
                    first = ideal.first_nonmember(k)
                    expect = oracle.first_nonmember(k)
                    assert (first and (first.deg, first.code)) == expect
                    if first is not None and first.code in oracle.rows:
                        seen["nonstandard_nonmember"] += 1
                    queries = [sparse_homogeneous(rng, k, p, rng.randint(1, 4))
                               for _ in range(3)]
                    # members by construction: a two-sided multiple of a generator
                    g = rng.choice(gens)
                    if g.degree() <= k:
                        a = rng.randint(0, k - g.degree())
                        b = k - g.degree() - a
                        u = Poly.monomial(Monomial(a, rng.randrange(1 << a)), p)
                        v = Poly.monomial(Monomial(b, rng.randrange(1 << b)), p)
                        queries.append(u * g * v)
                    for f in queries:
                        nf = oracle.reduce({m.code: c for m, c in f.coeffs.items()})
                        want = Poly(p, {Monomial(k, c): v for c, v in nf.items()})
                        assert ideal.quotient_reduce(f) == want
                        assert ideal.reduce_component(f, k) == want
                        assert ideal.member(f) == (not nf)
                        if k <= 5:
                            assert span_member(f, gens, p) == (not nf)
                        seen["nonmember" if nf else "member"] += 1
    assert min(seen.values()) > 0, seen


def test_first_nonmember_is_not_the_least_standard_word():
    # x^11 leads x^11 + x^10 y, yet its normal form -x^10 y is nonzero
    x11 = Poly.monomial(Monomial.from_word("x" * 11), 3)
    x10y = Poly.monomial(Monomial.from_word("x" * 10 + "y"), 3)
    ideal = HomogeneousIdeal(p=3, maxdeg=11, generators=[x11 + x10y])
    assert ideal.first_nonmember(11) == Monomial.from_word("x" * 11)
    ideal.add_generator(x11)
    assert ideal.first_nonmember(11) == Monomial.from_word("x" * 9 + "yx")


def test_first_nonmember_and_dim_at_degree_forty():
    # 2^40 words: only skipping whole blocks of members and counting
    # through the automaton make this fast
    ideal = HomogeneousIdeal(p=2, maxdeg=40,
                             generators=unit_ideal(13, 2).generators)
    assert ideal.first_nonmember(40) == Monomial.from_word(
        ("x" * 12 + "y") * 3 + "x")
    # words with no run of 13 equal letters: two first letters times the
    # compositions of 40 into parts of at most 12
    compositions = [1] + [0] * 40
    for n in range(1, 41):
        compositions[n] = sum(compositions[n - i] for i in range(1, min(n, 12) + 1))
    assert ideal.quotient_dim(40) == 2 * compositions[40]


def test_first_nonmember_none_when_the_slice_dies():
    ideal = HomogeneousIdeal(p=2, maxdeg=3, generators=[Poly.x(2), Poly.y(2)])
    assert ideal.first_nonmember(1) is None
    assert ideal.first_nonmember(3) is None
    assert ideal.first_nonmember(0) == Monomial(0, 0)


# -- Golod-Shafarevich audit ------------------------------------------------


def test_gs_bound_frozen_value():
    # epsilon 1/4 at degree 10: (1/16) * (3/2)^8 = 6561/4096, just below 2
    assert gs_bound(Fraction(1, 4), 10) == Fraction(6561, 4096)
    res = gs_audit({10: 2}, Fraction(1, 4), 12)
    assert not res.ok
    assert res.failed_degree == 10
    assert res.count == 2
    assert res.bound == Fraction(6561, 4096)


def test_gs_audit_passes_within_budget():
    counts = {k: max(0, k - 10) for k in range(2, 41)}
    assert gs_audit(counts, Fraction(1, 4), 40).ok
    for k, n in counts.items():
        if n:
            assert Fraction(n) <= gs_bound(Fraction(1, 4), k)


def test_gs_audit_bounds_are_exact_fractions():
    # count exactly at the bound passes; one more fails
    eps = Fraction(1, 2)
    assert gs_bound(eps, 2) == Fraction(1, 4)
    assert not gs_audit({2: 1}, eps, 4).ok
    eps = Fraction(1, 2)
    # bound at degree 4 is (1/4) * 1^2 = 1/4, so even one relator fails
    assert not gs_audit({4: 1}, eps, 4).ok
    # with epsilon 1/4 the degree-16 budget admits 8 relators
    assert gs_bound(Fraction(1, 4), 16) == Fraction(4782969, 262144)
    assert gs_audit({16: 18}, Fraction(1, 4), 16).ok
    assert not gs_audit({16: 19}, Fraction(1, 4), 16).ok


def test_gs_audit_preconditions():
    assert not gs_audit({}, Fraction(0), 4).ok
    assert not gs_audit({}, Fraction(3, 2), 4).ok
    res = gs_audit({0: 1}, Fraction(1, 4), 4)
    assert not res.ok and res.failed_degree == 0
    res = gs_audit({1: 1}, Fraction(1, 4), 4)
    assert not res.ok and res.failed_degree == 1


def test_gs_audit_from_ideal_counts():
    ideal = HomogeneousIdeal(p=2, maxdeg=8)
    ideal.add_generator(Poly.parse("xx + yy", 2))
    ideal.add_generator(Poly.parse("xxx", 2))
    ideal.add_generator(Poly.parse("xyx", 2))
    assert ideal.counts() == {2: 1, 3: 2}
    res = gs_audit(ideal.counts(), Fraction(1, 4), 8)
    # (1/16)(3/2)^0 = 1/16 < 1 already fails at degree 2
    assert not res.ok and res.failed_degree == 2


# -- unit words ---------------------------------------------------------------


def unit_ideal(N: int, p: int, extra=()) -> HomogeneousIdeal:
    gens = [
        Poly.monomial(Monomial(N, 0), p),
        Poly.monomial(Monomial(N, (1 << N) - 1), p),
    ]
    gens.extend(extra)
    return HomogeneousIdeal(p=p, maxdeg=N + 2, generators=gens)


def test_unit_inverse_poly_shape():
    inv = unit_inverse_poly("X", 4, 3)
    assert inv == Poly.parse("1 - x + x*x - x*x*x", 3)


def test_unit_identities():
    for p in (2, 3):
        for N in (6, 10):
            ideal = unit_ideal(N, p)
            one = Poly.one(p)
            for a, b in [("X", "X^-1"), ("X^-1", "X"), ("Y", "Y^-1"),
                         ("Y^-1", "Y")]:
                assert unit_word_to_poly([a, b], N, ideal) == one


def test_unit_word_requires_truncation_generators():
    ideal = HomogeneousIdeal(p=2, maxdeg=8)
    with pytest.raises(EncodingError):
        unit_word_to_poly(["X", "X^-1"], 6, ideal)


def test_unit_word_rejects_bad_letter():
    ideal = unit_ideal(6, 2)
    with pytest.raises(EncodingError):
        unit_word_to_poly(["X'"], 6, ideal)


def test_monomial_to_unit_word_top_component():
    rng = random.Random(61)
    N = 9
    ideal = unit_ideal(N, 2)
    for _ in range(12):
        d = rng.randint(1, 5)
        m = Monomial(d, rng.randrange(1 << d))
        word = monomial_to_unit_word(m)
        assert all(tok in ("X", "Y") for tok in word)
        u = unit_word_to_poly(word, N, ideal)
        # the top homogeneous component of the positive word is the monomial
        assert u.component(d) == Poly.monomial(m, 2)
        assert u.component(0) == Poly.one(2)


def test_unit_words_distinct_without_relators():
    N = 8
    ideal = unit_ideal(N, 2)
    words = [monomial_to_unit_word(Monomial(3, c)) for c in range(8)]
    images = [unit_word_to_poly(w, N, ideal) for w in words]
    assert len({str(f) for f in images}) == 8
