"""Independent reference computations used by the test suite.

Everything here recomputes expected answers from definitions, using
different algorithms than the package (dense linear algebra and sparse
per-degree slice echelons instead of a truncated Groebner basis,
full-closure scans instead of incremental union-find, repeated-scan word
reduction instead of a single stack pass, a dense substitution matrix
instead of sparse highest-index-first rewriting, per-generator status event
lists instead of per-level census counts).  Tests compare package output
against these.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

# -- Cantor pairing (recomputed, not imported) ---------------------------------


def cantor_pair(a: int, b: int) -> int:
    s = a + b
    return s * (s + 1) // 2 + b


def cantor_unpair(n: int) -> tuple[int, int]:
    s = 0
    while (s + 1) * (s + 2) // 2 <= n:
        s += 1
    b = n - s * (s + 1) // 2
    return s - b, b


# -- dense span membership over F_p --------------------------------------------
#
# Monomials in two letters are encoded as (degree, code) with the first
# letter in the most significant bit and y = 1.  A homogeneous component
# of degree d lives in an F_p vector space of dimension 2**d.


def mono_mul(m1: tuple[int, int], m2: tuple[int, int]) -> tuple[int, int]:
    return m1[0] + m2[0], (m1[1] << m2[0]) | m2[1]


def all_monomials(deg: int) -> list[tuple[int, int]]:
    return [(deg, code) for code in range(1 << deg)]


def poly_terms(poly) -> dict[tuple[int, int], int]:
    """Read a package Poly into a plain dict keyed by (deg, code)."""
    return {(m.deg, m.code): c for m, c in poly.terms()}


def _degree_component(terms: dict[tuple[int, int], int], d: int, p: int):
    vec = np.zeros(1 << d, dtype=np.int64)
    for (deg, code), c in terms.items():
        if deg == d:
            vec[code] = c % p
    return vec


# echelon rows, each with its pivot column and the inverse of its pivot entry
Echelon = list[tuple[int, int, np.ndarray]]


def _row_reduce(rows: list[np.ndarray], p: int) -> Echelon:
    """Gaussian elimination over F_p."""
    echelon: Echelon = []
    for row in rows:
        row = _reduce_by(row % p, echelon, p)
        if row.any():
            piv = int(np.argmax(row != 0))
            echelon.append((piv, pow(int(row[piv]), -1, p), row))
    return echelon


def _reduce_by(vec: np.ndarray, echelon: Echelon, p: int) -> np.ndarray:
    for piv, inv, er in echelon:
        if vec[piv]:
            vec = (vec - vec[piv] * inv * er) % p
    return vec


def _in_span(vec: np.ndarray, echelon: Echelon, p: int) -> bool:
    return not _reduce_by(vec % p, echelon, p).any()


def span_member(poly, generators, p: int) -> bool:
    """Two-sided homogeneous ideal membership by dense elimination.

    Each generator must be homogeneous.  poly belongs to the ideal iff
    every degree component lies in the span of all two-sided monomial
    shifts of the generators into that degree.
    """
    target = poly_terms(poly)
    gen_terms = []
    for g in generators:
        terms = poly_terms(g)
        if not terms:
            continue
        degs = {d for (d, _) in terms}
        assert len(degs) == 1, "oracle expects homogeneous generators"
        gen_terms.append((degs.pop(), terms))
    for d in sorted({deg for (deg, _) in target}):
        vec = _degree_component(target, d, p)
        if not vec.any():
            continue
        rows = []
        for gdeg, terms in gen_terms:
            if gdeg > d:
                continue
            for left in range(d - gdeg + 1):
                right = d - gdeg - left
                for lm in all_monomials(left):
                    for rm in all_monomials(right):
                        shifted: dict[tuple[int, int], int] = {}
                        for m, c in terms.items():
                            key = mono_mul(mono_mul(lm, m), rm)
                            shifted[key] = (shifted.get(key, 0) + c) % p
                        rows.append(_degree_component(shifted, d, p))
        if not _in_span(vec, _row_reduce(rows, p), p):
            return False
    return True


# -- sparse slice echelons (the ideal kernel before the Groebner basis) ---------


class SliceEchelon:
    """Row-reduced span of one homogeneous slice, rows as sparse dicts.

    The pivot of a row is its least code; stored rows never contain an
    older pivot, so reducing a vector by repeatedly cancelling its least
    pivot code terminates and yields the unique normal form supported on
    non-pivot codes.
    """

    def __init__(self, p: int):
        self.p = p
        self.rows: dict[int, dict[int, int]] = {}

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        vec = {c: v % self.p for c, v in vec.items() if v % self.p}
        while True:
            hits = vec.keys() & self.rows.keys()
            if not hits:
                return vec
            c = min(hits)
            coef = vec[c]
            for code, rc in self.rows[c].items():
                nv = (vec.get(code, 0) - coef * rc) % self.p
                if nv:
                    vec[code] = nv
                else:
                    vec.pop(code, None)

    def insert(self, vec: dict[int, int]) -> bool:
        r = self.reduce(vec)
        if not r:
            return False
        piv = min(r)
        inv = pow(r[piv], -1, self.p)
        self.rows[piv] = {c: (v * inv) % self.p for c, v in r.items()}
        return True

    @property
    def rank(self) -> int:
        return len(self.rows)

    def first_nonmember(self, k: int) -> tuple[int, int] | None:
        """The least degree-k code whose reduction is nonzero, as (deg, code)."""
        for code in range(1 << k):
            if self.reduce({code: 1}):
                return k, code
        return None


def slice_echelon(generators, p: int, k: int) -> SliceEchelon:
    """The degree-k slice of the two-sided ideal: every shift u*g*v inserted."""
    basis = SliceEchelon(p)
    for g in generators:
        terms = poly_terms(g)
        d = next(iter(terms))[0]
        if d > k:
            continue
        for left in range(k - d + 1):
            right = k - d - left
            for lm in all_monomials(left):
                for rm in all_monomials(right):
                    basis.insert({mono_mul(mono_mul(lm, m), rm)[1]: c
                                  for m, c in terms.items()})
    return basis


# -- brute-force staged equivalence queries ------------------------------------


class StagedClosure:
    """Equivalence closure of a finite pair list, queried per stage.

    Rebuilds the closure from scratch on every query; slow and obviously
    correct, which is the point.
    """

    def __init__(self, pairs: list[tuple[int, int, int]], bound: int):
        self.pairs = list(pairs)
        self.bound = bound

    def related(self, a: int, b: int, stage: int) -> bool:
        if a == b:
            return True
        parent = list(range(self.bound))

        def find(x: int) -> int:
            while parent[x] != x:
                x = parent[x]
            return x

        for x, y, s in self.pairs:
            if s <= stage:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[rx] = ry
        return find(a) == find(b)

    def classes(self, stage: int) -> list[list[int]]:
        """The partition at a stage as sorted classes, sorted by least member."""
        classes = [[n] for n in range(self.bound)]
        where = list(range(self.bound))  # index -> its class's slot
        for x, y, s in self.pairs:
            if s <= stage and where[x] != where[y]:
                keep, gone = sorted((where[x], where[y]))
                for n in classes[gone]:
                    where[n] = keep
                classes[keep] += classes[gone]
                classes[gone] = []
        return sorted(sorted(c) for c in classes if c)


def product_related(left: StagedClosure, right: StagedClosure,
                    n: int, m: int, stage: int) -> bool:
    a1, b1 = cantor_unpair(n)
    a2, b2 = cantor_unpair(m)
    if max(a1, a2) >= left.bound or max(b1, b2) >= right.bound:
        return n == m
    return (left.related(a1, a2, stage) and right.related(b1, b2, stage))


def join_related(columns: list[StagedClosure], n: int, m: int,
                 stage: int) -> bool:
    k1, a1 = cantor_unpair(n)
    k2, a2 = cantor_unpair(m)
    if k1 != k2 or k1 >= len(columns):
        return n == m
    if max(a1, a2) >= columns[k1].bound:
        return n == m
    return columns[k1].related(a1, a2, stage)


def pullback_related(f: dict[int, int], table: StagedClosure,
                     n: int, m: int, stage: int) -> bool:
    return table.related(f[n], f[m], stage)


# -- free product word reduction by repeated scanning --------------------------


def scan_reduce(syllables: list[tuple[str, object]], identities: dict,
                multiply: dict) -> list[tuple[str, object]]:
    """Reduce a free-product word by scanning until no change.

    identities[factor] is the identity element; multiply[factor] is a
    binary operation on factor elements.
    """
    word = [s for s in syllables if s[1] != identities[s[0]]]
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i][0] == word[i + 1][0]:
                fac = word[i][0]
                merged = multiply[fac](word[i][1], word[i + 1][1])
                word = word[:i] + (
                    [] if merged == identities[fac] else [(fac, merged)]
                ) + word[i + 2:]
                changed = True
                break
    return word


# -- staged abelian word problem by a dense substitution matrix ---------------


def staged_wp_dense(relations, ngens: int, word, stage: int) -> tuple[tuple[int, int], ...]:
    """Canonical exponent vector of a word in a staged abelian presentation.

    relations holds (lhs, rhs, stage) triples.  Column lhs of the matrix is
    the rhs vector of every relation in force at `stage`; every other
    column is the unit vector.  Applying the matrix substitutes all those
    left-hand sides at once, so the word is multiplied by it until the
    vector stops changing (off the surviving generators the matrix is
    nilpotent, because right-hand sides only mention smaller indices).
    Entries are Python integers (object arrays), so nothing wraps.
    """
    sub = np.eye(ngens, dtype=object)
    for lhs, rhs, s in relations:
        if s <= stage:
            sub[:, lhs] = 0
            for i, e in rhs:
                sub[i, lhs] += e
    vec = np.zeros(ngens, dtype=object)
    for i, e in word:
        vec[i] += e
    while True:
        nxt = sub @ vec
        if np.array_equal(nxt, vec):
            return tuple((int(i), int(vec[i])) for i in np.flatnonzero(vec))
        vec = nxt


# -- generator status census by per-generator event lists ----------------------


class StatusEvents:
    """Each generator's status events, in the order they were set.

    A census walks every letter of a level and finds each letter's last
    event at or before the stage, instead of reading per-level counts.
    """

    def __init__(self):
        self.events: dict[int, list[tuple[int, str]]] = {}

    def set_status(self, gen: int, status: str, stage: int) -> None:
        self.events.setdefault(gen, []).append((stage, status))

    def status_at(self, gen: int, stage: int) -> str | None:
        current = None
        for s, status in self.events.get(gen, ()):
            if s > stage:
                break
            current = status
        return current

    def census(self, base: int, level: int, stage: int) -> dict[str, int]:
        """Head-count of a level's letters by status; no status, no count."""
        lo, hi = (0, base) if level == 0 else (base ** level, base ** (level + 1))
        counts = {"level": 0, "free": 0, "determined": 0, "collapsed": 0}
        for gen in range(lo, hi):
            status = self.status_at(gen, stage)
            if status is not None:
                counts[status] += 1
        return counts


# -- growth-series budget, recomputed exactly ----------------------------------


def gs_bound(epsilon: Fraction, k: int) -> Fraction:
    """Relator budget at degree k for sparsity parameter epsilon."""
    return epsilon * epsilon * (2 - 2 * epsilon) ** (k - 2)


def gs_verdict(counts: dict[int, int], epsilon: Fraction) -> tuple[bool, int]:
    """(all degrees within budget, first failing degree or -1)."""
    for k in sorted(counts):
        if counts[k] and Fraction(counts[k]) > gs_bound(epsilon, k):
            return False, k
    return True, -1
