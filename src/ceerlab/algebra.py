"""Arithmetic in the free noncommutative algebra F = (Z/pZ)<x, y>.

Monomials are words in x and y packed into (degree, code) with the first
letter in the most significant bit, so that numeric code order is
lexicographic order with x < y and the degree-k monomials enumerate as
codes 0 .. 2^k - 1.

A two-sided ideal generated by homogeneous elements is held as its
noncommutative Groebner basis (Bergman's diamond lemma), truncated at the
highest degree a query has needed so far and completed lazily, degree by
degree.  Words of one degree are ordered by code with the smaller code
leading; the order is multiplicative, so the leading words of each slice
are the pivots of its echelon form, and rewriting a polynomial smallest
term first gives its unique normal form on the standard words (those
holding no leading word as a factor).  Membership is a zero normal form,
quotient dimensions count standard words, and first_nonmember finds the
least word with a nonzero normal form.  A generator that arrives at or
below the completed degree drops the basis from its degree up.

Everything here works below an explicit degree horizon (maxdeg); asking
past the horizon raises rather than silently answering on a truncation.
The Golod-Shafarevich audit is carried out in exact rational arithmetic.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "HorizonError",
    "EncodingError",
    "Monomial",
    "MONOMIAL_ONE",
    "Poly",
    "HomogeneousIdeal",
    "GSAuditResult",
    "gs_audit",
    "unit_word_to_poly",
    "unit_inverse_poly",
]

SUPPORTED_MODULI = (2, 3, 5, 7)

# The degree horizon's ceiling for runs and replayed logs, and the unit
# exponent's: a work budget on banking degrees, word codes and the per-stage
# growth audit, all of which grow with the horizon and the seed degree.
MAXDEG_CEILING = 64


class HorizonError(ValueError):
    """A degree beyond the configured horizon was consulted."""


class EncodingError(ValueError):
    """A word or text form failed to decode."""


@dataclass(frozen=True)
class Monomial:
    """A word over {x, y}: deg letters, code bits MSB-first, y = 1."""

    deg: int
    code: int

    def __post_init__(self):
        if self.deg < 0 or not (0 <= self.code < (1 << self.deg)):
            raise ValueError(f"bad monomial ({self.deg}, {self.code})")

    @classmethod
    def from_word(cls, word: str) -> "Monomial":
        code = 0
        for ch in word:
            if ch == "x":
                code = code << 1
            elif ch == "y":
                code = (code << 1) | 1
            else:
                raise EncodingError(f"bad letter {ch!r} in monomial word")
        return cls(len(word), code)

    @property
    def word(self) -> str:
        return "".join(
            "y" if (self.code >> (self.deg - 1 - i)) & 1 else "x"
            for i in range(self.deg)
        )

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.deg + other.deg, (self.code << other.deg) | other.code)

    def key(self) -> tuple[int, int]:
        return (self.deg, self.code)


MONOMIAL_ONE = Monomial(0, 0)


class Poly:
    """Element of (Z/pZ)<x,y>: a finite coefficient map on monomials."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs: Mapping[Monomial, int] | None = None):
        if p not in SUPPORTED_MODULI:
            raise ValueError(f"modulus must be one of {SUPPORTED_MODULI}, got {p}")
        self.p = p
        clean: dict[Monomial, int] = {}
        if coeffs:
            for m, c in coeffs.items():
                c %= p
                if c:
                    clean[m] = c
        self.coeffs = clean

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "Poly":
        return cls(p)

    @classmethod
    def one(cls, p: int) -> "Poly":
        return cls(p, {MONOMIAL_ONE: 1})

    @classmethod
    def x(cls, p: int) -> "Poly":
        return cls(p, {Monomial(1, 0): 1})

    @classmethod
    def y(cls, p: int) -> "Poly":
        return cls(p, {Monomial(1, 1): 1})

    @classmethod
    def monomial(cls, m: Monomial, p: int, c: int = 1) -> "Poly":
        return cls(p, {m: c})

    # -- ring structure -------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) + c
        return Poly(self.p, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0) - c
        return Poly(self.p, out)

    def __neg__(self) -> "Poly":
        return Poly(self.p, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        out: dict[Monomial, int] = {}
        for mu, cu in self.coeffs.items():
            for mv, cv in other.coeffs.items():
                m = mu * mv
                out[m] = out.get(m, 0) + cu * cv
        return Poly(self.p, out)

    def mul_truncated(self, other: "Poly", horizon: int) -> "Poly":
        """Product with every term of degree > horizon dropped."""
        self._check(other)
        out: dict[Monomial, int] = {}
        for mu, cu in self.coeffs.items():
            if mu.deg > horizon:
                continue
            for mv, cv in other.coeffs.items():
                if mu.deg + mv.deg > horizon:
                    continue
                m = mu * mv
                out[m] = out.get(m, 0) + cu * cv
        return Poly(self.p, out)

    # -- shape ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int | None:
        """Largest degree with a nonzero term, None for the zero element."""
        if not self.coeffs:
            return None
        return max(m.deg for m in self.coeffs)

    def is_homogeneous(self) -> bool:
        degs = {m.deg for m in self.coeffs}
        return len(degs) <= 1

    def homogeneous_components(self) -> dict[int, "Poly"]:
        """Split into degree -> component, keys ascending."""
        split: dict[int, dict[Monomial, int]] = {}
        for m, c in self.coeffs.items():
            split.setdefault(m.deg, {})[m] = c
        return {d: Poly(self.p, split[d]) for d in sorted(split)}

    def component(self, d: int) -> "Poly":
        return Poly(self.p, {m: c for m, c in self.coeffs.items() if m.deg == d})

    def terms(self) -> Iterator[tuple[Monomial, int]]:
        for m in sorted(self.coeffs, key=Monomial.key):
            yield m, self.coeffs[m]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Poly)
            and self.p == other.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.p, frozenset(self.coeffs.items())))

    def __len__(self) -> int:
        return len(self.coeffs)

    # -- text form --------------------------------------------------------

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for m, c in self.terms():
            if m.deg == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(m.word))
            else:
                parts.append(f"{c}*" + "*".join(m.word))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly(p={self.p}, {str(self)!r})"

    @classmethod
    def parse(cls, text: str, p: int) -> "Poly":
        """Parse the canonical text form; also accepts '-' between terms."""
        text = text.strip()
        if not text:
            raise EncodingError("empty polynomial text")
        out: dict[Monomial, int] = {}
        # normalize to a leading-sign term list
        body = text.replace("-", "+-")
        if body.startswith("+-"):
            body = body[1:]
        for chunk in body.split("+"):
            chunk = chunk.strip()
            if not chunk:
                raise EncodingError(f"dangling sign in {text!r}")
            sign = 1
            if chunk.startswith("-"):
                sign = -1
                chunk = chunk[1:].strip()
            coeff = 1
            letters = []
            for factor in chunk.split("*"):
                factor = factor.strip()
                if not factor:
                    raise EncodingError(f"empty factor in {text!r}")
                if factor.isascii() and factor.isdigit():
                    coeff *= int(factor)
                elif all(ch in "xy" for ch in factor):
                    letters.append(factor)
                else:
                    raise EncodingError(f"bad factor {factor!r} in {text!r}")
            m = Monomial.from_word("".join(letters))
            out[m] = out.get(m, 0) + sign * coeff
        return cls(p, out)


# -- ideal machinery ----------------------------------------------------


class HomogeneousIdeal:
    """Two-sided ideal of F generated by homogeneous elements.

    Generators may have any degree; queries are served only up to maxdeg
    (the degree horizon) and raise HorizonError beyond it.

    The ideal is held as its Groebner basis completed up to degree _done:
    _rows[d] maps the leading code of each monic degree-d row to its tail,
    stored negated as (code, coefficient) pairs, so a word holding the
    leading word as a factor rewrites to the tail shifted into place.  One
    Aho-Corasick automaton over all leading words (_delta, with _out naming
    the row whose leading word ends at a state) serves the factor test.
    """

    def __init__(self, p: int = 2, maxdeg: int = 16, generators: Iterable[Poly] = ()):
        if p not in SUPPORTED_MODULI:
            raise ValueError(f"modulus must be one of {SUPPORTED_MODULI}, got {p}")
        if maxdeg < 0:
            raise ValueError("maxdeg must be nonnegative")
        self.p = p
        self.maxdeg = maxdeg
        self._gens: list[Poly] = []
        self._gen_vecs: dict[int, list[dict[int, int]]] = {}
        self._rows: dict[int, dict[int, tuple[tuple[int, int], ...]]] = {}
        self._done = -1
        self._build_automaton()
        for g in generators:
            self.add_generator(g)

    @property
    def generators(self) -> tuple[Poly, ...]:
        return tuple(self._gens)

    @property
    def version(self) -> int:
        return len(self._gens)

    def counts(self) -> dict[int, int]:
        """Number of listed generators per degree (the audit's n_k)."""
        out: dict[int, int] = {}
        for g in self._gens:
            d = g.degree()
            out[d] = out.get(d, 0) + 1
        return dict(sorted(out.items()))

    def add_generator(self, g: Poly) -> None:
        if g.p != self.p:
            raise ValueError(f"modulus mismatch: {g.p} vs {self.p}")
        if g.is_zero():
            raise ValueError("cannot add the zero element as a generator")
        if not g.is_homogeneous():
            raise ValueError("generators must be homogeneous")
        self._gens.append(g)
        d = g.degree()
        self._gen_vecs.setdefault(d, []).append({m.code: c for m, c in g.coeffs.items()})
        if d <= self._done:
            # rows from degree d up may be stale: complete again from there
            for k in range(d, self._done + 1):
                self._rows.pop(k, None)
            self._done = d - 1
            self._build_automaton()

    def has_monomial_generator(self, m: Monomial) -> bool:
        target = Poly.monomial(m, self.p)
        return any(g == target for g in self._gens)

    # -- completion -------------------------------------------------------

    def _complete(self, k: int) -> None:
        """Extend the basis degree by degree until it is complete up to k."""
        if k > self.maxdeg:
            raise HorizonError(f"degree {k} beyond horizon {self.maxdeg}")
        if k < 0:
            raise ValueError("degree must be nonnegative")
        while self._done < k:
            d = self._done + 1
            rows: dict[int, tuple[tuple[int, int], ...]] = {}
            for vec in self._gen_vecs.get(d, []) + self._overlaps(d):
                vec = {c: v % self.p for c, v in vec.items() if v % self.p}
                r = self._nf(vec, d, top=rows)
                if r:
                    lead = min(r)
                    scale = -pow(r.pop(lead), -1, self.p)
                    rows[lead] = tuple((c, v * scale % self.p) for c, v in r.items())
            self._done = d
            if rows:
                self._rows[d] = rows
                self._build_automaton()

    def _overlaps(self, d: int) -> list[dict[int, int]]:
        """S-polynomials of degree d.

        They come only from overlaps: a proper suffix of leading word A
        equal to a proper prefix of leading word B, with A*r2 = r1*B of
        degree d, giving S = f_A*r2 - r1*f_B.  The leading words contain
        none of one another, so there are no inclusions to resolve.
        """
        rows = [(a, lead, tail) for a, by_lead in self._rows.items()
                for lead, tail in by_lead.items()]
        out = []
        for a, lead_a, tail_a in rows:
            for b, lead_b, tail_b in rows:
                o = a + b - d
                if not 0 < o < min(a, b):
                    continue
                if lead_a & ((1 << o) - 1) != lead_b >> (b - o):
                    continue
                r1 = lead_a >> o
                w2 = b - o
                r2 = lead_b & ((1 << w2) - 1)
                vec: dict[int, int] = {}
                for c, v in tail_a:
                    key = (c << w2) | r2
                    vec[key] = vec.get(key, 0) - v
                for c, v in tail_b:
                    key = (r1 << b) | c
                    vec[key] = vec.get(key, 0) + v
                out.append(vec)
        return out

    def _build_automaton(self) -> None:
        """Aho-Corasick automaton over the leading words, letters MSB first."""
        child = [[0, 0]]
        out: list[tuple[int, tuple[tuple[int, int], ...]] | None] = [None]
        for length, by_lead in self._rows.items():
            for lead, tail in by_lead.items():
                s = 0
                for j in range(length - 1, -1, -1):
                    b = (lead >> j) & 1
                    if not child[s][b]:
                        child[s][b] = len(child)
                        child.append([0, 0])
                        out.append(None)
                    s = child[s][b]
                out[s] = (length, tail)
        delta = [0] * (2 * len(child))
        fail = [0] * len(child)
        queue = deque([0])
        while queue:
            s = queue.popleft()
            for b in (0, 1):
                t = child[s][b]
                if t:
                    fail[t] = delta[2 * fail[s] + b] if s else 0
                    if out[t] is None:
                        # leading words contain none of one another, so at
                        # most one of them ends at any state
                        out[t] = out[fail[t]]
                    delta[2 * s + b] = t
                    queue.append(t)
                else:
                    delta[2 * s + b] = delta[2 * fail[s] + b] if s else 0
        self._delta = delta
        self._out = out

    # -- rewriting --------------------------------------------------------

    def _nf(self, vec: dict[int, int], k: int, stop: bool = False,
            top: Mapping[int, tuple[tuple[int, int], ...]] | None = None
            ) -> dict[int, int]:
        """Normal form of a degree-k vector of code -> coefficient.

        vec holds nonzero coefficients reduced mod p and is rewritten in
        place.  The smallest reducible code is rewritten first; a rewrite
        only brings in larger codes, so one pass leaves the unique
        combination of standard words congruent to vec.  With stop, return
        as soon as a standard term is sure to survive (a partial, nonzero
        result).  top holds the degree-k rows of a completion in progress.
        """
        p = self.p
        heap = list(vec)
        heapify(heap)
        delta, out = self._delta, self._out
        while heap:
            c = heappop(heap)
            coef = vec.get(c)
            if coef is None:
                continue
            if top and c in top:
                length, tail, shift = k, top[c], 0
            else:
                r, shift, state = out[0], k, 0
                while r is None and shift:
                    shift -= 1
                    state = delta[(state << 1) | ((c >> shift) & 1)]
                    r = out[state]
                if r is None:
                    if stop:
                        return {c: coef}
                    continue
                length, tail = r
            del vec[c]
            head = (c >> (shift + length)) << (shift + length)
            low = c & ((1 << shift) - 1)
            for tc, tv in tail:
                key = head | (tc << shift) | low
                nv = (vec.get(key, 0) + coef * tv) % p
                if not nv:
                    del vec[key]
                else:
                    if key not in vec:
                        heappush(heap, key)
                    vec[key] = nv
        return vec

    @staticmethod
    def _components(f: Poly) -> dict[int, dict[int, int]]:
        """f's homogeneous components as code -> coefficient maps."""
        comps: dict[int, dict[int, int]] = {}
        for m, c in f.coeffs.items():
            comp = comps.get(m.deg)
            if comp is None:
                comp = comps[m.deg] = {}
            comp[m.code] = c
        return comps

    # -- queries ----------------------------------------------------------

    def reduce_component(self, f: Poly, k: int) -> Poly:
        self._complete(k)
        red = self._nf({m.code: c for m, c in f.coeffs.items()}, k)
        return Poly(self.p, {Monomial(k, c): v for c, v in red.items()})

    def member(self, f: Poly) -> bool:
        if f.p != self.p:
            raise ValueError(f"modulus mismatch: {f.p} vs {self.p}")
        comps = self._components(f)
        if not comps:
            return True
        d = max(comps)
        if d > self._done:
            self._complete(d)
        for k, vec in comps.items():
            if self._nf(vec, k, stop=True):
                return False
        return True

    def quotient_dim(self, k: int) -> int:
        """Number of standard words of degree k, counted through the automaton."""
        self._complete(k)
        delta, out = self._delta, self._out
        counts = {0: 1} if out[0] is None else {}
        for _ in range(k):
            nxt: dict[int, int] = {}
            for s, n in counts.items():
                for t in (delta[2 * s], delta[2 * s + 1]):
                    if out[t] is None:
                        nxt[t] = nxt.get(t, 0) + n
            counts = nxt
        return sum(counts.values())

    def quotient_reduce(self, f: Poly, horizon: int | None = None) -> Poly:
        """Canonical representative of f in F/(I + F_{>horizon})."""
        if horizon is None:
            horizon = self.maxdeg
        if horizon > self.maxdeg:
            raise HorizonError(f"degree {horizon} beyond horizon {self.maxdeg}")
        comps = {k: vec for k, vec in self._components(f).items() if k <= horizon}
        if comps:
            self._complete(max(comps))
        out = {}
        for k, vec in comps.items():
            for c, v in self._nf(vec, k).items():
                out[Monomial(k, c)] = v
        return Poly(self.p, out)

    def first_nonmember(self, k: int) -> Monomial | None:
        """The degree-k monomial of least code outside the ideal, or None.

        Outside means a nonzero normal form, which a word may have without
        being standard: in (x^11 + x^10 y), x^11 leads yet reduces to
        -x^10 y.  A word holding the leading word of a monomial row is a
        member together with every word sharing its prefix through that
        occurrence, so the walk skips that whole block of codes.
        """
        self._complete(k)
        delta, out = self._delta, self._out
        code, end = 0, 1 << k
        while code < end:
            # the earliest-ending occurrence of a monomial row, if any
            r, shift, state = out[0], k, 0
            while (r is None or r[1]) and shift:
                shift -= 1
                state = delta[(state << 1) | ((code >> shift) & 1)]
                r = out[state]
            if r is not None and not r[1]:
                code = ((code >> shift) + 1) << shift
            elif self._nf({code: 1}, k, stop=True):
                return Monomial(k, code)
            else:
                code += 1
        return None


# -- Golod-Shafarevich audit ---------------------------------------------


@dataclass(frozen=True)
class GSAuditResult:
    ok: bool
    failed_degree: int | None = None
    count: int | None = None
    bound: Fraction | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def gs_audit(counts: Mapping[int, int], epsilon: Fraction,
             max_degree: int) -> GSAuditResult:
    """Check that the n_k = counts[k] generators of degree k satisfy
    n_k <= eps^2 (2 - 2 eps)^(k-2) for 2 <= k <= max_degree, exactly.

    Degrees 0 and 1 must carry no generators at all; a violation there is
    a precondition failure, not a budget failure.
    """
    eps = Fraction(epsilon)
    if not (0 < eps <= 1):
        return GSAuditResult(
            ok=False, reason=f"epsilon must lie in (0, 1], got {eps}"
        )
    for d in (0, 1):
        if counts.get(d, 0):
            return GSAuditResult(
                ok=False,
                failed_degree=d,
                count=counts.get(d, 0),
                reason=f"generators of degree {d} are not budgeted",
            )
    base = 2 - 2 * eps
    for k in range(2, max_degree + 1):
        n_k = counts.get(k, 0)
        if not n_k:
            continue
        bound = eps * eps * base ** (k - 2)
        if n_k > bound:
            return GSAuditResult(ok=False, failed_degree=k, count=n_k, bound=bound)
    return GSAuditResult(ok=True)


# -- unit-group encoding ----------------------------------------------------


def _letter_poly(base: str, p: int) -> Poly:
    return Poly.x(p) if base == "X" else Poly.y(p)


def unit_inverse_poly(base: str, exponent_bound: int, p: int) -> Poly:
    """The inverse of 1 + x as a polynomial, valid once x^N = 0: sum (-x)^i, i < N."""
    var = _letter_poly(base, p)
    acc = Poly.zero(p)
    power = Poly.one(p)
    for i in range(exponent_bound):
        acc = acc + (power if i % 2 == 0 else -power)
        power = power * var
    return acc


def unit_word_to_poly(
    word: Sequence[str],
    exponent_bound: int,
    ideal: HomogeneousIdeal,
    horizon: int | None = None,
) -> Poly:
    """Image of a group word over X, Y and inverses inside F/I, reduced at the horizon.

    X maps to 1 + x; the inverse letters expand to the finite alternating
    sums that invert them once x^N and y^N vanish, so the ideal must list
    both of those monomials among its generators.
    """
    if horizon is None:
        horizon = ideal.maxdeg
    if horizon > ideal.maxdeg:
        raise HorizonError(f"degree {horizon} beyond horizon {ideal.maxdeg}")
    N = exponent_bound
    if N < 1:
        raise ValueError("exponent bound must be positive")
    for m in (Monomial(N, 0), Monomial(N, (1 << N) - 1)):
        if not ideal.has_monomial_generator(m):
            raise EncodingError(
                f"ideal lacks the generator {m.word}; unit inverses are undefined"
            )
    p = ideal.p
    acc = Poly.one(p)
    for tok in word:
        if tok in ("X", "Y"):
            factor = Poly.one(p) + _letter_poly(tok, p)
        elif tok in ("X^-1", "Y^-1"):
            factor = unit_inverse_poly(tok[0], N, p)
        else:
            raise EncodingError(f"bad unit-word letter {tok!r}")
        acc = acc.mul_truncated(factor, horizon)
    return ideal.quotient_reduce(acc, horizon)


def monomial_to_unit_word(m: Monomial) -> tuple[str, ...]:
    """The positive unit word whose top homogeneous component is m."""
    return tuple("Y" if ch == "y" else "X" for ch in m.word)
