"""Word problems for the concrete group families used by the constructions.

Free products take any factor that brings its own decider; finite cyclic
groups ship as one.  The module also decides two staged word problems:
staged abelian presentations (generators x_i plus a stage-enumerated
triangular stream of relations x_j = w(x_{<j})), and involution modules
over a ceer (commuting order-2 generators g_k with g_j = g_k whenever j
and k are ceer-related).  Free-product words are alternating syllable
sequences; reduction canonicalizes each syllable through its factor's
decider, drops identities, and merges neighbours until the word is in
normal form.

All stage-indexed answers are monotone views: a word that is trivial at
stage s stays trivial later, and a nontrivial answer only means "not
yet provably trivial".
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, Mapping, Sequence

from .ceers import CeerTable, StageRegressionError

__all__ = [
    "TriangularityError",
    "CyclicFactor",
    "FreeProduct",
    "FreeProductWord",
    "fp_reduce",
    "alternating_word",
    "star_z2_to_star_h",
    "CeerModuleGroup",
    "z2_module_wp",
    "Relation",
    "GENERATOR_CEILING",
    "StagedPresentation",
    "validate_relation_stream",
    "staged_abelian_wp",
    "WordCoding",
    "word_problem_table",
]


class TriangularityError(ValueError):
    """A relation stream broke the x_j = w(x_{<j}) discipline."""


def _to_vec(w: Any) -> dict[int, int]:
    if isinstance(w, dict):
        items = w.items()
    else:
        items = w
    vec: dict[int, int] = {}
    for idx, exp in items:
        if exp:
            vec[idx] = vec.get(idx, 0) + exp
            if vec[idx] == 0:
                del vec[idx]
    return vec


# -- factor deciders ---------------------------------------------------------


class CyclicFactor:
    """Z/nZ written additively; elements are generator exponents."""

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order

    def canon(self, e: int) -> int:
        return e % self.order

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def inv(self, a: int) -> int:
        return (-a) % self.order

    def is_identity(self, e: int) -> bool:
        return e % self.order == 0


# -- free products ------------------------------------------------------------


class FreeProduct:
    """A free product of named factors, each with its own decider."""

    def __init__(self, factors: Mapping[str, Any]):
        if not factors:
            raise ValueError("a free product needs at least one factor")
        self.factors = dict(factors)

    def factor(self, tag: str):
        try:
            return self.factors[tag]
        except KeyError:
            raise KeyError(f"unknown factor tag {tag!r}") from None

    def word(self, syllables: Iterable[tuple[str, Any]]) -> "FreeProductWord":
        sylls = tuple(syllables)
        for tag, _ in sylls:
            self.factor(tag)
        return FreeProductWord(self, sylls)


@dataclass(frozen=True)
class FreeProductWord:
    """An (unreduced) word: a sequence of (factor tag, factor element)."""

    product: FreeProduct
    syllables: tuple[tuple[str, Any], ...]

    def __mul__(self, other: "FreeProductWord") -> "FreeProductWord":
        if self.product is not other.product:
            raise ValueError("words live in different free products")
        return FreeProductWord(self.product, self.syllables + other.syllables)

    def inverse(self) -> "FreeProductWord":
        inv = tuple(
            (tag, self.product.factor(tag).inv(elem))
            for tag, elem in reversed(self.syllables)
        )
        return FreeProductWord(self.product, inv)

    def reduce(self) -> "FreeProductWord":
        return fp_reduce(self)

    def is_identity(self) -> bool:
        return not fp_reduce(self).syllables

    def __len__(self) -> int:
        return len(self.syllables)


def fp_reduce(w: FreeProductWord) -> FreeProductWord:
    """Normal form: canonical syllables, no identities, tags alternating.

    Each syllable, merged with its left neighbour when they share a tag,
    is canonicalised once; a factor's canonical form is falsy exactly at
    its identity.  Normal forms are unique, so two words are equal iff
    their normal forms are, and a word is the identity iff its normal
    form is empty.
    """
    prod = w.product
    stack: list[tuple[str, Any]] = []
    for tag, elem in w.syllables:
        factor = prod.factor(tag)
        if stack and stack[-1][0] == tag:
            elem = factor.mul(stack.pop()[1], elem)
        canon = factor.canon(elem)
        if canon:
            stack.append((tag, canon))
    return FreeProductWord(prod, tuple(stack))


def alternating_word(
    g_letters: Sequence[Any],
    product: FreeProduct,
    g_tag: str = "G",
    a_tag: str = "A",
) -> FreeProductWord:
    """The word g_0 a g_1 a ... a g_n over the factors g_tag and a_tag,
    with a the element 1 of the a_tag factor."""
    sylls: list[tuple[str, Any]] = []
    for i, g in enumerate(g_letters):
        if i:
            sylls.append((a_tag, 1))
        sylls.append((g_tag, g))
    return FreeProductWord(product, tuple(sylls))


def star_z2_to_star_h(
    g_letters: Sequence[Any],
    h_elem: Any,
    target: FreeProduct,
    g_tag: str = "G",
) -> FreeProductWord:
    """Send g_0 a g_1 a ... a g_n to g_0 h^-1 g_1 h ... h^((-1)^n) g_n.

    The input is given by its G-letters alone (the order-2 separators are
    implicit).  The output word is trivial in G*H exactly when the input
    is trivial in G*(Z/2Z), provided h is not the identity of its factor.
    """
    h_factor = target.factor("H")
    if h_factor.is_identity(h_elem):
        raise ValueError("separator element must not be the identity")
    h_inv = h_factor.inv(h_elem)
    sylls: list[tuple[str, Any]] = []
    for i, g in enumerate(g_letters):
        if i:
            sylls.append(("H", h_inv if i % 2 == 1 else h_elem))
        sylls.append((g_tag, g))
    return FreeProductWord(target, tuple(sylls))


# -- involution modules over a ceer -------------------------------------------


@dataclass
class CeerModuleGroup:
    """Commuting order-2 generators g_k with g_j = g_k when j, k are related."""

    ceer: CeerTable


def z2_module_wp(
    group: CeerModuleGroup,
    word: Iterable[int | tuple[int, int]],
    stage: int,
) -> frozenset[int]:
    """Canonical form: the class representatives of odd total multiplicity.

    The word is the identity iff the set is empty.  Monotone in stage:
    classes only merge, so canonical sets only coarsen toward empty.
    """
    roots = group.ceer.roots_at(stage)
    parity: dict[int, int] = {}
    for item in word:
        k, exp = item if isinstance(item, tuple) else (item, 1)
        if k < 0:
            raise ValueError("generator index must be nonnegative")
        rep = roots[k] if k < len(roots) else k  # least member of k's class
        parity[rep] = parity.get(rep, 0) ^ (exp & 1)
    return frozenset(rep for rep, odd in parity.items() if odd)


# -- staged presentations ------------------------------------------------------


@dataclass(slots=True)
class Relation:
    """One triangular relation x_lhs = prod x_i^e_i with all i < lhs, from
    `stage` on.  Slotted and not frozen: replay builds one per logged
    relator, and a frozen dataclass sets each field through
    `object.__setattr__`, about three times the cost."""

    lhs: int
    rhs: tuple[tuple[int, int], ...]
    stage: int


_STATUSES = ("level", "free", "determined", "collapsed")


_MINUS, _PLUS = -1, 1  # the exponents a run writes, as cached small ints

# Ceiling on the base ** (levels + 1) generators of a star presentation,
# and on the letters and arguments a scenario's phi rows name.  Laying out
# the levels and the level words each take time and memory linear in that
# count; levels 3 at base 10 hold 10,000 generators.
GENERATOR_CEILING = 100_000


class StagedPresentation:
    """Generators x_0, x_1, ... with a stage-enumerated triangular stream.

    Each generator may be the left-hand side of at most one relation and
    right-hand sides mention strictly smaller indices, so substitution in
    descending index order terminates with a unique normal form.
    `add_relation` holds the only copy of these rules and `_check_stage` the
    one stage order, which `add_relation` consults only when a relation
    comes with a stage other than the last; `validate_relation_stream`
    checks a raw stream by feeding it to a throwaway presentation.
    `relations` lists the `Relation`s in the order they were added,
    `_by_lhs` indexes them by left-hand side.

    Generator statuses (level / free / determined / collapsed) live here
    alone: `levels` holds each level's range, "level" until `status` names
    a letter that left it, and each level keeps a census history.  Statuses,
    like relations, arrive in stage order, so a census at any stage is one
    binary search.  Only `star.apply_record` writes a star presentation.
    """

    def __init__(self, ngens: int | None = None):
        if ngens is not None and ngens < 0:
            raise ValueError("generator count must be nonnegative")
        self.ngens = ngens
        self.relations: list[Relation] = []
        self._by_lhs: dict[int, Relation] = {}
        self._last_stage = 0
        self.levels: dict[int, range] = {}
        self.status: dict[int, str] = {}
        self._census: dict[int, tuple[list[int], list[dict[str, int]]]] = {}

    # -- relations ---------------------------------------------------------

    def _check_index(self, j: int) -> None:
        if j < 0:
            raise ValueError(f"generator index {j} is negative")
        if self.ngens is not None and j >= self.ngens:
            raise ValueError(f"generator x{j} is not materialized (ngens={self.ngens})")

    def _check_stage(self, kind: str, stage: int) -> None:
        """Store `stage` as the last one, refusing one below it or NaN,
        which no stage orders."""
        if not stage >= self._last_stage:
            raise StageRegressionError(
                f"{kind} stage {stage} below last stage {self._last_stage}")
        self._last_stage = stage

    def add_relation(
        self, lhs: int, rhs: Sequence[Sequence[int]], stage: int
    ) -> Relation:
        """Define x_lhs from `stage` on.  The left-hand side must be an int
        and the right-hand side a list or tuple of pairs of ints (a bool is
        none; TypeError otherwise), and every entry, even one with exponent
        0, must name a strictly smaller generator.

        Replay calls this once per logged relator, and a star log is mostly
        right-hand entries, so the common path reads each entry once, in one
        comprehension, and calls no helper: the loop below runs only for a
        right-hand side that has an entry to refuse or to drop, and
        `_check_stage` only for a stage object other than the last one,
        which it would store unchanged.  An exponent of -1 or 1, the only
        ones a run writes, is told from True and 1.0 by identity with the
        cached small ints, which spares it a type lookup."""
        if type(lhs) is not int:
            raise TypeError(f"left-hand side {lhs!r} is not an int")
        ngens = self.ngens
        if lhs < 0 or ngens is not None and lhs >= ngens:
            self._check_index(lhs)
        if lhs in self._by_lhs:
            raise TriangularityError(f"x{lhs} already has a defining relation")
        side = type(rhs)
        if side is not list and side is not tuple:
            raise TypeError(f"relation for x{lhs} has right-hand side "
                            f"{rhs!r}, not a list of pairs")
        try:  # an empty side, as most of a collapse's are, makes no call
            kept = [(i, e) for i, e in rhs
                    if i.__class__ is int and 0 <= i < lhs  # lhs < ngens
                    and (e is _MINUS or e is _PLUS or e.__class__ is int and e)
                    ] if rhs else rhs
        except (TypeError, ValueError):  # an entry that is no pair
            kept = None
        if kept is not rhs and (kept is None or len(kept) != len(rhs)):
            kept = []
            for entry in rhs:
                if (type(entry) not in (list, tuple) or len(entry) != 2
                        or type(entry[0]) is not int
                        or type(entry[1]) is not int):
                    raise TypeError(f"relation for x{lhs} has right-hand "
                                    f"entry {entry!r}, not a pair of ints")
                i, e = entry
                if not 0 <= i < lhs:
                    self._check_index(i)
                    raise TriangularityError(
                        f"relation for x{lhs} mentions x{i}, not strictly "
                        "smaller")
                if e:
                    kept.append((i, e))
        if stage is not self._last_stage:
            self._check_stage("relation", stage)
        rel = Relation(lhs, tuple(kept), stage)
        self.relations.append(rel)
        self._by_lhs[lhs] = rel
        return rel

    def lhs_relation(self, j: int) -> Relation | None:
        return self._by_lhs.get(j)

    # -- statuses -----------------------------------------------------------

    def set_level(self, level: int, gens: range, stage: int) -> None:
        """Lay out `level` as the nonempty range `gens`, "level" from `stage`."""
        if level in self.levels:
            raise ValueError(f"level {level} is already laid out")
        self._check_index(gens[0])
        self._check_index(gens[-1])
        self._check_stage("level", stage)
        self.levels[level] = gens
        self._counts_from(level, stage)["level"] += len(gens)

    def level_of(self, gen: int) -> int | None:
        """The laid-out level that holds x_gen, or None."""
        return next((j for j, gens in self.levels.items() if gen in gens), None)

    def set_statuses(self, level: int, gens: Iterable[int], status: str,
                     stage: int) -> None:
        """Give each of `gens`, int letters of the laid-out `level` (a bool
        is none; TypeError otherwise), a status from `stage` on, as one
        census entry."""
        letters = self.levels.get(level)
        if letters is None:
            raise ValueError(f"level {level} is not laid out")
        self._check_stage("status", stage)
        counts = self._counts_from(level, stage)
        for gen in gens:
            if type(gen) is not int:
                raise TypeError(f"letter {gen!r} is not an int")
            if gen not in letters:
                self._check_index(gen)  # an index no letter can have says so
                raise ValueError(f"x{gen} is not a letter of level {level}")
            old, self.status[gen] = self.status.get(gen, "level"), status
            counts[old] -= 1
            counts[status] += 1

    def _counts_from(self, level: int, stage: int) -> dict[str, int]:
        """The level's census counts from `stage` on, to be updated."""
        stages, history = self._census.setdefault(level, ([], []))
        if not stages or stages[-1] < stage:
            stages.append(stage)
            history.append(dict(history[-1]) if history
                           else dict.fromkeys(_STATUSES, 0))
        return history[-1]

    def census_at(self, level: int, stage: int) -> dict[str, int]:
        """Head-count of a level's generators by status at a stage; a
        generator of no laid-out level is not counted.  At `inf` it is the
        last count, and at NaN, which no stage orders, the count before
        every entry: all zero."""
        stages, history = self._census.get(level, ((), ()))
        i = bisect_right(stages, stage) if stage == stage else 0
        return dict(history[i - 1]) if i else dict.fromkeys(_STATUSES, 0)


def validate_relation_stream(
    relations: Iterable[tuple[int, Sequence[tuple[int, int]], int]],
) -> None:
    """Raise TriangularityError (or StageRegressionError) on the first raw
    relation that `StagedPresentation.add_relation` refuses."""
    pres = StagedPresentation()
    for lhs, rhs, stage in relations:
        pres.add_relation(lhs, rhs, stage)


def staged_abelian_wp(
    pres: StagedPresentation,
    w: Mapping[int, int] | Iterable[tuple[int, int]],
    stage: int,
) -> tuple[tuple[int, int], ...]:
    """Canonical exponent vector of w in the stage-s group.

    Substitutes defining relations highest index first, popping a max-heap
    of the support's stage-s left-hand sides; one loop over the summed
    vector checks each index and seeds the heap, and a word with none is
    already canonical.  Right-hand sides mention only smaller indices, so
    once x_j is popped nothing can bring it back: each generator is
    substituted at most once.  The surviving support contains no stage-s
    left-hand sides, so equal words have identical canonical vectors.
    Every relation holds at `inf` and none at NaN.
    """
    vec = _to_vec(w)
    ngens = pres.ngens
    by_lhs = pres._by_lhs
    heap = []
    for idx in vec:
        if ngens is not None and idx >= ngens:
            raise ValueError(f"word mentions unmaterialized generator x{idx}")
        if idx < 0:
            raise ValueError("generator index must be nonnegative")
        if (rel := by_lhs.get(idx)) is not None and rel.stage <= stage:
            heap.append(-idx)
    if not heap:
        return tuple(sorted(vec.items()))
    heapify(heap)
    while heap:
        j = -heappop(heap)
        exp = vec.pop(j, 0)
        if not exp:
            continue  # cancelled, or a second entry for a popped index
        for i, ri in by_lhs[j].rhs:
            old = vec.get(i, 0)
            vec[i] = old + exp * ri
            if not vec[i]:
                del vec[i]
            elif not old:  # x_i enters the support
                rel = by_lhs.get(i)
                if rel is not None and rel.stage <= stage:
                    heappush(heap, -i)
    return tuple(sorted(vec.items()))


# -- word codings ---------------------------------------------------------------


class WordCoding:
    """Bijective numbering of words over g signed generators.

    Code 0 is the empty word; positive codes are bijective base-2g
    numerals whose digits name the letters x_0, x_0^-1, x_1, x_1^-1, ...
    """

    def __init__(self, ngens: int):
        if ngens < 1:
            raise ValueError("need at least one generator")
        self.ngens = ngens
        self.base = 2 * ngens

    def decode(self, n: int) -> tuple[tuple[int, int], ...]:
        if n < 0:
            raise ValueError("codes are nonnegative")
        out = []
        while n > 0:
            d = n % self.base
            if d == 0:
                d = self.base
            n = (n - d) // self.base
            d -= 1
            out.append((d // 2, 1 if d % 2 == 0 else -1))
        return tuple(out)

    def encode(self, word: Sequence[tuple[int, int]]) -> int:
        n = 0
        for idx, sign in reversed(word):
            if not (0 <= idx < self.ngens) or sign not in (1, -1):
                raise ValueError(f"bad letter ({idx}, {sign})")
            n = n * self.base + 2 * idx + (0 if sign == 1 else 1) + 1
        return n


def word_problem_table(
    equal_at: Callable[[int, int, int], bool],
    bound: int,
    stages: int,
) -> CeerTable:
    """Materialize a word problem as a stage table over codes below bound.

    equal_at(a, b, s) must be monotone in s; each pair is asserted at the
    first stage it holds.
    """
    table = CeerTable(bound=bound)
    unrelated = [(a, b) for a in range(bound) for b in range(a + 1, bound)]
    for s in range(stages + 1):
        still = []
        for a, b in unrelated:
            if table.related(a, b, s):
                continue
            if equal_at(a, b, s):
                table.assert_pair(a, b, s)
            else:
                still.append((a, b))
        unrelated = still
    return table
