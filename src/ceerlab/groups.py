"""Word problems for the concrete group families used by the constructions.

Three kinds of factors ship with the free-product machinery: finite
cyclic groups, staged abelian presentations (generators x_i plus a
stage-enumerated triangular stream of relations x_j = w(x_{<j})), and
involution modules over a ceer (commuting order-2 generators g_k with
g_j = g_k whenever j and k are ceer-related).  Free-product words are
alternating syllable sequences; reduction canonicalizes each syllable
through its factor's decider, drops identities, and merges neighbours
until the word is in normal form.

All stage-indexed answers are monotone views: a word that is trivial at
stage s stays trivial later, and a nontrivial answer only means "not
yet provably trivial".
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Iterable, Mapping, Sequence

from .ceers import CeerTable, ReductionFn, StageRegressionError, StageSet

__all__ = [
    "TriangularityError",
    "CyclicFactor",
    "StagedAbelianFactor",
    "FreeProduct",
    "FreeProductWord",
    "fp_reduce",
    "alternating_word",
    "star_z2_to_star_h",
    "CeerModuleGroup",
    "z2_module_wp",
    "ga_wp",
    "Relation",
    "StagedPresentation",
    "validate_relation_stream",
    "staged_abelian_wp",
    "WordCoding",
    "word_problem_table",
    "finite_genset_translate",
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

    def identity(self) -> int:
        return 0

    def canon(self, e: int) -> int:
        return e % self.order

    def mul(self, a: int, b: int) -> int:
        return (a + b) % self.order

    def inv(self, a: int) -> int:
        return (-a) % self.order

    def is_identity(self, e: int) -> bool:
        return e % self.order == 0

    def elements(self) -> range:
        return range(self.order)


class StagedAbelianFactor:
    """A staged abelian presentation frozen at one stage, as a factor group.

    Elements are sparse exponent vectors over the generators.
    """

    def __init__(self, presentation: "StagedPresentation", stage: int):
        self.presentation = presentation
        self.stage = stage

    def identity(self) -> dict[int, int]:
        return {}

    def canon(self, elem) -> tuple[tuple[int, int], ...]:
        return staged_abelian_wp(self.presentation, elem, self.stage)

    def mul(self, a, b) -> dict[int, int]:
        out = _to_vec(a)
        for idx, exp in _to_vec(b).items():
            out[idx] = out.get(idx, 0) + exp
            if out[idx] == 0:
                del out[idx]
        return out

    def inv(self, a) -> dict[int, int]:
        return {idx: -exp for idx, exp in _to_vec(a).items()}

    def is_identity(self, elem) -> bool:
        return not self.canon(elem)


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

    def identity_word(self) -> "FreeProductWord":
        return FreeProductWord(self, ())


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
    a_elem: Any = 1,
) -> FreeProductWord:
    """The word g_0 a g_1 a ... a g_n over the factors g_tag and a_tag."""
    sylls: list[tuple[str, Any]] = []
    for i, g in enumerate(g_letters):
        if i:
            sylls.append((a_tag, a_elem))
        sylls.append((g_tag, g))
    return FreeProductWord(product, tuple(sylls))


def star_z2_to_star_h(
    g_letters: Sequence[Any],
    h_elem: Any,
    target: FreeProduct,
    g_tag: str = "G",
    h_tag: str = "H",
) -> FreeProductWord:
    """Send g_0 a g_1 a ... a g_n to g_0 h^-1 g_1 h ... h^((-1)^n) g_n.

    The input is given by its G-letters alone (the order-2 separators are
    implicit).  The output word is trivial in G*H exactly when the input
    is trivial in G*(Z/2Z), provided h is not the identity of its factor.
    """
    h_factor = target.factor(h_tag)
    if h_factor.is_identity(h_elem):
        raise ValueError("separator element must not be the identity")
    h_inv = h_factor.inv(h_elem)
    sylls: list[tuple[str, Any]] = []
    for i, g in enumerate(g_letters):
        if i:
            sylls.append((h_tag, h_inv if i % 2 == 1 else h_elem))
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


def ga_wp(
    members: StageSet, word: Iterable[int | tuple[int, int]], stage: int
) -> bool:
    """Identity test in <g_i | g_i^2 = 1, g_i = 1 for i in A> at a stage."""
    parity: dict[int, int] = {}
    for item in word:
        k, exp = item if isinstance(item, tuple) else (item, 1)
        parity[k] = parity.get(k, 0) ^ (exp & 1)
    killed = set(members.at_stage(stage))
    return all(k in killed for k, odd in parity.items() if odd)


# -- staged presentations ------------------------------------------------------


@dataclass(frozen=True)
class Relation:
    """One triangular relation x_lhs = prod x_i^e_i with all i < lhs."""

    lhs: int
    rhs: tuple[tuple[int, int], ...]
    stage: int


_STATUSES = ("level", "free", "determined", "collapsed")


class StagedPresentation:
    """Generators x_0, x_1, ... with a stage-enumerated triangular stream.

    Each generator may be the left-hand side of at most one relation and
    right-hand sides mention strictly smaller indices, so substitution in
    descending index order terminates with a unique normal form.

    Generator statuses (level / free / determined / collapsed) live here
    alone: `status` holds each one's current status, and each level keeps
    a census history, the stages at which its counts changed and the
    counts from each on.  Statuses, like relations, arrive in stage order,
    so a census at any stage is one binary search.
    """

    def __init__(self, ngens: int | None = None):
        if ngens is not None and ngens < 0:
            raise ValueError("generator count must be nonnegative")
        self.ngens = ngens
        self.relations: list[Relation] = []
        self._by_lhs: dict[int, Relation] = {}
        self._last_stage = 0
        self.level: dict[int, int] = {}
        self.status: dict[int, str] = {}
        self._census: dict[int, tuple[list[int], list[dict[str, int]]]] = {}

    # -- relations ---------------------------------------------------------

    def _check_index(self, j: int) -> None:
        if j < 0:
            raise ValueError(f"generator index {j} is negative")
        if self.ngens is not None and j >= self.ngens:
            raise ValueError(f"generator x{j} is not materialized (ngens={self.ngens})")

    def add_relation(
        self, lhs: int, rhs: Iterable[tuple[int, int]], stage: int
    ) -> Relation:
        self._check_index(lhs)
        rhs_t = tuple((i, e) for i, e in rhs if e)
        if lhs in self._by_lhs:
            raise TriangularityError(f"x{lhs} already has a defining relation")
        for i, _ in rhs_t:
            self._check_index(i)
            if i >= lhs:
                raise TriangularityError(
                    f"relation for x{lhs} mentions x{i}, not strictly smaller"
                )
        if stage < self._last_stage:
            raise StageRegressionError(
                f"relation stage {stage} below last stage {self._last_stage}"
            )
        rel = Relation(lhs, rhs_t, stage)
        self.relations.append(rel)
        self._by_lhs[lhs] = rel
        self._last_stage = stage
        return rel

    def collapse_to_one(self, j: int, stage: int) -> Relation:
        return self.add_relation(j, (), stage)

    def collapse_to(self, j: int, i: int, stage: int) -> Relation:
        return self.add_relation(j, ((i, 1),), stage)

    def collapse_to_inverse(self, j: int, i: int, stage: int) -> Relation:
        return self.add_relation(j, ((i, -1),), stage)

    def product_relation(self, indices: Sequence[int], stage: int) -> Relation:
        """Impose prod x_k = 1 over `indices`, as x_max = (prod rest)^-1."""
        if not indices:
            raise ValueError("empty product relation")
        k_max = max(indices)
        rhs = tuple((k, -1) for k in sorted(indices) if k != k_max)
        return self.add_relation(k_max, rhs, stage)

    def lhs_relation(self, j: int) -> Relation | None:
        return self._by_lhs.get(j)

    # -- statuses -----------------------------------------------------------

    def set_level(self, gen: int, level: int) -> None:
        self._check_index(gen)
        self.level[gen] = level

    def set_status(self, gen: int, status: str, stage: int) -> None:
        """Give x_gen a status from `stage` on; a level's census counts
        x_gen only if its level was set first."""
        self._check_index(gen)
        if stage < self._last_stage:
            raise StageRegressionError(
                f"status stage {stage} below last stage {self._last_stage}"
            )
        self._last_stage = stage
        old, self.status[gen] = self.status.get(gen), status
        if gen not in self.level:
            return
        stages, history = self._census.setdefault(self.level[gen], ([], []))
        if not stages or stages[-1] < stage:
            stages.append(stage)
            history.append(dict(history[-1]) if history
                           else dict.fromkeys(_STATUSES, 0))
        counts = history[-1]
        if old is not None:
            counts[old] -= 1
        counts[status] += 1

    def census_at(self, level: int, stage: int) -> dict[str, int]:
        """Head-count of a level's generators by status at a stage; a
        generator with no status yet is not counted."""
        stages, history = self._census.get(level, ((), ()))
        i = bisect_right(stages, stage)
        return dict(history[i - 1]) if i else dict.fromkeys(_STATUSES, 0)


def validate_relation_stream(
    relations: Iterable[tuple[int, Sequence[tuple[int, int]], int]],
) -> None:
    """Raise TriangularityError on the first offending raw relation."""
    seen: set[int] = set()
    last_stage = 0
    for lhs, rhs, stage in relations:
        if lhs in seen:
            raise TriangularityError(f"x{lhs} appears as a left-hand side twice")
        for i, _ in rhs:
            if i >= lhs:
                raise TriangularityError(
                    f"relation for x{lhs} mentions x{i}, not strictly smaller"
                )
        if stage < last_stage:
            raise StageRegressionError(
                f"relation stage {stage} below last stage {last_stage}"
            )
        seen.add(lhs)
        last_stage = stage


def staged_abelian_wp(
    pres: StagedPresentation,
    w: Mapping[int, int] | Iterable[tuple[int, int]],
    stage: int,
) -> tuple[tuple[int, int], ...]:
    """Canonical exponent vector of w in the stage-s group.

    Substitutes defining relations highest index first, popping a max-heap
    of the support's stage-s left-hand sides.  Right-hand sides mention
    only smaller indices, so once x_j is popped nothing can bring it back:
    each generator is substituted at most once.  The surviving support
    contains no stage-s left-hand sides, so equal words have identical
    canonical vectors.
    """
    vec = _to_vec(w)
    for idx in vec:
        if pres.ngens is not None and idx >= pres.ngens:
            raise ValueError(f"word mentions unmaterialized generator x{idx}")
        if idx < 0:
            raise ValueError("generator index must be nonnegative")
    by_lhs = pres._by_lhs
    heap = [-j for j in vec
            if (rel := by_lhs.get(j)) is not None and rel.stage <= stage]
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


# -- word codings and translations ---------------------------------------------


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

    @staticmethod
    def invert(word: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
        return tuple((idx, -sign) for idx, sign in reversed(word))


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


def finite_genset_translate(
    reps: Mapping[int, Sequence[tuple[int, int]]],
    new_coding: WordCoding,
    old_coding: WordCoding,
    bound: int,
) -> ReductionFn:
    """The word map induced by writing each new generator in old generators.

    Sends the code of a word over the new generating set to the code of
    its letterwise substitution; a reduction between the two word
    problems whenever the representatives are correct.
    """
    if new_coding.ngens and set(range(new_coding.ngens)) - set(reps):
        missing = sorted(set(range(new_coding.ngens)) - set(reps))
        raise ValueError(f"no representative for generators {missing}")
    table: dict[int, tuple[int, int]] = {}
    for n in range(bound):
        out: list[tuple[int, int]] = []
        for idx, sign in new_coding.decode(n):
            rep = tuple(reps[idx])
            out.extend(rep if sign == 1 else WordCoding.invert(rep))
        table[n] = (old_coding.encode(out), 0)
    return ReductionFn(table=table, totality_bound=bound)
