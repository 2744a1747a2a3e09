"""Finite-injury construction of a word-problem table over a staged group.

The group starts as a free abelian group on base**(levels+1) generators
split into levels; level j holds the index range [base**j, base**(j+1))
(level 0 additionally owns [0, base)).  Each level is summarized by an
alternating "level word" over G * (Z/2Z): the product of a*x_k over the
level's index range.  Two kinds of requirements mutate the presentation:

 * a stage-0-priority coding requirement collapses a whole level onto a
   lower one whenever the ambient universal table newly relates the two
   level indices, keeping level words aligned with the universal table;
 * diagonalization requirements R_e watch a pair of fresh witnesses
   through a partial-function stub and decide, by case analysis on the
   canonical form of the induced group word, whether to relate the
   witnesses in the output table.

Every relator added is triangular: its left-hand side is a strictly
larger generator index than anything on the right, so canonical forms
exist at every stage.  A per-level reserve budget guarantees case
analysis never runs out of working generators; exhausting it raises
BudgetError rather than silently degrading.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from .ceers import CeerTable
from .engine import ActionRecord, ConstructionRun, PriorityEngine, Requirement, RunLog
from .groups import (
    CyclicFactor,
    FreeProduct,
    FreeProductWord,
    StagedAbelianFactor,
    StagedPresentation,
    fp_reduce,
    staged_abelian_wp,
)

__all__ = [
    "BudgetError",
    "StarResult",
    "StarConstruction",
    "PhiEntry",
    "run_star_universal",
    "level_letters",
]

Word = tuple[tuple[int, int], ...]


class BudgetError(RuntimeError):
    """A level's working-generator reserve was exhausted."""

    def __init__(self, level: int, requirement: str):
        super().__init__(
            f"generator reserve exhausted at level {level} "
            f"while serving {requirement}"
        )
        self.level = level
        self.requirement = requirement


@dataclass(frozen=True)
class PhiEntry:
    """One stub value: phi(arg) converges at `converge_stage` to `word`."""

    converge_stage: int
    word: Word


def level_letters(base: int, level: int) -> list[int]:
    """Generator indices owned by a level, in ascending order."""
    if level == 0:
        return list(range(base))
    return list(range(base ** level, base ** (level + 1)))


def _word_inverse(word: Word) -> Word:
    return tuple((i, -e) for i, e in reversed(word))


def _relator_obj(lhs: int, rhs: Word) -> dict[str, Any]:
    return {"lhs": lhs, "rhs": [[i, e] for i, e in rhs]}


class _StarState:
    """Mutable presentation-side state shared by the requirements."""

    def __init__(self, base: int, levels: int, universal: CeerTable,
                 x_bound: int):
        self.base = base
        self.levels = levels
        self.universal = universal
        self.ngens = base ** (levels + 1)
        self.pres = StagedPresentation(ngens=self.ngens)
        self.current: dict[int, list[int]] = {}
        self.collapsed: set[int] = set()
        self.X = CeerTable(bound=x_bound)
        self.next_witness = 0
        self.diag: list["_DiagReq"] = []

    def take_witnesses(self) -> tuple[int, int]:
        a = self.next_witness
        self.next_witness += 2
        if a + 1 >= self.X.bound:
            raise BudgetError(-1, "witness pool")
        return a, a + 1

    def check_alternation(self, level: int) -> None:
        gens = self.current[level]
        for pos, g in enumerate(gens):
            if g % 2 != pos % 2:
                raise RuntimeError(
                    f"alternation invariant broken at level {level}: "
                    f"position {pos} holds x{g}"
                )

    def canonical(self, word: Iterable[tuple[int, int]], stage: int) -> Word:
        return staged_abelian_wp(self.pres, word, stage)

    def classify_support(self, word: Word) -> tuple[list[int], int]:
        """Split canonical support into free letters and the max level.

        Returns (free letters, K) where K is the largest level with a
        surviving level generator in the word (-1 if none).  Canonical
        words only mention free or still-active level generators; a
        generator has status "level" exactly while it is in `current`.
        """
        free = []
        top = -1
        status = self.pres.status
        for idx, _ in word:
            kind = status.get(idx)
            if kind == "free":
                free.append(idx)
            elif kind == "level":
                top = max(top, self.pres.level[idx])
            else:
                raise RuntimeError(
                    f"canonical word mentions retired generator x{idx}"
                )
        return free, top


class _CollapseCoding(Requirement):
    """Top-priority response to the universal table relating two levels.

    When levels i < j become related, the first len(level i) still-active
    level-j generators are mapped one-for-one onto level i's full range
    and the rest of level j is killed; level words then coincide.  All
    newly related pairs visible at a stage are served by one action so
    the level-word/universal alignment holds stage by stage.
    """

    kind = "U"
    injures_lower = False

    def __init__(self, state: _StarState):
        super().__init__("U")
        self.state = state
        self.known: set[tuple[int, int]] = set()
        self.queue: list[tuple[int, int]] = []

    def _scan(self, stage: int) -> None:
        uni = self.state.universal
        top = min(self.state.levels, uni.bound - 1)
        for i in range(top + 1):
            for j in range(i + 1, top + 1):
                if (i, j) in self.known:
                    continue
                if uni.related(i, j, stage):
                    self.known.add((i, j))
                    self.queue.append((i, j))

    def ready(self, stage: int) -> bool:
        self._scan(stage)
        return any(j not in self.state.collapsed for _, j in self.queue)

    def act(self, stage: int) -> dict[str, Any]:
        st = self.state
        served = []
        restarted: set[str] = set()
        for i, j in self.queue:
            if j in st.collapsed:
                served.append({"pair": [i, j], "skipped": "already collapsed"})
                continue
            targets = level_letters(st.base, i)
            block = st.current[j][: len(targets)]
            if len(block) < len(targets):
                raise BudgetError(j, self.name)
            relators = []
            for cur, tgt in zip(block, targets):
                st.pres.collapse_to(cur, tgt, stage)
                st.pres.set_status(cur, "collapsed", stage)
                relators.append(_relator_obj(cur, ((tgt, 1),)))
            for cur in st.current[j][len(targets):]:
                st.pres.collapse_to_one(cur, stage)
                st.pres.set_status(cur, "collapsed", stage)
                relators.append(_relator_obj(cur, ()))
            st.current[j] = []
            st.collapsed.add(j)
            served.append({"pair": [i, j], "relators": relators})
            for req in st.diag:
                if req.committed_level is not None and req.e >= j:
                    req.reinitialize(stage, self.name)
                    restarted.add(req.name)
        self.queue = []
        details: dict[str, Any] = {"action": "collapse-level", "served": served}
        if restarted:
            details["reinitialized"] = sorted(restarted)
        return details


class _DiagReq(Requirement):
    """Requirement R_e: decide the output table on one fresh witness pair.

    Dispatch over the canonical form w of phi(a) * phi(b)^-1 at the
    current stage:

      case 0   w is empty: leave the witnesses unrelated, done forever.
      case 1   w mentions a free generator: relate the witnesses; no
               later relator can touch a free generator, done forever.
      case 2   top level K <= e: relate the witnesses and commit; only a
               universal collapse inside [0, e]^2 can restart this.
      case 3a  two adjacent active even generators of level K carry
               different exponents: free that even pair (larger = inverse
               of smaller) and kill the two odd generators packed with
               them; relate the witnesses, done forever.
      case 3b  mirror image freeing an odd pair and killing two evens.
      case 3c  level-K exponents are constant on evens and on odds:
               declare the largest active even and odd to be the inverse
               product of their juniors, shrinking K; stay active.
    """

    kind = "R"

    def __init__(self, e: int, stub: Mapping[int, PhiEntry], state: _StarState):
        super().__init__(f"R{e}")
        self.e = e
        self.stub = dict(stub)
        self.state = state
        self.witnesses: tuple[int, int] | None = None
        self.done = False
        self.committed_level: int | None = None
        self._cache: tuple[int, Word] | None = None
        state.diag.append(self)

    # -- stub plumbing ------------------------------------------------

    def _entries(self) -> tuple[PhiEntry, PhiEntry] | None:
        a, b = self.witnesses
        ea, eb = self.stub.get(a), self.stub.get(b)
        if ea is None or eb is None:
            return None
        return ea, eb

    def _word_at(self, stage: int) -> Word | None:
        if self._cache is not None and self._cache[0] == stage:
            return self._cache[1]
        got = self._entries()
        if got is None:
            return None
        ea, eb = got
        if stage < max(ea.converge_stage, eb.converge_stage):
            return None
        raw = ea.word + _word_inverse(eb.word)
        canon = self.state.canonical(raw, stage)
        self._cache = (stage, canon)
        return canon

    def ready(self, stage: int) -> bool:
        if self.done or not self.stub:
            return False
        if self.witnesses is None:
            self.witnesses = self.state.take_witnesses()
        return self._word_at(stage) is not None

    # -- case helpers ---------------------------------------------------

    def _free_pair_block(self, level: int, word: Word,
                         parity: int) -> tuple[list[int], bool] | None:
        """Find the 4-generator block for case 3a (parity 0) / 3b (1).

        Scans the active generators of the given index parity for the
        first adjacent pair with differing exponents in `word`.  Returns
        (block, tail_layout) or None when exponents are constant.
        """
        gens = self.state.current[level]
        side = [g for g in gens if g % 2 == parity]
        exps = dict(word)
        hit = None
        for t in range(len(side) - 1):
            if exps.get(side[t], 0) != exps.get(side[t + 1], 0):
                hit = t
                break
        if hit is None:
            return None
        g1, g2 = side[hit], side[hit + 1]
        q = gens.index(g1)
        tail = g2 == side[-1] and q >= 1
        if parity == 1 and g2 == gens[-1]:
            tail = True
        if tail:
            block = gens[q - 1: q + 3]
        else:
            block = gens[q: q + 4]
        if len(block) != 4:
            raise BudgetError(level, self.name)
        return block, tail

    def _apply_free_pair(self, level: int, block: Sequence[int], parity: int,
                         stage: int) -> dict[str, Any]:
        st = self.state
        keep = [g for g in block if g % 2 == parity]
        kill = [g for g in block if g % 2 != parity]
        small, large = min(keep), max(keep)
        relators = []
        for g in kill:
            st.pres.collapse_to_one(g, stage)
            st.pres.set_status(g, "collapsed", stage)
            relators.append(_relator_obj(g, ()))
        st.pres.collapse_to_inverse(large, small, stage)
        relators.append(_relator_obj(large, ((small, -1),)))
        for g in keep:
            st.pres.set_status(g, "free", stage)
        pos = st.current[level].index(block[0])
        del st.current[level][pos: pos + 4]
        st.check_alternation(level)
        return {"freed": keep, "collapsed": kill, "relators": relators}

    def _apply_tie_break(self, level: int, stage: int) -> dict[str, Any]:
        st = self.state
        gens = st.current[level]
        if len(gens) < 4:
            raise BudgetError(level, self.name)
        evens = [g for g in gens if g % 2 == 0]
        odds = [g for g in gens if g % 2 == 1]
        relators = []
        for side in (evens, odds):
            lead, juniors = side[-1], side[:-1]
            rhs = tuple((g, -1) for g in juniors)
            st.pres.product_relation(side, stage)
            st.pres.set_status(lead, "determined", stage)
            relators.append(_relator_obj(lead, rhs))
        st.current[level] = gens[:-2]
        st.check_alternation(level)
        return {"determined": [evens[-1], odds[-1]], "relators": relators}

    # -- action ---------------------------------------------------------

    def act(self, stage: int) -> dict[str, Any]:
        st = self.state
        a, b = self.witnesses
        word = self._word_at(stage)
        base_details = {"witnesses": [a, b]}
        if not word:
            self.done = True
            return {"action": "case-0", **base_details}
        free, top = st.classify_support(word)
        if free:
            st.X.assert_pair(a, b, stage)
            self.done = True
            return {"action": "case-1", "free_letters": sorted(set(free)),
                    **base_details}
        if top <= self.e:
            st.X.assert_pair(a, b, stage)
            self.done = True
            self.committed_level = top
            return {"action": "case-2", "top_level": top, **base_details}
        found = self._free_pair_block(top, word, parity=0)
        if found is not None:
            block, tail = found
            details = self._apply_free_pair(top, block, parity=0, stage=stage)
            st.X.assert_pair(a, b, stage)
            self.done = True
            return {"action": "case-3a", "level": top,
                    "layout": "tail" if tail else "standard",
                    **details, **base_details}
        found = self._free_pair_block(top, word, parity=1)
        if found is not None:
            block, tail = found
            details = self._apply_free_pair(top, block, parity=1, stage=stage)
            st.X.assert_pair(a, b, stage)
            self.done = True
            return {"action": "case-3b", "level": top,
                    "layout": "tail" if tail else "standard",
                    **details, **base_details}
        details = self._apply_tie_break(top, stage)
        return {"action": "case-3c", "level": top, **details, **base_details}

    def reinitialize(self, stage: int, by: str) -> None:
        self.witnesses = None
        self.done = False
        self.committed_level = None
        self._cache = None


@dataclass
class StarResult(ConstructionRun):
    presentation: StagedPresentation
    table: CeerTable
    universal: CeerTable
    base: int = 10
    levels: int = 1
    collapsed_levels: set[int] = field(default_factory=set)

    @property
    def free_generators(self) -> set[int]:
        return {g for g, s in self.presentation.status.items() if s == "free"}

    def census(self, level: int, stage: int) -> dict[str, int]:
        return self.presentation.census_at(level, stage)


def _ambient(pres: StagedPresentation, stage: int) -> FreeProduct:
    return FreeProduct({
        "G": StagedAbelianFactor(pres, stage),
        "A": CyclicFactor(2),
    })


def _level_word(product: FreeProduct, base: int, level: int) -> FreeProductWord:
    syllables = []
    for idx in level_letters(base, level):
        syllables.append(("A", 1))
        syllables.append(("G", ((idx, 1),)))
    return FreeProductWord(product, tuple(syllables))


def level_normal_form(pres: StagedPresentation, base: int, level: int,
                      stage: int) -> tuple[tuple[str, Any], ...]:
    """The normal form of a level's word in G * (Z/2Z) at a stage.

    Free-product normal forms with canonical syllables are unique, so two
    level words are equal exactly when these tuples are.
    """
    return _level_word(_ambient(pres, stage), base, level).reduce().syllables


def level_words_equal_at(pres: StagedPresentation, base: int, i: int, j: int,
                         stage: int) -> bool:
    """Whether levels i and j carry the same word in G * (Z/2Z) at a stage."""
    return (level_normal_form(pres, base, i, stage)
            == level_normal_form(pres, base, j, stage))


# Ceiling on a presentation's base ** (levels + 1) generators.  Laying out
# the levels and the level words each take time and memory linear in that
# count; levels 3 at base 10 hold 10,000 generators.
GENERATOR_CEILING = 100_000


def check_size(base: int, levels: int) -> None:
    """Reject a shape whose base ** (levels + 1) generators pass the ceiling.

    The count is multiplied up level by level and stops at the ceiling, so
    a huge `levels` costs a handful of steps.
    """
    if base < 2:
        raise ValueError("base must be an even integer >= 2")
    count = base
    for _ in range(levels):
        if count > GENERATOR_CEILING:
            break
        count *= base
    if count > GENERATOR_CEILING:
        raise ValueError(
            f"base {base} and levels {levels} need base ** (levels + 1) "
            f"generators, above the ceiling {GENERATOR_CEILING}"
        )


def check_budget(base: int, levels: int) -> None:
    """Reject parameters whose per-level reserve could run dry.

    Each level j must keep more than base**j active generators after
    every possible diagonalization spend: levels hold base**(j+1) -
    base**j generators (base for j = 0) and each of the j higher-rank
    requirement slots can burn at most 4 * 2**j of them.
    """
    for j in range(levels + 1):
        pool = base ** (j + 1) - base ** j
        spend = 4 * j * (2 ** j)
        if pool - spend <= base ** j:
            raise ValueError(
                f"reserve budget fails at level {j}: "
                f"{pool} - {spend} <= {base ** j}; raise base or cut levels"
            )


class StarConstruction:
    """Steppable wrapper so the construction can be embedded or run solo."""

    def __init__(self, universal: CeerTable,
                 phis: Mapping[int, Mapping[int, PhiEntry]],
                 base: int = 10, levels: int = 2, stages: int = 500,
                 name: str = "star-universal"):
        if base < 2 or base % 2:
            raise ValueError("base must be an even integer >= 2")
        check_size(base, levels)
        check_budget(base, levels)
        self.base = base
        self.levels = levels
        self.stages = stages
        self.name = name
        x_bound = 2 * stages + 4
        self.state = _StarState(base, levels, universal, x_bound)
        for e, stub in phis.items():
            for arg, entry in stub.items():
                for idx, _ in entry.word:
                    if not 0 <= idx < self.state.ngens:
                        raise ValueError(
                            f"phi_{e}({arg}) mentions x{idx}, outside the "
                            f"{self.state.ngens}-generator presentation"
                        )
        params = {
            "base": base,
            "levels": levels,
            "stages": stages,
            "universal": [[a, b, s] for a, b, s in universal.pairs],
            "universal_bound": universal.bound,
        }
        self.log = RunLog({"construction": name, "params": params})
        reqs: list[Requirement] = [_CollapseCoding(self.state)]
        top = max(phis, default=-1)
        for e in range(top + 1):
            reqs.append(_DiagReq(e, phis.get(e, {}), self.state))
        self.engine = PriorityEngine(reqs, self.log)
        self.stage = 0
        self._initialized = False

    def initialize(self) -> list[ActionRecord]:
        """Stage 0: lay out levels and pin each level's two lead products."""
        if self._initialized:
            raise RuntimeError("already initialized")
        self._initialized = True
        st = self.state
        records = []
        for j in range(self.levels + 1):
            gens = level_letters(self.base, j)
            for g in gens:
                st.pres.set_level(g, j)
                st.pres.set_status(g, "level", 0)
            evens = [g for g in gens if g % 2 == 0]
            odds = [g for g in gens if g % 2 == 1]
            relators = []
            for side in (evens, odds):
                st.pres.product_relation(side, 0)
                st.pres.set_status(side[-1], "determined", 0)
                relators.append(_relator_obj(
                    side[-1], tuple((g, -1) for g in side[:-1])))
            st.current[j] = gens[:-2]
            st.check_alternation(j)
            records.append(self.log.add(
                0, "init", "init", "init-level", level=j,
                generators=[gens[0], gens[-1]], relators=relators))
        return records

    def step(self) -> ActionRecord | None:
        if not self._initialized:
            raise RuntimeError("initialize() must run first")
        self.stage += 1
        return self.engine.run_stage(self.stage)

    def run(self) -> "StarResult":
        self.initialize()
        for _ in range(self.stages):
            self.step()
        return self.result()

    def result(self) -> StarResult:
        st = self.state
        return StarResult(
            self.name,
            dict(self.log.header["params"]),
            self.stages,
            self.log,
            presentation=st.pres,
            table=st.X,
            universal=st.universal,
            base=self.base,
            levels=self.levels,
            collapsed_levels=set(st.collapsed),
        )


def run_star_universal(
    universal: CeerTable,
    phis: Mapping[int, Mapping[int, PhiEntry]],
    base: int = 10,
    levels: int = 2,
    stages: int = 500,
) -> StarResult:
    """Run the construction to completion and return its result bundle."""
    return StarConstruction(universal, phis, base=base, levels=levels,
                            stages=stages).run()
