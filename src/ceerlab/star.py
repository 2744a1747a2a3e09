"""Finite-injury construction of a word-problem table over a staged group.

The group starts as a free abelian group on base**(levels+1) generators
split into levels; level j holds the index range [base**j, base**(j+1))
(level 0 additionally owns [0, base)).  Each level is summarized by an
alternating "level word" over G * (Z/2Z): the product of a*x_k over the
level's index range.  Two kinds of requirements decide how the
presentation changes, and each logs its decision as a record:

 * a stage-0-priority coding requirement collapses a whole level onto a
   lower one whenever the ambient universal table newly relates the two
   level indices, keeping level words aligned with the universal table;
 * diagonalization requirements R_e watch a pair of fresh witnesses
   through a partial-function stub and decide, by case analysis on the
   canonical form of the induced group word, whether to relate the
   witnesses in the output table.

`start` builds the empty result a header describes, and `apply_record`
alone turns a record into levels, statuses, relations and output-table
pairs, for the run as each record is logged and for replay of a finished
log.  A level is a range of letters and `status` lists those that left
it; the requirements read both and only `apply_record` writes.
Every relator added is triangular: its left-hand side is a strictly
larger generator index than anything on the right, so canonical forms
exist at every stage.  A per-level reserve budget guarantees case
analysis never runs out of working generators; exhausting it raises
BudgetError rather than silently degrading.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .ceers import INDEX_CEILING, CeerTable, StageRegressionError
from .engine import ActionRecord, ConstructionRun, PriorityEngine, Requirement, RunLog
from .groups import StagedPresentation, staged_abelian_wp

__all__ = [
    "BudgetError",
    "StarResult",
    "StarConstruction",
    "PhiEntry",
    "run_star_universal",
    "level_letters",
    "empty_result",
    "start",
    "apply_record",
    "run_scenario",
    "summary",
    "SUITES",
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
    """One row's value, shared by every argument it names: phi(arg)
    converges at `converge_stage` to `word`."""

    converge_stage: int
    word: Word


def level_letters(base: int, level: int) -> range:
    """Generator indices owned by a level, in ascending order."""
    if level == 0:
        return range(base)
    return range(base ** level, base ** (level + 1))


def _word_inverse(word: Word) -> Word:
    return tuple((i, -e) for i, e in reversed(word))


def _relator_obj(lhs: int, rhs: Word) -> dict[str, Any]:
    return {"lhs": lhs, "rhs": [[i, e] for i, e in rhs]}


def _lead_relator(side: Sequence[int]) -> dict[str, Any]:
    """prod x_k = 1 over an ascending side, as lead = (prod juniors)^-1."""
    return {"lhs": side[-1], "rhs": [[g, -1] for g in side[:-1]]}


# record keys naming letters of the record's `level` whose status it sets
_STATUS_KEYS = (("freed", "free"), ("collapsed", "collapsed"),
                ("determined", "determined"))


def apply_record(result: "StarResult", record: ActionRecord) -> None:
    """Apply one logged star record to its result: the level it lays out,
    the statuses it sets, the relations it adds and the witnesses it relates
    in the output table.  The run calls this on each record it logs and
    replay on each record it reads, so both build the same state.  Raises
    TriangularityError or StageRegressionError on a relation no run adds,
    and ValueError on an index outside the presentation, on a status letter
    outside the level its record names, or on a witness pair the output
    table cannot hold or that is out of stage order: a pair is not a
    relation."""
    pres, base = result.presentation, result.base
    stage, details = record.stage, record.details
    init = record.action == "init-level"
    if init:
        level = details["level"]
        # bit_length bounds the level before base ** (level + 1) is formed
        if (not 0 <= level < pres.ngens.bit_length()
                or base ** (level + 1) > pres.ngens):
            raise ValueError(f"init-level record names level {level}, outside "
                             f"the {pres.ngens}-generator presentation")
        pres.set_level(level, level_letters(base, level), stage)
    for key, status in _STATUS_KEYS:
        gens = list(details.get(key, ()))
        if gens:
            pres.set_statuses(details["level"], gens, status, stage)
    if init:
        gens = [rel["lhs"] for rel in details.get("relators", ())]
        if gens:
            pres.set_statuses(level, gens, "determined", stage)
    rels = list(details.get("relators", ()))  # then each collapse's
    for srv in details.get("served", ()):
        if "relators" in srv:
            pres.set_statuses(srv["pair"][1],
                              [rel["lhs"] for rel in srv["relators"]],
                              "collapsed", stage)
        rels.extend(srv.get("relators", ()))
    for rel in rels:
        pres.add_relation(rel["lhs"], rel["rhs"], stage)
    if record.action in ("case-1", "case-2", "case-3a", "case-3b"):
        try:
            result.table.assert_pair(*details["witnesses"], stage)
        except (StageRegressionError, IndexError) as exc:
            raise ValueError(f"output table {exc}") from None


class _StarState:
    """What the requirements read: the presentation records are applied to,
    the universal table, the witness pool and the witnesses drawn.  A
    level's active generators are the letters of its range in `pres` that
    never left it; a level with none left is collapsed."""

    def __init__(self, universal: CeerTable, witness_bound: int):
        self.universal = universal
        self.witness_bound = witness_bound
        self.pres: StagedPresentation | None = None  # set by `attach`
        self.next_witness = 0
        self.diag: list["_DiagReq"] = []

    def take_witnesses(self) -> tuple[int, int]:
        a = self.next_witness
        self.next_witness += 2
        if a + 1 >= self.witness_bound:
            raise BudgetError(-1, "witness pool")
        return a, a + 1

    def active(self, level: int) -> list[int]:
        """The level's active generators in ascending order, checked to
        alternate in parity starting from an even one."""
        status = self.pres.status
        gens = [g for g in self.pres.levels[level]
                if status.get(g, "level") == "level"]
        for pos, g in enumerate(gens):
            if g % 2 != pos % 2:
                raise RuntimeError(
                    f"alternation invariant broken at level {level}: "
                    f"position {pos} holds x{g}"
                )
        return gens

    def classify_support(self, word: Word) -> tuple[list[int], int]:
        """Split canonical support into free letters and the max level.

        Returns (free letters, K) where K is the largest level with a
        surviving level generator in the word (-1 if none).  Canonical
        words only mention free or still-active level generators, those
        whose status in the presentation is "free" or "level".
        """
        free = []
        top = -1
        status = self.pres.status
        for idx, _ in word:
            kind = status.get(idx, "level")
            if kind == "free":
                free.append(idx)
            elif kind == "level":
                top = max(top, self.pres.level_of(idx))
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
    the level-word/universal alignment holds stage by stage.  The universal
    table is fixed for the run, so each pair's first related stage is read
    once; a pair related at stage 0 is due at stage 1, the engine's first.
    """

    kind = "U"
    injures_lower = False

    def __init__(self, state: _StarState, levels: int):
        super().__init__("U")
        self.state = state
        uni = state.universal
        top = min(levels, uni.bound - 1)
        firsts = ((uni.first_related_stage(i, j), i, j)
                  for i in range(top + 1) for j in range(i + 1, top + 1))
        # (stage due, i, j), latest first so the next one due is popped
        self.schedule = sorted(((max(s, 1), i, j) for s, i, j in firsts
                                if s is not None), reverse=True)
        self.queue: list[tuple[int, int]] = []

    def ready(self, stage: int) -> bool:
        sched = self.schedule
        while sched and sched[-1][0] <= stage:
            self.queue.append(sched.pop()[1:])
        census = self.state.pres.census_at
        return any(census(j, stage)["level"] for _, j in self.queue)

    def act(self, stage: int) -> dict[str, Any]:
        st = self.state
        served = []
        done: set[int] = set()  # levels this action collapses
        restarted: set[str] = set()
        for i, j in self.queue:
            if j in done or not st.pres.census_at(j, stage)["level"]:
                served.append({"pair": [i, j], "skipped": "already collapsed"})
                continue
            targets = st.pres.levels[i]
            gens = st.active(j)
            if len(gens) < len(targets):
                raise BudgetError(j, self.name)
            relators = [_relator_obj(cur, ((tgt, 1),))
                        for cur, tgt in zip(gens, targets)]
            relators += [_relator_obj(cur, ())
                         for cur in gens[len(targets):]]
            done.add(j)
            served.append({"pair": [i, j], "relators": relators})
            for req in st.diag:
                if req.committed_level is not None and req.e >= j:
                    req.reinitialize()
                    restarted.add(req.name)
        self.queue = []
        details: dict[str, Any] = {"action": "collapse-level", "served": served}
        if restarted:
            details["reinitialized"] = sorted(restarted)
        return details


class _DiagReq(Requirement):
    """Requirement R_e: decide whether one fresh witness pair is related in
    the output table; `apply_record` relates the pair of each relating case.

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
        self.stub = stub
        self.state = state
        self.witnesses: tuple[int, int] | None = None
        self.done = False
        self.committed_level: int | None = None
        state.diag.append(self)

    # -- stub plumbing ------------------------------------------------

    def ready(self, stage: int) -> bool:
        """Both witnesses' stub entries exist and have converged by `stage`."""
        if self.done or not self.stub:
            return False
        if self.witnesses is None:
            self.witnesses = self.state.take_witnesses()
        a, b = self.witnesses
        ea, eb = self.stub.get(a), self.stub.get(b)
        return (ea is not None and eb is not None
                and stage >= max(ea.converge_stage, eb.converge_stage))

    # -- case helpers ---------------------------------------------------

    def _free_pair_block(self, level: int, gens: list[int], word: Word,
                         parity: int) -> tuple[list[int], bool] | None:
        """Find the 4-generator block for case 3a (parity 0) / 3b (1).

        Scans the level's active generators `gens` of the given index
        parity for the first adjacent pair with differing exponents in
        `word`.  Returns (block, tail_layout) or None when exponents are
        constant.
        """
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

    @staticmethod
    def _free_pair(block: Sequence[int], parity: int) -> dict[str, Any]:
        keep = [g for g in block if g % 2 == parity]
        kill = [g for g in block if g % 2 != parity]
        small, large = min(keep), max(keep)
        relators = [_relator_obj(g, ()) for g in kill]
        relators.append(_relator_obj(large, ((small, -1),)))
        return {"freed": keep, "collapsed": kill, "relators": relators}

    def _tie_break(self, level: int, gens: list[int]) -> dict[str, Any]:
        if len(gens) < 4:
            raise BudgetError(level, self.name)
        evens = [g for g in gens if g % 2 == 0]
        odds = [g for g in gens if g % 2 == 1]
        relators = [_lead_relator(side) for side in (evens, odds)]
        return {"determined": [evens[-1], odds[-1]], "relators": relators}

    # -- action ---------------------------------------------------------

    def act(self, stage: int) -> dict[str, Any]:
        st = self.state
        a, b = self.witnesses
        word = staged_abelian_wp(
            st.pres, self.stub[a].word + _word_inverse(self.stub[b].word), stage)
        base_details = {"witnesses": [a, b]}
        if not word:
            self.done = True
            return {"action": "case-0", **base_details}
        free, top = st.classify_support(word)
        if free:
            self.done = True
            return {"action": "case-1", "free_letters": sorted(set(free)),
                    **base_details}
        if top <= self.e:
            self.done = True
            self.committed_level = top
            return {"action": "case-2", "top_level": top, **base_details}
        gens = st.active(top)
        for parity, case in ((0, "case-3a"), (1, "case-3b")):
            found = self._free_pair_block(top, gens, word, parity)
            if found is not None:
                block, tail = found
                details = self._free_pair(block, parity)
                self.done = True
                return {"action": case, "level": top,
                        "layout": "tail" if tail else "standard",
                        **details, **base_details}
        details = self._tie_break(top, gens)
        return {"action": "case-3c", "level": top, **details, **base_details}

    def reinitialize(self) -> None:
        self.witnesses = None
        self.done = False
        self.committed_level = None


@dataclass
class StarResult(ConstructionRun):
    presentation: StagedPresentation
    table: CeerTable
    universal: CeerTable
    base: int = 10
    levels: int = 1

    @property
    def collapsed_levels(self) -> set[int]:
        return {j for j in range(self.levels + 1)
                if not self.census(j, self.stages)["level"]}

    def census(self, level: int, stage: int) -> dict[str, int]:
        return self.presentation.census_at(level, stage)


_A = ("A", 1)  # the separator syllable of G * (Z/2Z)


def sparse_level_form(letters: range, canon: Mapping[int, Word]) -> tuple:
    """The normal form of the level word A x_a A x_{a+1} ... A x_b over
    `letters` in G * (Z/2Z), given the canonical vector of each letter
    that is a left-hand side; every other letter is its own syllable.

    The word is reduced on a stack of ("A", 1), ("G", vector) and runs: a
    `range` r stands for A x_r[0] ... A x_r[-1] over letters no relation
    touches, so only the letters in `canon` cost work.  An empty vector
    lets the A's beside it cancel and the G syllables on either side
    merge, by adding vectors: neither support holds a stage-s left-hand
    side, so neither does their sum, which is therefore canonical with no
    `staged_abelian_wp` call.  Free-product normal forms are unique, and
    the result spells each one a single way, every A x_k folded into a
    maximal run, so two level words are equal exactly when their forms are.
    """
    stack: list[Any] = []

    def push(vec: Word) -> None:
        """Push A, then the G syllable of the canonical vector `vec`."""
        if stack and stack[-1] is _A:
            stack.pop()
        else:
            stack.append(_A)
        if not vec:
            return
        if not stack or stack[-1] is _A:
            stack.append(("G", vec))
            return
        top = stack.pop()
        if isinstance(top, range):  # split off the run's last letter
            if len(top) > 1:
                stack.append(top[:-1])
            stack.append(_A)
            top = ("G", {top[-1]: 1})
        merged = top[1] if isinstance(top[1], dict) else dict(top[1])
        for i, e in vec:
            merged[i] = merged.get(i, 0) + e
            if not merged[i]:
                del merged[i]
        if merged:
            stack.append(("G", merged))

    def push_run(lo: int, hi: int) -> None:
        push(((lo, 1),))
        if hi - lo > 1:
            stack.append(range(lo + 1, hi))

    pos = letters.start
    for k in sorted(canon):
        if pos < k:
            push_run(pos, k)
        push(canon[k])
        pos = k + 1
    if pos < letters.stop:
        push_run(pos, letters.stop)

    form: list[Any] = []
    for tok in stack:
        if tok is not _A and isinstance(tok, tuple):
            vec = tok[1]
            if isinstance(vec, dict):
                vec = tuple(sorted(vec.items()))
            if len(vec) == 1 and vec[0][1] == 1 and form and form[-1] is _A:
                form.pop()
                tok = range(vec[0][0], vec[0][0] + 1)
            else:
                tok = ("G", vec)
        if (isinstance(tok, range) and form and isinstance(form[-1], range)
                and form[-1].stop == tok.start):
            tok = range(form.pop().start, tok.stop)
        form.append(tok)
    return tuple(form)


def _hits(vec: Word, gens: Collection[int]) -> list[int]:
    """The ascending positions in a sorted vector of the letters that are
    in `gens`, walking whichever of the two is shorter."""
    if len(vec) <= len(gens):
        return [p for p, (i, _) in enumerate(vec) if i in gens]
    return sorted(p for g in gens
                  if (p := bisect_left(vec, (g,))) < len(vec) and vec[p][0] == g)


def _carry(word: Word, carried: Mapping[int, Word]) -> Word:
    """The canonical vector of `word` when the vector `carried` holds for
    each left-hand side among its letters is final: its letters summed and
    sorted, then each left-hand side replaced by its vector, which names
    no left-hand side.  A canonical word (ascending distinct letters, none
    of them in `carried`; `add_relation` keeps no zero exponent) is its own
    vector."""
    prev = -1
    for i, _ in word:
        if i <= prev:  # unsorted or repeated letters
            acc: dict[int, int] = {}
            for j, e in word:
                acc[j] = acc.get(j, 0) + e
            word = tuple(sorted(item for item in acc.items() if item[1]))
            break
        prev = i
    hits = _hits(word, carried)
    if not hits:
        return word
    out = list(word)
    for p in reversed(hits):
        del out[p]
    for p in hits:
        g, e = word[p]
        for i, f in carried[g]:
            q = bisect_left(out, (i,))
            if q == len(out) or out[q][0] != i:
                out.insert(q, (i, e * f))
            elif exp := out[q][1] + e * f:
                out[q] = (i, exp)
            else:
                del out[q]
    return tuple(out)


def level_forms(result: StarResult, checkpoints: Iterable[int]
                ) -> Iterator[tuple[int, tuple[tuple, ...]]]:
    """Each of the ascending `checkpoints` with the `sparse_level_form` of
    every level word at it, for a replayed result.

    One pass over the presentation's relations, which are in stage order,
    carries each left-hand side's canonical vector (`staged_abelian_wp` of
    its right-hand side) from checkpoint to checkpoint.  At each one the
    vectors due are the new right-hand sides and the carried vectors that
    a new left-hand side enters; `_carry` settles them in ascending
    left-hand-side order, replacing each left-hand side among a word's
    letters by its vector.  Right-hand sides mention only smaller letters,
    so every vector read is final, and a right-hand side that is already
    canonical, as every lead and collapse relator is, costs one walk.  A
    level's form is rebuilt only when one of its vectors changed.
    """
    pres = result.presentation
    letters = [level_letters(result.base, j) for j in range(result.levels + 1)]
    starts = [gens.start for gens in letters]  # ascending, from 0 up
    canon: list[dict[int, Word]] = [{} for _ in letters]
    carried: dict[int, Word] = {}  # every level's vectors, by left-hand side
    forms: list[tuple] = [()] * len(letters)
    stale = set(range(len(letters)))
    rels, done = pres.relations, 0
    for point in checkpoints:
        due: dict[int, Word] = {}
        while done < len(rels) and rels[done].stage <= point:
            due[rels[done].lhs] = rels[done].rhs
            done += 1
        if due:
            due.update([(k, vec) for k, vec in carried.items()
                        if vec and _hits(vec, due)])
        for k in sorted(due):
            j = bisect_right(starts, k) - 1
            vec = due[k]
            carried[k] = canon[j][k] = _carry(vec, carried) if vec else vec
            stale.add(j)
        for j in stale:
            forms[j] = sparse_level_form(letters[j], canon[j])
        stale.clear()
        yield point, tuple(forms)


# Ceiling on a presentation's base ** (levels + 1) generators.  Laying out
# the levels and the level words each take time and memory linear in that
# count; levels 3 at base 10 hold 10,000 generators.
GENERATOR_CEILING = 100_000


def check_size(base: int, levels: int) -> None:
    """Reject a shape no star run has: a base that is not an even integer
    >= 2, a `levels` that is not a nonnegative integer (a bool is neither),
    base ** (levels + 1) generators above the ceiling, or a per-level
    reserve that could run dry.

    The count is multiplied up level by level and stops at the ceiling, so
    a huge `levels` costs a handful of steps before the budget loop, which
    the ceiling then bounds.  Each level j must keep more than base**j
    active generators after every possible diagonalization spend: levels
    hold base**(j+1) - base**j generators (base for j = 0) and each of the
    j higher-rank requirement slots can burn at most 4 * 2**j of them.
    """
    if type(base) is not int or base < 2 or base % 2:
        raise ValueError("base must be an even integer >= 2")
    if type(levels) is not int or levels < 0:
        raise ValueError("levels must be a nonnegative integer")
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

    for j in range(levels + 1):
        pool = base ** (j + 1) - base ** j
        spend = 4 * j * (2 ** j)
        if pool - spend <= base ** j:
            raise ValueError(
                f"reserve budget fails at level {j}: "
                f"{pool} - {spend} <= {base ** j}; raise base or cut levels"
            )


def empty_result(name: str, params: dict[str, Any], log: RunLog, base: int,
                 levels: int, universal: Iterable[Sequence[int]] = (),
                 universal_bound: int = 0) -> StarResult:
    """The empty star result of `base` and `levels` over the universal table
    of `universal`'s pairs, for a star header (`start`) or a sug group slot.
    The shape is checked before anything is allocated, and the output table
    is bounded by the index ceiling, whatever witness pool a run draws from."""
    check_size(base, levels)
    return StarResult(
        name, params, params["stages"], log,
        presentation=StagedPresentation(ngens=base ** (levels + 1)),
        table=CeerTable(bound=INDEX_CEILING),
        universal=CeerTable.from_pairs(universal, universal_bound),
        base=base, levels=levels)


def start(log: RunLog) -> StarResult:
    """The empty result a star header describes."""
    params = log.header["params"]
    return empty_result(log.header["construction"], params, log,
                        params["base"], params["levels"], params["universal"],
                        params["universal_bound"])


class StarConstruction:
    """Steppable wrapper so the construction can be embedded or run solo.

    Building it lays out stage 0: one `init-level` record per level, which
    pins the level's two lead products; each `step` then runs one stage.
    Solo, it writes its own result through `apply_record`; embedded, its
    `apply` leaves each record to the run that carries it, which opens the
    result the records go to, and `attach` hands that result over before
    the first step."""

    def __init__(self, universal: CeerTable,
                 phis: Mapping[int, Mapping[int, PhiEntry]],
                 base: int = 10, levels: int = 2, stages: int = 500,
                 apply: Callable[[ActionRecord], None] | None = None):
        check_size(base, levels)
        self.stages = stages
        ngens = base ** (levels + 1)
        for e, stub in phis.items():
            checked = None  # a row's arguments share one entry: check it once
            for arg, entry in stub.items():
                if entry is checked:
                    continue
                checked = entry
                for idx, _ in entry.word:
                    if not 0 <= idx < ngens:
                        raise ValueError(
                            f"phi_{e}({arg}) mentions x{idx}, outside the "
                            f"{ngens}-generator presentation"
                        )
        params = {
            "base": base,
            "levels": levels,
            "stages": stages,
            "universal": [[a, b, s] for a, b, s in universal.pairs],
            "universal_bound": universal.bound,
        }
        self.log = RunLog({"construction": "star-universal", "params": params})
        # an R_e draws a pair when first asked and after each restart, at most
        # one a stage; the bound costs no memory, and take_witnesses guards it
        x_bound = 2 * (max(phis, default=-1) + 1) * (stages + 1) + 4
        self.state = _StarState(universal, x_bound)
        reqs: list[Requirement] = [_CollapseCoding(self.state, levels)]
        top = max(phis, default=-1)
        for e in range(top + 1):
            reqs.append(_DiagReq(e, phis.get(e, {}), self.state))
        self.result: StarResult | None = None
        if apply is None:
            self.attach(start(self.log))
            apply = partial(apply_record, self.result)
        self.engine = PriorityEngine(reqs, self.log, apply)
        self.stage = 0
        for j in range(levels + 1):
            gens = level_letters(base, j)  # starts even: base is even
            relators = [_lead_relator(gens[parity::2]) for parity in (0, 1)]
            apply(self.log.add(0, "init", "init", "init-level", level=j,
                               generators=[gens[0], gens[-1]],
                               relators=relators))

    def attach(self, result: StarResult) -> None:
        """Decide on `result`, the one the records are applied to."""
        self.result = result
        self.state.pres = result.presentation

    def step(self) -> ActionRecord | None:
        self.stage += 1
        return self.engine.run_stage(self.stage)

    def run(self) -> StarResult:
        for _ in range(self.stages):
            self.step()
        return self.result


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


def run_scenario(scn, params: dict[str, Any]) -> StarResult:
    """The run a star scenario's sections and merged `params` describe; the
    universal table's bound passes every level index."""
    levels = params.get("levels", 2)
    universal = scn.table("universal", floor=levels + 1)
    return run_star_universal(universal, scn.phis("phi"),
                              base=params.get("base", 10), levels=levels,
                              stages=params.get("stages", 500))


def summary(result: StarResult) -> list[str]:
    """The run summary's lines on collapsed levels, output table and census."""
    xp = " ".join(f"({a},{b})@{s}" for a, b, s in result.table.pairs)
    lines = ["collapsed levels: "
             + (" ".join(map(str, sorted(result.collapsed_levels))) or "none"),
             f"output table pairs: {xp or 'none'}"]
    for j in range(result.levels + 1):
        census = result.census(j, result.stages)
        cs = " ".join(f"{k}={v}" for k, v in sorted(census.items()))
        lines.append(f"census level {j}: {cs}")
    return lines


def _triangularity(log: RunLog, result: StarResult) -> tuple[bool, list[str]]:
    """Each relation added to the presentation is triangular, in order."""
    from . import replay  # replay imports this module
    return replay.triangularity(
        log, result, lambda record: "main",
        lambda run: {"main": len(run.presentation.relations)})


def _level_census(log: RunLog, result: StarResult) -> tuple[bool, list[str]]:
    """Each level j no lower level heads keeps > base**j active generators."""
    from . import replay  # replay imports this module
    refused = replay.refused(log, result)
    if refused:
        return False, [f"relation stream rejected: {refused[1]}"]
    base, uni, pres = result.base, result.universal, result.presentation
    lines: list[str] = []  # one a failure
    checks = 0
    points = replay.census_checkpoints(log)
    for point in points:
        for j in range(result.levels + 1):
            if j < uni.bound and any(uni.related(i, j, point)
                                     for i in range(j)):
                continue  # a lower level heads j's class
            count = pres.census_at(j, point)["level"]
            checks += 1
            if count <= base ** j:
                lines.append(f"stage {point}: level {j} holds {count} active "
                             f"generators, needs > {base ** j}")
    ok = not lines
    lines.append(f"{checks} census checks at {len(points)} checkpoints"
                 + ("" if ok else "; FAILURES above"))
    return ok, lines


def _vi_vs_u(log: RunLog, result: StarResult) -> tuple[bool, list[str]]:
    """Level words are equal exactly when the universal table relates them."""
    from . import replay  # replay imports this module
    refused = replay.refused(log, result)
    if refused:
        return False, [f"relation stream rejected: {refused[1]}"]
    levels, uni = result.levels, result.universal
    lines: list[str] = []  # one a failure
    checks = 0
    for point, forms in level_forms(result, replay.census_checkpoints(log)):
        for i in range(levels + 1):
            for j in range(i + 1, levels + 1):
                eq = forms[i] == forms[j]
                rel = (max(i, j) < uni.bound) and uni.related(i, j, point)
                checks += 1
                if eq != rel:
                    lines.append(
                        f"stage {point}: level words {i},{j} "
                        f"{'equal' if eq else 'differ'} but universal table "
                        f"says {'related' if rel else 'unrelated'}")
    ok = not lines
    lines.append(f"{checks} word/table comparisons"
                 + ("" if ok else "; FAILURES above"))
    return ok, lines


# the `verify` suites of star logs, as `replay` describes
SUITES = {"triangularity": (None, _triangularity),
          "level-census": ("census", _level_census),
          "vi-vs-U": ("equivalence suite", _vi_vs_u)}
