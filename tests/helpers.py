"""Views of run state that only the tests read: the environment of a
child process that imports this checkout, a log's replayed result, a
log's records filtered by requirement or action, a star run's free
generators, the staged-abelian factor and the reference normal form of a
level word built on it, a comparison of two level words, the part of a
sigma3 or sug result its writer owns, group slots included, the text of a
reduction report, the pairwise reference for `ceers.verify_reduction`,
which reads partition snapshots, the helper-call references for
`StagedPresentation.add_relation` and `staged_abelian_wp`, the
re-reducing reference for `star.level_forms`, the per-pair
reference for `CeerTable.dump` and a file that counts the blocks written
to it, the three-pass references for `CeerTable.roots_at` and
`CeerTable.classes_at`, the per-line JSON reference for `CeerTable.load`
and the helper-call references for `CeerTable.assert_pair` and
`CeerTable.related`, and the truncation oracle for `Poly.mul_truncated`."""
import io
import json
import os
from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush
from itertools import chain

import ceerlab
from ceerlab import replay
from ceerlab.algebra import Poly
from ceerlab.ceers import (
    INDEX_CEILING,
    CeerTable,
    IndexCeilingError,
    PartialityError,
    ReductionReport,
    StageRegressionError,
    _ROOT,
)
from ceerlab.groups import (
    CyclicFactor,
    FreeProduct,
    FreeProductWord,
    Relation,
    StagedPresentation,
    TriangularityError,
    _to_vec,
    staged_abelian_wp,
)
from ceerlab.sigma3 import Sigma3Result
from ceerlab.star import level_letters, sparse_level_form


def child_env():
    """The environment of a fresh process that imports this checkout's
    ceerlab."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ceerlab.__file__)))
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return env


def rebuild(log):
    """The result of the run that wrote the log, replayed record by record."""
    result = replay.start(log)
    for _ in replay.steps(log, result):
        pass
    return result


def records_for(log, requirement=None, action=None):
    """The log's records, in order, for one requirement and/or action."""
    return [r for r in log.records
            if (requirement is None or r.requirement == requirement)
            and (action is None or r.action == action)]


def free_generators(result):
    """The generators a star run has freed."""
    return {g for g, s in result.presentation.status.items() if s == "free"}


class StagedAbelianFactor:
    """A staged abelian presentation frozen at one stage, as a factor group.

    Elements are sparse exponent vectors over the generators.
    """

    def __init__(self, presentation: StagedPresentation, stage: int):
        self.presentation = presentation
        self.stage = stage

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


def _ambient(pres, stage):
    return FreeProduct({
        "G": StagedAbelianFactor(pres, stage),
        "A": CyclicFactor(2),
    })


def _level_word(product, base, level):
    syllables = []
    for idx in level_letters(base, level):
        syllables.append(("A", 1))
        syllables.append(("G", ((idx, 1),)))
    return FreeProductWord(product, tuple(syllables))


def level_normal_form(pres, base, level, stage):
    """The normal form of a level's word in G * (Z/2Z) at a stage, reduced
    letter by letter through `fp_reduce`: the reference for
    `star.sparse_level_form`.

    Free-product normal forms with canonical syllables are unique, so two
    level words are equal exactly when these tuples are.
    """
    return _level_word(_ambient(pres, stage), base, level).reduce().syllables


def expand_form(form):
    """A sparse level form written out syllable by syllable, as
    `level_normal_form` spells it."""
    syllables = []
    for tok in form:
        if isinstance(tok, range):
            for k in tok:
                syllables += [("A", 1), ("G", ((k, 1),))]
        else:
            syllables.append(tok)
    return tuple(syllables)


def level_words_equal_at(pres, base, i, j, stage):
    """Whether levels i and j carry the same word in G * (Z/2Z) at a stage."""
    return (level_normal_form(pres, base, i, stage)
            == level_normal_form(pres, base, j, stage))


def _group_slot_state(result, slot):
    """A sug group slot's relations, levels, statuses and output-table pairs,
    and its census at stage 0, the last stage and every stage at which one
    of its inner records acted."""
    group = result.group_slots[slot]
    pres = group.presentation
    points = {0, group.stages}
    points.update(inner["stage"] for rec in result.log.records
                  if rec.details.get("slot") == slot
                  for inner in rec.details.get("inner", ()))
    census = {(s, j): pres.census_at(j, s)
              for s in sorted(points) for j in range(group.levels + 1)}
    return pres.relations, pres.levels, pres.status, group.table.pairs, census


def written_state(result):
    """sigma3's columns, used columns and restraints, or sug's assignments,
    restraints, table-slot pairs and group-slot state."""
    if isinstance(result, Sigma3Result):
        return result.columns, result.used_columns, result.restraints
    return (result.assignments, result.restraints,
            {slot: t.pairs for slot, t in result.table_slots.items()},
            {slot: _group_slot_state(result, slot)
             for slot in result.group_slots})


def report_text(report):
    """What `ReductionReport.write` writes, read back through a StringIO."""
    out = io.StringIO()
    report.write(out)
    return out.getvalue()


# -- the pairwise reference for verify_reduction --------------------------------


def pairwise_verify_reduction(f, source, target, bound, stage):
    """`ceers.verify_reduction` as a walk over every pair below the bound,
    asking `related` of each: the reference for the snapshot version."""
    for n in range(bound):
        if n not in f.table:
            raise PartialityError(f"reduction function diverges on argument {n}")
    report = ReductionReport(bound=bound, stage=stage)
    final_t = target.last_stage
    final_s = source.last_stage
    for i in range(bound):
        for j in range(i + 1, bound):
            images_related = target.related(f(i), f(j), final_t)
            if source.related(i, j, stage) and not images_related:
                report.positive_violations.append((i, j))
            elif images_related and not source.related(i, j, max(final_s, stage)):
                report.unaligned_so_far.append((i, j))
    return report


# -- helper-call references for the staged-abelian kernels -----------------------


def reference_add_relation(pres, lhs, rhs, stage):
    """`StagedPresentation.add_relation` with every check made through its
    helpers: `_check_index` on the left-hand side and `_check_stage` on every
    call.  The reference for the inlined common path."""
    if type(lhs) is not int:
        raise TypeError(f"left-hand side {lhs!r} is not an int")
    pres._check_index(lhs)
    if lhs in pres._by_lhs:
        raise TriangularityError(f"x{lhs} already has a defining relation")
    if type(rhs) not in (list, tuple):
        raise TypeError(f"relation for x{lhs} has right-hand side {rhs!r}, "
                        "not a list of pairs")
    kept = []
    for entry in rhs:
        if (not isinstance(entry, (list, tuple)) or len(entry) != 2
                or not all(type(x) is int for x in entry)):
            raise TypeError(f"relation for x{lhs} has right-hand entry "
                            f"{entry!r}, not a pair of ints")
        i, e = entry
        if not 0 <= i < lhs:
            pres._check_index(i)
            raise TriangularityError(
                f"relation for x{lhs} mentions x{i}, not strictly smaller"
            )
        if e:
            kept.append((i, e))
    pres._check_stage("relation", stage)
    rel = Relation(lhs, tuple(kept), stage)
    pres.relations.append(rel)
    pres._by_lhs[lhs] = rel
    return rel


def reference_staged_abelian_wp(pres, w, stage):
    """`staged_abelian_wp` checking every index of the summed vector before
    it seeds the heap from a second loop, with no early return.  The
    reference for the one-loop version."""
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
            continue
        for i, ri in by_lhs[j].rhs:
            old = vec.get(i, 0)
            vec[i] = old + exp * ri
            if not vec[i]:
                del vec[i]
            elif not old:
                rel = by_lhs.get(i)
                if rel is not None and rel.stage <= stage:
                    heappush(heap, -i)
    return tuple(sorted(vec.items()))


# -- the re-reducing reference for star.level_forms --------------------------------


def _meets(vec, gens):
    """Whether the support of a sorted vector holds one of `gens`."""
    if len(vec) <= len(gens):
        return any(i in gens for i, _ in vec)
    return any((p := bisect_left(vec, (g,))) < len(vec) and vec[p][0] == g
               for g in gens)


def reference_level_forms(result, checkpoints):
    """`star.level_forms` giving each new left-hand side, and each carried
    vector a new left-hand side enters, one `staged_abelian_wp` call: the
    reference for the walk that carries vectors by substitution."""
    pres = result.presentation
    letters = [level_letters(result.base, j) for j in range(result.levels + 1)]
    starts = [gens.start for gens in letters]
    canon = [{} for _ in letters]
    forms = [()] * len(letters)
    stale = set(range(len(letters)))
    rels, done = pres.relations, 0
    for point in checkpoints:
        added = []
        while done < len(rels) and rels[done].stage <= point:
            added.append(rels[done])
            done += 1
        new = {rel.lhs for rel in added}
        for j, vecs in enumerate(canon if new else ()):
            for k, vec in vecs.items():
                if vec and _meets(vec, new):
                    vecs[k] = staged_abelian_wp(pres, vec, point)
                    stale.add(j)
        for rel in added:
            j = bisect_right(starts, rel.lhs) - 1
            canon[j][rel.lhs] = staged_abelian_wp(pres, rel.rhs, point)
            stale.add(j)
        for j in stale:
            forms[j] = sparse_level_form(letters[j], canon[j])
        stale.clear()
        yield point, tuple(forms)


# -- the per-pair reference for CeerTable.dump -----------------------------------


def reference_table_dump(table, fp):
    """`CeerTable.dump` as one `json.dumps` call and two writes per pair: the
    reference for the block writer."""
    for a, b, s in table.pairs:
        fp.write(json.dumps({"a": a, "b": b, "s": s}, sort_keys=True))
        fp.write("\n")


class BlockWriter:
    """A file that records what it is given and allows at most `limit`
    writes of at most 4,096 lines each."""

    def __init__(self, limit: int):
        self.limit = limit
        self.parts: list[str] = []

    def write(self, text: str) -> None:
        assert len(self.parts) < self.limit, "more writes than blocks"
        assert text.count("\n") <= 4096, "a block of more than 4,096 lines"
        self.parts.append(text)

    def flush(self) -> None:
        pass


# -- the three-pass references for CeerTable.roots_at and classes_at ---------------


def reference_roots_at(table, stage):
    """`CeerTable.roots_at` as one `_top` call per named index, kept least
    members in a dict: the reference for the inline climb."""
    least = {}
    named = len(table._stamp)
    return tuple(chain(
        (least.setdefault(table._top(n, stage), n) for n in range(named)),
        range(named, table.bound),
    ))


def reference_classes_at(table, stage):
    """`CeerTable.classes_at` as a second pass over `reference_roots_at`:
    the reference for the one-pass bucketing."""
    buckets = {}
    for n, r in enumerate(reference_roots_at(table, stage)):
        buckets.setdefault(r, []).append(n)
    return list(buckets.values())


# -- the per-line JSON reference for CeerTable.load and its assert_pair -----------


def reference_assert_pair(table, a, b, stage):
    """`CeerTable.assert_pair` with both index checks made through
    `_check_index` and both roots found through `_top`: the reference for
    the chained check and the inline climbs."""
    table._check_index(a)
    table._check_index(b)
    if table._pairs:
        if not stage >= table._pairs[-1][2]:
            raise StageRegressionError(
                f"pair at stage {stage} after stage {table._pairs[-1][2]}")
    elif stage != stage:
        raise StageRegressionError(f"pair at stage {stage}, which no stage "
                                   "orders")
    named = len(table._stamp)
    if a >= named or b >= named:
        if max(a, b) >= INDEX_CEILING:
            raise IndexCeilingError(
                f"pair ({a}, {b}) names index {max(a, b)}, not below "
                f"the table index ceiling {INDEX_CEILING}")
        grow = max(a, b) + 1 - named
        table._parent.extend([0] * grow)
        table._size.extend([1] * grow)
        table._stamp.extend([_ROOT] * grow)
    table._pairs.append((a, b, stage))
    ra, rb = table._top(a, stage), table._top(b, stage)
    if ra != rb:
        if table._size[ra] < table._size[rb]:
            ra, rb = rb, ra
        table._parent[rb] = ra
        table._stamp[rb] = stage
        table._size[ra] += table._size[rb]
    return table


def reference_related(table, a, b, stage):
    """`CeerTable.related` with both index checks made through
    `_check_index` and both roots found through `_top`: the reference for
    the chained check and the inline climbs."""
    table._check_index(a)
    table._check_index(b)
    return a == b or table._top(a, stage) == table._top(b, stage)


def reference_table_load(fp, bound=None):
    """`CeerTable.load` with one `json.loads` call per line and every pair
    asserted through `reference_assert_pair`: the reference for the block
    reader, its per-line pass and its merge loop."""
    rows, top = [], float("-inf")
    for n, line in enumerate(fp, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except RecursionError:
            raise ValueError(f"dump line {n} nests too deeply") from None
        if type(rec) is not dict:
            raise ValueError(f"dump line {n}: not a JSON object")
        for key in "abs":
            if key not in rec:
                raise ValueError(f'dump line {n}: field "{key}" is missing')
        row = a, b, s = rec["a"], rec["b"], rec["s"]
        if type(a) is not int or type(b) is not int or type(s) is not int:
            key = next(k for k, v in zip("abs", row) if type(v) is not int)
            raise ValueError(
                f'dump line {n}: field "{key}" is not an integer')
        rows.append(row)
        if a > top:
            top = a
        if b > top:
            top = b
    top = top if rows else 0
    if top >= INDEX_CEILING:
        raise ValueError(f"index {top} implies a bound above the ceiling "
                         f"{INDEX_CEILING}")
    rows.sort(key=lambda t: t[2])
    table = CeerTable(top + 1 if bound is None else bound)
    for a, b, s in rows:
        reference_assert_pair(table, a, b, s)
    return table


def table_state(table):
    """Everything a table holds, forest included, for exact comparison."""
    return (table.bound, table._pairs, table._parent, table._size,
            table._stamp)


def table_outcome(build):
    """What building a table gives: its whole state and its partition at
    every stage it holds and one below the first, or the exception's type
    and message."""
    try:
        t = build()
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)
    stages = sorted({s for _, _, s in t.pairs})
    stages = [stages[0] - 1, *stages] if stages else [0]
    return table_state(t), [t.classes_at(s) for s in stages]


# -- the truncation oracle for Poly.mul_truncated --------------------------------


def truncate(poly, horizon):
    """`poly` with every term of degree above `horizon` dropped."""
    return Poly(poly.p, {m: c for m, c in poly.coeffs.items() if m.deg <= horizon})
