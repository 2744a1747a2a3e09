"""Views of run state that only the tests read: a log's records filtered by
requirement or action, a star run's free generators, the reference normal
form of a level word and a comparison of two, the part of a sigma3 or sug
result its writer owns, group slots included, the text of a reduction
report, and the pairwise references for the `ceers` checks that read
partition snapshots."""
import io

from ceerlab.ceers import PartialityError, ReductionReport
from ceerlab.groups import (
    CyclicFactor,
    FreeProduct,
    FreeProductWord,
    StagedAbelianFactor,
)
from ceerlab.sigma3 import Sigma3Result
from ceerlab.star import level_letters


def records_for(log, requirement=None, action=None):
    """The log's records, in order, for one requirement and/or action."""
    return [r for r in log.records
            if (requirement is None or r.requirement == requirement)
            and (action is None or r.action == action)]


def free_generators(result):
    """The generators a star run has freed."""
    return {g for g, s in result.presentation.status.items() if s == "free"}


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


# -- pairwise references for the ceers checks ----------------------------------


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


def pairwise_darkness_probe(table, witness_set, stage):
    """`ceers.darkness_probe` as a walk over every pair of witnesses."""
    values = [v for v in witness_set.at_stage(stage) if 0 <= v < table.bound]
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            a, b = values[i], values[j]
            if a != b and table.related(a, b, stage):
                return (a, b)
    return None


def pairwise_lightness_witness_check(table, transversal, stage):
    """`ceers.lightness_witness_check` as a walk over every pair of entries."""
    items = list(transversal)
    if len(set(items)) != len(items):
        raise ValueError("transversal entries must be distinct")
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if table.related(items[i], items[j], stage):
                return False
    return True
