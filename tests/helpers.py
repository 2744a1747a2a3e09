"""Views of run state that only the tests read: a log's records filtered by
requirement or action, a star run's free generators, the reference normal
form of a level word and a comparison of two, and the part of a sigma3 or
sug result its writer owns."""
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


def written_state(result):
    """sigma3's columns, used columns and restraints, or sug's assignments,
    restraints and table-slot pairs."""
    if isinstance(result, Sigma3Result):
        return result.columns, result.used_columns, result.restraints
    return (result.assignments, result.restraints,
            {slot: t.pairs for slot, t in result.table_slots.items()})
