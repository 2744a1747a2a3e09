"""Views of run state that only the tests read: a log's records filtered by
requirement or action, a star run's free generators, a comparison of two
level words, and the part of a sigma3 or sug result its writer owns."""
from ceerlab.sigma3 import Sigma3Result
from ceerlab.star import level_normal_form


def records_for(log, requirement=None, action=None):
    """The log's records, in order, for one requirement and/or action."""
    return [r for r in log.records
            if (requirement is None or r.requirement == requirement)
            and (action is None or r.action == action)]


def free_generators(result):
    """The generators a star run has freed."""
    return {g for g, s in result.presentation.status.items() if s == "free"}


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
