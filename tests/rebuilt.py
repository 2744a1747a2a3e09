"""Sigma3 and sug results rebuilt from a log through the constructions' own
writers, and the part of a result those writers own, for comparing a
replayed log with the live run."""
from ceerlab import indexset, sigma3
from ceerlab.ceers import CeerTable


def rebuild(log):
    """An empty result made from the log's header, with every record applied
    through `sigma3.apply_record` or `indexset.apply_record`."""
    params = log.header["params"]
    if log.header["construction"] == "sigma3":
        result = sigma3.Sigma3Result(
            "sigma3", params, params["stages"], log,
            table=CeerTable(bound=params["join_bound"]),
            universal=CeerTable(bound=params["universal_bound"]))
        apply = sigma3.apply_record
    else:
        result = indexset.SugResult(
            "sug-indexset", params, params["stages"], log,
            coded_universal=CeerTable(bound=params["coded_bound"]))
        apply = indexset.apply_record
    for rec in log.records:
        apply(result, rec)
    return result


def written_state(result):
    """sigma3's columns, used columns and restraints, or sug's assignments,
    restraints and table-slot pairs."""
    if isinstance(result, sigma3.Sigma3Result):
        return result.columns, result.used_columns, result.restraints
    return (result.assignments, result.restraints,
            {slot: t.pairs for slot, t in result.table_slots.items()})
