"""Log replay: the state rebuilt from a log equals the live run's state."""
import ast
import glob
import inspect
import os
from dataclasses import fields

import pytest

import ceerlab
from ceerlab import cli, dark, replay, star
from ceerlab.algebra import Poly
from ceerlab.ceers import INDEX_CEILING, CeerTable, FunctionalStub, StageSet
from ceerlab.dark import run_dark
from ceerlab.engine import ActionRecord, RunLog
from ceerlab.indexset import SumFunctionalStub, run_sug_indexset
from ceerlab.pairing import pair
from ceerlab.scenario import load_scenario
from ceerlab.sigma3 import Sigma3Result, run_sigma3_ceer
from ceerlab.star import PhiEntry, level_letters
from helpers import rebuild, written_state

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def scenario(name):
    return os.path.join(SCENARIOS, name)


@pytest.mark.parametrize("name", [
    "dark-ring-basic", "dark-group-basic", "sigma3-basic",
    "star-universal-basic", "sug-basic"])
def test_shipped_log_rebuilds_to_the_run_summary(name):
    """Each shipped log, rebuilt through `replay` alone, gives its scenario
    run's summary, a star run's output table pairs included."""
    log = RunLog.load(scenario(f"{name}.log.jsonl"))
    live = load_scenario(scenario(f"{name}.txt")).run()
    assert replay.summarize(rebuild(log)) == replay.summarize(live)


@pytest.mark.parametrize(
    "overrides", [None, {"levels": 3, "base": 6}, {"levels": 3, "base": 10}],
    ids=["shipped", "levels-3-base-6", "levels-3-base-10"])
def test_star_replay_matches_live_run(overrides):
    scn = load_scenario(scenario("star-universal-basic.txt"))
    live = scn.run(overrides)
    if overrides is None:
        log = RunLog.load(scenario("star-universal-basic.log.jsonl"))
    else:
        log = RunLog.loads(live.log.dumps())
    result = rebuild(log)
    pres = result.presentation
    assert pres.relations == live.presentation.relations
    assert pres.levels == live.presentation.levels
    assert pres.status == live.presentation.status
    points = replay.census_checkpoints(log)
    assert points[0] == 0 and points[-1] == live.stages
    for s in points:
        for j in range(live.levels + 1):
            assert result.census(j, s) == live.census(j, s), (s, j)
    uni = result.universal
    assert (uni.bound, uni.pairs) == (live.universal.bound, live.universal.pairs)
    assert result.table.pairs == live.table.pairs
    assert replay.summarize(result) == replay.summarize(live)


def test_star_replay_keeps_only_the_letters_that_left_their_level():
    """At levels 4, base 10 the presentation has 100,000 generators, and 100
    of them leave their level: `status` lists those alone."""
    scn = load_scenario(scenario("star-universal-basic.txt"))
    log = RunLog.loads(scn.run({"levels": 4, "base": 10}).log.dumps())
    pres = rebuild(log).presentation
    assert len(pres.status) == 100
    assert "level" not in pres.status.values()
    assert pres.levels == {j: level_letters(10, j) for j in range(5)}


def _trigger(*stages):
    return StageSet([(i, s) for i, s in enumerate(stages)])


DARK_RUNS = {
    "dark-ring-basic": lambda: load_scenario(
        scenario("dark-ring-basic.txt")).run(),
    "dark-group-basic": lambda: load_scenario(
        scenario("dark-group-basic.txt")).run(),
    # D0 collapses at stage 2 and injures L1, whose stage-1 banking goes
    "injury": lambda: run_dark(
        "ring",
        u_columns={1: _trigger(1, 3)},
        w_columns={0: StageSet([(Poly.y(2), 2), (Poly.y(2), 2)])},
        stages=4, maxdeg=16),
    # two degree-10 seeds fail the audit before any stage runs
    "gs-failure-at-stage-0": lambda: run_dark(
        "group",
        u_columns={0: _trigger(1)}, w_columns={}, stages=10, maxdeg=14,
        unit_exponent=10),
}


@pytest.mark.parametrize("name", sorted(DARK_RUNS))
def test_dark_audits_at_stage_0_and_after_each_logging_stage(name,
                                                             monkeypatch):
    """Only a logged record changes the ideal, so a run audits once for
    stage 0 and once after each later stage that logged, up to a failure."""
    verdicts = []
    audit = dark.growth_audit

    def recorded(ideal, epsilon):
        verdict = audit(ideal, epsilon)
        verdicts.append(verdict.ok)
        return verdict

    monkeypatch.setattr(dark, "growth_audit", recorded)
    live = DARK_RUNS[name]()
    logged = {rec.stage for rec in live.log.records
              if rec.stage >= 1 and rec.requirement != "audit"}
    assert len(verdicts) == 1 + len(logged)
    assert verdicts[:-1] == [True] * len(logged)
    assert verdicts[-1] == (live.gs_failure is None)


@pytest.mark.parametrize("name", sorted(DARK_RUNS))
def test_dark_replay_matches_live_run(name):
    """Replaying a dumped dark log through `dark.apply_record` gives the run's
    own result, and the run's summary reads the same from either."""
    live = DARK_RUNS[name]()
    log = RunLog.loads(live.log.dumps())
    steps = list(replay.steps(log, replay.start(log)))
    assert [rec for rec, _ in steps] == log.records
    result = steps[-1][1]
    ideal = result.ideal
    assert ideal.generators == live.ideal.generators
    assert ideal.counts() == live.ideal.counts()
    assert (ideal.p, ideal.maxdeg) == (live.ideal.p, live.ideal.maxdeg)
    assert result.transversals == live.transversals
    assert result.protected == live.protected
    assert result.witnesses == live.witnesses
    assert result.gs_failure == live.gs_failure
    assert replay.summarize(result) == replay.summarize(live)


def _table(bound, *pairs_at):
    table = CeerTable(bound=bound)
    for a, b, s in pairs_at:
        table.assert_pair(a, b, s)
    return table


def _sug(v, u, coded, stubs, stages):
    return run_sug_indexset(
        v_columns=v, u_columns=u, coded=coded,
        sum_functionals=stubs, star_universal=_table(3, (0, 1, 4)),
        star_phis={0: {0: PhiEntry(0, ((6, 1),)), 1: PhiEntry(0, ())}},
        star_base=6, star_levels=1, stages=stages)


INJURY_RUNS = {
    "sigma3-basic": lambda: load_scenario(scenario("sigma3-basic.txt")).run(),
    "sug-basic": lambda: load_scenario(scenario("sug-basic.txt")).run(),
    # L0 injures C1, which re-chooses above the restraint
    "sigma3-restraint-injury": lambda: run_sigma3_ceer(
        {1: _trigger(1, 7)}, _table(2, (0, 1, 1)),
        {0: FunctionalStub(0, converge_stage=5, use=20, required_pairs=())},
        stages=8),
    # each re-placed restraint pushes C1 to a fresh, higher column
    "sigma3-growing-restraint": lambda: run_sigma3_ceer(
        {0: _trigger(1), 1: _trigger(2, 5, 8)}, _table(2, (0, 1, 1)),
        {0: FunctionalStub(0, converge_stage=3, use=9,
                           required_pairs=((pair(0, 0), pair(0, 1)),))},
        stages=9),
    # L0 knocks C1 and D1 out of their slots; D1 restarts twice
    "sug-restraint-injury": lambda: _sug(
        {1: _trigger(1, 2, 3, 8, 9)}, {0: _trigger(*range(1, 11))},
        _table(5, (0, 1, 1), (2, 3, 2)),
        {0: SumFunctionalStub(0, converge_stage=6, use=40, slots=("g9",))},
        stages=10),
    # C0 opens a slot L0 restrains and injures L0, which re-places it
    "sug-lower-restraint": lambda: _sug(
        {0: _trigger(3)}, {}, _table(5),
        {0: SumFunctionalStub(0, converge_stage=1, use=7, slots=("g0",))},
        stages=4),
}


@pytest.mark.parametrize("name", sorted(INJURY_RUNS))
def test_sigma3_and_sug_replay_matches_live_run(name):
    """Replaying a dumped sigma3 or sug log through its construction's
    `apply_record` alone gives the run's columns, used columns, restraints,
    slot assignments, table-slot pairs and group-slot presentations and
    output tables, and the same summary."""
    live = INJURY_RUNS[name]()
    result = rebuild(RunLog.loads(live.log.dumps()))
    assert written_state(result) == written_state(live)
    assert replay.summarize(result) == replay.summarize(live)


SHIPPED_RUNS = {
    name: lambda name=name: load_scenario(scenario(f"{name}.txt")).run()
    for name in ("dark-ring-basic", "dark-group-basic", "sigma3-basic",
                 "star-universal-basic", "sug-basic")}
ALL_RUNS = {**SHIPPED_RUNS, **DARK_RUNS, **INJURY_RUNS}


def _tables(result, path=""):
    """(path, table) for every CeerTable a result holds in its fields, its
    table slots and the fields of its group slots."""
    for f in fields(result):
        value = getattr(result, f.name)
        items = value.items() if isinstance(value, dict) else [(None, value)]
        for key, item in items:
            at = path + f.name + ("" if key is None else f"[{key}]")
            if isinstance(item, CeerTable):
                yield at, item
            elif isinstance(item, star.StarResult):
                yield from _tables(item, at + ".")


@pytest.mark.parametrize("name", sorted(ALL_RUNS))
def test_replayed_result_has_the_run_type_fields_and_tables(name):
    """A replayed result is of the run's type, with its dataclass fields,
    and every table it holds has the run's bound and pairs, except sigma3's
    join table, whose pairs the log only counts."""
    live = ALL_RUNS[name]()
    result = rebuild(RunLog.loads(live.log.dumps()))
    assert type(result) is type(live)
    assert [f.name for f in fields(result)] == [f.name for f in fields(live)]
    tables = dict(_tables(result))
    assert tables.keys() == dict(_tables(live)).keys()
    for path, table in _tables(live):
        if isinstance(live, Sigma3Result) and path == "table":
            assert tables[path].bound == table.bound
        else:
            assert (tables[path].bound, tables[path].pairs) == (
                table.bound, table.pairs), path


def test_a_decoding_fault_names_the_line_that_loads_counts():
    """Blank lines count: the record after them is named by its own line,
    and a fault in a header param by the header's."""
    header, *records = open(scenario("star-universal-basic.log.jsonl"))
    records[1] = records[1].replace('"level":1,', '"level":1.5,')
    log = RunLog.loads(header + "\n\n" + "".join(records))
    result = replay.start(log)
    with pytest.raises(ValueError, match=r"^line 5: level: expected a "
                                         r"nonnegative integer, got 1\.5$"):
        for _ in replay.steps(log, result):
            pass
    log = RunLog.loads("\n" + header.replace('"universal":[', '"universal":'
                                              '[[0, 1], '))
    with pytest.raises(ValueError, match=r"^line 2: params\.universal\[0\]: "
                                         r"expected a triple of integers"):
        replay.start(log)


def test_star_witness_pair_past_the_output_table_is_a_value_error():
    """A relating record whose witnesses the output table cannot hold is
    malformed input, as one out of stage order is: a pair is not a
    relation."""
    result = replay.start(RunLog.load(scenario(
        "star-universal-basic.log.jsonl")))
    record = ActionRecord(3, "R0", "R", "case-1", {
        "witnesses": [INDEX_CEILING, INDEX_CEILING + 1]})
    with pytest.raises(ValueError, match=(
            f"output table index {INDEX_CEILING} out of bound "
            f"{INDEX_CEILING}")):
        star.apply_record(result, record)


@pytest.mark.parametrize("name", [name for name in sorted(INJURY_RUNS)
                                  if name.startswith("sug")])
def test_sug_run_applies_each_inner_record_once(name, monkeypatch):
    """The writer of the C record that carries an inner record applies it,
    once, to the record's group slot; the embedded star construction that
    decided it applies none."""
    applied = []
    apply = star.apply_record

    def counted(result, record):
        applied.append(record.to_obj())
        apply(result, record)

    monkeypatch.setattr(star, "apply_record", counted)
    live = INJURY_RUNS[name]()
    carried = [inner for rec in live.log.records
               for inner in rec.details.get("inner", ())]
    assert carried and applied == carried
    assert all(isinstance(slot, star.StarResult)
               for slot in live.group_slots.values())


def _definitions():
    """(module, function or Class.method, node) of every definition in the
    package."""
    for path in glob.glob(os.path.join(os.path.dirname(ceerlab.__file__),
                                       "*.py")):
        module = os.path.basename(path)[:-3]
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                defs = [(f"{top.name}.", fn) for fn in top.body]
            else:
                defs = [("", top)]
            for prefix, fn in defs:
                if isinstance(fn, ast.FunctionDef):
                    yield module, prefix + fn.name, fn


def _calls(fn, methods, on=None):
    """Whether a definition calls one of `methods` as an attribute, of an
    object named (`x` or `a.x`) in `on` when given."""
    return any(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr in methods
               and (on is None or _named(node.func.value, on))
               for node in ast.walk(fn))


def _named(node, names):
    return (isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in names)


def _callers(*methods):
    """(module, function or Class.method) of every definition in the package
    that calls one of `methods` as an attribute."""
    return {(module, name) for module, name, fn in _definitions()
            if _calls(fn, methods)}


def test_a_star_presentation_has_one_writer():
    """Outside `StagedPresentation` itself, only `star.apply_record` sets a
    level or a status or adds a relation; `validate_relation_stream` adds
    relations to a throwaway presentation of its own."""
    assert _callers("set_level", "set_status", "set_statuses",
                    "add_relation") == {
        ("star", "apply_record"), ("groups", "validate_relation_stream")}


def test_a_dark_ideal_has_one_writer():
    """Only `dark.apply_record` adds a generator to an ideal, besides the
    ideal's own constructor listing the generators it is given."""
    assert _callers("add_generator") == {
        ("dark", "apply_record"), ("algebra", "HomogeneousIdeal.__init__")}


RUN_STATE = ("restraints", "columns", "assignments", "table_slots",
             "used_columns", "group_slots")
MUTATORS = ("add", "pop", "setdefault", "update", "clear", "discard",
            "remove", "popitem")


def test_sigma3_and_sug_state_has_one_writer():
    """Only `sigma3.apply_record` and `indexset.apply_record` store an item of
    a run's restraints, columns, slot assignments or group or table slots,
    or call a mutating method on one of those or on sigma3's used columns;
    and a requirement's `reinitialize` resets only its own attributes."""
    writers = {("sigma3", "apply_record"), ("indexset", "apply_record")}
    stores = {(module, name) for module, name, fn in _definitions()
              for node in ast.walk(fn)
              if isinstance(node, ast.Subscript)
              and isinstance(node.ctx, (ast.Store, ast.Del))
              and _named(node.value, RUN_STATE)}
    assert stores == writers
    mutators = {(module, name) for module, name, fn in _definitions()
                if _calls(fn, MUTATORS, on=RUN_STATE)}
    assert mutators == {("sigma3", "apply_record")}
    for module, name, fn in _definitions():
        if name.endswith(".reinitialize"):
            for node in ast.walk(fn):
                if isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)) \
                        and not isinstance(node, ast.Name):
                    assert (isinstance(node, ast.Attribute)
                            and isinstance(node.value, ast.Name)
                            and node.value.id == "self"), (module, name)
            assert not _calls(fn, MUTATORS), (module, name)


def test_a_star_output_table_has_one_writer():
    """In `star`, only `apply_record` relates a pair in a table: the output
    table's pairs come from the records, and `_DiagReq` only decides."""
    writers = {name for module, name, fn in _definitions()
               if module == "star" and _calls(fn, ("assert_pair",))}
    assert writers == {"apply_record"}


def test_replay_has_a_builder_and_writer_for_every_construction():
    """Every construction a scenario can name maps to its module, which
    builds a header's empty result with `start(log)`, writes each record
    with `apply_record(result, record)`, gives the run summary's own lines
    with `summary(result)` and runs a scenario with `run_scenario(scn,
    params)`.  Its `SUITES` maps each `verify` suite that checks its logs to
    the suite's empty-log wording, text or None, and its `checks(log,
    result)`; `cli` lists the suites of them all, in their order."""
    signatures = {"start": ["log"], "apply_record": ["result", "record"],
                  "summary": ["result"], "run_scenario": ["scn", "params"]}
    assert set(replay.CONSTRUCTIONS) == {
        "dark-ring", "dark-group", "sigma3", "star-universal", "sug-indexset"}
    for name, module in replay.CONSTRUCTIONS.items():
        for fn, params in signatures.items():
            function = getattr(module, fn)
            assert function.__module__ == module.__name__, (name, fn)
            assert list(inspect.signature(function).parameters) == params, (
                name, fn)
        for suite, (wording, checks) in module.SUITES.items():
            assert wording is None or isinstance(wording, str), (name, suite)
            assert checks.__module__ == module.__name__, (name, suite)
            assert list(inspect.signature(checks).parameters) == [
                "log", "result"], (name, suite)
            assert name in cli.suites()[suite]
    assert list(cli.suites()) == [
        "triangularity", "level-census", "vi-vs-U", "membership"]
    assert {suite: set(kinds) for suite, kinds in cli.suites().items()} == {
        "triangularity": {"star-universal", "sug-indexset"},
        "level-census": {"star-universal"},
        "vi-vs-U": {"star-universal"},
        "membership": {"dark-ring", "dark-group"}}
