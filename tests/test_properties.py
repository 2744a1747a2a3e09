"""Property tests: text round trips, log parsing on damaged input,
`run`/`verify` on shipped inputs with mutated numbers and values, and
`probe` on small mutated dumps, which must exit 0, 1 or 2 and raise
nothing; small generated star scenarios, whose runs must pass the star
suites and replay to the run's statuses and summary; small generated
sigma3 and sug scenarios, whose logs must replay to the run's state; and
small generated dark scenarios, whose logs must replay to the run's
summary and pass `membership` unless the run logged an audit failure.

Examples are derandomized and no example database is kept, so every run
of the suite tries the same inputs.
"""
import contextlib
import copy
import io
import json
import os
import re
import signal
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ceerlab import replay
from ceerlab.algebra import SUPPORTED_MODULI, Monomial, Poly
from ceerlab.ceers import CeerTable
from ceerlab.cli import main
from ceerlab.engine import RunLog
from ceerlab.scenario import parse_scenario
from ceerlab.star import check_size, level_forms, level_letters
from helpers import (
    rebuild,
    reference_level_forms,
    reference_table_load,
    table_outcome,
    written_state,
)

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None,
                         max_examples=200)

monomials = st.integers(0, 8).flatmap(
    lambda d: st.builds(Monomial, st.just(d), st.integers(0, (1 << d) - 1)))


@st.composite
def polys(draw):
    p = draw(st.sampled_from(SUPPORTED_MODULI))
    coeffs = draw(st.dictionaries(monomials, st.integers(-20, 20), max_size=8))
    return Poly(p, coeffs)


@DETERMINISTIC
@given(polys())
def test_poly_text_round_trip(poly):
    assert Poly.parse(str(poly), poly.p) == poly


@DETERMINISTIC
@given(st.text(alphabet="xy0123456789*+- ", max_size=30),
       st.sampled_from(SUPPORTED_MODULI))
def test_poly_parse_rejects_or_round_trips(text, p):
    try:
        poly = Poly.parse(text, p)
    except ValueError:
        return
    assert Poly.parse(str(poly), p) == poly


@st.composite
def tables(draw):
    bound = draw(st.integers(1, 40))
    index = st.integers(0, bound - 1)
    steps = draw(st.lists(st.tuples(index, index, st.integers(0, 3)),
                          max_size=30))
    table, stage = CeerTable(bound), 0
    for a, b, step in steps:
        stage += step
        table.assert_pair(a, b, stage)
    return table


@DETERMINISTIC
@given(tables())
def test_ceer_table_text_round_trip(table):
    back = CeerTable.loads(table.dumps(), table.bound)
    assert (back.bound, back.pairs) == (table.bound, table.pairs)
    assert back.dumps() == table.dumps()
    for s in set(table.stages()) | {0}:
        assert back.roots_at(s) == table.roots_at(s)
    bare = CeerTable.loads(table.dumps())
    assert bare.pairs == table.pairs
    assert bare.bound == max((max(a, b) for a, b, _ in table.pairs),
                             default=0) + 1


with open(os.path.join(SCENARIOS, "star-universal-basic.log.jsonl")) as fh:
    SHIPPED_LOG = fh.read()


@st.composite
def damaged_logs(draw):
    """The shipped star log with one kind of damage: a key dropped from one
    line, the text cut short, or a few spans of it overwritten."""
    text = SHIPPED_LOG
    damage = draw(st.sampled_from(("drop-key", "cut", "overwrite")))
    if damage == "drop-key":
        lines = text.splitlines(keepends=True)
        at = draw(st.integers(0, len(lines) - 1))
        obj = json.loads(lines[at])
        del obj[draw(st.sampled_from(sorted(obj)))]
        lines[at] = json.dumps(obj) + "\n"
        return "".join(lines)
    if damage == "cut":
        return text[:draw(st.integers(0, len(text)))]
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text) - 1))
        junk = draw(st.text(alphabet='{}[]":,0123456789abcdefghijklmnopqrstuvwxyz \n',
                            max_size=4))
        text = text[:at] + junk + text[at + draw(st.integers(0, 4)):]
    return text


@DETERMINISTIC
@given(damaged_logs())
def test_run_log_loads_returns_a_log_or_raises_value_error(text):
    try:
        log = RunLog.loads(text)
    except ValueError:
        return
    assert isinstance(log.header, dict)
    assert RunLog.loads(log.dumps()).dumps() == log.dumps()


# -- the command line on mutated shipped inputs ----------------------------

SHIPPED = ("dark-ring-basic", "dark-group-basic", "sigma3-basic",
           "star-universal-basic", "sug-basic")
SUITES = ("triangularity", "level-census", "vi-vs-U", "membership")

# large, negative and malformed stand-ins for a number; none lies between
# the shipped values and the ceilings, where a run is merely slow
NUMBERS = ("0", "-1", "-30", str(10 ** 6), str(10 ** 12), str(10 ** 40),
           "9" * 5000, "1x", "1.5", "", "+", "x", "Infinity", "-Infinity",
           "NaN", "1e309", "2.5", "true", '"3"')
# stand-ins for a JSON value of a log
VALUES = (0, -1, -30, 10 ** 6, 10 ** 12, 10 ** 40, 1.5, 1e308, True, None,
          "", "x", "error: x", [], [0], [[0, 1]], {}, {"lhs": 0},
          float("inf"), float("-inf"), float("nan"), 2.5, "3")

# seconds one `main` call of an example may take: each test that calls
# `_exit_code` takes 0.6-2.5 s for all of its examples together
EXAMPLE_SECONDS = 10


def _exit_code(argv, err=None):
    """main's exit code, its output swallowed (stderr into `err` if that
    is given); any exception escapes, and a
    call still running after EXAMPLE_SECONDS fails, naming its argv.  The
    test's own budget (conftest.py) resumes with the time it had left, or
    expires at once if that ran out meanwhile."""
    def expired(signum, frame):
        raise AssertionError(
            f"main({argv!r}) still running after {EXAMPLE_SECONDS} s")

    handler = signal.signal(signal.SIGALRM, expired)
    outer, _ = signal.setitimer(signal.ITIMER_REAL, EXAMPLE_SECONDS)
    start = time.monotonic()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO() if err is None
                                           else err):
            return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        if outer:
            left = outer - (time.monotonic() - start)
            signal.setitimer(signal.ITIMER_REAL, max(left, 1e-6))


def test_exit_code_fails_an_example_past_its_budget(monkeypatch):
    handler = signal.getsignal(signal.SIGALRM)
    outer = signal.getitimer(signal.ITIMER_REAL)[0]
    assert outer > 0  # the test's own budget is running
    monkeypatch.setattr(sys.modules[__name__], "EXAMPLE_SECONDS", 0.05)
    monkeypatch.setattr(sys.modules[__name__], "main",
                        lambda argv: time.sleep(5))
    start = time.monotonic()
    with pytest.raises(AssertionError,
                       match=r"^main\(\['run', 'slow.txt'\]\) still running "
                             r"after 0\.05 s$"):
        _exit_code(["run", "slow.txt"])
    assert time.monotonic() - start < 2
    # the outer budget survives, less the time the example took
    left, interval = signal.getitimer(signal.ITIMER_REAL)
    assert outer - 2 < left < outer and interval == 0
    assert signal.getsignal(signal.SIGALRM) is handler


@st.composite
def mutated_scenarios(draw):
    """A shipped scenario with one to three of its numbers replaced."""
    with open(os.path.join(SCENARIOS,
                           draw(st.sampled_from(SHIPPED)) + ".txt")) as fh:
        text = fh.read()
    spans = [m.span() for m in re.finditer(r"\d+", text)]
    picked = draw(st.lists(st.sampled_from(spans), min_size=1, max_size=3,
                           unique=True))
    for lo, hi in sorted(picked, reverse=True):
        text = text[:lo] + draw(st.sampled_from(NUMBERS)) + text[hi:]
    return text


KEY_LINE = re.compile(r"^([a-z_]+) = ", re.M)
SECTION_LINE = re.compile(r"^\[([a-z-]+)[^\]\n]*\]$", re.M)
# digits that str.isdigit and a `\d` pattern accept, and int() reads or not
FOREIGN_DIGITS = ("\u0663", "\u0669", "\u00b2", "\u096f")


@st.composite
def key_mutated_scenarios(draw):
    """A shipped scenario with one key or section mutated: a key
    misspelled or moved to another section, a section renamed, one digit
    made non-ASCII, or a section given a 5,000-digit index."""
    with open(os.path.join(SCENARIOS, draw(st.sampled_from(SHIPPED))
                           + ".txt"), encoding="utf-8") as fh:
        text = fh.read()
    keys = list(KEY_LINE.finditer(text))
    heads = list(SECTION_LINE.finditer(text))
    kind = draw(st.sampled_from(("misspell", "move", "rename", "digit",
                                 "index")))
    if kind == "misspell":
        key = draw(st.sampled_from(keys))
        at = draw(st.integers(key.start(1), key.end(1) - 1))
        return text[:at] + draw(st.sampled_from(("", "q", "-"))) \
            + text[at + 1:]
    if kind == "move":
        key = draw(st.sampled_from(keys))
        line = text[key.start():text.index("\n", key.start()) + 1]
        text = text[:key.start()] + text[key.start() + len(line):]
        at = draw(st.sampled_from([0] + [m.end() + 1 for m in
                                         SECTION_LINE.finditer(text)]))
        return text[:at] + line + text[at:]
    if kind == "digit":
        at = draw(st.sampled_from([m.start() for m in
                                   re.finditer("[0-9]", text)]))
        return text[:at] + draw(st.sampled_from(FOREIGN_DIGITS)) \
            + text[at + 1:]
    head = draw(st.sampled_from(heads))
    name = head.group(1)
    new = (f"[{name} {'9' * 5000}]" if kind == "index" else
           f"[{draw(st.sampled_from(('universe', 'column', name + 's')))}]")
    return text[:head.start()] + new + text[head.end():]


# what only Python's own error text holds: int()'s two refusals, a
# traceback, or an exception class name
FOREIGN_ERROR = re.compile(r"invalid literal|Exceeds the limit|Traceback"
                           r"|\b[A-Za-z]*(Error|Exception)\b")


def _run_scenario_text(text):
    """`run` on the text: exit 0, 1 or 2, an exit 2 with one `error: `
    line on stderr that is the program's own."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        code = _exit_code(["run", path, "--out",
                           os.path.join(tmp, "out.jsonl")], err)
    assert code in (0, 1, 2)
    if code == 2:
        line = err.getvalue()
        assert line.startswith("error: ") and line.count("\n") == 1, line
        assert line.endswith("\n") and not FOREIGN_ERROR.search(line), line


@DETERMINISTIC
@given(mutated_scenarios())
def test_run_on_mutated_scenarios_exits_cleanly(text):
    _run_scenario_text(text)


@DETERMINISTIC
@given(key_mutated_scenarios())
def test_run_on_key_mutated_scenarios_exits_cleanly(text):
    _run_scenario_text(text)


def _leaves(obj, path=()):
    """Paths to every value inside a JSON object, containers included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _leaves(value, path + (key,))


@st.composite
def mutated_logs(draw):
    """A shipped log with one to three of its JSON values replaced."""
    with open(os.path.join(SCENARIOS, draw(st.sampled_from(SHIPPED))
                           + ".log.jsonl")) as fh:
        rows = [json.loads(line) for line in fh]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(rows))
        path = draw(st.sampled_from(sorted(_leaves(row), key=repr)))
        target = row
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = copy.deepcopy(draw(st.sampled_from(VALUES)))
    return "".join(json.dumps(row) + "\n" for row in rows)


@DETERMINISTIC
@given(mutated_logs(), st.sampled_from(SUITES))
def test_verify_on_mutated_logs_exits_cleanly(text, suite):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mutated.jsonl")
        with open(path, "w") as fh:
            fh.write(text)
        assert _exit_code(["verify", path, suite]) in (0, 1, 2)


# stand-ins for a dump's index or stage: at and past the table index
# ceiling, negative, and not an integer at all, the floats `json.dumps`
# writes as NaN, Infinity and -Infinity among them
DUMP_VALUES = (-1, 10 ** 6, 10 ** 40, 1.5, True, None, "x", [], {},
               float("nan"), float("inf"), float("-inf"), "3")
# stand-ins for a dump line that is no pair object
DUMP_JUNK = ("{", "[]", "null", "1", '"a"')
# --stage, --bound and related's indices; none lies between the small
# values and the ceilings, where a probe is merely slow
FLAGS = (0, 1, 2, 5, -1, 10 ** 6 + 1, 10 ** 40)
MAPS = ("0:1", "0:1,1:0,2:1", "0:1,0:2", "", ",", "x", "0:", "0:1:2",
        "-1:0", "0:-1", "0:1000000", "1000000:0")


@st.composite
def mutated_dumps(draw):
    """One to three dump lines of small pairs, with one to three values
    replaced or dropped and possibly one line turned to junk."""
    small = st.integers(0, 5)
    rows = draw(st.lists(st.fixed_dictionaries(
        {"a": small, "b": small, "s": st.integers(0, 3)}),
        min_size=1, max_size=3))
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.sampled_from(rows))
        key = draw(st.sampled_from("abs"))
        if draw(st.booleans()):
            row.pop(key, None)
        else:
            row[key] = draw(st.sampled_from(DUMP_VALUES))
    lines = [json.dumps(row) for row in rows]
    if draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(
            st.sampled_from(DUMP_JUNK))
    return "".join(line + "\n" for line in lines)


@DETERMINISTIC
@given(mutated_dumps(), st.sampled_from((None, 0, 4, 6)))
def test_load_of_mutated_dumps_matches_the_json_reference(text, bound):
    want = table_outcome(
        lambda: reference_table_load(io.StringIO(text), bound))
    assert table_outcome(lambda: CeerTable.loads(text, bound)) == want


@st.composite
def probe_calls(draw):
    """A probe subcommand's arguments with dump texts to write first."""
    sub = draw(st.sampled_from(("related", "classes", "product", "join",
                                "pullback", "verify-reduction")))
    dumps = [draw(mutated_dumps())]
    args = [sub, "dump0"]
    if sub == "related":
        args += [str(draw(st.sampled_from(FLAGS))) for _ in "ab"]
    elif sub == "join":
        extra = draw(st.integers(0, 2))
        dumps += [draw(mutated_dumps()) for _ in range(extra)]
        args += [f"dump{i}" for i in range(1, extra + 1)]
    elif sub in ("product", "verify-reduction"):
        dumps.append(draw(mutated_dumps()))
        args.append("dump1")
    if sub in ("pullback", "verify-reduction"):
        args.append("--map=" + draw(st.sampled_from(MAPS)))
    for flag in ("--stage", "--bound"):
        value = draw(st.one_of(st.none(), st.sampled_from(FLAGS)))
        if value is not None:
            args.append(f"{flag}={value}")
    return dumps, args


@DETERMINISTIC
@given(probe_calls())
def test_probe_on_mutated_dumps_exits_cleanly(call):
    dumps, args = call
    with tempfile.TemporaryDirectory() as tmp:
        for i, text in enumerate(dumps):
            with open(os.path.join(tmp, f"dump{i}"), "w") as fh:
                fh.write(text)
        argv = ["probe"] + [os.path.join(tmp, a) if a.startswith("dump")
                            else a for a in args]
        assert _exit_code(argv) in (0, 1, 2)


# -- generated star scenarios ----------------------------------------------


@st.composite
def star_scenarios(draw):
    """A small star scenario: a shape, up to three universal pairs and one
    to four stubs.  Word tokens are whole-level ranges less the last one or
    two pairs (constant or split exponents) and the first letters of a
    level (which the freeing cases free first), so every case is reached."""
    base = draw(st.sampled_from((6, 8, 10)))
    levels = draw(st.integers(1, 3))
    check_size(base, levels)
    stages = draw(st.integers(1, 15))
    lines = ["construction = star-universal", f"stages = {stages}",
             f"base = {base}", f"levels = {levels}", "[universal]"]
    for _ in range(draw(st.integers(0, 3))):
        s, a, b = (draw(st.integers(1, stages)), draw(st.integers(0, levels)),
                   draw(st.integers(0, levels)))
        lines.append(f"{s}: {a} {b}")

    def token():
        letters = level_letters(base, draw(st.integers(0, levels)))
        if draw(st.booleans()):
            end = letters[-1] + 1 - 2 * draw(st.integers(1, 2))
            return f"xrange:{letters[0]}:{end}"
        exp = draw(st.sampled_from(("", "^-1", "^2")))
        return f"x{draw(st.sampled_from(letters[:6]))}{exp}"

    def row(spec):
        words = " ".join(token() for _ in range(draw(st.integers(0, 2))))
        return f"{spec}: {draw(st.integers(0, stages))} {words}"

    # every witness a run can draw has a value
    top = 2 * stages + 8
    for e in draw(st.lists(st.integers(0, 3), min_size=1, max_size=4,
                           unique=True)):
        lines.append(f"[phi {e}]")
        if draw(st.integers(0, 4)) == 0:
            lines.append(row(f"0..{top}"))
        else:
            lines += [row(f"0..{top}/even"), row(f"1..{top}/odd")]
    return "\n".join(lines) + "\n"


# the verify suites cost nearly all the time; 60 examples reach every case
# and a collapse
@settings(DETERMINISTIC, max_examples=60)
@given(star_scenarios())
def test_generated_star_runs_pass_the_star_suites(text):
    result = parse_scenario(text).run()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "star.jsonl")
        result.log.dump(path)
        for suite in ("triangularity", "level-census", "vi-vs-U"):
            assert _exit_code(["verify", path, suite]) == 0, suite
        log = RunLog.load(path)
    rebuilt = rebuild(log)
    assert rebuilt.presentation.status == result.presentation.status
    assert replay.summarize(rebuilt) == replay.summarize(result)
    points = replay.census_checkpoints(log)
    assert (list(level_forms(rebuilt, points))
            == list(reference_level_forms(rebuilt, points)))


# -- generated sigma3 and sug scenarios ------------------------------------


@st.composite
def index_set_scenarios(draw):
    """A small sigma3 or sug scenario: steady trigger columns at indices 0-2,
    a few table pairs, and functionals (sigma3) or sum functionals (sug) that
    converge inside the run, so that restraints injure coders and coders
    injure restraints."""
    stages = draw(st.integers(1, 24))
    sigma3 = draw(st.booleans())
    lines = [f"construction = {'sigma3' if sigma3 else 'sug-indexset'}",
             f"stages = {stages}",
             "[universal]" if sigma3 else "[coded-universal]"]
    for _ in range(draw(st.integers(0, 4))):
        lines.append(f"{draw(st.integers(1, stages))}: "
                     f"{draw(st.integers(0, 5))} {draw(st.integers(0, 5))}")
    columns = ("wcolumn",) if sigma3 else ("vcolumn", "ucolumn")
    for name in columns:
        for k in draw(st.lists(st.integers(0, 2), max_size=3, unique=True)):
            lines += [f"[{name} {k}]", "mode = steady",
                      f"period = {draw(st.integers(1, 3))}",
                      f"start = {draw(st.integers(1, stages))}",
                      f"count = {draw(st.integers(1, 8))}"]
    for m in draw(st.lists(st.integers(0, 2), max_size=2, unique=True)):
        lines += [f"[{'functional' if sigma3 else 'sumfunctional'} {m}]",
                  f"converge = {draw(st.integers(0, stages))}",
                  f"use = {draw(st.integers(2, 30))}"]
        if sigma3:  # codes <0, 0> and <0, 1> of the join table, or none
            lines.append(f"pairs = {draw(st.sampled_from(('', '0-2')))}")
        else:
            slots = draw(st.lists(st.sampled_from(("g0", "g1", "h0", "h1")),
                                  min_size=1, max_size=3, unique=True))
            lines.append(f"slots = {','.join(slots)}")
    if not sigma3:
        lines += ["[star-universal]", "4: 0 1",
                  "[star-phi 0]", "0: 0 x6", "1: 0"]
    return "\n".join(lines) + "\n"


@DETERMINISTIC
@given(index_set_scenarios())
def test_generated_sigma3_and_sug_logs_replay_to_the_run(text):
    result = parse_scenario(text).run()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.jsonl")
        result.log.dump(path)
        if result.construction == "sug-indexset":
            assert _exit_code(["verify", path, "triangularity"]) == 0
        rebuilt = rebuild(RunLog.load(path))
    assert written_state(rebuilt) == written_state(result)
    assert replay.summarize(rebuilt) == replay.summarize(result)


# -- generated dark scenarios ----------------------------------------------


@st.composite
def dark_scenarios(draw):
    """A small dark-ring or dark-group scenario: up to two trigger columns
    of one or two rows, and up to two word columns of two or three rows.
    A row of word column m is a monomial of degree m + 10 (the collapse
    floor until a protected degree raises it) to m + 12, with or without
    a degree-one term, so that collapses add relators above their floor
    and injure the light strategies below them.  maxdeg leaves room for
    every fresh degree a light strategy can bank, and the audit fails at
    stage 0 (epsilon 1/3 against a unit exponent below 13) or after enough
    relators of one degree."""
    group = draw(st.booleans())
    stages = draw(st.integers(1, 30))
    lines = [f"construction = dark-{'group' if group else 'ring'}",
             f"stages = {stages}",
             f"epsilon = {draw(st.sampled_from(('1/4', '1/5', '1/3')))}"]
    exponent = draw(st.integers(11, 13)) if group else 0
    if group:
        lines.append(f"unit_exponent = {exponent}")
    light = 0
    for n in draw(st.lists(st.integers(0, 2), max_size=2, unique=True)):
        rows = draw(st.lists(st.integers(1, stages), min_size=1, max_size=2))
        light += len(rows)
        lines.append(f"[ucolumn {n}]")
        lines += [f"{stage}: {i}" for i, stage in enumerate(rows)]
    top = 0
    for m in draw(st.lists(st.integers(0, 1), max_size=2, unique=True)):
        lines.append(f"[wcolumn {m}]")
        for _ in range(draw(st.integers(2, 3))):
            deg = draw(st.integers(m + 10, m + 12))
            word = Monomial(deg, draw(st.integers(0, (1 << deg) - 1))).word
            low = draw(st.sampled_from(("", "x + ", "y + ")))
            lines.append(f"{draw(st.integers(1, stages))}: {low}{word}")
            top = max(top, deg)
    maxdeg = max(top, exponent) + light + draw(st.integers(0, 1))
    lines.insert(2, f"maxdeg = {maxdeg}")
    return "\n".join(lines) + "\n"


@DETERMINISTIC
@given(dark_scenarios())
def test_generated_dark_logs_replay_and_pass_membership(text):
    result = parse_scenario(text).run()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "dark.jsonl")
        result.log.dump(path)
        failed = result.gs_failure is not None
        assert _exit_code(["verify", path, "membership"]) == int(failed)
        rebuilt = rebuild(RunLog.load(path))
    assert replay.summarize(rebuilt) == replay.summarize(result)
