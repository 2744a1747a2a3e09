"""Property tests: text round trips and log parsing on damaged input.

Examples are derandomized and no example database is kept, so every run
of the suite tries the same inputs.
"""
import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from ceerlab.algebra import SUPPORTED_MODULI, Monomial, Poly
from ceerlab.ceers import CeerTable
from ceerlab.engine import RunLog

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
