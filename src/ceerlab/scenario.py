"""Text scenarios: reproducible input scripts for the constructions.

Format (scenarios/ holds complete examples; README's "Scenario format"
lists every key):

    # comment
    construction = dark-ring      # which construction module runs it
    stages = 300                  # top-level key = value parameters

    [ucolumn 0]                   # a section; the argument is an index
    1: 0                          # rows are "stage: payload"

    [wcolumn 0]
    mode = monomials              # sections may carry their own keys
    rate = 32

`_KEYS` declares each key of the top level and of each section with the
reader of its value, and `_INDEXED` the sections that take an index;
`parse_scenario` reads each value as it reads its line.  An unknown
section or key is refused, and so is a section header that lacks the
index its section takes or gives one it does not.  Every integer, in keys,
rows, section indices, word tokens and argument specs, is read by `_int`.
Rows are read where a construction asks for them: integers, polynomial
text, "a b" pairs, or "converge tokens..." keyed by argument specs such
as `7`, `0..40` or `0..40/even`.  A refusal is a ScenarioError naming
its line.

The grammar lives here alone.  A construction module's `run_scenario`
reads its inputs through `Scenario` methods (`int_columns`, `poly_columns`,
`table`, `phis`, `functionals`, `sum_functionals`) and imports nothing
from this module; nor does this module import a construction module.  A
stub type a construction defines (star's `PhiEntry`, indexset's
`SumFunctionalStub`) comes in from the caller's `run_scenario`, and
`replay.CONSTRUCTIONS` names the constructions without loading one, so
parsing a scenario loads none and running it loads its own.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Any, Callable

from .algebra import MAXDEG_CEILING, Monomial, Poly
from .ceers import CeerTable, FunctionalStub, StageSet
from .engine import STAGE_CEILING, ConstructionRun
from .groups import GENERATOR_CEILING
from .replay import CONSTRUCTIONS

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "load_scenario"]


class ScenarioError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class _Section:
    name: str
    arg: int | None
    line: int
    params: dict[str, Any] = field(default_factory=dict)
    rows: list[tuple[int, str, str]] = field(default_factory=list)  # (line, lhs, rhs)


@dataclass
class Scenario:
    construction: str
    params: dict[str, Any]
    sections: list[_Section]

    def section(self, name: str, arg: int | None = None) -> _Section | None:
        for sec in self.sections:
            if sec.name == name and sec.arg == arg:
                return sec
        return None

    def sections_named(self, name: str) -> list[_Section]:
        return [sec for sec in self.sections if sec.name == name]

    def run(self, overrides: dict[str, Any] | None = None) -> ConstructionRun:
        """Run the construction with `overrides` merged over the scenario's
        parameters; the stage count and the degrees are checked once
        merged, whichever of the two supplied them."""
        params = dict(self.params)
        if overrides:
            params.update({k: v for k, v in overrides.items() if v is not None})
        for key, top in (("stages", STAGE_CEILING), ("maxdeg", MAXDEG_CEILING),
                         ("unit_exponent", MAXDEG_CEILING)):
            if key in params and not 0 <= params[key] <= top:
                raise ScenarioError(
                    f"bad {key} {params[key]}: must lie in [0, {top}]")
        return CONSTRUCTIONS[self.construction].run_scenario(self, params)

    # -- a construction's inputs, as its `run_scenario` reads them ----------

    def int_columns(self, name: str, stages: int) -> dict[int, StageSet]:
        """The [name k] number columns by index."""
        return self._indexed(name, lambda sec: _int_stream(sec, stages))

    def poly_columns(self, name: str, stages: int, maxdeg: int, p: int,
                     floor: Callable[[int], int]) -> dict[int, StageSet]:
        """The [name k] polynomial columns by index.  Column k is compared
        from degree `floor(k)` up, so one that lists an entry by the last
        stage is refused if that floor is above `maxdeg`."""
        columns = self._indexed(
            name, lambda sec: _poly_stream(sec, stages, maxdeg, p))
        for sec in self.sections_named(name):
            low = floor(sec.arg)
            if low > maxdeg and columns[sec.arg].count_at(stages):
                raise ScenarioError(f"[{name} {sec.arg}] collapse floor {low} "
                                    f"is above maxdeg {maxdeg}", sec.line)
        return columns

    def table(self, name: str, bound: int | None = None,
              floor: int = 0) -> CeerTable:
        """The [name] section's pairs as a table.  With no `bound` given,
        the bound is one past the largest index the rows name, and at least
        `floor`."""
        sec = self.section(name)
        # a given bound is refused, if negative, before any row is read
        table = None if bound is None else CeerTable(bound=bound)
        rows = []
        top = 0
        for lineno, lhs, rhs in sec.rows if sec is not None else ():
            stage = _read(_stage, lhs, lineno, "bad stage: ")
            parts = rhs.split()
            if len(parts) != 2:
                raise ScenarioError(f"{name} row needs 'a b', got {rhs!r}",
                                    lineno)
            a, b = (_read(_int, part, lineno, "bad pair: ") for part in parts)
            top = max(top, a, b)
            rows.append((lineno, a, b, stage))
        if table is None:
            table = CeerTable(bound=max(floor, top + 1))
        rows.sort(key=lambda r: (r[3], r[0]))
        for lineno, a, b, stage in rows:
            if not (0 <= a < table.bound and 0 <= b < table.bound):
                raise ScenarioError(
                    f"pair ({a}, {b}) outside bound {table.bound}", lineno)
            table.assert_pair(a, b, stage)
        return table

    def phis(self, name: str,
             entry: Callable[..., Any]) -> dict[int, dict[int, Any]]:
        """The [name e] stubs: argument -> `entry(converge, word)`, one
        entry shared by a row's arguments.  The arguments of all their rows
        together may not pass GENERATOR_CEILING, counted before any row is
        expanded."""
        total = 0
        for sec in self.sections_named(name):
            for lineno, lhs, _ in sec.rows:
                total += len(_read(_parse_args, lhs, lineno))
                if total > GENERATOR_CEILING:
                    raise ScenarioError(
                        f"[{name}] rows up to here hold {total} arguments, "
                        f"above the generator ceiling {GENERATOR_CEILING}",
                        lineno)
        return self._indexed(name, partial(_phi_stub, entry=entry))

    def functionals(self) -> dict[int, FunctionalStub]:
        """The [functional m] stubs by index; a required pair past the
        declared use is refused at the section's line."""
        def stub(sec: _Section) -> FunctionalStub:
            converge, use = _need(sec, "converge"), _need(sec, "use")
            return _read(partial(FunctionalStub, sec.arg, converge, use),
                         sec.params.get("pairs", ()), sec.line,
                         f"[functional {sec.arg}] ")
        return self._indexed("functional", stub)

    def sum_functionals(self, stub: Callable[..., Any]) -> dict[int, Any]:
        """The [sumfunctional m] stubs by index, each
        `stub(m, converge, use, slots)`."""
        return self._indexed("sumfunctional", lambda sec: stub(
            sec.arg, _need(sec, "converge"), _need(sec, "use"),
            _need(sec, "slots")))

    def _indexed(self, name: str,
                 build: Callable[[_Section], Any]) -> dict[int, Any]:
        out: dict[int, Any] = {}
        for sec in self.sections_named(name):
            if sec.arg > SECTION_INDEX_CEILING:
                raise ScenarioError(
                    f"[{name} {sec.arg}] has an index above the section "
                    f"index ceiling {SECTION_INDEX_CEILING}", sec.line)
            out[sec.arg] = build(sec)
        return out


_KV_RE = re.compile(r"^([A-Za-z_][\w-]*)\s*=\s*(.*)$")
_SECTION_RE = re.compile(r"^\[([a-z-]+)(?:\s+([0-9]+))?\]$")


def parse_scenario(text: str) -> Scenario:
    params: dict[str, Any] = {}
    sections: list[_Section] = []
    current: _Section | None = None
    readers = _KEYS[None]
    unknown: ScenarioError | None = None  # raised once every line is read
    seen: set[tuple[str, int | None]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            m = _SECTION_RE.match(line)
            if not m:
                raise ScenarioError(f"bad section header {line!r}", lineno)
            name, arg = m.groups()
            readers = _KEYS.get(name)
            if readers is None:
                raise ScenarioError(f"unknown section [{name}]", lineno)
            if (arg is None) == (name in _INDEXED):
                raise ScenarioError(f"[{name}] needs an index" if arg is None
                                    else f"[{name}] takes no index", lineno)
            if arg is not None:
                arg = _read(_int, arg, lineno, f"[{name}] index ")
            if (name, arg) in seen:
                raise ScenarioError(f"duplicate section {line}", lineno)
            seen.add((name, arg))
            current = _Section(name=name, arg=arg, line=lineno)
            sections.append(current)
            continue
        kv = _KV_RE.match(line)
        if kv:
            key = kv.group(1)
            target = params if current is None else current.params
            if key in target:
                raise ScenarioError(f"duplicate key {key!r}", lineno)
            if key not in readers:
                unknown = unknown or ScenarioError(f"unknown key {key!r}",
                                                   lineno)
            target[key] = _read(readers.get(key, str), kv.group(2).strip(),
                                lineno, f"{key} ")
            continue
        if ":" in line:
            if current is None:
                raise ScenarioError("row outside any section", lineno)
            lhs, rhs = line.split(":", 1)
            current.rows.append((lineno, lhs.strip(), rhs.strip()))
            continue
        raise ScenarioError(f"cannot parse {line!r}", lineno)
    if unknown is not None:
        raise unknown
    construction = params.pop("construction", None)
    if construction is None:
        raise ScenarioError("missing top-level 'construction = ...' parameter")
    if construction not in CONSTRUCTIONS:
        raise ScenarioError(f"unknown construction {construction!r}; "
                            f"expected one of {', '.join(CONSTRUCTIONS)}")
    return Scenario(construction, params, sections)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_scenario(fp.read())


# Ceiling on a section index.  Runners build one to three requirements per
# index up to the largest, and each is asked if it is ready at every stage:
# 20,002 requirements over 1,000 stages took 1.6-1.8 s in-process (2-vCPU
# x86-64).  With one section at index 100, 100,000-stage runs took 1.0 s
# (star), 2.4 s (sigma3), 2.6 s (sug) and 1.8 s (dark-ring, dark-group).
SECTION_INDEX_CEILING = 100


def parse_epsilon(text: str) -> Fraction:
    """The sparsity parameter: a rational in (0, 1]."""
    try:
        epsilon = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ScenarioError(f"bad epsilon {text!r}") from None
    if not 0 < epsilon <= 1:
        raise ScenarioError(f"bad epsilon {text!r}: must lie in (0, 1]")
    return epsilon


def _int(text: str, least: int | None = None) -> int:
    """The one reader of a scenario's integers: ASCII `-?[0-9]+` within
    int()'s digit limit, and at least `least` when that is given."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"must be an integer, got {text!r}")
    try:
        value = int(text)
    except ValueError:  # past int()'s digit limit
        raise ValueError(f"must have at most {sys.get_int_max_str_digits()} "
                         f"digits, got {len(digits)}") from None
    if least is not None and value < least:
        raise ValueError(f"must be >= {least}, got {text!r}")
    return value


_stage = partial(_int, least=0)  # a stage, a count or a use
_positive = partial(_int, least=1)  # a period or a rate


def _names(text: str) -> tuple[str, ...]:
    """A comma list, blank items dropped."""
    return tuple(item for item in map(str.strip, text.split(",")) if item)


def _pairs(text: str) -> tuple[tuple[int, int], ...]:
    """A comma list of unordered index pairs `a-b`."""
    pairs = []
    for chunk in _names(text):
        a, _, b = chunk.partition("-")
        try:
            pairs.append((_int(a.strip()), _int(b.strip())))
        except ValueError:
            raise ValueError(f"holds bad pair {chunk!r}, want a-b") from None
    return tuple(pairs)


_STREAM = {"mode": str, "period": _positive, "start": _stage,
           "count": _stage, "rate": _positive}
# The keys of the top level (under None) and of each section, with the
# reader of each key's value.  A key or section not named here is refused.
_KEYS: dict[str | None, dict[str, Callable[[str], Any]]] = {
    None: dict.fromkeys(("stages", "maxdeg", "modulus", "unit_exponent",
                         "base", "levels", "ubound", "coded_bound"), _int)
    | {"construction": str, "epsilon": parse_epsilon},
    "ucolumn": _STREAM, "vcolumn": _STREAM, "wcolumn": _STREAM,
    "functional": {"converge": _stage, "use": _stage, "pairs": _pairs},
    "sumfunctional": {"converge": _stage, "use": _stage, "slots": _names},
    "star-template": {"base": _int, "levels": _int},
    "universal": {}, "coded-universal": {}, "star-universal": {},
    "phi": {}, "star-phi": {},
}
# the sections that take an index, `[name k]`; the others take none
_INDEXED = {"ucolumn", "vcolumn", "wcolumn", "functional", "sumfunctional",
            "phi", "star-phi"}


def _read(reader: Callable[[Any], Any], text: Any, line: int,
          what: str = "") -> Any:
    """`reader(text)`; a refusal names the line and, but for
    parse_epsilon's, starts with `what`."""
    try:
        return reader(text)
    except ScenarioError as exc:
        raise ScenarioError(str(exc), line) from None
    except ValueError as exc:
        raise ScenarioError(f"{what}{exc}", line) from None


def _rows(sec: _Section, reader: Callable[[str], Any], what: str) -> StageSet:
    """The column of a section's `stage: value` rows, values by `reader`."""
    rows = []
    for lineno, lhs, rhs in sec.rows:
        stage = _read(_stage, lhs, lineno, "bad stage: ")
        rows.append((_read(reader, rhs, lineno, what), stage))
    return StageSet.from_rows(rows)


def _int_stream(sec: _Section, stages: int) -> StageSet:
    mode = sec.params.get("mode", "rows")
    if mode == "rows":
        return _rows(sec, _int, "bad integer payload: ")
    if mode == "steady":
        count = sec.params.get("count", stages)
        return StageSet.generated(range(count), count,
                                  sec.params.get("start", 1),
                                  sec.params.get("period", 1))
    raise ScenarioError(f"unknown stream mode {mode!r}", sec.line)


def _monomial_by_index(idx: int) -> Monomial:
    deg = (idx + 1).bit_length() - 1
    return Monomial(deg, idx + 1 - (1 << deg))


class _MonomialColumn:
    """The first n monomials in index order, as polynomials built on demand."""

    __slots__ = ("n", "p")

    def __init__(self, n: int, p: int):
        self.n, self.p = n, p

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> Poly:
        if i < 0:
            i += self.n
        if not 0 <= i < self.n:
            raise IndexError("monomial index out of range")
        return Poly.monomial(_monomial_by_index(i), p=self.p)

    def __repr__(self) -> str:
        return f"_MonomialColumn(n={self.n}, p={self.p})"


def _poly_stream(sec: _Section, stages: int, maxdeg: int, p: int) -> StageSet:
    mode = sec.params.get("mode", "rows")
    if mode == "rows":
        return _rows(sec, partial(Poly.parse, p=p), "bad polynomial: ")
    if mode == "monomials":
        rate = sec.params.get("rate", 1)
        # entry i sits at stage i // rate; the stage budget and the degree
        # horizon (2 ** (maxdeg + 1) - 1 monomials) both cut the column
        n = max(0, min((stages + 1) * rate, (1 << (maxdeg + 1)) - 1))
        return StageSet.generated(_MonomialColumn(n, p), n, rate=rate)
    raise ScenarioError(f"unknown stream mode {mode!r}", sec.line)


# `xEND` or `xrange:START:END`, with an optional `^EXP`
_TOKEN = re.compile(r"^x(?:range:([0-9]+):)?([0-9]+)(?:\^(-?[0-9]+))?$")
_ARGSPEC = re.compile(r"^([0-9]+)(?:\.\.([0-9]+))?(?:/(even|odd))?$")


def _parse_word(tokens: list[str]) -> tuple[tuple[int, int], ...]:
    word: list[tuple[int, int]] = []
    for tok in tokens:
        m = _TOKEN.match(tok)
        if not m:
            raise ValueError(f"bad word token {tok!r}")
        start, end, exp = m.groups()
        exp = _int(exp) if exp else 1
        if start is None:  # the one letter END
            word.append((_int(end), exp))
            continue
        lo, hi = _int(start), _int(end)
        if hi < lo:
            raise ValueError(f"empty range in {tok!r}")
        if hi > GENERATOR_CEILING:
            raise ValueError(f"range end {hi} in {tok!r} is above the "
                             f"generator ceiling {GENERATOR_CEILING}")
        word.extend((k, exp) for k in range(lo, hi))
    return tuple(word)


def _parse_args(spec: str) -> range:
    m = _ARGSPEC.match(spec)
    if not m:
        raise ValueError(f"bad argument spec {spec!r}")
    lo = _int(m.group(1))
    if m.group(2) is None:
        if m.group(3) is not None:
            raise ValueError("parity filter needs a range")
        return range(lo, lo + 1)
    hi = _int(m.group(2))
    if hi < lo:
        raise ValueError(f"empty argument range {spec!r}")
    parity = {"even": 0, "odd": 1}.get(m.group(3))
    if parity is None:
        args = range(lo, hi + 1)
    else:
        args = range(lo + (lo - parity) % 2, hi + 1, 2)
    # counted by arithmetic: len() overflows on a range past sys.maxsize
    count = (args.stop - args.start + args.step - 1) // args.step
    if count > GENERATOR_CEILING:
        raise ValueError(
            f"argument range {spec!r} holds {count} arguments, above "
            f"the generator ceiling {GENERATOR_CEILING}")
    return args


def _phi_stub(sec: _Section, entry: Callable[..., Any]) -> dict[int, Any]:
    stub: dict[int, Any] = {}
    for lineno, lhs, rhs in sec.rows:
        converge, *tokens = rhs.split() or [""]
        value = entry(_read(_stage, converge, lineno, "bad converge stage: "),
                      _read(_parse_word, tokens, lineno))
        for arg in _read(_parse_args, lhs, lineno):
            if arg in stub:
                raise ScenarioError(f"argument {arg} defined twice", lineno)
            stub[arg] = value
    return stub


def _need(sec: _Section, key: str) -> Any:
    """The value of a key the section cannot do without."""
    if key not in sec.params:
        raise ScenarioError(f"{sec.name} needs {key}", sec.line)
    return sec.params[key]
