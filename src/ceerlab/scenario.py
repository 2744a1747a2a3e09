"""Text scenarios: reproducible input scripts for the constructions.

Format (see scenarios/ for complete shipped examples):

    # comment
    construction = dark-ring      # which construction module runs it
    stages = 300                  # top-level key = value parameters

    [ucolumn 0]                   # a section; the argument is an index
    1: 0                          # rows are "stage: payload"
    2: 1

    [wcolumn 0]
    mode = monomials              # sections may carry their own params
    rate = 32

Row payloads are construction-specific: integers for number columns,
polynomial text for ring columns, "a b" pairs for tables, and
"converge tokens..." for function stubs keyed by argument specs such as
`7`, `0..40`, or `0..40/even` (at most star.GENERATOR_CEILING arguments
over all of a run's stub sections).
Word tokens are `x12`, `x12^-3`, and `xrange:100:998` (half-open index
range, exponent 1, ending at most at star.GENERATOR_CEILING).

Stream sections support three modes: explicit rows, `steady`
(arithmetic stage progression of the values 0,1,2,...), and
`monomials` (all monomials in index order at a fixed per-stage rate).
The last two are generated: entry i is computed when it is read, so such
a column holds O(1) state however many entries it has.

The grammar lives here alone.  A construction module's `run_scenario`
reads its inputs through `Scenario` methods (`int_columns`, `poly_columns`,
`table`, `phis`, `functionals`, `sum_functionals`) and imports nothing
from this module.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .algebra import MAXDEG_CEILING, Monomial, Poly
from .ceers import CeerTable, FunctionalStub, StageSet
from .engine import STAGE_CEILING, ConstructionRun
from .indexset import SumFunctionalStub
from .replay import CONSTRUCTIONS
from .star import GENERATOR_CEILING, PhiEntry

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
    params: dict[str, str] = field(default_factory=dict)
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
            stage = _row_stage(lhs, lineno)
            parts = rhs.split()
            if len(parts) != 2:
                raise ScenarioError(f"{name} row needs 'a b', got {rhs!r}",
                                    lineno)
            try:
                a, b = int(parts[0]), int(parts[1])
            except ValueError:
                raise ScenarioError(f"bad pair {rhs!r}", lineno) from None
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

    def phis(self, name: str) -> dict[int, dict[int, PhiEntry]]:
        """The [name e] stubs.  The arguments of all their rows together may
        not pass GENERATOR_CEILING, counted before any row is expanded."""
        total = 0
        for sec in self.sections_named(name):
            for lineno, lhs, _ in sec.rows:
                total += len(_parse_args(lhs, lineno))
                if total > GENERATOR_CEILING:
                    raise ScenarioError(
                        f"[{name}] rows up to here hold {total} arguments, "
                        f"above the generator ceiling {GENERATOR_CEILING}",
                        lineno)
        return self._indexed(name, _phi_stub)

    def functionals(self) -> dict[int, FunctionalStub]:
        """The [functional m] stubs by index."""
        return self._indexed("functional", _functional)

    def sum_functionals(self) -> dict[int, SumFunctionalStub]:
        """The [sumfunctional m] stubs by index."""
        return self._indexed("sumfunctional", _sum_functional)

    def _indexed(self, name: str,
                 build: Callable[[_Section], Any]) -> dict[int, Any]:
        out: dict[int, Any] = {}
        for sec in self.sections_named(name):
            if sec.arg is None:
                raise ScenarioError(f"[{name}] needs an index", sec.line)
            if sec.arg > SECTION_INDEX_CEILING:
                raise ScenarioError(
                    f"[{name} {sec.arg}] has an index above the section "
                    f"index ceiling {SECTION_INDEX_CEILING}", sec.line)
            out[sec.arg] = build(sec)
        return out


_KV_RE = re.compile(r"^([A-Za-z_][\w-]*)\s*=\s*(.*)$")
_SECTION_RE = re.compile(r"^\[([a-z-]+)(?:\s+(\d+))?\]$")


def parse_scenario(text: str) -> Scenario:
    params: dict[str, Any] = {}
    sections: list[_Section] = []
    current: _Section | None = None
    seen: set[tuple[str, int | None]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            m = _SECTION_RE.match(line)
            if not m:
                raise ScenarioError(f"bad section header {line!r}", lineno)
            name, arg = m.group(1), m.group(2)
            key = (name, int(arg) if arg is not None else None)
            if key in seen:
                raise ScenarioError(f"duplicate section {line}", lineno)
            seen.add(key)
            current = _Section(name=key[0], arg=key[1], line=lineno)
            sections.append(current)
            continue
        kv = _KV_RE.match(line)
        if kv:
            target = params if current is None else current.params
            if kv.group(1) in target:
                raise ScenarioError(f"duplicate key {kv.group(1)!r}", lineno)
            target[kv.group(1)] = kv.group(2).strip()
            continue
        if ":" in line:
            if current is None:
                raise ScenarioError("row outside any section", lineno)
            lhs, rhs = line.split(":", 1)
            current.rows.append((lineno, lhs.strip(), rhs.strip()))
            continue
        raise ScenarioError(f"cannot parse {line!r}", lineno)

    construction = params.pop("construction", None)
    if construction is None:
        raise ScenarioError("missing top-level 'construction = ...' parameter")
    if construction not in CONSTRUCTIONS:
        raise ScenarioError(
            f"unknown construction {construction!r}; "
            f"expected one of {', '.join(CONSTRUCTIONS)}"
        )
    return Scenario(construction, _coerce_params(params), sections)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fp:
        return parse_scenario(fp.read())


_INT_PARAMS = {"stages", "maxdeg", "modulus", "unit_exponent", "base",
               "levels", "ubound", "coded_bound"}


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


def _coerce_params(params: dict[str, str]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for key, value in params.items():
        if key in _INT_PARAMS:
            try:
                out[key] = int(value)
            except ValueError:
                raise ScenarioError(f"parameter {key} must be an integer, "
                                    f"got {value!r}") from None
        elif key == "epsilon":
            out[key] = parse_epsilon(value)
        else:
            out[key] = value
    return out


def _row_stage(lhs: str, lineno: int) -> int:
    try:
        return int(lhs)
    except ValueError:
        raise ScenarioError(f"bad stage {lhs!r}", lineno) from None


def _int_stream(sec: _Section, stages: int) -> StageSet:
    mode = sec.params.get("mode", "rows")
    if mode == "rows":
        rows = []
        for lineno, lhs, rhs in sec.rows:
            stage = _row_stage(lhs, lineno)
            try:
                rows.append((int(rhs), stage))
            except ValueError:
                raise ScenarioError(f"bad integer payload {rhs!r}",
                                    lineno) from None
        return StageSet.from_rows(rows)
    if mode == "steady":
        period = int(sec.params.get("period", 1))
        start = int(sec.params.get("start", 1))
        count = int(sec.params.get("count", stages))
        if period < 1:
            raise ScenarioError("steady period must be >= 1", sec.line)
        return StageSet.generated(range(count), count, start, period)
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
        rows = []
        for lineno, lhs, rhs in sec.rows:
            stage = _row_stage(lhs, lineno)
            try:
                rows.append((Poly.parse(rhs, p), stage))
            except ValueError as exc:
                raise ScenarioError(f"bad polynomial {rhs!r}: {exc}",
                                    lineno) from None
        return StageSet.from_rows(rows)
    if mode == "monomials":
        rate = int(sec.params.get("rate", 1))
        if rate < 1:
            raise ScenarioError("monomial rate must be >= 1", sec.line)
        # entry i sits at stage i // rate; the stage budget and the degree
        # horizon (2 ** (maxdeg + 1) - 1 monomials) both cut the column
        n = max(0, min((stages + 1) * rate, (1 << (maxdeg + 1)) - 1))
        return StageSet.generated(_MonomialColumn(n, p), n, rate=rate)
    raise ScenarioError(f"unknown stream mode {mode!r}", sec.line)


_TOKEN_X = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")
_TOKEN_RANGE = re.compile(r"^xrange:(\d+):(\d+)(?:\^(-?\d+))?$")
_ARGSPEC = re.compile(r"^(\d+)(?:\.\.(\d+))?(?:/(even|odd))?$")


def _parse_word(tokens: list[str], lineno: int) -> tuple[tuple[int, int], ...]:
    word: list[tuple[int, int]] = []
    for tok in tokens:
        m = _TOKEN_X.match(tok)
        if m:
            word.append((int(m.group(1)), int(m.group(2) or 1)))
            continue
        m = _TOKEN_RANGE.match(tok)
        if m:
            lo, hi = int(m.group(1)), int(m.group(2))
            exp = int(m.group(3) or 1)
            if hi < lo:
                raise ScenarioError(f"empty range in {tok!r}", lineno)
            if hi > GENERATOR_CEILING:
                raise ScenarioError(
                    f"range end {hi} in {tok!r} is above the generator "
                    f"ceiling {GENERATOR_CEILING}", lineno)
            word.extend((k, exp) for k in range(lo, hi))
            continue
        raise ScenarioError(f"bad word token {tok!r}", lineno)
    return tuple(word)


def _parse_args(spec: str, lineno: int) -> range:
    m = _ARGSPEC.match(spec)
    if not m:
        raise ScenarioError(f"bad argument spec {spec!r}", lineno)
    lo = int(m.group(1))
    if m.group(2) is None:
        if m.group(3) is not None:
            raise ScenarioError("parity filter needs a range", lineno)
        return range(lo, lo + 1)
    hi = int(m.group(2))
    if hi < lo:
        raise ScenarioError(f"empty argument range {spec!r}", lineno)
    parity = {"even": 0, "odd": 1}.get(m.group(3))
    if parity is None:
        args = range(lo, hi + 1)
    else:
        args = range(lo + (lo - parity) % 2, hi + 1, 2)
    # counted by arithmetic: len() overflows on a range past sys.maxsize
    count = (args.stop - args.start + args.step - 1) // args.step
    if count > GENERATOR_CEILING:
        raise ScenarioError(
            f"argument range {spec!r} holds {count} arguments, above "
            f"the generator ceiling {GENERATOR_CEILING}", lineno)
    return args


def _phi_stub(sec: _Section) -> dict[int, PhiEntry]:
    stub: dict[int, PhiEntry] = {}
    for lineno, lhs, rhs in sec.rows:
        parts = rhs.split()
        if not parts:
            raise ScenarioError("stub row needs a converge stage", lineno)
        try:
            converge = int(parts[0])
        except ValueError:
            raise ScenarioError(f"bad converge stage {parts[0]!r}",
                                lineno) from None
        entry = PhiEntry(converge, _parse_word(parts[1:], lineno))
        for arg in _parse_args(lhs, lineno):
            if arg in stub:
                raise ScenarioError(f"argument {arg} defined twice", lineno)
            stub[arg] = entry
    return stub


def _functional(sec: _Section) -> FunctionalStub:
    try:
        converge = int(sec.params["converge"])
        use = int(sec.params["use"])
    except KeyError as exc:
        raise ScenarioError(f"functional needs {exc.args[0]}",
                            sec.line) from None
    pairs: list[tuple[int, int]] = []
    for chunk in sec.params.get("pairs", "").split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            a, b = chunk.split("-")
            pairs.append((int(a), int(b)))
        except ValueError:
            raise ScenarioError(f"bad pair {chunk!r} in pairs",
                                sec.line) from None
    return FunctionalStub(ident=sec.arg or 0, converge_stage=converge,
                          use=use, required_pairs=tuple(pairs))


def _sum_functional(sec: _Section) -> SumFunctionalStub:
    try:
        converge = int(sec.params["converge"])
        use = int(sec.params["use"])
        slots = tuple(s.strip() for s in sec.params["slots"].split(",")
                      if s.strip())
    except KeyError as exc:
        raise ScenarioError(f"sumfunctional needs {exc.args[0]}",
                            sec.line) from None
    return SumFunctionalStub(ident=sec.arg or 0, converge_stage=converge,
                             use=use, slots=slots)
