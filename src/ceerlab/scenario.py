"""Text scenarios: reproducible input scripts for the constructions.

Format (see scenarios/ for complete shipped examples):

    # comment
    construction = dark-ring      # which runner to invoke
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
`7`, `0..40`, or `0..40/even` (at most star.GENERATOR_CEILING arguments).
Word tokens are `x12`, `x12^-3`, and `xrange:100:998` (half-open index
range, exponent 1, ending at most at star.GENERATOR_CEILING).

Stream sections support three modes: explicit rows, `steady`
(arithmetic stage progression of the values 0,1,2,...), and
`monomials` (all monomials in index order at a fixed per-stage rate).
The last two are generated: entry i is computed when it is read, so such
a column holds O(1) state however many entries it has.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

from .algebra import Monomial, Poly
from .ceers import CeerTable, FunctionalStub, StageSet
from .dark import run_dark_group, run_dark_ring
from .engine import ConstructionRun
from .indexset import SumFunctionalStub, run_sug_indexset
from .sigma3 import run_sigma3_ceer
from .star import GENERATOR_CEILING, PhiEntry, check_size, run_star_universal

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "load_scenario"]

CONSTRUCTIONS = (
    "dark-ring",
    "dark-group",
    "sigma3",
    "star-universal",
    "sug-indexset",
)


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
        parameters; the stage count and degree horizon are checked once
        merged, whichever of the two supplied them."""
        params = dict(self.params)
        if overrides:
            params.update({k: v for k, v in overrides.items() if v is not None})
        for key, top in (("stages", STAGE_CEILING), ("maxdeg", MAXDEG_CEILING)):
            if key in params and not 0 <= params[key] <= top:
                raise ScenarioError(
                    f"bad {key} {params[key]}: must lie in [0, {top}]")
        return _RUNNERS[self.construction](self, params)


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


# Ceiling on a run's stage count.  The engine visits every stage; run at
# 100,000 stages in-process on a 2-vCPU x86-64 machine, the shipped
# scenarios cost 1.5 us (sug) to 43 us (dark-group) a stage, so a run at the
# ceiling takes at most about 4 s.
STAGE_CEILING = 100_000


# The degree horizon's ceiling: a work budget on banking degrees, word codes
# and the per-stage growth audit, all of which grow with the horizon.
MAXDEG_CEILING = 64


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


def _row_int(sec_row: tuple[int, str, str]) -> tuple[int, int]:
    lineno, lhs, rhs = sec_row
    try:
        return int(lhs), lineno
    except ValueError:
        raise ScenarioError(f"bad stage {lhs!r}", lineno) from None


def _int_stream(sec: _Section, stages: int) -> StageSet:
    mode = sec.params.get("mode", "rows")
    if mode == "rows":
        rows = []
        for lineno, lhs, rhs in sec.rows:
            stage, _ = _row_int((lineno, lhs, rhs))
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
            stage, _ = _row_int((lineno, lhs, rhs))
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


def _pair_table(sec: _Section | None, bound: int,
                where: str) -> CeerTable:
    table = CeerTable(bound=bound)
    if sec is None:
        return table
    rows = []
    for lineno, lhs, rhs in sec.rows:
        stage, _ = _row_int((lineno, lhs, rhs))
        parts = rhs.split()
        if len(parts) != 2:
            raise ScenarioError(f"{where} row needs 'a b', got {rhs!r}", lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ScenarioError(f"bad pair {rhs!r}", lineno) from None
        rows.append((lineno, a, b, stage))
    rows.sort(key=lambda r: (r[3], r[0]))
    for lineno, a, b, stage in rows:
        if not (0 <= a < bound and 0 <= b < bound):
            raise ScenarioError(
                f"pair ({a}, {b}) outside bound {bound}", lineno)
        table.assert_pair(a, b, stage)
    return table


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


def _parse_args(spec: str, lineno: int) -> list[int]:
    m = _ARGSPEC.match(spec)
    if not m:
        raise ScenarioError(f"bad argument spec {spec!r}", lineno)
    lo = int(m.group(1))
    if m.group(2) is None:
        if m.group(3) is not None:
            raise ScenarioError("parity filter needs a range", lineno)
        return [lo]
    hi = int(m.group(2))
    if hi < lo:
        raise ScenarioError(f"empty argument range {spec!r}", lineno)
    parity = {"even": 0, "odd": 1}.get(m.group(3))
    if parity is None:
        args = range(lo, hi + 1)
    else:
        args = range(lo + (lo - parity) % 2, hi + 1, 2)
    if len(args) > GENERATOR_CEILING:
        raise ScenarioError(
            f"argument range {spec!r} holds {len(args)} arguments, above "
            f"the generator ceiling {GENERATOR_CEILING}", lineno)
    return list(args)


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
        word = _parse_word(parts[1:], lineno)
        for arg in _parse_args(lhs, lineno):
            if arg in stub:
                raise ScenarioError(f"argument {arg} defined twice", lineno)
            stub[arg] = PhiEntry(converge, word)
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


def _indexed(scn: Scenario, name: str,
             build: Callable[[_Section], Any]) -> dict[int, Any]:
    out: dict[int, Any] = {}
    for sec in scn.sections_named(name):
        if sec.arg is None:
            raise ScenarioError(f"[{name}] needs an index", sec.line)
        out[sec.arg] = build(sec)
    return out


def _run_dark(scn: Scenario, params: dict[str, Any], mode: str) -> ConstructionRun:
    stages = params.get("stages", 300)
    maxdeg = params.get("maxdeg", 16)
    p = params.get("modulus", 2)
    epsilon = params.get("epsilon", Fraction(1, 4))
    u_columns = _indexed(scn, "ucolumn", lambda s: _int_stream(s, stages))
    w_columns = _indexed(scn, "wcolumn",
                         lambda s: _poly_stream(s, stages, maxdeg, p))
    if mode == "ring":
        return run_dark_ring(u_columns, w_columns, stages=stages,
                             maxdeg=maxdeg, p=p, epsilon=epsilon)
    return run_dark_group(u_columns, w_columns, stages=stages, maxdeg=maxdeg,
                          p=p, epsilon=epsilon,
                          unit_exponent=params.get("unit_exponent", 13))


def _run_sigma3(scn: Scenario, params: dict[str, Any]) -> ConstructionRun:
    stages = params.get("stages", 100)
    uni_sec = scn.section("universal")
    bound = params.get("ubound", _max_pair_index(uni_sec) + 1)
    universal = _pair_table(uni_sec, bound, "universal")
    triggers = _indexed(scn, "wcolumn", lambda s: _int_stream(s, stages))
    functionals = _indexed(scn, "functional", _functional)
    return run_sigma3_ceer(triggers, universal, functionals, stages=stages)


def _max_pair_index(sec: _Section | None) -> int:
    best = 0
    if sec is None:
        return best
    for _, _, rhs in sec.rows:
        for part in rhs.split():
            try:
                best = max(best, int(part))
            except ValueError:
                pass
    return best


def _run_star(scn: Scenario, params: dict[str, Any]) -> ConstructionRun:
    stages = params.get("stages", 500)
    base = params.get("base", 10)
    levels = params.get("levels", 2)
    check_size(base, levels)
    uni_sec = scn.section("universal")
    bound = max(levels + 1, _max_pair_index(uni_sec) + 1)
    universal = _pair_table(uni_sec, bound, "universal")
    phis = _indexed(scn, "phi", _phi_stub)
    return run_star_universal(universal, phis, base=base, levels=levels,
                              stages=stages)


def _run_sug(scn: Scenario, params: dict[str, Any]) -> ConstructionRun:
    stages = params.get("stages", 120)
    v_columns = _indexed(scn, "vcolumn", lambda s: _int_stream(s, stages))
    u_columns = _indexed(scn, "ucolumn", lambda s: _int_stream(s, stages))
    coded_sec = scn.section("coded-universal")
    coded_bound = params.get("coded_bound", _max_pair_index(coded_sec) + 1)
    coded = _pair_table(coded_sec, coded_bound, "coded-universal")
    functionals = _indexed(scn, "sumfunctional", _sum_functional)
    template = scn.section("star-template")
    t_params = template.params if template is not None else {}
    star_base = int(t_params.get("base", 6))
    star_levels = int(t_params.get("levels", 1))
    check_size(star_base, star_levels)
    star_sec = scn.section("star-universal")
    star_bound = max(star_levels + 1, _max_pair_index(star_sec) + 1)
    star_universal = _pair_table(star_sec, star_bound, "star-universal")
    star_phis = _indexed(scn, "star-phi", _phi_stub)
    return run_sug_indexset(
        v_columns, u_columns, coded, functionals,
        star_universal, star_phis,
        star_base=star_base, star_levels=star_levels, stages=stages,
    )


_RUNNERS: dict[str, Callable[[Scenario, dict[str, Any]], ConstructionRun]] = {
    "dark-ring": lambda s, p: _run_dark(s, p, "ring"),
    "dark-group": lambda s, p: _run_dark(s, p, "group"),
    "sigma3": _run_sigma3,
    "star-universal": _run_star,
    "sug-indexset": _run_sug,
}
