"""Stage constructions that keep a quotient algebra infinite but dark.

Two interleaved requirement families drive a growing homogeneous ideal:
the light strategies respond to enumerations in their trigger columns by
banking a fresh monomial (or the corresponding unit-group word) whose
degree they then protect, while the collapse strategies wait for two
listed words to become equal in the current bounded quotient and then
enumerate the difference's high-degree components as new relators.  The
relation budget is audited in exact rationals at stage 0 and after each
stage that logs a record, the only stages that change it; a violation aborts
the run with the offending degree, since it means the construction left
the regime where fresh monomials are guaranteed.

The requirements only decide and log.  `start` builds the empty result a
header describes, and `apply_record` alone turns a logged record into the
result's ideal, transversals, protections, witnesses and audit failure,
for the run as each record is logged and for replay of a finished log, as
`star.apply_record` does for a star result.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Any, Mapping

from . import replay
from .algebra import (
    MAXDEG_CEILING,
    HomogeneousIdeal,
    HorizonError,
    Monomial,
    Poly,
    gs_audit,
    monomial_to_unit_word,
)
from .ceers import StageSet
from .engine import ActionRecord, ConstructionRun, PriorityEngine, Requirement, RunLog

__all__ = ["run_dark", "start", "apply_record", "run_scenario", "summary",
           "collapse_floor", "RECORDS", "HEADER", "SUITES"]


def collapse_floor(m: int) -> int:
    """The least degree floor at which collapse strategy D_m compares its
    words; a run whose horizon lies below it cannot reduce them."""
    return m + 10


@dataclass
class DarkRunResult(ConstructionRun):
    ideal: HomogeneousIdeal
    epsilon: Fraction  # the relation budget's sparsity parameter
    transversals: dict[int, list[dict[str, Any]]] = field(default_factory=dict)
    protected: dict[int, list[int]] = field(default_factory=dict)
    witnesses: dict[int, dict[str, Any]] = field(default_factory=dict)
    gs_failure: dict[str, Any] | None = None

    def unit_words(self, n: int) -> list[tuple[str, ...]]:
        return [tuple(entry["word"].split()) for entry in self.transversals.get(n, [])]

    def protected_upto(self, n: int) -> int:
        """Largest degree protected by the light strategies with index <= n."""
        return max((max(degs) for i, degs in self.protected.items()
                    if i <= n and degs), default=0)


def _rational(value: Any, entries: bool = False) -> None:
    """The text of a rational, such as "1/4"."""
    if type(value) is str:
        try:
            Fraction(value)
            return
        except (ValueError, ZeroDivisionError):
            pass
    raise replay.expected("a rational such as '1/4'", value)


# the header params `start` reads, as `replay` describes
HEADER = {"stages": replay.as_is, "maxdeg": replay.integer,
          "modulus": replay.integer, "epsilon": _rational}


def start(log: RunLog) -> DarkRunResult:
    """The empty result a dark header describes: its audit's `epsilon`, a
    rational, and an ideal over its modulus, with a `maxdeg` in
    [0, MAXDEG_CEILING]."""
    params = log.header["params"]
    modulus, epsilon = params["modulus"], Fraction(params["epsilon"])
    maxdeg = params["maxdeg"]
    if not 0 <= maxdeg <= MAXDEG_CEILING:
        raise ValueError(f"bad maxdeg {maxdeg}: must lie in "
                         f"[0, {MAXDEG_CEILING}]")
    ideal = HomogeneousIdeal(p=modulus, maxdeg=maxdeg)
    return DarkRunResult(log.header["construction"], params, params["stages"],
                         log, ideal=ideal, epsilon=epsilon)


_TEXTS = replay.each(replay.text)
# the records `apply_record` and `membership` read, by kind and action, as
# `replay` describes
RECORDS = {
    ("init", "seed-ideal"): {"relators": _TEXTS},
    ("L", "enumerate-witness"): {
        "requirement": replay.requirement, "degree": replay.nonnegative,
        "monomial": replay.text, "word": replay.text,
        "protected": replay.each(replay.nonnegative)},
    ("D", "collapse-pair"): {
        "requirement": replay.requirement, "relators": _TEXTS,
        "f": replay.text, "g": replay.text,
        "degree_floor": replay.nonnegative,
        "relator_degrees": replay.each(replay.nonnegative),
        "reinitialized": replay.optional(replay.each(replay.requirement))},
    ("audit", "gs-failure"): {},
}


def apply_record(result: DarkRunResult, record: ActionRecord) -> None:
    """Apply one logged dark record to its result: the relators it adds to
    the ideal, the witness it banks or the collapse it records, the audit
    failure it reports, and the light strategies it injures.  The run calls
    this on each record it logs and replay on each record it reads, once
    `replay.decode` has checked it against `RECORDS`, so both build the
    same state."""
    details, p = record.details, result.ideal.p
    if record.action in ("seed-ideal", "collapse-pair"):
        added = [Poly.parse(text, p) for text in details["relators"]]
        for poly in added:
            result.ideal.add_generator(poly)
        if record.action == "collapse-pair":
            result.witnesses[int(record.requirement[1:])] = {
                "f": Poly.parse(details["f"], p),
                "g": Poly.parse(details["g"], p),
                "stage": record.stage,
                "degree_floor": details["degree_floor"],
                "added": added,
            }
            for name in details.get("reinitialized", ()):
                if name.startswith("L"):
                    # the banked set is discarded wholesale
                    result.transversals[int(name[1:])] = []
                    result.protected[int(name[1:])] = []
    elif record.action == "enumerate-witness":
        n = int(record.requirement[1:])
        result.transversals.setdefault(n, []).append({
            "degree": details["degree"],
            "monomial": details["monomial"],
            "word": details["word"],
            "stage": record.stage,
        })
        result.protected[n] = list(details["protected"])
    elif record.action == "gs-failure":
        result.gs_failure = {"stage": record.stage, **details}


class _DarkState:
    """What the run decides from: the result its records built, and the
    largest degree it ever banked, which an injury does not take back."""

    def __init__(self, mode: str, result: DarkRunResult):
        self.mode = mode
        self.result = result
        self.ideal = result.ideal
        self.max_used_degree = 0

    def fresh_degree(self) -> int:
        # every protected degree was banked, so max_used_degree covers it
        k = max([self.max_used_degree, *self.ideal.counts()]) + 1
        if k > self.ideal.maxdeg:
            raise HorizonError(
                f"fresh degree {k} exceeds the configured horizon {self.ideal.maxdeg}"
            )
        return k


class _LightReq(Requirement):
    """Bank one fresh surviving monomial per trigger entry; protect its degree."""

    kind = "L"
    injures_lower = False

    def __init__(self, n: int, column: StageSet | None, state: _DarkState):
        super().__init__(f"L{n}")
        self.n = n
        self.column = column
        self.state = state
        self.consumed = 0

    def ready(self, stage: int) -> bool:
        return self.column is not None and self.column.count_at(stage) > self.consumed

    def act(self, stage: int) -> dict[str, Any]:
        # an injury discards the banked set but not the consumed entries
        self.consumed += 1
        k = self.state.fresh_degree()
        m = self.state.ideal.first_nonmember(k)
        if m is None:
            raise RuntimeError(
                f"no monomial of degree {k} survives the ideal; relation budget was broken"
            )
        self.state.max_used_degree = max(self.state.max_used_degree, k)
        if self.state.mode == "group":
            word = " ".join(monomial_to_unit_word(m))
        else:
            word = str(Poly.monomial(m, self.state.ideal.p))
        return {
            "action": "enumerate-witness",
            "degree": k,
            "monomial": m.word,
            "word": word,
            "protected": self.state.result.protected.get(self.n, []) + [k],
        }


class _CollapseReq(Requirement):
    """Merge the first two listed words that agree in the bounded quotient."""

    kind = "D"

    def __init__(self, m: int, column: StageSet | None, state: _DarkState):
        super().__init__(f"D{m}")
        self.m = m
        self.column = column
        self.state = state
        self.acted = False
        self._cache_key: tuple[int, int] | None = None
        self._canon_seen: dict[Poly, int] = {}
        self._scanned = 0
        self._found: tuple[int, int, int] | None = None

    def _degree_floor(self) -> int:
        return max(collapse_floor(self.m),
                   self.state.result.protected_upto(self.m))

    def ready(self, stage: int) -> bool:
        if self.acted or self.column is None:
            return False
        k_s = self._degree_floor()
        key = (k_s, self.state.ideal.version)
        if key != self._cache_key:
            self._cache_key = key
            self._canon_seen = {}
            self._scanned = 0
            self._found = None
        if self._found is not None:
            return True
        avail = self.column.count_at(stage)
        while self._scanned < avail:
            idx = self._scanned
            poly = self.column[idx][0]
            self._scanned += 1
            canon = self.state.ideal.quotient_reduce(poly, k_s)
            prev = self._canon_seen.get(canon)
            if prev is None:
                self._canon_seen[canon] = idx
            else:
                self._found = (prev, idx, k_s)
                return True
        return False

    def act(self, stage: int) -> dict[str, Any]:
        # collapse strategies act once and are never undone
        i, j, k_s = self._found
        f = self.column[i][0]
        g = self.column[j][0]
        added = [comp for d, comp in (f - g).homogeneous_components().items()
                 if d > k_s]
        self.acted = True
        return {
            "action": "collapse-pair",
            "f": str(f),
            "g": str(g),
            "pair_indices": [i, j],
            "degree_floor": k_s,
            "relators": [str(c) for c in added],
            "relator_degrees": [c.degree() for c in added],
        }


def growth_audit(ideal: HomogeneousIdeal, epsilon: Fraction):
    """The Golod-Shafarevich audit of the ideal's listed generators."""
    counts = ideal.counts()
    return gs_audit(counts, epsilon, max([ideal.maxdeg, 2] + list(counts)))


def run_dark(
    mode: str,
    u_columns: Mapping[int, StageSet],
    w_columns: Mapping[int, StageSet],
    stages: int = 300,
    maxdeg: int = 16,
    p: int = 2,
    epsilon: Fraction = Fraction(1, 4),
    unit_exponent: int = 13,
) -> DarkRunResult:
    """Grow a quotient of the free algebra whose word problem resists listing.

    Trigger columns feed the monomial-banking strategies; the word
    columns feed the collapse strategies.  Returns the finished ideal,
    the banked transversal candidates, the collapse witnesses, and the
    full action log.  Mode "group" (not "ring") builds the unit-group
    presentation: the ideal is seeded with x^N and y^N, N = `unit_exponent`,
    so that 1+x and 1+y are invertible, and banked witnesses are recorded as
    words over the unit generators instead of bare monomials.
    """
    epsilon = Fraction(epsilon)
    params = {
        "mode": mode,
        "stages": stages,
        "maxdeg": maxdeg,
        "modulus": p,
        "epsilon": str(epsilon),
    }
    if mode == "group":
        params["unit_exponent"] = unit_exponent
    log = RunLog({"construction": f"dark-{mode}", "params": params})
    result = start(log)
    state = _DarkState(mode, result)

    if mode == "group":
        if unit_exponent < 2:
            raise ValueError("unit exponent must be at least 2")
        seeds = [
            Poly.monomial(Monomial(unit_exponent, 0), p),
            Poly.monomial(Monomial(unit_exponent, (1 << unit_exponent) - 1), p),
        ]
        apply_record(result, log.add(0, "init", "init", "seed-ideal",
                                     relators=[str(s) for s in seeds]))

    def audit_fails(stage: int) -> bool:
        verdict = growth_audit(state.ideal, epsilon)
        if verdict.ok:
            return False
        detail = {"degree": verdict.failed_degree, "count": verdict.count}
        if verdict.bound is not None:
            detail["bound"] = str(verdict.bound)
        if verdict.reason:
            detail["reason"] = verdict.reason
        apply_record(result, log.add(stage, "audit", "audit", "gs-failure",
                                     **detail))
        return True

    if audit_fails(0):
        return result

    top = max(list(u_columns) + list(w_columns), default=-1)
    reqs: list[Requirement] = []
    for idx in range(top + 1):
        reqs.append(_LightReq(idx, u_columns.get(idx), state))
        reqs.append(_CollapseReq(idx, w_columns.get(idx), state))
    engine = PriorityEngine(reqs, log, partial(apply_record, result))
    for stage in range(1, stages + 1):
        # only a logged record changes the ideal's counts, the audit's input
        if engine.run_stage(stage) is not None and audit_fails(stage):
            break
    return result


def run_scenario(scn, params: dict[str, Any]) -> DarkRunResult:
    """The run a dark scenario's sections and merged `params` describe."""
    stages = params.get("stages", 300)
    maxdeg = params.get("maxdeg", 16)
    p = params.get("modulus", 2)
    return run_dark(scn.construction.removeprefix("dark-"),
                    scn.int_columns("ucolumn", stages),
                    scn.poly_columns("wcolumn", stages, maxdeg, p,
                                     collapse_floor),
                    stages=stages, maxdeg=maxdeg, p=p,
                    epsilon=params.get("epsilon", Fraction(1, 4)),
                    unit_exponent=params.get("unit_exponent", 13))


def summary(result: DarkRunResult) -> list[str]:
    """The run summary's lines on transversals, witnesses and the audit."""
    lines = []
    for n in sorted(result.transversals):
        entries = result.transversals[n]
        degs = " ".join(str(e["degree"]) for e in entries)
        lines.append(f"transversal T{n}: {len(entries)} entries, degrees {degs}")
    for m in sorted(result.witnesses):
        w = result.witnesses[m]
        degs = " ".join(str(c.degree()) for c in w["added"])
        lines.append(f"witness D{m}: stage {w['stage']}, floor "
                     f"{w['degree_floor']}, relator degrees [{degs}]")
    gf = result.gs_failure
    lines.append("gs audit: pass at every stage" if gf is None else
                 f"gs audit: FAILED at stage {gf['stage']} degree "
                 f"{gf['degree']}")
    return lines


def _membership(log: RunLog, result: DarkRunResult) -> tuple[bool, list[str]]:
    """Banked words are fresh, floors kept, audits pass, witnesses hold."""
    ideal = result.ideal
    lines: list[str] = []  # one a failure
    for rec, _ in replay.steps(log, result):
        obj = rec.details
        if rec.action == "enumerate-witness":
            if ideal.member(Poly.monomial(Monomial.from_word(obj["monomial"]),
                                          ideal.p)):
                lines.append(f"stage {rec.stage}: banked monomial "
                             f"{obj['monomial']} already lies in the ideal")
        elif rec.action == "collapse-pair":
            floor = obj["degree_floor"]
            ceiling = result.protected_upto(int(rec.requirement[1:]))
            if floor < ceiling:
                lines.append(f"stage {rec.stage}: {rec.requirement} floor "
                             f"{floor} below protected degree {ceiling}")
            lines.extend(f"stage {rec.stage}: relator of degree {deg} violates "
                         f"floor {floor} / protections {ceiling}"
                         for deg in obj["relator_degrees"]
                         if deg <= floor or (ceiling and deg <= ceiling))
        elif rec.action == "gs-failure":
            lines.append(f"stage {rec.stage}: run itself recorded an audit "
                         "failure")
        verdict = growth_audit(ideal, result.epsilon)
        if verdict.failed_degree is not None:
            lines.append(f"stage {rec.stage}: growth audit fails at degree "
                         f"{verdict.failed_degree} (count {verdict.count})")
        elif not verdict.ok:
            lines.append(f"stage {rec.stage}: growth audit fails: "
                         f"{verdict.reason}")
    lines.extend(f"witness difference ({w['f']}) - ({w['g']}) is not in the "
                 "final ideal" for w in result.witnesses.values()
                 if not ideal.member(w["f"] - w["g"]))
    ok = not lines
    lines.append(f"replayed {len(log.records)} records; "
                 f"{len(result.witnesses)} witness pairs checked"
                 + ("" if ok else "; FAILURES above"))
    return ok, lines


# the `verify` suites of dark logs, as `replay` describes
SUITES = {"membership": ("membership suite", _membership)}
