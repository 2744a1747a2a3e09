"""Command line: run scenarios, verify run logs, probe ceer dumps.

    ceerlab run scenario.txt [--stages N] [--out log.jsonl] ...
    ceerlab verify log.jsonl SUITE
    ceerlab probe dump.jsonl SUBCOMMAND ...

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or input error.
All output is deterministic; reruns write byte-identical logs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Any

from . import replay
from .algebra import Monomial, Poly
from .ceers import (
    CeerTable,
    PartialityError,
    ReductionFn,
    StageRegressionError,
    product,
    pullback,
    uniform_join,
    verify_reduction,
)
from .dark import DarkRunResult, growth_audit
from .engine import RunLog
from .groups import TriangularityError, validate_relation_stream
from .indexset import SugResult
from .pairing import pair
from .scenario import ScenarioError, load_scenario, parse_epsilon
from .sigma3 import Sigma3Result
from .star import StarResult, check_size, level_normal_form

__all__ = ["main", "cmd_run", "cmd_verify", "cmd_probe"]

SUITES = ("triangularity", "level-census", "vi-vs-U", "membership")

# A table costs memory linear in the largest index its pairs name: about
# 50 MB peak RSS at the ceiling.
PROBE_BOUND_CEILING = 1_000_000

# verify-reduction checks every pair of indices below its bound, about 2 us a
# pair on a 2-vCPU x86-64 machine: bounds 500, 1,000 and 1,414 took 0.26,
# 1.0 and 2.0 s in-process, so the ceiling allows bound 1,414.
VERIFY_PAIR_CEILING = 1_000_000

_STAR_LOGS = ("star-universal",)
_DARK_LOGS = ("dark-ring", "dark-group")


# -- run ---------------------------------------------------------------------


def _summarize(result) -> list[str]:
    lines = [
        f"construction: {result.construction}",
        f"stages: {result.stages}",
        f"records: {len(result.log.records)}",
    ]
    by_req: dict[str, list[str]] = {}
    for rec in result.log.records:
        by_req.setdefault(rec.requirement, []).append(f"{rec.action}@{rec.stage}")
    for req, actions in by_req.items():
        if len(actions) > 8:
            shown = " ".join(actions[:3])
            lines.append(f"  {req}: {shown} ... ({len(actions)} actions)")
        else:
            lines.append(f"  {req}: {' '.join(actions)}")
    if isinstance(result, DarkRunResult):
        for n in sorted(result.transversals):
            entries = result.transversals[n]
            degs = " ".join(str(e["degree"]) for e in entries)
            lines.append(f"transversal T{n}: {len(entries)} entries, degrees {degs}")
        for m in sorted(result.witnesses):
            w = result.witnesses[m]
            degs = " ".join(str(c.degree()) for c in w["added"])
            lines.append(
                f"witness D{m}: stage {w['stage']}, floor {w['degree_floor']}, "
                f"relator degrees [{degs}]"
            )
        if result.gs_failure is None:
            lines.append("gs audit: pass at every stage")
        else:
            gf = result.gs_failure
            lines.append(
                f"gs audit: FAILED at stage {gf['stage']} degree {gf['degree']}"
            )
    elif isinstance(result, Sigma3Result):
        for k in sorted(result.columns):
            lines.append(f"column C{k} -> {result.columns[k]}")
        for m in sorted(result.restraints):
            lines.append(f"restraint L{m}: use={result.restraints[m]}")
    elif isinstance(result, StarResult):
        lines.append(
            "collapsed levels: "
            + (" ".join(map(str, sorted(result.collapsed_levels))) or "none")
        )
        xp = " ".join(f"({a},{b})@{s}" for a, b, s in result.table.pairs)
        lines.append(f"output table pairs: {xp or 'none'}")
        for j in range(result.levels + 1):
            census = result.census(j, result.stages)
            cs = " ".join(f"{k}={v}" for k, v in sorted(census.items()))
            lines.append(f"census level {j}: {cs}")
    elif isinstance(result, SugResult):
        for req in sorted(result.assignments):
            lines.append(f"slot {req} -> {result.assignments[req]}")
        for m in sorted(result.restraints):
            r = result.restraints[m]
            lines.append(
                f"restraint L{m}: " + (",".join(r) if r else "none")
            )
    return lines


def cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    overrides: dict[str, Any] = {
        "stages": args.stages,
        "maxdeg": args.maxdeg,
        "base": args.base,
        "levels": args.levels,
        "modulus": args.modulus,
        "unit_exponent": args.unit_exponent,
    }
    try:
        if args.epsilon is not None:
            overrides["epsilon"] = parse_epsilon(args.epsilon)
        result = scenario.run(overrides)
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = args.out
    if out is None:
        out = os.path.splitext(args.scenario)[0] + ".log.jsonl"
    result.log.dump(out)
    for line in _summarize(result):
        print(line)
    print(f"log: {out}")
    if isinstance(result, DarkRunResult) and result.gs_failure is not None:
        return 1
    return 0


# -- verify ------------------------------------------------------------------


def _want_constructions(log: RunLog, allowed: tuple[str, ...],
                        suite: str) -> str | None:
    construction = log.header.get("construction", "<missing>")
    if construction not in allowed:
        return (
            f"suite {suite!r} applies to {', '.join(allowed)} logs, "
            f"got {construction!r}"
        )
    return None


def _want_star_log(log: RunLog, suite: str) -> str | None:
    """Why a log is no star log, or why its header's shape is too large;
    checked before any level's letters are listed."""
    err = _want_constructions(log, _STAR_LOGS, suite)
    if err:
        return err
    params = log.header["params"]
    try:
        check_size(params["base"], params["levels"])
    except ValueError as exc:
        return str(exc)
    return None


def _suite_triangularity(log: RunLog) -> tuple[bool, list[str]]:
    err = _want_constructions(
        log, ("star-universal", "sug-indexset"), "triangularity")
    if err:
        return False, [f"error: {err}"]
    streams = replay.relator_streams(log)
    total = sum(len(s) for s in streams.values())
    if total == 0:
        return True, ["warning: no relators in log; triangularity passes "
                      "vacuously"]
    lines = []
    ok = True
    for name in sorted(streams):
        try:
            validate_relation_stream(streams[name])
            lines.append(f"{name}: {len(streams[name])} relators triangular, "
                         "stages nondecreasing")
        except (TriangularityError, StageRegressionError) as exc:
            ok = False
            lines.append(f"{name}: FAIL: {exc}")
    return ok, lines


def _suite_level_census(log: RunLog) -> tuple[bool, list[str]]:
    err = _want_star_log(log, "level-census")
    if err:
        return False, [f"error: {err}"]
    params = log.header["params"]
    base, levels = params["base"], params["levels"]
    uni = replay.universal_table(params)
    if not log.records:
        return True, ["warning: empty log; census passes vacuously"]
    try:
        pres = replay.star_presentation(log)
    except (TriangularityError, StageRegressionError) as exc:
        return False, [f"relation stream rejected: {exc}"]
    ok = True
    lines: list[str] = []
    checks = 0
    points = replay.census_checkpoints(log)
    for point in points:
        for j in range(levels + 1):
            if j < uni.bound and any(uni.related(i, j, point)
                                     for i in range(j)):
                continue  # a lower level heads j's class
            count = pres.census_at(j, point)["level"]
            checks += 1
            if count <= base ** j:
                ok = False
                lines.append(
                    f"stage {point}: level {j} holds {count} active "
                    f"generators, needs > {base ** j}"
                )
    lines.append(f"{checks} census checks at {len(points)} checkpoints"
                 + ("" if ok else "; FAILURES above"))
    return ok, lines


def _suite_vi_vs_u(log: RunLog) -> tuple[bool, list[str]]:
    err = _want_star_log(log, "vi-vs-U")
    if err:
        return False, [f"error: {err}"]
    params = log.header["params"]
    base, levels = params["base"], params["levels"]
    uni = replay.universal_table(params)
    if not log.records:
        return True, ["warning: empty log; equivalence suite passes vacuously"]
    try:
        pres = replay.star_presentation(log)
    except (TriangularityError, StageRegressionError) as exc:
        return False, [f"relation stream rejected: {exc}"]
    ok = True
    lines: list[str] = []
    checks = 0
    for point in replay.census_checkpoints(log):
        forms = [level_normal_form(pres, base, j, point)
                 for j in range(levels + 1)]
        for i in range(levels + 1):
            for j in range(i + 1, levels + 1):
                eq = forms[i] == forms[j]
                rel = (max(i, j) < uni.bound) and uni.related(i, j, point)
                checks += 1
                if eq != rel:
                    ok = False
                    lines.append(
                        f"stage {point}: level words {i},{j} "
                        f"{'equal' if eq else 'differ'} but universal table "
                        f"says {'related' if rel else 'unrelated'}"
                    )
    lines.append(f"{checks} word/table comparisons"
                 + ("" if ok else "; FAILURES above"))
    return ok, lines


def _suite_membership(log: RunLog) -> tuple[bool, list[str]]:
    err = _want_constructions(log, _DARK_LOGS, "membership")
    if err:
        return False, [f"error: {err}"]
    params = log.header["params"]
    p = params["modulus"]
    epsilon = Fraction(params["epsilon"])
    protections: dict[str, list[int]] = {}
    witnesses: list[tuple[str, str]] = []
    ok = True
    lines: list[str] = []
    if not log.records:
        return True, ["warning: empty log; membership suite passes vacuously"]

    for rec, ideal in replay.dark_steps(log):
        obj = rec.details
        if rec.action == "enumerate-witness":
            poly = Poly.monomial(Monomial.from_word(obj["monomial"]), p)
            if ideal.member(poly):
                ok = False
                lines.append(
                    f"stage {rec.stage}: banked monomial {obj['monomial']} "
                    "already lies in the ideal"
                )
            protections[rec.requirement] = list(obj["protected"])
        elif rec.action == "collapse-pair":
            floor = obj["degree_floor"]
            m_idx = int(rec.requirement[1:])
            ceiling = 0
            for name, degs in protections.items():
                if name.startswith("L") and int(name[1:]) <= m_idx and degs:
                    ceiling = max(ceiling, max(degs))
            if floor < ceiling:
                ok = False
                lines.append(
                    f"stage {rec.stage}: {rec.requirement} floor {floor} "
                    f"below protected degree {ceiling}"
                )
            for deg in obj["relator_degrees"]:
                if deg <= floor or (ceiling and deg <= ceiling):
                    ok = False
                    lines.append(
                        f"stage {rec.stage}: relator of degree {deg} violates "
                        f"floor {floor} / protections {ceiling}"
                    )
            witnesses.append((obj["f"], obj["g"]))
        elif rec.action == "gs-failure":
            ok = False
            lines.append(f"stage {rec.stage}: run itself recorded an audit "
                         "failure")
        for name in obj.get("reinitialized", ()):
            protections.pop(name, None)
        verdict = growth_audit(ideal, epsilon)
        if not verdict.ok:
            ok = False
            lines.append(
                f"stage {rec.stage}: growth audit fails at degree "
                f"{verdict.failed_degree} (count {verdict.count})"
            )

    for f_text, g_text in witnesses:
        diff = Poly.parse(f_text, p) - Poly.parse(g_text, p)
        if not ideal.member(diff):
            ok = False
            lines.append(
                f"witness difference ({f_text}) - ({g_text}) is not in the "
                "final ideal"
            )
    lines.append(
        f"replayed {len(log.records)} records; {len(witnesses)} witness "
        "pairs checked" + ("" if ok else "; FAILURES above")
    )
    return ok, lines


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite not in SUITES:
        print(
            f"error: unknown suite {args.suite!r}; choose from "
            f"{', '.join(SUITES)}",
            file=sys.stderr,
        )
        return 2
    try:
        log = RunLog.load(args.log)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read log: {exc}", file=sys.stderr)
        return 2
    suite_fn = {
        "triangularity": _suite_triangularity,
        "level-census": _suite_level_census,
        "vi-vs-U": _suite_vi_vs_u,
        "membership": _suite_membership,
    }[args.suite]
    try:
        ok, lines = suite_fn(log)
    except (KeyError, ValueError, TypeError) as exc:
        print(f"error: malformed log for suite {args.suite}: {exc!r}",
              file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    if lines and lines[0].startswith("error:"):
        return 2
    print(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# -- probe -------------------------------------------------------------------


def _load_table(path: str, bound: int | None) -> CeerTable:
    """A dump as a table; the bound its largest index implies must not pass
    the ceiling, checked before the table is allocated."""
    rows = []
    with open(path) as fh:
        for n, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    rows.append(json.loads(line))
                except RecursionError:
                    raise ValueError(f"dump line {n} nests too deeply") from None
    # stable sort by stage; tolerates hand-made files
    pairs = sorted(((r["a"], r["b"], r["s"]) for r in rows), key=lambda t: t[2])
    top = max((max(a, b) for a, b, _ in pairs), default=0)
    if top >= PROBE_BOUND_CEILING:
        raise ValueError(f"index {top} implies a bound above the ceiling "
                         f"{PROBE_BOUND_CEILING}")
    return CeerTable.from_pairs(pairs, top + 1 if bound is None else bound)


def _parse_map(text: str) -> ReductionFn:
    table: dict[int, tuple[int, int]] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        n, v = map(int, chunk.split(":"))
        for x in (n, v):
            if x >= PROBE_BOUND_CEILING:
                raise ValueError(f"--map value {x} implies a bound above the "
                                 f"ceiling {PROBE_BOUND_CEILING}")
        table[n] = (v, 0)
    if not table:
        raise ValueError("empty map")
    return ReductionFn(table, max(table) + 1)


def _check_output_bound(subcommand: str, bound: int) -> None:
    """product and join build a table whose bound can pass the ceiling while
    every input is under it; refuse it before anything is built."""
    if bound > PROBE_BOUND_CEILING:
        raise ValueError(f"{subcommand} output bound {bound} is above the "
                         f"ceiling {PROBE_BOUND_CEILING}")


def cmd_probe(args: argparse.Namespace) -> int:
    if args.bound is not None and args.bound > PROBE_BOUND_CEILING:
        print(f"error: --bound {args.bound} exceeds the ceiling "
              f"{PROBE_BOUND_CEILING}", file=sys.stderr)
        return 2
    try:
        table = _load_table(args.dump, args.bound)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        print(f"error: cannot read dump: {exc}", file=sys.stderr)
        return 2
    stage = args.stage if args.stage is not None else table.last_stage
    try:
        if args.subcommand == "related":
            print("true" if table.related(args.a, args.b, stage) else "false")
            return 0
        if args.subcommand == "classes":
            for cls in table.classes_at(stage):
                print(json.dumps(cls))
            return 0
        if args.subcommand == "product":
            other = _load_table(args.other, None)
            _check_output_bound("product", pair(max(table.bound - 1, 0),
                                                max(other.bound - 1, 0)) + 1)
            sys.stdout.write(product(table, other).dumps())
            return 0
        if args.subcommand == "join":
            columns = [table] + [_load_table(p, None) for p in args.others]
            _check_output_bound("join", max(
                pair(j, max(col.bound - 1, 0)) + 1
                for j, col in enumerate(columns)))
            sys.stdout.write(uniform_join(columns).dumps())
            return 0
        if args.subcommand == "pullback":
            fn = _parse_map(args.map)
            sys.stdout.write(pullback(fn, table, bound=args.bound).dumps())
            return 0
        if args.subcommand == "verify-reduction":
            fn = _parse_map(args.map)
            target = _load_table(args.target, None)
            need = max(v for v, _ in fn.table.values()) + 1
            if target.bound < need:
                target = _load_table(args.target, need)
            bound = args.bound if args.bound is not None else fn.totality_bound
            pairs = bound * (bound - 1) // 2
            if pairs > VERIFY_PAIR_CEILING:
                raise ValueError(
                    f"verify-reduction bound {bound} has {pairs} index pairs "
                    f"to check, above the ceiling {VERIFY_PAIR_CEILING}")
            if table.bound < bound:
                table = _load_table(args.dump, bound)
            report = verify_reduction(fn, table, target, bound, stage)
            print(report.summary())
            return 0 if report.ok else 1
    except (ValueError, PartialityError, OSError, IndexError, KeyError,
            TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"error: unknown probe subcommand {args.subcommand!r}",
          file=sys.stderr)
    return 2


# -- argument plumbing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ceerlab",
        description="stage-table constructions: run scenarios, verify logs, "
                    "probe ceer dumps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a scenario file")
    runp.add_argument("scenario")
    runp.add_argument("--stages", type=int)
    runp.add_argument("--maxdeg", type=int)
    runp.add_argument("--base", type=int)
    runp.add_argument("--levels", type=int)
    runp.add_argument("--epsilon", help='rational like "1/4"')
    runp.add_argument("--modulus", type=int)
    runp.add_argument("--unit-exponent", dest="unit_exponent", type=int)
    runp.add_argument("--out")
    runp.set_defaults(func=cmd_run)

    verp = sub.add_parser("verify", help="check an invariant suite on a log")
    verp.add_argument("log")
    verp.add_argument("suite", help=", ".join(SUITES))
    verp.set_defaults(func=cmd_verify)

    probep = sub.add_parser("probe", help="query ceer dump files")
    psub = probep.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("dump")
        sp.add_argument("--stage", type=int)
        sp.add_argument("--bound", type=int)
        sp.set_defaults(func=cmd_probe)

    sp = psub.add_parser("related")
    common(sp)
    sp.add_argument("a", type=int)
    sp.add_argument("b", type=int)

    sp = psub.add_parser("classes")
    common(sp)

    sp = psub.add_parser("product")
    common(sp)
    sp.add_argument("other")

    sp = psub.add_parser("join")
    common(sp)
    sp.add_argument("others", nargs="*")

    sp = psub.add_parser("pullback")
    common(sp)
    sp.add_argument("--map", required=True,
                    help='finite map "0:3,1:4,2:3"')

    sp = psub.add_parser("verify-reduction")
    common(sp)
    sp.add_argument("target")
    sp.add_argument("--map", required=True)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)

