"""Command line: run scenarios, verify run logs, probe ceer dumps.

    ceerlab run scenario.txt [--stages N] [--out log.jsonl] ...
    ceerlab verify log.jsonl SUITE
    ceerlab probe dump.jsonl SUBCOMMAND ...

Exit codes: 0 all checks pass, 1 a check failed, 2 usage or input error.
All output is deterministic; reruns write byte-identical logs.  In-process
callers may call `main` repeatedly: it builds its parser on the first call
and looks each command's `cmd_*` function up by name when it runs it.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Any

from . import replay
from .algebra import Monomial, Poly
from .ceers import (
    INDEX_CEILING,
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
from .engine import ActionRecord, ConstructionRun, RunLog
from .groups import TriangularityError
from .pairing import pair
from .scenario import load_scenario, parse_epsilon
from .star import StarResult, level_forms

__all__ = ["main", "cmd_run", "cmd_verify", "cmd_probe"]

# verify-reduction takes time linear in its bound plus its report, but a
# report can list about bound**2 / 2 index pairs, so the ceiling bounds the
# report's size.  In-process on a 2-vCPU x86-64 machine, bound 1,414 took
# 0.01 s with a one-line report, and 0.05, 0.24 and 0.44 s at bounds 500,
# 1,000 and 1,414 to list every pair (11 MB of text at 1,414, written
# 4,096 pairs at a time).
VERIFY_PAIR_CEILING = 1_000_000

# what a malformed log's JSON values raise while a suite reads them
_MALFORMED = (KeyError, ValueError, TypeError, IndexError, AttributeError,
              ArithmeticError)


# -- run ---------------------------------------------------------------------


def _summarize(result: ConstructionRun) -> list[str]:
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
    lines.extend(replay.CONSTRUCTIONS[result.construction].summary(result))
    return lines


def cmd_run(args: argparse.Namespace) -> int:
    overrides: dict[str, Any] = {
        "stages": args.stages,
        "maxdeg": args.maxdeg,
        "base": args.base,
        "levels": args.levels,
        "modulus": args.modulus,
        "unit_exponent": args.unit_exponent,
    }
    try:
        scenario = load_scenario(args.scenario)
        if args.epsilon is not None:
            overrides["epsilon"] = parse_epsilon(args.epsilon)
        result = scenario.run(overrides)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = args.out
    try:
        if out is None:
            out = os.path.splitext(args.scenario)[0] + ".log.jsonl"
            # a rerun rewrites its own log; a log with another header is kept
            header = RunLog(result.log.header).dumps().encode()
            try:
                with open(out, "rb") as fh:
                    foreign = fh.read(len(header)) != header
            except FileNotFoundError:
                foreign = False
            if foreign:
                print(f"error: {out} holds a log with another header; remove "
                      "it or write this run's log elsewhere with --out",
                      file=sys.stderr)
                return 2
        result.log.dump(out)
    except OSError as exc:  # the log path is a directory, say
        print(f"error: cannot write log: {exc}", file=sys.stderr)
        return 2
    for line in _summarize(result):
        print(line)
    print(f"log: {out}")
    # a logged audit failure fails the run, as it fails `membership`
    failed = any(rec.action == "gs-failure" for rec in result.log.records)
    return 1 if failed else 0


# -- verify ------------------------------------------------------------------


def _refused(log: RunLog,
             result: ConstructionRun) -> tuple[ActionRecord, ValueError] | None:
    """Apply each record of the log to `result`; the first record whose
    relation or stage the presentation refuses, with its error, or None."""
    applied = 0
    try:
        for applied, _ in enumerate(replay.steps(log, result), start=1):
            pass
    except (TriangularityError, StageRegressionError) as exc:
        return log.records[applied], exc
    return None


def _suite_triangularity(log: RunLog,
                         result: ConstructionRun) -> tuple[bool, list[str]]:
    """Each relation added to the main presentation or to a sug group
    slot's must be triangular and in stage order."""
    sug = result.construction == "sug-indexset"
    refused = _refused(log, result)
    if refused:
        record, exc = refused
        name = record.details["slot"] if sug else "main"
        return False, [f"{name}: FAIL: {exc}"]
    # a table slot is no presentation: it counts no relators
    counts = dict.fromkeys(result.table_slots if sug else (), 0)
    results = result.group_slots if sug else {"main": result}
    counts.update((name, len(res.presentation.relations))
                  for name, res in results.items())
    if not any(counts.values()):
        return True, ["warning: no relators in log; triangularity passes "
                      "vacuously"]
    return True, [f"{name}: {count} relators triangular, stages nondecreasing"
                  for name, count in sorted(counts.items())]


def _suite_level_census(log: RunLog,
                        result: StarResult) -> tuple[bool, list[str]]:
    refused = _refused(log, result)
    if refused:
        return False, [f"relation stream rejected: {refused[1]}"]
    base, levels = result.base, result.levels
    uni, pres = result.universal, result.presentation
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


def _suite_vi_vs_u(log: RunLog, result: StarResult) -> tuple[bool, list[str]]:
    refused = _refused(log, result)
    if refused:
        return False, [f"relation stream rejected: {refused[1]}"]
    levels, uni = result.levels, result.universal
    ok = True
    lines: list[str] = []
    checks = 0
    for point, forms in level_forms(result, replay.census_checkpoints(log)):
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


def _suite_membership(log: RunLog,
                      result: DarkRunResult) -> tuple[bool, list[str]]:
    p = result.ideal.p
    ok = True
    lines: list[str] = []
    for rec, _ in replay.steps(log, result):
        obj = rec.details
        if rec.action == "enumerate-witness":
            poly = Poly.monomial(Monomial.from_word(obj["monomial"]), p)
            if result.ideal.member(poly):
                ok = False
                lines.append(
                    f"stage {rec.stage}: banked monomial {obj['monomial']} "
                    "already lies in the ideal"
                )
        elif rec.action == "collapse-pair":
            floor = obj["degree_floor"]
            ceiling = result.protected_upto(int(rec.requirement[1:]))
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
        elif rec.action == "gs-failure":
            ok = False
            lines.append(f"stage {rec.stage}: run itself recorded an audit "
                         "failure")
        verdict = growth_audit(result.ideal, result.epsilon)
        if verdict.failed_degree is not None:
            ok = False
            lines.append(
                f"stage {rec.stage}: growth audit fails at degree "
                f"{verdict.failed_degree} (count {verdict.count})"
            )
        elif not verdict.ok:
            ok = False
            lines.append(f"stage {rec.stage}: growth audit fails: "
                         f"{verdict.reason}")

    for w in result.witnesses.values():
        if not result.ideal.member(w["f"] - w["g"]):
            ok = False
            lines.append(
                f"witness difference ({w['f']}) - ({w['g']}) is not in the "
                "final ideal"
            )
    lines.append(
        f"replayed {len(log.records)} records; {len(result.witnesses)} witness "
        "pairs checked" + ("" if ok else "; FAILURES above")
    )
    return ok, lines


# suite -> (the constructions whose logs it checks, what its empty-log
# warning calls it, or None to run its checks on an empty log too, and its
# checks on the result the log's header starts)
SUITES = {
    "triangularity": (("star-universal", "sug-indexset"), None,
                      _suite_triangularity),
    "level-census": (("star-universal",), "census", _suite_level_census),
    "vi-vs-U": (("star-universal",), "equivalence suite", _suite_vi_vs_u),
    "membership": (("dark-ring", "dark-group"), "membership suite",
                   _suite_membership),
}


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
    constructions, vacuous, checks = SUITES[args.suite]
    construction = log.header.get("construction", "<missing>")
    if construction not in constructions:
        print(f"error: suite {args.suite!r} applies to "
              f"{', '.join(constructions)} logs, got {construction!r}")
        return 2
    try:
        # the whole header is checked before an empty log passes
        result = replay.start(log)
        if vacuous and not log.records:
            ok, lines = True, [f"warning: empty log; {vacuous} passes "
                               "vacuously"]
        else:
            ok, lines = checks(log, result)
    except _MALFORMED as exc:
        print(f"error: malformed log for suite {args.suite}: {exc!r}",
              file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# -- probe -------------------------------------------------------------------


def _load_table(path: str, bound: int | None) -> CeerTable:
    with open(path) as fh:
        return CeerTable.load(fh, bound)


def _read_map(args: argparse.Namespace) -> ReductionFn:
    """The finite map given inline (`--map`) or as the text of a file
    (`--map-file`, for a map longer than one command-line argument may be)."""
    if args.map is not None:
        return _parse_map(args.map)
    with open(args.map_file) as fh:
        return _parse_map(fh.read())


def _parse_map(text: str) -> ReductionFn:
    table: dict[int, tuple[int, int]] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        n, v = map(int, chunk.split(":"))
        for x in (n, v):
            if x >= INDEX_CEILING:
                raise ValueError(f"--map value {x} implies a bound above the "
                                 f"ceiling {INDEX_CEILING}")
        table[n] = (v, 0)
    if not table:
        raise ValueError("empty map")
    return ReductionFn(table, max(table) + 1)


def _check_output_bound(subcommand: str, bound: int) -> None:
    """product and join build a table whose bound can pass the ceiling while
    every input is under it; refuse it before anything is built."""
    if bound > INDEX_CEILING:
        raise ValueError(f"{subcommand} output bound {bound} is above the "
                         f"ceiling {INDEX_CEILING}")


def cmd_probe(args: argparse.Namespace) -> int:
    if args.bound is not None and args.bound > INDEX_CEILING:
        print(f"error: --bound {args.bound} exceeds the ceiling "
              f"{INDEX_CEILING}", file=sys.stderr)
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
            # the bytes json.dumps gives for a list of ints, 4,096 lines a write
            classes = table.classes_at(stage)
            for lo in range(0, len(classes), 4096):
                sys.stdout.write("".join([
                    "[" + ", ".join(map(str, cls)) + "]\n"
                    for cls in classes[lo:lo + 4096]]))
            return 0
        if args.subcommand == "product":
            other = _load_table(args.other, None)
            _check_output_bound("product", pair(max(table.bound - 1, 0),
                                                max(other.bound - 1, 0)) + 1)
            product(table, other).dump(sys.stdout)
            return 0
        if args.subcommand == "join":
            columns = [table] + [_load_table(p, None) for p in args.others]
            _check_output_bound("join", max(
                pair(j, max(col.bound - 1, 0)) + 1
                for j, col in enumerate(columns)))
            uniform_join(columns).dump(sys.stdout)
            return 0
        if args.subcommand == "pullback":
            fn = _read_map(args)
            pullback(fn, table, bound=args.bound).dump(sys.stdout)
            return 0
        if args.subcommand == "verify-reduction":
            fn = _read_map(args)
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
            report.write(sys.stdout)
            return 0 if report.ok else 1
    except BrokenPipeError:
        raise  # main reports a closed stdout
    except (ValueError, PartialityError, OSError, IndexError, KeyError,
            TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"error: unknown probe subcommand {args.subcommand!r}",
          file=sys.stderr)
    return 2


# -- argument plumbing ---------------------------------------------------------


@functools.cache
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

    verp = sub.add_parser("verify", help="check an invariant suite on a log")
    verp.add_argument("log")
    verp.add_argument("suite", help=", ".join(SUITES))

    probep = sub.add_parser("probe", help="query ceer dump files")
    psub = probep.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("dump")
        sp.add_argument("--stage", type=int)
        sp.add_argument("--bound", type=int)

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

    def finite_map(sp):
        given = sp.add_mutually_exclusive_group(required=True)
        given.add_argument("--map", help='finite map "0:3,1:4,2:3"')
        given.add_argument("--map-file", dest="map_file",
                           help="file holding the map in --map's form")

    sp = psub.add_parser("pullback")
    common(sp)
    finite_map(sp)

    sp = psub.add_parser("verify-reduction")
    common(sp)
    sp.add_argument("target")
    finite_map(sp)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # looked up on each call: a tracer may replace a cmd_* between calls
        rc = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError as exc:
        # stdout closed early: point it at devnull so the flush at exit
        # has nowhere to fail, and report the closed pipe once
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        return 2

