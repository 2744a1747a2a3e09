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
from .ceers import (
    INDEX_CEILING,
    CeerTable,
    PartialityError,
    ReductionFn,
    product,
    pullback,
    uniform_join,
    verify_reduction,
)
from .engine import RunLog
from .pairing import pair
from .scenario import load_scenario, parse_epsilon

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
    for line in replay.summarize(result):
        print(line)
    print(f"log: {out}")
    # a logged audit failure fails the run, as it fails `membership`
    failed = any(rec.action == "gs-failure" for rec in result.log.records)
    return 1 if failed else 0


# -- verify ------------------------------------------------------------------


# suite -> the constructions whose modules list it in their `SUITES`, in
# table order; suites come last module first: star's and sug's before dark's
SUITES = {suite: [name for name, module in replay.CONSTRUCTIONS.items()
                  if suite in module.SUITES]
          for last in reversed(replay.CONSTRUCTIONS.values())
          for suite in last.SUITES}


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite not in SUITES:
        print(f"error: unknown suite {args.suite!r}; choose from "
              f"{', '.join(SUITES)}", file=sys.stderr)
        return 2
    try:
        log = RunLog.load(args.log)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read log: {exc}", file=sys.stderr)
        return 2
    kinds = SUITES[args.suite]
    construction = log.header.get("construction", "<missing>")
    if construction not in kinds:
        print(f"error: suite {args.suite!r} applies to {', '.join(kinds)} "
              f"logs, got {construction!r}", file=sys.stderr)
        return 2
    vacuous, checks = replay.CONSTRUCTIONS[construction].SUITES[args.suite]
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

