"""Workload ``star``: the staged group word problem of the *-universal construction.

Each round runs two star-universal scenarios generated from the seed at
``levels = 3`` (1296 generators at base 6), where the universal table
collapses one level onto another; it dumps both logs, replays them through
the ``triangularity``, ``level-census`` and ``vi-vs-U`` suites, and then asks
``staged_abelian_wp`` for the canonical form of words at stages of the first
run.  Nearly all of the work is ``groups`` normal forms (``staged_abelian_wp``,
``fp_reduce``); ``algebra`` is not used.

Every seed gets the same event shape and cost: requirement R_e's words live
in level e + 1 (R_3's in level 0), so R_0..R_2 free a generator pair in the
middle of the next level up, R_3 commits, the universal collapse restarts
R_3, and each log holds the same ten records.  Only the letters, exponents
and stages vary.

The word-problem latency is bimodal: a word holding the lead of level 3 after
that level collapsed takes tens of milliseconds, anything else tens to
hundreds of microseconds.  The query mix is fixed per block of 20 queries:
one such heavy word, one bare level-2 or level-3 relator, three plain words
with a level-2 relator mixed in, two with a level-3 relator, and thirteen
plain words of 12 random letters.  So the median lies inside the fast mode
and the 99th percentile inside the slow one, away from the boundary at 95%.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any

from common import (Round, metered, op, run_queries, suite_passed,
                    verify_log, write_text)

NAME = "star"
# checks need no oracle module, so each round is checked and dropped at once
CHECK_NEEDS_ORACLES = False
BASE = 6
LEVELS = 3
STAGES = 200
REQUIREMENTS = 4
# universal pair collapsed in each of the two runs
COLLAPSES = ((1, 3), (0, 2))
QUERIES = 1100
PLAIN_LETTERS = 12
PHI_LETTERS = 40
SUITES = ("triangularity", "level-census", "vi-vs-U")


@dataclass
class Inputs:
    scenarios: list[Any]
    queries: list[tuple[tuple[tuple[int, int], ...], int, tuple[tuple[int, int], ...] | None]]
    paths: list[str]


def level_range(j: int) -> range:
    return range(0, BASE) if j == 0 else range(BASE ** j, BASE ** (j + 1))


def _letters(rng: random.Random, n: int, levels) -> list[tuple[int, int]]:
    return [(rng.choice(level_range(rng.choice(levels))), rng.choice((1, -1, 2)))
            for _ in range(n)]


def _phi_words(rng: random.Random, level: int):
    """Words for the even and odd witnesses of the requirement on a level.

    Their quotient is zero on every active generator below the middle even
    one and nonzero on it, so the requirement's search for a differing
    adjacent pair always stops there: every seed costs the same.
    """
    gens = list(level_range(level))[:-2]  # the two leads are determined at stage 0
    evens = [g for g in gens if g % 2 == 0]
    pivot = evens[len(evens) // 2]
    tail = [g for g in gens if g > pivot]

    def letters(n):
        return [(rng.choice(tail), rng.choice((1, -1, 2))) for _ in range(n)]

    return [(pivot, 1)] + letters(PHI_LETTERS - 1), letters(PHI_LETTERS)


def _text(word) -> str:
    return " ".join(f"x{i}" if e == 1 else f"x{i}^{e}" for i, e in word)


def scenario(rng: random.Random, collapse: tuple[int, int]) -> tuple[str, int]:
    s_u = rng.randint(55, 60)
    lines = [
        "construction = star-universal",
        f"stages = {STAGES}",
        f"base = {BASE}",
        f"levels = {LEVELS}",
        "",
        "[universal]",
        f"{s_u}: {collapse[0]} {collapse[1]}",
    ]
    last = 2 * STAGES + 3
    for e in range(REQUIREMENTS):
        level = (e + 1) % (LEVELS + 1)
        conv = 10 * (e + 1) + rng.randint(0, 5)
        even, odd = _phi_words(rng, level)
        lines += ["", f"[phi {e}]",
                  f"0..{last - 1}/even: {conv} {_text(even)}",
                  f"1..{last}/odd: {conv} {_text(odd)}"]
    return "\n".join(lines) + "\n", s_u


def lead_relator(j: int, parity: int) -> list[tuple[int, int]]:
    """x_lead * prod(juniors): trivial from stage 0 on (the init relation)."""
    side = [g for g in level_range(j) if g % 2 == parity]
    return [(g, 1) for g in side]


def _queries(rng: random.Random, s_u: int):
    """(word, stage, plain part or None) per query, in a fixed 20-slot mix."""
    out = []
    lead3 = max(g for g in level_range(3) if g % 2 == 0)
    for i in range(QUERIES):
        slot = i % 20
        plain = _letters(rng, PLAIN_LETTERS, range(LEVELS + 1))
        stage = rng.randint(0, STAGES)
        shifted = None
        if slot == 0:
            word = plain + [(lead3, 1)]
            stage = rng.randint(s_u, STAGES)
        elif slot == 1:
            shifted = []
            word = lead_relator(rng.choice((2, 3)), rng.randrange(2))
        elif slot <= 6:
            shifted = plain
            rel = lead_relator(2 if slot <= 4 else 3, rng.randrange(2))
            word = plain + rel
            rng.shuffle(word)
        else:
            word = plain
        out.append((tuple(word), stage, None if shifted is None else tuple(shifted)))
    return out


def setup(ceerlab, seed: int, out_dir: str) -> Inputs:
    rng = random.Random(f"star-{seed}")
    texts, stages = [], []
    for collapse in COLLAPSES:
        text, s_u = scenario(rng, collapse)
        texts.append(text)
        stages.append(s_u)
    parse = ceerlab.scenario.parse_scenario
    return Inputs(
        scenarios=[parse(t) for t in texts],
        queries=_queries(rng, stages[0]),
        paths=[os.path.join(out_dir, f"star-{seed}-{k}.log.jsonl")
               for k in range(len(texts))],
    )


def run_round(ceerlab, inp: Inputs, meter) -> Round:
    rnd = Round()

    def build():
        for k, (scn, path) in enumerate(zip(inp.scenarios, inp.paths)):
            def run_and_dump(scn=scn, path=path):
                result = scn.run()
                text = result.log.dumps()
                write_text(path, text)
                rnd.counters["log.bytes"] = rnd.counters.get("log.bytes", 0) + len(text)
                return result
            rnd.outputs[f"run{k}"] = op(rnd, f"build.{k}", run_and_dump)

    def check():
        for k, path in enumerate(inp.paths):
            for suite in SUITES:
                name = f"verify.{k}.{suite}"
                rnd.outputs[name] = op(rnd, name, lambda p=path, s=suite:
                                       verify_log(ceerlab.cli, p, s))

    _, rnd.build = metered(meter, build)
    _, rnd.check = metered(meter, check)
    first = rnd.outputs["run0"]
    wp = ceerlab.groups.staged_abelian_wp
    if first is None:
        calls = [_missing] * len(inp.queries)
    else:
        pres = first.presentation
        calls = [(lambda w=w, s=s: wp(pres, w, s)) for w, s, _ in inp.queries]
    run_queries(meter, rnd, calls)
    return rnd


def _missing():
    raise RuntimeError("the star run did not finish")


def check(ceerlab, inp: Inputs, rnd: Round, oracles, check_queries: bool) -> dict[str, str]:
    """Wrong outputs of one round, keyed by operation name.

    The word problem has no independent oracle here, so answers are checked
    against properties any canonical form must have.
    """
    wrong: dict[str, str] = {}
    wp = ceerlab.groups.staged_abelian_wp
    for k in range(len(inp.paths)):
        for suite in SUITES:
            name = f"verify.{k}.{suite}"
            res = rnd.outputs.get(name)
            if res is not None and (why := suite_passed(res, suite)):
                wrong[name] = why
        run = rnd.outputs.get(f"run{k}")
        if run is None:
            continue
        for rel in run.presentation.relations:
            word = ((rel.lhs, 1),) + tuple((i, -e) for i, e in rel.rhs)
            if wp(run.presentation, word, rel.stage):
                wrong[f"build.{k}"] = f"relation for x{rel.lhs} is not trivial at its stage"
                break
    run = rnd.outputs.get("run0")
    if run is None or not check_queries:
        return wrong
    pres = run.presentation
    for i, ((word, stage, plain), answer) in enumerate(zip(inp.queries, rnd.answers)):
        if not isinstance(answer, tuple):
            continue
        why = None
        for idx, _ in answer:
            rel = pres.lhs_relation(idx)
            if rel is not None and rel.stage <= stage:
                why = f"canonical form keeps x{idx}, a left side by stage {stage}"
                break
        if why is None and wp(pres, answer, stage) != answer:
            why = "canonicalising twice changes the answer"
        if why is None and plain is not None and answer != wp(pres, plain, stage):
            why = "adding a relator changed the canonical form"
        if why is None and not answer and wp(pres, word, STAGES):
            why = f"trivial at stage {stage} but not at stage {STAGES}"
        if why:
            wrong[f"query.{i}"] = why
    return wrong
