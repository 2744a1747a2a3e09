"""Workload ``dark``: membership in the graded ideals of the dark constructions.

Each round runs one dark-ring and one dark-group scenario generated from the
seed, dumps both logs, replays them through ``ceerlab verify ... membership``
and then asks ``HomogeneousIdeal.member`` about sparse homogeneous elements
of the degrees the dark-group run built.  Nearly all of the work is the
``algebra`` slice echelons; ``ceers`` only serves ``StageSet`` lookups and
``groups`` is not used.

Sizes are fixed and only the content depends on the seed, so every seed does
the same amount of work: the group ideal is seeded with x^13 and y^13, one
collapse relator lands at degree 17, and nine witnesses are banked at
degrees 14, 15 and 18..24, so the run and its replay build the slices up to
degree 24, where a slice grows about 4.8 times per two degrees.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Any

from common import (Round, metered, op, run_queries, suite_passed,
                    verify_log, write_text)

NAME = "dark"
# checks need no oracle module, so each round is checked and dropped at once
CHECK_NEEDS_ORACLES = False
UNIT_EXPONENT = 13
BANKINGS = 9
BANKED_BEFORE_COLLAPSE = 2
PERIOD = 10
COLLAPSE_DEGREE = UNIT_EXPONENT + BANKED_BEFORE_COLLAPSE + 2
TOP_DEGREE = UNIT_EXPONENT + BANKINGS + 2
# the slices the group run builds: banked degrees and the relator's degree
BUILT_DEGREES = [d for d in range(UNIT_EXPONENT + 1, TOP_DEGREE + 1)
                 if d != COLLAPSE_DEGREE - 1]
QUERIES = 3000
# every 25th query is a wide member of the top degree, all alike, so the
# 99th latency percentile falls inside that group (the top 4%) instead of
# on a rare stall
WIDE_EVERY = 25
WIDE_TERMS = 48


@dataclass
class Inputs:
    ring: Any
    group: Any
    queries: list[Any]
    ring_path: str
    group_path: str


def _word(code: int, deg: int) -> str:
    """The monomial's letters, first letter in the top bit, y = 1."""
    return format(code, f"0{deg}b").replace("0", "x").replace("1", "y")


def _with_power(rng: random.Random, deg: int) -> str:
    """A random word of length deg holding x^N or y^N as a factor."""
    w = [rng.choice("xy") for _ in range(deg)]
    at = rng.randrange(deg - UNIT_EXPONENT + 1)
    w[at:at + UNIT_EXPONENT] = rng.choice("xy") * UNIT_EXPONENT
    return "".join(w)


def group_scenario(rng: random.Random) -> str:
    start = rng.randint(1, 5)
    f = _with_power(rng, COLLAPSE_DEGREE)
    g = f
    while g == f:
        g = _with_power(rng, COLLAPSE_DEGREE)
    # between the 2nd and 3rd banking, so the protection floor is N + 2
    s2 = start + BANKED_BEFORE_COLLAPSE * PERIOD - PERIOD // 2
    s1 = rng.randint(start, s2)
    return f"""construction = dark-group
stages = {start + BANKINGS * PERIOD + 5}
maxdeg = {TOP_DEGREE}
modulus = 2
unit_exponent = {UNIT_EXPONENT}
epsilon = 1/4

[ucolumn 0]
mode = steady
period = {PERIOD}
start = {start}
count = {BANKINGS}

[wcolumn 0]
{s1}: {f}
{s2}: {g}
"""


def ring_scenario(rng: random.Random) -> str:
    a = rng.randint(1, 8)
    b = rng.randint(a + 1, 16)
    return f"""construction = dark-ring
stages = 300
maxdeg = 16
modulus = 2
epsilon = 1/4

[ucolumn 0]
{a}: 0
{b}: 1

[wcolumn 0]
mode = monomials
rate = 32

[wcolumn 1]
mode = monomials
rate = 32
"""


def _queries(ceerlab, rng: random.Random) -> list[Any]:
    """Sparse homogeneous elements; the even-numbered and the wide ones are
    members by construction (every term holds x^N or y^N), the others have
    random terms."""
    Poly, Monomial = ceerlab.algebra.Poly, ceerlab.algebra.Monomial
    out = []
    for i in range(QUERIES):
        wide = i % WIDE_EVERY == WIDE_EVERY - 1
        deg = TOP_DEGREE if wide else rng.choice(BUILT_DEGREES)
        width = WIDE_TERMS if wide else rng.randint(1, 3)
        terms = {}
        while len(terms) < width:
            if wide or i % 2 == 0:
                code = int(_with_power(rng, deg).replace("x", "0").replace("y", "1"), 2)
            else:
                code = rng.randrange(1 << deg)
            terms[Monomial(deg, code)] = 1
        out.append(Poly(2, terms))
    return out


def setup(ceerlab, seed: int, out_dir: str) -> Inputs:
    rng = random.Random(f"dark-{seed}")
    parse = ceerlab.scenario.parse_scenario
    return Inputs(
        ring=parse(ring_scenario(rng)),
        group=parse(group_scenario(rng)),
        queries=_queries(ceerlab, rng),
        ring_path=os.path.join(out_dir, f"dark-{seed}-ring.log.jsonl"),
        group_path=os.path.join(out_dir, f"dark-{seed}-group.log.jsonl"),
    )


def _run_and_dump(scenario, path: str, rnd: Round):
    result = scenario.run()
    text = result.log.dumps()
    write_text(path, text)
    rnd.counters["log.bytes"] = rnd.counters.get("log.bytes", 0) + len(text)
    return result


def run_round(ceerlab, inp: Inputs, meter) -> Round:
    rnd = Round()

    def build():
        rnd.outputs["ring"] = op(rnd, "build.ring",
                                 lambda: _run_and_dump(inp.ring, inp.ring_path, rnd))
        rnd.outputs["group"] = op(rnd, "build.group",
                                  lambda: _run_and_dump(inp.group, inp.group_path, rnd))

    def check():
        for kind, path in (("ring", inp.ring_path), ("group", inp.group_path)):
            rnd.outputs[f"verify.{kind}"] = op(
                rnd, f"verify.{kind}",
                lambda: verify_log(ceerlab.cli, path, "membership"))

    _, rnd.build = metered(meter, build)
    _, rnd.check = metered(meter, check)
    group = rnd.outputs["group"]
    if group is None:
        calls = [_missing] * len(inp.queries)
    else:
        calls = [(lambda p=p: group.ideal.member(p)) for p in inp.queries]
    run_queries(meter, rnd, calls)
    return rnd


def _missing():
    raise RuntimeError("the dark-group run did not finish")


# -- checks ---------------------------------------------------------------


def _terms(poly) -> list[str]:
    return [_word(m.code, m.deg) for m in poly.coeffs]


def check(ceerlab, inp: Inputs, rnd: Round, oracles, check_queries: bool) -> dict[str, str]:
    """Wrong outputs of one round, keyed by operation name."""
    wrong: dict[str, str] = {}
    p = 2
    Poly, Monomial = ceerlab.algebra.Poly, ceerlab.algebra.Monomial
    for kind in ("ring", "group"):
        res = rnd.outputs.get(f"verify.{kind}")
        if res is not None and (why := suite_passed(res, "membership")):
            wrong[f"verify.{kind}"] = why
    ring = rnd.outputs.get("ring")
    if ring is not None:
        for m, w in ring.witnesses.items():
            if not ring.ideal.member(w["f"] - w["g"]):
                wrong["build.ring"] = f"witness difference of D{m} is not a member"
    group = rnd.outputs.get("group")
    if group is None:
        return wrong
    gens = [g for g in group.ideal.generators if len(g.coeffs) == 1]
    powers = [_terms(g)[0] for g in gens]

    def factor_member(poly) -> bool:
        return all(any(pw in t for pw in powers) for t in _terms(poly))

    # the factor test decides membership only if the ideal is monomial
    for g in group.ideal.generators:
        if not factor_member(g):
            wrong["build.group"] = f"generator {g} is outside the monomial ideal"
            for i in range(len(inp.queries)):
                wrong[f"query.{i}"] = "no oracle: the ideal is not monomial"
            return wrong
    for rec in group.log.records:
        if rec.action == "enumerate-witness":
            mono = Poly.monomial(Monomial.from_word(rec.details["monomial"]), p)
            if factor_member(mono) or group.ideal.member(mono):
                wrong["build.group"] = f"banked monomial {mono} is a member"
    for m, w in group.witnesses.items():
        diff = w["f"] - w["g"]
        if not factor_member(diff) or not group.ideal.member(diff):
            wrong["build.group"] = f"witness difference of D{m} is not a member"
    if not check_queries:
        return wrong
    for i, (poly, answer) in enumerate(zip(inp.queries, rnd.answers)):
        if answer is not True and answer is not False:
            continue
        if answer != factor_member(poly):
            wrong[f"query.{i}"] = f"member({poly}) answered {answer}"
    return wrong
