"""Workload ``ceer``: explicit stage tables, ingested and queried.

Each round uses tables generated from the seed in two ways:

* ingest: write twelve pairs per stage into a bound-4000 table and after
  each stage's writes ask ``related`` at the newest stage, the way a
  construction consults a growing universal table; then dump the table and
  read it back with ``CeerTable.loads``;
* queries: cold ``related`` calls at distinct past stages on a table just
  read with ``CeerTable.loads`` (the ``ceerlab probe related`` pattern),
  280 distinct stages per freshly read table, four tables per round.  Every
  25th query asks for the whole partition instead (``classes_at``, the
  ``ceerlab probe classes`` pattern), about twice the work, so the 99th
  latency percentile falls inside that group (the top 4%) and not on the
  rare queries a garbage collection happens to stop.

``product``, ``pullback`` and ``verify_reduction`` on small tables make the
check phase.  Nearly all of the work is the ``ceers`` union-find snapshots;
``algebra`` and ``groups`` are not used.  Because every cold query rebuilds
and keeps a bound-length snapshot, the table bound is large enough for that
cache to show in the peak resident memory.
"""
from __future__ import annotations

import os
import random
from array import array
from dataclasses import dataclass
from typing import Any

from common import Round, metered, op, read_text, run_queries, write_text

NAME = "ceer"
# checks use tests/oracles.py, which imports numpy; so the first round is
# checked after the peak resident memory is read, and later rounds are
# compared with it
CHECK_NEEDS_ORACLES = True
BOUND = 4000
STAGES = 280
PAIRS_PER_STAGE = 12
TABLE_LOADS = 4
CLASSES_EVERY = 25
SMALL_BOUND = 20
SMALL_STAGES = 12
MAP_BOUND = 160
TARGET_BOUND = 40
CHECKED_QUERIES = 200
CHECKED_PAIRS = 400


@dataclass
class Inputs:
    ingest: list[tuple[int, list[tuple[int, int]], int, int]]
    queries: list[tuple[int, int, int]]
    rows: dict[str, list[tuple[int, int, int]]]
    left: Any
    right: Any
    target: Any
    source: Any
    fmap: dict[int, int]
    fn: Any
    dump_path: str


def _pairs(rng: random.Random, bound: int, stages: int, per_stage: int):
    return [(rng.randrange(bound), rng.randrange(bound), s)
            for s in range(1, stages + 1) for _ in range(per_stage)]


def _dump(rows) -> str:
    return "".join(f'{{"a": {a}, "b": {b}, "s": {s}}}\n' for a, b, s in rows)


def setup(ceerlab, seed: int, out_dir: str) -> Inputs:
    rng = random.Random(f"ceer-{seed}")
    # (stage, pairs, a, b): write the pairs at stage, then ask related(a, b)
    ingest = []
    for s in range(1, STAGES + 1):
        pairs = [(rng.randrange(BOUND), rng.randrange(BOUND)) for _ in range(PAIRS_PER_STAGE)]
        ingest.append((s, pairs, rng.randrange(BOUND), rng.randrange(BOUND)))
    queries = []
    for _ in range(TABLE_LOADS):
        stages = list(range(1, STAGES + 1))
        rng.shuffle(stages)
        for s in stages:
            queries.append((s, rng.randrange(BOUND), rng.randrange(BOUND)))
    CeerTable = ceerlab.ceers.CeerTable
    fmap = {n: rng.randrange(TARGET_BOUND) for n in range(MAP_BOUND)}
    fn = ceerlab.ceers.ReductionFn({n: (v, 0) for n, v in fmap.items()}, MAP_BOUND)
    rows = {
        "left": _pairs(rng, SMALL_BOUND, SMALL_STAGES, 1),
        "right": _pairs(rng, SMALL_BOUND, SMALL_STAGES, 1),
        "target": _pairs(rng, TARGET_BOUND, SMALL_STAGES, 2),
        "source": _pairs(rng, MAP_BOUND, SMALL_STAGES, 3),
    }
    return Inputs(
        ingest=ingest,
        queries=queries,
        rows=rows,
        left=CeerTable.loads(_dump(rows["left"]), SMALL_BOUND),
        right=CeerTable.loads(_dump(rows["right"]), SMALL_BOUND),
        target=CeerTable.loads(_dump(rows["target"]), TARGET_BOUND),
        source=CeerTable.loads(_dump(rows["source"]), MAP_BOUND),
        fmap=fmap,
        fn=fn,
        dump_path=os.path.join(out_dir, f"ceer-{seed}.dump.jsonl"),
    )


def _ingest(ceerlab, inp: Inputs, rnd: Round):
    table = ceerlab.ceers.CeerTable(BOUND)
    answers = []
    for s, pairs, qa, qb in inp.ingest:
        for a, b in pairs:
            table.assert_pair(a, b, s)
        answers.append(table.related(qa, qb, s))
    rnd.outputs["build.ingest"] = answers
    write_text(inp.dump_path, table.dumps())
    return ceerlab.ceers.CeerTable.loads(read_text(inp.dump_path), BOUND)


def _merges(bound: int, pairs) -> int:
    """bound minus the number of classes, by a union-find of our own."""
    parent = list(range(bound))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    merges = 0
    for a, b, _ in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            merges += 1
    return merges


def run_round(ceerlab, inp: Inputs, meter) -> Round:
    rnd = Round()
    ceers = ceerlab.ceers
    loaded, rnd.build = metered(meter, lambda: op(rnd, "build.ingest",
                                                  lambda: _ingest(ceerlab, inp, rnd)))

    def check():
        return (op(rnd, "check.product", lambda: ceers.product(inp.left, inp.right)),
                op(rnd, "check.pullback", lambda: ceers.pullback(inp.fn, inp.target)),
                op(rnd, "check.verify_reduction",
                   lambda: ceers.verify_reduction(inp.fn, inp.source, inp.target,
                                                  MAP_BOUND, SMALL_STAGES // 2)))

    (prod, pull, report), rnd.check = metered(meter, check)
    # outputs are kept as plain values, so later rounds can be compared
    # with the first one and then dropped
    if prod is not None:
        rnd.outputs["check.product"] = (prod.bound, prod.pairs)
        rnd.counters["product.pairs_out"] = len(prod.pairs)
        rnd.counters["product.merges"] = _merges(prod.bound, prod.pairs)
    if pull is not None:
        rnd.outputs["check.pullback"] = (pull.bound, pull.pairs)
    if report is not None:
        rnd.outputs["check.verify_reduction"] = (report.positive_violations,
                                                 report.unaligned_so_far)

    answers, latencies = [], []
    per_load = len(inp.queries) // TABLE_LOADS
    ingested = loaded is not None
    for k in range(TABLE_LOADS):
        calls = [_missing] * per_load
        if ingested:
            table = loaded if k == 0 else ceers.CeerTable.loads(read_text(inp.dump_path), BOUND)
            # one table (and its snapshot cache) alive at a time
            loaded = None
            calls = [_query(table, k * per_load + j, q)
                     for j, q in enumerate(inp.queries[k * per_load:(k + 1) * per_load])]
            table = None
        run_queries(meter, rnd, calls)
        calls = None
        # a partition is kept as each index's class number, so answers do
        # not weigh on the peak memory
        answers += [_class_numbers(a) if isinstance(a, list) else a for a in rnd.answers]
        latencies += rnd.latencies
    rnd.answers, rnd.latencies = answers, latencies
    return rnd


def _class_numbers(classes: list[list[int]]) -> array:
    out = array("i", [-1]) * BOUND
    for c, members in enumerate(classes):
        for n in members:
            out[n] = c
    return out


def _query(table, i: int, query):
    s, a, b = query
    if i % CLASSES_EVERY == CLASSES_EVERY - 1:
        return lambda: table.classes_at(s)
    return lambda: table.related(a, b, s)


def _missing():
    raise RuntimeError("the table was not ingested")


def check(ceerlab, inp: Inputs, rnd: Round, oracles, check_queries: bool) -> dict[str, str]:
    """Wrong outputs of one round, checked against tests/oracles.py."""
    wrong: dict[str, str] = {}
    rng = random.Random(0)
    pairs = [(a, b, s) for s, written, _, _ in inp.ingest for a, b in written]
    closure = oracles.StagedClosure(pairs, BOUND)
    got = rnd.outputs.get("build.ingest")
    if got is not None:
        for k in range(0, len(inp.ingest), 10):
            s, _, qa, qb = inp.ingest[k]
            if got[k] != closure.related(qa, qb, s):
                wrong["build.ingest"] = f"related({qa}, {qb}, {s}) answered {got[k]}"
    left = oracles.StagedClosure(inp.rows["left"], SMALL_BOUND)
    right = oracles.StagedClosure(inp.rows["right"], SMALL_BOUND)
    target = oracles.StagedClosure(inp.rows["target"], TARGET_BOUND)
    source = oracles.StagedClosure(inp.rows["source"], MAP_BOUND)
    stages = list(range(SMALL_STAGES + 1))
    CeerTable = ceerlab.ceers.CeerTable
    if "check.product" in rnd.outputs:
        prod = CeerTable.from_pairs(rnd.outputs["check.product"][1],
                                    rnd.outputs["check.product"][0])
        for _ in range(CHECKED_PAIRS):
            n, m, s = rng.randrange(prod.bound), rng.randrange(prod.bound), rng.choice(stages)
            if prod.related(n, m, s) != oracles.product_related(left, right, n, m, s):
                wrong["check.product"] = f"product disagrees on ({n}, {m}) at stage {s}"
                break
    if "check.pullback" in rnd.outputs:
        pull = CeerTable.from_pairs(rnd.outputs["check.pullback"][1],
                                    rnd.outputs["check.pullback"][0])
        for _ in range(CHECKED_PAIRS):
            i, j, s = rng.randrange(MAP_BOUND), rng.randrange(MAP_BOUND), rng.choice(stages)
            if pull.related(i, j, s) != oracles.pullback_related(inp.fmap, target, i, j, s):
                wrong["check.pullback"] = f"pullback disagrees on ({i}, {j}) at stage {s}"
                break
    if "check.verify_reduction" in rnd.outputs:
        got_positive, got_unaligned = rnd.outputs["check.verify_reduction"]
        stage = SMALL_STAGES // 2
        final_t = max(s for _, _, s in inp.rows["target"])
        final_s = max(s for _, _, s in inp.rows["source"])
        positive, unaligned = [], []
        for i in range(MAP_BOUND):
            for j in range(i + 1, MAP_BOUND):
                images = target.related(inp.fmap[i], inp.fmap[j], final_t)
                if source.related(i, j, stage) and not images:
                    positive.append((i, j))
                elif images and not source.related(i, j, max(final_s, stage)):
                    unaligned.append((i, j))
        if got_positive != positive or got_unaligned != unaligned:
            wrong["check.verify_reduction"] = "report differs from the brute-force lists"
    if not check_queries:
        return wrong
    for k in rng.sample(range(len(inp.queries)), CHECKED_QUERIES):
        answer = rnd.answers[k]
        s, a, b = inp.queries[k]
        if isinstance(answer, bool):
            if answer != closure.related(a, b, s):
                wrong[f"query.{k}"] = f"related({a}, {b}, {s}) answered {answer}"
        elif isinstance(answer, array):
            if why := _partition_wrong(answer, closure, s, rng):
                wrong[f"query.{k}"] = f"classes_at({s}): {why}"
    return wrong


def _partition_wrong(where: array, closure, s: int, rng: random.Random) -> str | None:
    """Why a classes_at answer is not the partition at stage s, if it is not.

    It must place every index of [0, BOUND) exactly once, and sampled pairs
    must share a class exactly when the oracle relates them.
    """
    if -1 in where:
        return "not a partition of the bound"
    for _ in range(5):
        a = rng.randrange(BOUND)
        same = [n for n in range(BOUND) if where[n] == where[a]]
        b = rng.choice(same) if rng.random() < 0.5 else rng.randrange(BOUND)
        if (where[a] == where[b]) != closure.related(a, b, s):
            return f"{a} and {b} are placed wrongly"
    return None
