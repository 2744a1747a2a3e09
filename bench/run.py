"""Benchmark for ceerlab: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {dark,star,ceer} --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src`` and the answer checks use ``tests/oracles.py``, so the
benchmark refuses to run (exit 2) when either is missing.

With ``--trace 0`` the run prints the end-to-end metrics: median set-up,
build and check times over the rounds that fit in ``--seconds``, query
latency percentiles and peak resident memory.  With ``--trace 1`` it runs
the first half of the window untraced and the second half with every traced
ceerlab function wrapped (see spans.py), and prints the per-layer metrics
per round plus the tracing overhead.  The last line of standard output is
the result object; README.md explains every number.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TESTS = os.path.join(ROOT, "tests")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from common import Raised  # noqa: E402
from meter import Meter, clock  # noqa: E402

WORKLOADS = ("dark", "star", "ceer")
SETUP_REPS = 5

END_TO_END = (
    ("setup_s", "s"), ("build_s", "s"), ("check_s", "s"),
    ("query_p50_us", "us"), ("query_p99_us", "us"), ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("algebra.self_s", "s"),
    ("algebra.reduce_component.calls", "count"),
    ("algebra.reduce_component.self_s", "s"),
    ("algebra.member.calls", "count"),
    ("algebra.quotient_reduce.calls", "count"),
    ("algebra.gs_audit.self_s", "s"),
    ("ceers.self_s", "s"),
    ("ceers.related.calls", "count"),
    ("ceers.roots_at.calls", "count"),
    ("ceers.roots_at.self_s", "s"),
    ("ceers.assert_pair.calls", "count"),
    ("ceers.product.self_s", "s"),
    ("ceers.pullback.self_s", "s"),
    ("ceers.product.pairs_out", "count"),
    ("ceers.product.merges", "count"),
    ("ceers.product.useful_ratio", "ratio"),
    ("ceers.stageset.count_at.calls", "count"),
    ("groups.self_s", "s"),
    ("groups.staged_abelian_wp.calls", "count"),
    ("groups.staged_abelian_wp.self_s", "s"),
    ("groups.fp_reduce.calls", "count"),
    ("groups.fp_reduce.self_s", "s"),
    ("engine.run_stage.calls", "count"),
    ("engine.run_stage.self_s", "s"),
    ("log.dumps_s", "s"),
    ("log.bytes", "B"),
    ("log.loads_s", "s"),
    ("scenario.parse_s", "s"),
    ("cli.verify.self_s", "s"),
    ("trace.overhead_pct", "%"),
)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_ceerlab():
    """Import ceerlab afresh from this checkout's src."""
    for name in [k for k in sys.modules if k == "ceerlab" or k.startswith("ceerlab.")]:
        del sys.modules[name]
    ceerlab = importlib.import_module("ceerlab")
    importlib.import_module("ceerlab.cli")
    if os.path.dirname(os.path.dirname(os.path.abspath(ceerlab.__file__))) != SRC:
        fail(f"ceerlab was imported from {ceerlab.__file__}, not from {SRC}")
    return ceerlab


def percentile_tail(values: list[float]) -> tuple[float, float]:
    """The 99th percentile, or the highest one with at least ten samples
    beyond it when there are fewer than 1100 samples; and which it was."""
    v = sorted(values)
    n = len(v)
    idx = min(int(0.99 * n), n - 11) if n >= 40 else n // 2
    return v[max(idx, 0)], 100.0 * (idx + 1) / n


class Checker:
    """Checks rounds one by one and keeps only what the tally needs.

    The first round is checked in full.  Every round asks the same
    questions of a deterministic program, so a later round's answer (and,
    where the workload's check needs the oracle module, its outputs) is
    compared with the first round's: equal ones share its verdict, and a
    differing one is wrong.  Outputs are dropped once checked or compared.
    """

    def __init__(self, wl, ceerlab):
        self.wl = wl
        self.ceerlab = ceerlab
        self.first = None
        self.first_inp = None
        self.later = []

    def __call__(self, inp, rnd) -> None:
        """Check a round right after it ran; defer what needs the oracles."""
        if self.first is None:
            self.first, self.first_inp = rnd, inp
            if not self.wl.CHECK_NEEDS_ORACLES:
                rnd.wrong = self.wl.check(self.ceerlab, inp, rnd, None, True)
                rnd.outputs = {}
            return
        if self.wl.CHECK_NEEDS_ORACLES:
            wrong = {}
            compared = list(rnd.outputs)
            for key in compared:
                if rnd.outputs[key] != self.first.outputs.get(key):
                    wrong[key] = "output differs from the first round"
        else:
            wrong = self.wl.check(self.ceerlab, inp, rnd, None, False)
            compared = []
        for i, ans in enumerate(rnd.answers):
            key = f"query.{i}"
            compared.append(key)
            if ans != self.first.answers[i]:
                wrong[key] = "answer differs from the first round"
        rnd.wrong = wrong
        compact(rnd)
        self.later.append((rnd, compared))

    def finish(self, oracles) -> None:
        """Check the first round with the oracles, then pass its verdicts on."""
        first = self.first
        if self.wl.CHECK_NEEDS_ORACLES:
            first.wrong = self.wl.check(self.ceerlab, self.first_inp, first, oracles, True)
        compact(first)
        for rnd, compared in self.later:
            for key in compared:
                if key not in rnd.wrong and key in first.wrong:
                    rnd.wrong[key] = first.wrong[key]


def compact(rnd) -> None:
    """Keep only what the tally needs: which queries raised, and how many."""
    rnd.raised = {i: a.text for i, a in enumerate(rnd.answers) if isinstance(a, Raised)}
    rnd.queries = len(rnd.answers)
    rnd.answers = []
    rnd.outputs = {}


def tally(rounds):
    """Return (attempted, failed, wrong, messages) over checked rounds."""
    attempted = failed = wrong_count = 0
    messages: list[str] = []
    for k, rnd in enumerate(rounds):
        outcomes = list(rnd.ops.items())
        outcomes += [(f"query.{i}", rnd.raised.get(i)) for i in range(rnd.queries)]
        for name, err in outcomes:
            attempted += 1
            if err is None and name not in rnd.wrong:
                continue
            failed += 1
            if err is None:
                wrong_count += 1
            if len(messages) < 8:
                messages.append(f"round {k} {name}: {err or rnd.wrong[name]}")
    return attempted, failed, wrong_count, messages


def round_work(rnd) -> float:
    return rnd.build[0] + rnd.check[0] + sum(rnd.latencies)


def end_to_end(setups, rounds, rss_mb):
    lat = [x for r in rounds for x in r.latencies]
    p99, pct = percentile_tail(lat)
    values = {
        "setup_s": (statistics.median(s for s, _ in setups),
                    statistics.median(r for _, r in setups)),
        "build_s": (statistics.median(r.build[0] for r in rounds),
                    statistics.median(r.build[1] for r in rounds)),
        "check_s": (statistics.median(r.check[0] for r in rounds),
                    statistics.median(r.check[1] for r in rounds)),
        "query_p50_us": (statistics.median(lat) * 1e6, None),
        "query_p99_us": (p99 * 1e6, None),
        "peak_rss_mb": (rss_mb, None),
    }
    notes = {"query_samples": len(lat), "query_tail_percentile": pct}
    return values, notes


def per_layer(tracer, traced, parse_s):
    """Per-layer metrics per traced round, span times in reference seconds.

    ``<span>.calls`` and ``<span>.self_s`` come from the span of that name,
    ``<layer>.self_s`` is the layer's summed self time; the rest are named
    below.
    """
    n = len(traced)
    scaled = sum(r.build[0] + r.check[0] for r in traced)
    raw = sum(r.build[1] + r.check[1] for r in traced)
    factor = scaled / raw if raw else 1.0
    spans = tracer.summary()
    layers = tracer.layer_self()

    def counter(name):
        return sum(r.counters.get(name, 0) for r in traced) / n

    pairs_out = counter("product.pairs_out")
    merges = counter("product.merges")
    out = {
        "ceers.product.pairs_out": pairs_out,
        "ceers.product.merges": merges,
        "ceers.product.useful_ratio": merges / pairs_out if pairs_out else 0.0,
        "log.dumps_s": spans["log.dumps"]["total_s"] * factor / n,
        "log.bytes": counter("log.bytes"),
        "log.loads_s": spans["log.loads"]["total_s"] * factor / n,
        "scenario.parse_s": parse_s * factor,
    }
    for name, _ in PER_LAYER:
        head, _, kind = name.rpartition(".")
        if name in out or head == "trace":
            continue
        if kind == "calls":
            out[name] = spans[head]["calls"] / n
        elif head in layers:
            out[name] = layers[head] * factor / n
        else:
            out[name] = spans[head]["self_s"] * factor / n
    return out, factor


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ceerlab", "__init__.py")):
        fail(f"no ceerlab package under {SRC}")
    if not os.path.isfile(os.path.join(TESTS, "oracles.py")):
        fail(f"no {os.path.join(TESTS, 'oracles.py')} to check answers with")
    sys.path.insert(0, SRC)
    wl = importlib.import_module(f"{args.workload}_workload")
    os.makedirs(OUT, exist_ok=True)

    meter = Meter()
    t_start = clock()
    deadline = t_start + args.seconds
    setups = []
    try:
        for _ in range(SETUP_REPS):
            gc.collect()
            meter.begin()
            try:
                ceerlab = import_ceerlab()
                inp = wl.setup(ceerlab, args.seed, OUT)
            finally:
                setups.append(meter.end())

        checker = Checker(wl, ceerlab)
        tracer = None

        def one_round(inp):
            gc.collect()
            rnd = wl.run_round(ceerlab, inp, meter)
            if tracer is not None:
                tracer.enabled = False
            checker(inp, rnd)
            if tracer is not None:
                tracer.enabled = True
            return rnd

        rounds = []
        split = deadline if not args.trace else clock() + (deadline - clock()) / 2
        while not rounds or clock() < split:
            rounds.append(one_round(inp))

        traced = []
        parse_s = 0.0
        if args.trace:
            from spans import Tracer
            tracer = Tracer(meter)
            tracer.install()
            tracer.enabled = True
            inp = wl.setup(ceerlab, args.seed, OUT)
            parse_s = tracer.summary()["scenario.parse"]["total_s"]
            tracer.reset()
            while not traced or clock() < deadline:
                traced.append(one_round(inp))
            tracer.enabled = False
    finally:
        meter.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    elapsed = clock() - t_start

    oracles = None
    if wl.CHECK_NEEDS_ORACLES:
        sys.path.insert(0, TESTS)
        import oracles
    checker.finish(oracles)
    attempted, failed, wrong, messages = tally(rounds + traced)

    values, notes = end_to_end(setups, rounds, rss_mb)
    metrics: dict[str, dict] = {}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": len(rounds), "traced_rounds": len(traced),
              "elapsed_s": elapsed, "meter": {
                  "intervals": meter.intervals, "slow_intervals": meter.slow_intervals,
                  "fastest_ref_s": meter.fastest},
              "per_round": [{"build": r.build, "check": r.check}
                            for r in rounds + traced],
              **notes, "failures": messages}
    if args.trace:
        layer, factor = per_layer(tracer, traced, parse_s)
        t0 = statistics.median(round_work(r) for r in rounds)
        t1 = statistics.median(round_work(r) for r in traced)
        layer["trace.overhead_pct"] = 100.0 * (t1 / t0 - 1.0)
        for name, unit in PER_LAYER:
            metrics[name] = {"value": layer[name], "unit": unit}
            print(f"{name:36s} {layer[name]:14.6f} {unit}")
        spans_path = os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl")
        report["spans_written"] = tracer.write(spans_path)
        report["span_time_factor"] = factor
    else:
        for name, unit in END_TO_END:
            value, raw = values[name]
            metrics[name] = {"value": value, "unit": unit}
            shown = "" if raw is None else f"   (raw {raw:.6f} {unit})"
            print(f"{name:14s} {value:14.6f} {unit}{shown}")
        report["raw"] = {k: v[1] for k, v in values.items() if v[1] is not None}
    print(f"rounds {len(rounds)} + traced {len(traced)}, {attempted} operations, "
          f"{failed} failed, {notes['query_samples']} query samples, "
          f"{meter.slow_intervals}/{meter.intervals} intervals slow, {elapsed:.1f} s")
    for m in messages:
        print(f"FAILED {m}", file=sys.stderr)
    result = {"correct": wrong == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report["result"] = result
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
