"""Command-line surface: run, verify, probe, and their exit codes."""
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc

import pytest

import ceerlab
from ceerlab.ceers import CeerTable
from ceerlab.cli import main
from ceerlab.engine import RunLog
from ceerlab.pairing import pair

ROOT = os.path.join(os.path.dirname(__file__), "..")
SCENARIOS = os.path.join(ROOT, "scenarios")

TINY_SIGMA3 = """\
construction = sigma3
stages = 4
[universal]
1: 0 1
[wcolumn 0]
2: 0
3: 1
"""


@pytest.fixture
def tiny_scenario(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(TINY_SIGMA3)
    return str(path)


def shipped(name):
    return os.path.join(SCENARIOS, name)


def peak_of(argv):
    """Exit code and peak traced allocation (bytes) of one command."""
    tracemalloc.start()
    try:
        rc = main(argv)
        return rc, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- run -----------------------------------------------------------------


def test_run_writes_log_and_summary(tiny_scenario, tmp_path, capsys):
    out = str(tmp_path / "tiny.log.jsonl")
    rc = main(["run", tiny_scenario, "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "construction: sigma3" in text
    assert f"log: {out}" in text
    lines = open(out).read().splitlines()
    assert json.loads(lines[0])["construction"] == "sigma3"
    assert len(lines) == 3


def test_run_default_log_sits_next_to_scenario(tiny_scenario, capsys):
    rc = main(["run", tiny_scenario])
    assert rc == 0
    expected = tiny_scenario[: -len(".txt")] + ".log.jsonl"
    assert os.path.exists(expected)
    assert f"log: {expected}" in capsys.readouterr().out


def test_run_reruns_byte_identical(tiny_scenario, tmp_path, capsys):
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert main(["run", tiny_scenario, "--out", a]) == 0
    assert main(["run", tiny_scenario, "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_run_stage_override(tiny_scenario, tmp_path, capsys):
    out = str(tmp_path / "o.jsonl")
    rc = main(["run", tiny_scenario, "--stages", "2", "--out", out])
    assert rc == 0
    header = json.loads(open(out).read().splitlines()[0])
    assert header["params"]["stages"] == 2


def test_run_missing_scenario(capsys, tmp_path):
    rc = main(["run", str(tmp_path / "nope.txt")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_run_bad_epsilon(tiny_scenario, capsys):
    rc = main(["run", tiny_scenario, "--epsilon", "lots"])
    assert rc == 2
    assert "bad epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["flag", "scenario"])
@pytest.mark.parametrize("epsilon", ["3/2", "0", "-1/4"])
def test_run_epsilon_out_of_range(epsilon, route, tmp_path, capsys):
    scenario, flags = shipped("dark-ring-basic.txt"), [f"--epsilon={epsilon}"]
    if route == "scenario":
        text = open(scenario).read()
        assert "\nepsilon = 1/4\n" in text
        scenario, flags = str(tmp_path / "dark.txt"), []
        open(scenario, "w").write(
            text.replace("\nepsilon = 1/4\n", f"\nepsilon = {epsilon}\n"))
    out = tmp_path / "dark.jsonl"
    rc = main(["run", scenario, *flags, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"bad epsilon {epsilon!r}: must lie in (0, 1]" in err
    assert not out.exists()


@pytest.mark.parametrize("route", ["flag", "scenario"])
@pytest.mark.parametrize("maxdeg", ["65", "1000000", "-1"])
def test_run_maxdeg_above_ceiling(maxdeg, route, tmp_path, capsys):
    scenario, flags = shipped("dark-group-basic.txt"), ["--maxdeg", maxdeg]
    if route == "scenario":
        text = open(scenario).read()
        assert "\nmaxdeg = 26\n" in text
        scenario, flags = str(tmp_path / "dark.txt"), []
        open(scenario, "w").write(
            text.replace("\nmaxdeg = 26\n", f"\nmaxdeg = {maxdeg}\n"))
    out = tmp_path / "dark.jsonl"
    rc = main(["run", scenario, *flags, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: bad maxdeg {maxdeg}: must lie in [0, 64]\n"
    assert not out.exists()


@pytest.mark.parametrize("route", ["flag", "scenario"])
@pytest.mark.parametrize("stages", [str(10 ** 9), "100001", "-1"])
def test_run_stages_above_ceiling(stages, route, tmp_path, capsys):
    scenario, flags = shipped("sigma3-basic.txt"), ["--stages", stages]
    if route == "scenario":
        text = open(scenario).read()
        assert text.count("\nstages = 60\n") == 1
        scenario, flags = str(tmp_path / "sigma3.txt"), []
        open(scenario, "w").write(
            text.replace("\nstages = 60\n", f"\nstages = {stages}\n"))
    out = tmp_path / "sigma3.jsonl"
    start = time.perf_counter()
    rc, peak = peak_of(["run", scenario, *flags, "--out", str(out)])
    assert time.perf_counter() - start < 1  # no stage was run
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"error: bad stages {stages}: must lie in [0, 100000]\n"
    assert peak < 2_000_000
    assert not out.exists()


@pytest.mark.parametrize("route", ["flag", "scenario", "sug-template",
                                   "level-census", "vi-vs-U"])
@pytest.mark.parametrize("levels", [6, 10 ** 9])
def test_star_shape_above_ceiling(levels, route, tmp_path, capsys):
    out = tmp_path / "star.jsonl"
    base = 10
    if route == "flag":
        argv = ["run", shipped("star-universal-basic.txt"),
                "--levels", str(levels), "--out", str(out)]
    elif route in ("scenario", "sug-template"):
        name, line = {"scenario": ("star-universal-basic.txt", "levels = 2"),
                      "sug-template": ("sug-basic.txt", "levels = 1")}[route]
        text = open(shipped(name)).read()
        assert text.count(f"\n{line}\n") == 1
        path = tmp_path / name
        path.write_text(text.replace(f"\n{line}\n", f"\nlevels = {levels}\n"))
        argv = ["run", str(path), "--out", str(out)]
        base = 10 if route == "scenario" else 6
    else:
        rows = open(shipped("star-universal-basic.log.jsonl")).readlines()
        header = json.loads(rows[0])
        header["params"]["levels"] = levels
        path = tmp_path / "edited.jsonl"
        path.write_text(json.dumps(header) + "\n" + "".join(rows[1:]))
        argv = ["verify", str(path), route]
    rc, peak = peak_of(argv)
    assert rc == 2
    msg = (f"error: base {base} and levels {levels} need base ** (levels + 1) "
           "generators, above the ceiling 100000\n")
    got = capsys.readouterr()
    assert (got.err if argv[0] == "run" else got.out) == msg
    assert peak < 2_000_000  # no level's letters were listed
    assert not out.exists()


def test_star_xrange_above_ceiling(tmp_path, capsys):
    text = open(shipped("star-universal-basic.txt")).read()
    assert text.count("xrange:100:998") == 1
    path = tmp_path / "star.txt"
    path.write_text(text.replace("xrange:100:998", "xrange:0:300000000"))
    out = tmp_path / "star.jsonl"
    rc, peak = peak_of(["run", str(path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: line 14: range end 300000000 in 'xrange:0:300000000' is "
        "above the generator ceiling 100000\n")
    assert peak < 2_000_000  # the range was not expanded
    assert not out.exists()


def test_star_phi_argument_range_above_ceiling(tmp_path, capsys):
    text = open(shipped("star-universal-basic.txt")).read()
    assert text.count("1..59/odd: 0") == 1
    path = tmp_path / "star.txt"
    path.write_text(text.replace("1..59/odd: 0", "1..1999999/odd: 0"))
    out = tmp_path / "star.jsonl"
    rc, peak = peak_of(["run", str(path), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: line 19: argument range '1..1999999/odd' holds 1000000 "
        "arguments, above the generator ceiling 100000\n")
    assert peak < 2_000_000  # the range was not expanded
    assert not out.exists()


def test_sigma3_with_huge_universal_bound(tmp_path, capsys):
    text = open(shipped("sigma3-basic.txt")).read()
    assert text.count("stages = 60\n") == 1
    path = tmp_path / "sigma3.txt"
    path.write_text(text.replace("stages = 60\n",
                                 "stages = 60\nubound = 100000000000\n"))
    out = tmp_path / "sigma3.jsonl"
    rc, peak = peak_of(["run", str(path), "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().err == ""
    assert peak < 200_000_000  # nothing universal-bound-sized was built
    params = RunLog.loads(out.read_text()).header["params"]
    assert params["universal_bound"] == 10 ** 11


def test_run_dark_ring_with_huge_generated_columns(tmp_path, capsys):
    text = open(shipped("dark-ring-basic.txt")).read()
    rows = "[ucolumn 0]\n1: 0\n2: 1\n"
    assert text.count(rows) == 1
    path = tmp_path / "ring.txt"
    path.write_text(text.replace(rows, "[ucolumn 0]\nmode = steady\n"
                                 "period = 100\ncount = 100000000\n")
                    .replace("rate = 32", "rate = 100000000"))
    out = tmp_path / "ring.jsonl"
    rc, peak = peak_of(["run", str(path), "--out", str(out)])
    assert rc == 0
    assert "L0: enumerate-witness@1 enumerate-witness@101" in (
        capsys.readouterr().out)
    assert peak < 2_000_000  # no column was listed


def test_run_reports_audit_failure_with_exit_one(tmp_path, capsys):
    out = str(tmp_path / "dark.jsonl")
    rc = main([
        "run", shipped("dark-group-basic.txt"),
        "--epsilon", "1/100", "--out", out,
    ])
    assert rc == 1
    assert "gs audit: FAILED" in capsys.readouterr().out


# -- verify ---------------------------------------------------------------


@pytest.mark.parametrize(
    "log,suite",
    [
        ("star-universal-basic.log.jsonl", "triangularity"),
        ("star-universal-basic.log.jsonl", "level-census"),
        ("star-universal-basic.log.jsonl", "vi-vs-U"),
        ("sug-basic.log.jsonl", "triangularity"),
        ("dark-ring-basic.log.jsonl", "membership"),
        ("dark-group-basic.log.jsonl", "membership"),
    ],
)
def test_verify_shipped_logs_pass(log, suite, capsys):
    rc = main(["verify", shipped(log), suite])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert f"suite {suite}: PASS" in out


# stdout and exit code of each suite, captured before the level words were
# compared as normal forms; a kernel change must not move a verdict line
PINNED_VERIFY = [
    ("star-universal-basic.log.jsonl", "vi-vs-U", 0,
     "18 word/table comparisons\nsuite vi-vs-U: PASS\n"),
    ("star-universal-basic.log.jsonl", "level-census", 0,
     "16 census checks at 6 checkpoints\nsuite level-census: PASS\n"),
    ("sug-basic.log.jsonl", "vi-vs-U", 2,
     "error: suite 'vi-vs-U' applies to star-universal logs, "
     "got 'sug-indexset'\n"),
    ("sug-basic.log.jsonl", "level-census", 2,
     "error: suite 'level-census' applies to star-universal logs, "
     "got 'sug-indexset'\n"),
    ("no-collapse", "vi-vs-U", 1,
     "stage 500: level words 0,1 differ but universal table says related\n"
     "15 word/table comparisons; FAILURES above\nsuite vi-vs-U: FAIL\n"),
]


@pytest.mark.parametrize("log,suite,rc,out", PINNED_VERIFY)
def test_verify_output_is_pinned(log, suite, rc, out, tmp_path, capsys):
    if log == "no-collapse":  # the shipped star log without its collapse
        src = open(shipped("star-universal-basic.log.jsonl")).readlines()
        path = tmp_path / "no-collapse.jsonl"
        path.write_text("".join(ln for ln in src
                                if '"collapse-level"' not in ln))
    else:
        path = shipped(log)
    assert main(["verify", str(path), suite]) == rc
    assert capsys.readouterr() == (out, "")


@pytest.mark.parametrize("suite", ["vi-vs-U", "level-census"])
def test_star_suites_with_huge_universal_bound(suite, tmp_path, capsys):
    log = shipped("star-universal-basic.log.jsonl")
    head, rest = open(log).read().split("\n", 1)
    header = json.loads(head)
    header["params"]["universal_bound"] = 10 ** 11
    path = tmp_path / "star.jsonl"
    path.write_text(json.dumps(header) + "\n" + rest)
    assert main(["verify", log, suite]) == 0
    shipped_out = capsys.readouterr().out
    rc, peak = peak_of(["verify", str(path), suite])
    assert rc == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (shipped_out, "")
    assert peak < 200_000_000  # nothing universal-bound-sized was built


def test_verify_unknown_suite(capsys):
    rc = main(["verify", shipped("star-universal-basic.log.jsonl"), "magic"])
    assert rc == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_wrong_construction(capsys):
    rc = main(["verify", shipped("star-universal-basic.log.jsonl"),
               "membership"])
    assert rc == 2
    assert "applies to" in capsys.readouterr().out


def test_verify_missing_log(tmp_path, capsys):
    rc = main(["verify", str(tmp_path / "none.jsonl"), "triangularity"])
    assert rc == 2
    assert "cannot read log" in capsys.readouterr().err


def test_verify_malformed_log(tmp_path, capsys):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"construction":"star-universal","params":{}}\n'
                    '{"stage":1,"requirement":"R0","kind":"R",'
                    '"action":"case-2"}\n')
    rc = main(["verify", str(path), "level-census"])
    assert rc == 2
    assert "malformed log" in capsys.readouterr().err


@pytest.mark.parametrize("text,err", [
    ("[1]\n", "log line 1 is not a JSON object"),
    ('{"construction":"star-universal","params":{}}\n\n[1,2]\n',
     "log line 3 is not a JSON object"),
    ("[" * 100_000 + "]" * 100_000 + "\n", "log line 1 nests too deeply"),
    ('{"construction":"star-universal","params":{}}\n{"stage":1}\n',
     "log line 2 lacks 'requirement'"),
], ids=["array-header", "array-record", "deep-array", "record-lacks-key"])
def test_verify_json_array_log(text, err, tmp_path, capsys):
    path = tmp_path / "array.jsonl"
    path.write_text(text)
    assert main(["verify", str(path), "vi-vs-U"]) == 2
    assert capsys.readouterr() == ("", f"error: cannot read log: {err}\n")


def test_verify_empty_log_passes_vacuously(tmp_path, capsys):
    header = {
        "construction": "star-universal",
        "params": {"base": 6, "levels": 1, "stages": 5,
                   "universal": [], "universal_bound": 2},
    }
    path = tmp_path / "empty.jsonl"
    path.write_text(json.dumps(header) + "\n")
    rc = main(["verify", str(path), "level-census"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "vacuously" in out


def test_verify_flags_nontriangular_relator(tmp_path, capsys):
    header = {"construction": "star-universal",
              "params": {"base": 6, "levels": 1, "stages": 2,
                         "universal": [], "universal_bound": 2}}
    record = {"stage": 1, "requirement": "R0", "kind": "R",
              "action": "case-3a", "witnesses": [0, 1],
              "relators": [{"lhs": 5, "rhs": [[7, 1]]}]}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    rc = main(["verify", str(path), "triangularity"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_verify_catches_dropped_collapse(tmp_path, capsys):
    src = open(shipped("star-universal-basic.log.jsonl")).read().splitlines()
    kept = [ln for ln in src if '"collapse-level"' not in ln]
    assert len(kept) == len(src) - 1
    path = tmp_path / "tampered.jsonl"
    path.write_text("\n".join(kept) + "\n")
    rc = main(["verify", str(path), "vi-vs-U"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "suite vi-vs-U: FAIL" in out


def test_verify_level_census_flags_a_thin_level(tmp_path, capsys):
    rows = [json.loads(ln) for ln in
            open(shipped("star-universal-basic.log.jsonl")).read().splitlines()]
    assert rows[0]["params"]["base"] == 10
    tie = next(o for o in rows if o.get("action") == "case-3c")
    assert (tie["stage"], tie["level"], tie["determined"]) == (1, 2, [996, 997])
    # level 2 keeps x100..x995 active after the tie-break; retire all but
    # base**2 of them, which is one too few
    tie["determined"] += list(range(100, 896))
    path = tmp_path / "thin.jsonl"
    path.write_text("\n".join(json.dumps(o) for o in rows) + "\n")
    rc = main(["verify", str(path), "level-census"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert out[0] == "stage 1: level 2 holds 100 active generators, needs > 100"
    assert "stage 500: level 2 holds 100 active generators, needs > 100" in out
    assert out[-2:] == ["16 census checks at 6 checkpoints; FAILURES above",
                        "suite level-census: FAIL"]


def test_verify_catches_floor_violation(tmp_path, capsys):
    src = open(shipped("dark-ring-basic.log.jsonl")).read().splitlines()
    rows = [json.loads(ln) for ln in src]
    # pretend the first collapse promised a higher floor than it honored
    for obj in rows:
        if obj.get("action") == "collapse-pair" and obj["relator_degrees"]:
            obj["degree_floor"] = max(obj["relator_degrees"])
            break
    path = tmp_path / "floor.jsonl"
    path.write_text("\n".join(json.dumps(o) for o in rows) + "\n")
    rc = main(["verify", str(path), "membership"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "violates floor" in out


# -- probe ----------------------------------------------------------------


@pytest.fixture
def dumps(tmp_path):
    left = CeerTable(bound=4)
    left.assert_pair(0, 1, 3)
    right = CeerTable(bound=4)
    right.assert_pair(2, 3, 1)
    lp = tmp_path / "left.jsonl"
    rp = tmp_path / "right.jsonl"
    lp.write_text(left.dumps())
    rp.write_text(right.dumps())
    return str(lp), str(rp)


def test_probe_related_uses_stage(dumps, capsys):
    left, _ = dumps
    assert main(["probe", "related", left, "0", "1"]) == 0
    assert main(["probe", "related", left, "--stage", "2", "0", "1"]) == 0
    assert main(["probe", "related", left, "--stage", "3", "0", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["true", "false", "true"]


def test_probe_classes(dumps, capsys):
    left, _ = dumps
    assert main(["probe", "classes", left, "--bound", "4"]) == 0
    classes = [json.loads(ln) for ln in capsys.readouterr().out.splitlines()]
    assert [0, 1] in classes and [2] in classes and [3] in classes


def test_probe_product(dumps, capsys):
    left, right = dumps
    assert main(["probe", "product", left, right]) == 0
    table = CeerTable.load(io.StringIO(capsys.readouterr().out))
    # (0,2) ~ (1,3): left relates 0,1 and right relates 2,3
    assert table.related(pair(0, 2), pair(1, 3), 3)
    assert not table.related(pair(0, 2), pair(1, 3), 2)


def test_probe_join(dumps, capsys):
    left, right = dumps
    assert main(["probe", "join", left, right]) == 0
    table = CeerTable.load(io.StringIO(capsys.readouterr().out))
    assert table.related(pair(0, 0), pair(0, 1), 3)
    assert table.related(pair(1, 2), pair(1, 3), 1)
    assert not table.related(pair(0, 0), pair(1, 0), 99)


def test_probe_pullback(dumps, capsys):
    left, _ = dumps
    rc = main(["probe", "pullback", left, "--map", "0:0,1:1,2:1",
               "--bound", "3"])
    assert rc == 0
    table = CeerTable.load(io.StringIO(capsys.readouterr().out))
    assert table.related(0, 1, 3)
    assert table.related(1, 2, 0)


def test_probe_verify_reduction_pass_and_fail(dumps, capsys):
    left, right = dumps
    rc = main(["probe", "verify-reduction", left, right,
               "--map", "0:2,1:3,2:0,3:1"])
    assert rc == 0
    assert "no violations" in capsys.readouterr().out
    # 0 ~ 1 on the left but their images 2 and 0 stay apart on the right
    rc = main(["probe", "verify-reduction", left, right,
               "--map", "0:2,1:0,2:1,3:1"])
    assert rc == 1
    assert "violation" in capsys.readouterr().out


def test_probe_missing_dump(tmp_path, capsys):
    rc = main(["probe", "related", str(tmp_path / "no.jsonl"), "0", "1"])
    assert rc == 2
    assert "cannot read dump" in capsys.readouterr().err


@pytest.mark.parametrize("sub", [["related", "0", "1"], ["classes"],
                                 ["pullback", "--map", "0:0"]])
def test_probe_bound_above_ceiling(sub, dumps, capsys):
    left, _ = dumps
    rc = main(["probe", sub[0], left, "--bound", "1000001", *sub[1:]])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: --bound 1000001 exceeds the ceiling 1000000\n")


@pytest.mark.parametrize("index", [1_000_000, 2_000_000])
@pytest.mark.parametrize("where", ["dump", "other"])
def test_probe_dump_index_above_ceiling(index, where, dumps, tmp_path, capsys):
    left, _ = dumps
    big = tmp_path / "big.jsonl"
    big.write_text(json.dumps({"a": 0, "b": index, "s": 1}) + "\n")
    if where == "dump":
        argv = ["probe", "related", str(big), "0", "1"]
        prefix = "error: cannot read dump: "
    else:
        argv = ["probe", "product", left, str(big)]
        prefix = "error: "
    rc, peak = peak_of(argv)
    assert rc == 2
    assert capsys.readouterr().err == (
        f"{prefix}index {index} implies a bound above the ceiling 1000000\n")
    assert peak < 2_000_000  # nothing bound-sized was allocated


@pytest.mark.parametrize("sub,index,bound", [
    ("product", 999_999, 1_999_998_000_001),
    ("product", 3000, 18_006_001),
    ("join", 999_999, 500_001_500_000),
])
def test_probe_output_bound_above_ceiling(sub, index, bound, tmp_path, capsys):
    # every dump is under the ceiling; the table built from them is not
    big = tmp_path / "big.jsonl"
    big.write_text(json.dumps({"a": 0, "b": index, "s": 1}) + "\n")
    rc, peak = peak_of(["probe", sub, str(big), str(big)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {sub} output bound {bound} is above the ceiling 1000000\n")
    assert peak < 200_000_000  # only the two input tables were built


@pytest.mark.parametrize("sub,fmap", [
    ("verify-reduction", "0:3000000,1:0"),
    ("verify-reduction", "1000000:0"),
    ("pullback", "0:0,2000000:1"),
])
def test_probe_map_value_above_ceiling(sub, fmap, dumps, capsys):
    left, right = dumps
    argv = ["probe", sub, left] + ([right] if sub == "verify-reduction" else [])
    rc, peak = peak_of(argv + ["--map", fmap])
    assert rc == 2
    value = max(int(x) for x in re.split("[,:]", fmap))
    assert capsys.readouterr().err == (
        f"error: --map value {value} implies a bound above the ceiling "
        "1000000\n")
    assert peak < 2_000_000


@pytest.mark.parametrize("bound,flags", [
    (1415, []),  # the map's own totality bound
    (1415, ["--bound", "1415"]),
    (1_000_000, ["--bound", "1000000"]),
])
def test_probe_verify_reduction_above_pair_ceiling(bound, flags, dumps,
                                                  capsys):
    left, right = dumps
    fmap = ",".join(f"{n}:0" for n in range(1415))
    start = time.perf_counter()
    rc, peak = peak_of(["probe", "verify-reduction", left, right,
                        "--map", fmap, *flags])
    assert time.perf_counter() - start < 1  # no pair was checked
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: verify-reduction bound {bound} has "
        f"{bound * (bound - 1) // 2} index pairs to check, above the ceiling "
        "1000000\n")
    assert peak < 2_000_000


@pytest.mark.parametrize("text,argv,err", [
    (None, ["related", "{left}", "0", "1", "--bound", "1"],
     "error: cannot read dump: index 1 out of bound 1"),
    ('{"a": "x", "b": 3, "s": 1}', ["related", "{bad}", "0", "1"],
     "error: cannot read dump: "),
    ('{"a": 0, "s": 1}', ["product", "{left}", "{bad}"], "error: 'b'"),
    ("[" * 100_000 + "]" * 100_000, ["related", "{bad}", "0", "1"],
     "error: cannot read dump: dump line 1 nests too deeply\n"),
    ("[" * 100_000 + "]" * 100_000, ["product", "{left}", "{bad}"],
     "error: dump line 1 nests too deeply\n"),
], ids=["bound-below-index", "non-integer-index", "other-missing-key",
        "deep-array", "other-deep-array"])
def test_probe_bad_dump_exits_two(text, argv, err, dumps, tmp_path, capsys):
    left, _ = dumps
    bad = tmp_path / "bad.jsonl"
    if text is not None:
        bad.write_text(text + "\n")
    rc = main(["probe"] + [a.format(left=left, bad=bad) for a in argv])
    assert rc == 2
    out = capsys.readouterr().err
    assert out.startswith(err) and out.count("\n") == 1, out


def test_probe_empty_map(dumps, capsys):
    left, _ = dumps
    rc = main(["probe", "pullback", left, "--map", " "])
    assert rc == 2
    assert "error" in capsys.readouterr().err


# -- entry point ------------------------------------------------------------


def declared_scripts():
    """The ``[project.scripts]`` table of pyproject.toml, name -> target.

    Read as text rather than with ``tomllib`` (3.11+ only), so the same
    code runs on every Python that ``requires-python`` allows.
    """
    scripts, inside = {}, False
    with open(os.path.join(ROOT, "pyproject.toml")) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("["):
                inside = line == "[project.scripts]"
            elif inside and "=" in line:
                name, _, target = line.partition("=")
                scripts[name.strip().strip('"')] = target.strip().strip('"')
    return scripts


def run_child(argv):
    """Run argv in a fresh process that imports this checkout's ceerlab."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ceerlab.__file__)))
    env = dict(os.environ, COLUMNS="80")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(argv, capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: ceerlab"), proc.stdout
    for command in ("run", "verify", "probe"):
        assert re.search(rf"\b{command}\b", proc.stdout), proc.stdout
    return proc.stdout


def test_console_script_help():
    target = declared_scripts().get("ceerlab")
    assert target, "pyproject.toml declares no ceerlab script"
    module, _, func = target.partition(":")
    assert callable(getattr(importlib.import_module(module), func, None)), \
        target
    installed = shutil.which("ceerlab")
    if installed:
        argv = [installed, "--help"]
    else:  # what the generated console-script wrapper does
        argv = [sys.executable, "-c",
                f"import sys; from {module} import {func}; sys.exit({func}())",
                "--help"]
    out = run_child(argv)
    assert run_child([sys.executable, "-m", "ceerlab", "--help"]) == out
