"""Command-line surface: run, verify, probe, and their exit codes."""
import argparse
import hashlib
import importlib
import io
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
import tracemalloc

import pytest

from ceerlab import replay
from ceerlab.ceers import CeerTable
from ceerlab.cli import SUITES, main
from ceerlab.engine import PriorityEngine, RunLog
from ceerlab.pairing import pair

from helpers import BlockWriter, child_env, reference_classes_at

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


def test_run_keeps_a_default_log_with_another_header(tmp_path, capsys):
    copy = tmp_path / "scenarios"
    shutil.copytree(SCENARIOS, copy)
    log = copy / "sigma3-basic.log.jsonl"
    digest = hashlib.sha256(log.read_bytes()).hexdigest()
    assert main(["run", str(copy / "sigma3-basic.txt"), "--stages", "3"]) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == (f"error: {log} holds a log with another header; remove "
                       "it or write this run's log elsewhere with --out\n")
    assert hashlib.sha256(log.read_bytes()).hexdigest() == digest
    # a rerun with the log's own header rewrites it, byte for byte
    assert main(["run", str(copy / "sigma3-basic.txt")]) == 0
    assert hashlib.sha256(log.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("route", ["--out", "default"])
def test_run_log_path_that_is_a_directory(route, tmp_path, capsys):
    scenario = tmp_path / "tiny.txt"
    scenario.write_text(TINY_SIGMA3)
    log = tmp_path / ("dir" if route == "--out" else "tiny.log.jsonl")
    log.mkdir()
    argv = ["run", str(scenario)] + (["--out", str(log)] if route == "--out"
                                     else [])
    assert main(argv) == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err == f"error: cannot write log: [Errno 21] Is a directory: " \
                      f"'{log}'\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["tiny.txt", log.name])
    assert list(log.iterdir()) == []


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


# a word column whose collapse floor, 10 above its index, passes maxdeg
DARK_BELOW_FLOOR = """\
construction = dark-ring
stages = 10
maxdeg = 9
[wcolumn 0]
3: x
"""


@pytest.mark.parametrize("route", ["flag", "scenario"])
def test_run_refuses_wcolumn_above_maxdeg_before_stage_1(route, tmp_path,
                                                          monkeypatch, capsys):
    text, flags = DARK_BELOW_FLOOR, []
    if route == "flag":
        text, flags = text.replace("maxdeg = 9", "maxdeg = 16"), ["--maxdeg",
                                                                  "9"]
    scenario, out = tmp_path / "dark.txt", tmp_path / "dark.jsonl"
    scenario.write_text(text)
    stages = []
    monkeypatch.setattr(PriorityEngine, "run_stage",
                        lambda self, stage: stages.append(stage))
    rc = main(["run", str(scenario), *flags, "--out", str(out)])
    assert (rc, *capsys.readouterr()) == (
        2, "", "error: line 4: [wcolumn 0] collapse floor 10 is above "
               "maxdeg 9\n")
    assert stages == [] and not out.exists()


@pytest.mark.parametrize("flags", [["--maxdeg", "10"], ["--stages", "2"]],
                         ids=["floor-at-maxdeg", "rows-past-stages"])
def test_run_keeps_wcolumn_at_maxdeg_or_past_stages(flags, tmp_path, capsys):
    scenario, out = tmp_path / "dark.txt", tmp_path / "dark.jsonl"
    scenario.write_text(DARK_BELOW_FLOOR)
    assert main(["run", str(scenario), *flags, "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


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
                                   "level-census", "vi-vs-U",
                                   "triangularity"])
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
    msg = (f"base {base} and levels {levels} need base ** (levels + 1) "
           "generators, above the ceiling 100000")
    got = capsys.readouterr()
    if argv[0] == "run":
        assert got.err == f"error: {msg}\n"
    else:  # verify reports a header it cannot replay as a malformed log
        assert got.out == ""
        assert got.err == (f"error: malformed log for suite {route}: "
                           f"ValueError({msg!r})\n")
    assert peak < 2_000_000  # no level's letters were listed
    assert not out.exists()


NEGATIVE_LEVELS_STAR = """\
construction = star-universal
stages = 5
base = 6
levels = -2
"""

NEGATIVE_LEVELS_SUG = """\
construction = sug-indexset
stages = 5
[star-template]
base = 6
levels = -1
[vcolumn 0]
1: 0
"""


@pytest.mark.parametrize("route", ["star-scenario", "sug-template", "flag",
                                   "level-census", "vi-vs-U",
                                   "triangularity"])
def test_star_negative_levels(route, tmp_path, capsys):
    """A negative `levels` is refused with one line wherever a star shape
    is read: a scenario, a sug template, a flag and an empty log's header."""
    out = tmp_path / "star.jsonl"
    if route == "flag":
        argv = ["run", shipped("star-universal-basic.txt"),
                "--levels", "-3", "--out", str(out)]
    elif route in ("star-scenario", "sug-template"):
        path = tmp_path / "negative.txt"
        path.write_text(NEGATIVE_LEVELS_STAR if route == "star-scenario"
                        else NEGATIVE_LEVELS_SUG)
        argv = ["run", str(path), "--out", str(out)]
    else:
        header = json.loads(
            open(shipped("star-universal-basic.log.jsonl")).readline())
        header["params"]["levels"] = -1
        path = tmp_path / "empty.jsonl"
        path.write_text(json.dumps(header) + "\n")
        argv = ["verify", str(path), route]
    assert main(argv) == 2
    msg = "levels must be a nonnegative integer"
    err = (f"error: {msg}\n" if argv[0] == "run" else
           f"error: malformed log for suite {route}: ValueError({msg!r})\n")
    assert capsys.readouterr() == ("", err)
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


STAR_FOUR_WAITING = """\
construction = star-universal
stages = 1
base = 6
levels = 1

[universal]
5: 0 1

[phi 0]
0..9: 50 x7
[phi 1]
0..9: 50 x7
[phi 2]
0..9: 50 x7
[phi 3]
0..9: 50 x7
"""


def test_star_witness_pool_holds_every_draw(tmp_path, capsys):
    """Each of four R_e draws a witness pair when asked at stage 1, though
    none is ready; the pool must hold all eight indices."""
    path = tmp_path / "star.txt"
    path.write_text(STAR_FOUR_WAITING)
    out = tmp_path / "star.jsonl"
    assert main(["run", str(path), "--out", str(out)]) == 0
    got = capsys.readouterr()
    assert got.err == ""
    assert "records: 2\n" in got.out
    assert [r.action for r in RunLog.loads(out.read_text()).records] == [
        "init-level", "init-level"]


# ten rows of 100,000 arguments each: every row passes the generator ceiling,
# their total does not
FULL_ROWS = "".join(f"{i * 100000}..{i * 100000 + 99999}: 50 x7\n"
                    for i in range(10))
STAR_FULL_ROWS = """\
construction = star-universal
stages = 1
base = 6
levels = 1

[universal]
5: 0 1

[phi 0]
""" + FULL_ROWS


@pytest.mark.parametrize("text,section,row,total", [
    (STAR_FULL_ROWS, "phi", 1, 200000),
    # the shipped [star-phi 0] holds two arguments
    (open(shipped("sug-basic.txt")).read() + "\n[star-phi 1]\n" + FULL_ROWS,
     "star-phi", 0, 100002),
])
def test_phi_arguments_total_above_ceiling(text, section, row, total,
                                           tmp_path, capsys):
    path = tmp_path / "stubs.txt"
    path.write_text(text)
    out = tmp_path / "stubs.jsonl"
    rc, seconds, peak = timed_peak_of(["run", str(path), "--out", str(out)])
    assert rc == 2
    line = text.splitlines().index(FULL_ROWS.splitlines()[row]) + 1
    assert capsys.readouterr().err == (
        f"error: line {line}: [{section}] rows up to here hold {total} "
        "arguments, above the generator ceiling 100000\n")
    assert seconds < 10 and peak < 200_000_000  # no row was expanded
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


def timed_peak_of(argv):
    """Exit code, wall seconds and peak traced allocation of one command."""
    start = time.perf_counter()
    rc, peak = peak_of(argv)
    return rc, time.perf_counter() - start, peak


@pytest.mark.parametrize("name,section,flags,line", [
    ("sigma3-basic.txt", "[wcolumn 100000]\n1: 0", ["--stages", "100"], 30),
    ("sigma3-basic.txt", "[wcolumn 1000000]\n1: 0", ["--stages", "10"], 30),
    ("star-universal-basic.txt", "[phi 1000000]", [], 21),
    ("star-universal-basic.txt", "[phi 10000000000]", [], 21),
    ("sug-basic.txt", "[vcolumn 101]\n1: 0", [], 43),
])
def test_run_section_index_above_ceiling(name, section, flags, line,
                                         tmp_path, capsys):
    path = tmp_path / name
    path.write_text(open(shipped(name)).read() + f"\n{section}\n")
    out = tmp_path / "out.jsonl"
    rc, seconds, peak = timed_peak_of(["run", str(path), *flags,
                                       "--out", str(out)])
    assert rc == 2
    header = section.split("\n")[0]
    assert capsys.readouterr().err == (
        f"error: line {line}: {header} has an index above the section index "
        "ceiling 100\n")
    assert seconds < 1 and peak < 2_000_000  # no requirement was built
    assert not out.exists()


def test_run_section_index_at_ceiling(tmp_path, capsys):
    path = tmp_path / "sigma3.txt"
    path.write_text(open(shipped("sigma3-basic.txt")).read()
                    + "\n[wcolumn 100]\n1: 0\n")
    out = tmp_path / "sigma3.jsonl"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert "\n  C100: " in capsys.readouterr().out


QUADRATIC_SIGMA3 = """\
construction = sigma3
[universal]
1: 0 1
[wcolumn 0]
mode = steady
period = 2
[wcolumn 1]
mode = steady
period = 1
"""


@pytest.mark.parametrize("name,old,new,index", [
    ("sug-basic.txt", "8: 6 7\n", "8: 6 10000000000\n", 10 ** 10),
    ("sigma3-basic.txt", "15: 2 4\n", "15: 2 4\n7: 2 100001\n", 5000250002),
    ("sigma3-basic.txt", "use = 9\n", f"use = {10 ** 40}\n",
     10 ** 40 + 188249867551336164522),
    (None, None, "5000", 1000406),
    (None, None, "20000", 1000406),
], ids=["sug-coded-row", "sigma3-join-code", "sigma3-huge-use",
        "fresh-columns-5000", "fresh-columns-20000"])
def test_run_table_index_above_ceiling(name, old, new, index, tmp_path,
                                       capsys):
    path = tmp_path / "in.txt"
    if name is None:  # C1 takes a fresh join column each time it is injured
        path.write_text(QUADRATIC_SIGMA3)
        flags = ["--stages", new]
    else:
        text = open(shipped(name)).read()
        assert text.count(old) == 1
        path.write_text(text.replace(old, new))
        flags = []
    out = tmp_path / "out.jsonl"
    rc, seconds, peak = timed_peak_of(["run", str(path), *flags,
                                       "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: pair (") and err.endswith(
        f" names index {index}, not below the table index ceiling 1000000\n")
    assert seconds < 10 and peak < 200_000_000
    assert not out.exists()


def test_run_fresh_columns_below_the_table_index_ceiling(tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text(QUADRATIC_SIGMA3)
    out = tmp_path / "out.jsonl"
    rc, seconds, peak = timed_peak_of(["run", str(path), "--stages", "1000",
                                       "--out", str(out)])
    assert rc == 0
    assert seconds < 10 and peak < 200_000_000
    assert "C1: " in capsys.readouterr().out


@pytest.mark.parametrize("exponent", ["65", "1000000"])
def test_run_unit_exponent_above_ceiling(exponent, tmp_path, capsys):
    out = tmp_path / "dark.jsonl"
    rc, seconds, peak = timed_peak_of([
        "run", shipped("dark-group-basic.txt"), "--unit-exponent", exponent,
        "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: bad unit_exponent {exponent}: must lie in [0, 64]\n")
    assert seconds < 1 and peak < 2_000_000
    assert not out.exists()


def test_run_reports_audit_failure_with_exit_one(tmp_path, capsys):
    out = str(tmp_path / "dark.jsonl")
    rc = main([
        "run", shipped("dark-group-basic.txt"),
        "--epsilon", "1/100", "--out", out,
    ])
    assert rc == 1
    assert "gs audit: FAILED" in capsys.readouterr().out


# two degree-10 seeds fail the growth audit at stage 0, before any stage runs
DARK_AUDIT_FAILS = """\
construction = dark-group
stages = 10
maxdeg = 14
unit_exponent = 10
[ucolumn 0]
1: 0
"""


def test_run_output_on_a_failed_audit_is_pinned(tmp_path, capsys):
    scenario, out = tmp_path / "dark.txt", tmp_path / "dark.jsonl"
    scenario.write_text(DARK_AUDIT_FAILS)
    rc = main(["run", str(scenario), "--out", str(out)])
    assert (rc, *capsys.readouterr()) == (
        1,
        "construction: dark-group\n"
        "stages: 10\n"
        "records: 2\n"
        "  init: seed-ideal@0\n"
        "  audit: gs-failure@0\n"
        "gs audit: FAILED at stage 0 degree 10\n"
        f"log: {out}\n",
        "")


SIGMA3_RUN = (
    "construction: sigma3\n"
    "stages: {stages}\n"
    "records: 29\n"
    "  C0: choose-column@1 copy-column@4 copy-column@7 ... (12 actions)\n"
    "  C2: choose-column@2 choose-column@9 choose-column@18 choose-column@24 "
    "choose-column@30 choose-column@37\n"
    "  L1: place-restraint@5 place-restraint@8 place-restraint@11 ... "
    "(11 actions)\n"
    "column C0 -> 0\n"
    "column C2 -> 8\n"
    "restraint L0: use=None\n"
    "restraint L1: use=9\n"
    "restraint L2: use=None\n"
    "log: LOG\n"
)

SUG_RUN = (
    "construction: sug-indexset\n"
    "stages: {stages}\n"
    "records: 16\n"
    "  init: declare-abelian@0\n"
    "  C0: open-slot@1 advance-slot@2 advance-slot@3 advance-slot@4 "
    "advance-slot@5 advance-slot@6 advance-slot@7 advance-slot@8\n"
    "  D0: open-slot@9 code-pair@10 code-pair@11 code-pair@12 code-pair@13 "
    "code-pair@14\n"
    "  L1: place-restraint@30\n"
    "slot C0 -> g0\n"
    "slot D0 -> h0\n"
    "restraint L0: none\n"
    "restraint L1: g0,h0\n"
    "log: LOG\n"
)

PINNED_RUN = [
    ("sigma3-basic.txt", None, SIGMA3_RUN.format(stages=60)),
    ("sigma3-basic.txt", 2000, SIGMA3_RUN.format(stages=2000)),
    ("sug-basic.txt", None, SUG_RUN.format(stages=60)),
    ("sug-basic.txt", 2000, SUG_RUN.format(stages=2000)),
    ("dark-ring-basic.txt", None,
     "construction: dark-ring\n"
     "stages: 300\n"
     "records: 4\n"
     "  L0: enumerate-witness@1 enumerate-witness@2\n"
     "  D0: collapse-pair@64\n"
     "  D1: collapse-pair@65\n"
     "transversal T0: 2 entries, degrees 1 2\n"
     "transversal T1: 0 entries, degrees \n"
     "witness D0: stage 64, floor 10, relator degrees [11]\n"
     "witness D1: stage 65, floor 11, relator degrees []\n"
     "gs audit: pass at every stage\n"
     "log: LOG\n"),
]


@pytest.mark.parametrize("scenario,stages,out", PINNED_RUN)
def test_run_output_is_pinned(scenario, stages, out, tmp_path, capsys):
    argv = ["run", shipped(scenario), "--out", str(tmp_path / "run.jsonl")]
    if stages is not None:
        argv += ["--stages", str(stages)]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert re.sub(r"(?m)^log: .*$", "log: LOG", captured.out) == out
    assert captured.err == ""


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


# output and exit code of each suite, captured before the level words were
# compared as normal forms; a kernel change must not move a verdict line.  A
# refusal (exit code 2) prints its line on stderr, any other verdict on stdout
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
    assert capsys.readouterr() == (("", out) if rc == 2 else (out, ""))


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


def _first(rows, action):
    return next(row for row in rows if row.get("action") == action)


def _set_universal(rows, pairs, bound):
    rows[0]["params"].update(universal=pairs, universal_bound=bound)


def _repeat_first(rows, action, **changes):
    """Insert a copy of the first `action` record, with `changes`, right
    after it."""
    i = rows.index(_first(rows, action))
    rows.insert(i + 1, {**rows[i], **changes})


# JSON values a run never writes, each of which once escaped `verify` as a
# traceback, a hang or a pass
MALFORMED_VALUES = {
    "huge-universal-index": ("star-universal-basic", lambda rows:
                             _set_universal(rows, [[0, 10 ** 9, 6]],
                                            10 ** 9 + 1)),
    "pair-outside-bound": ("star-universal-basic", lambda rows:
                           _set_universal(rows, [[0, 5, 6]], 3)),
    "served-not-an-object": ("star-universal-basic", lambda rows:
                             _first(rows, "collapse-level").update(served=[5])),
    "huge-level": ("star-universal-basic", lambda rows:
                   _first(rows, "init-level").update(level=10 ** 9)),
    "level-laid-out-twice": ("star-universal-basic", lambda rows:
                             _repeat_first(rows, "init-level", relators=[])),
    "relator-not-text": ("dark-ring-basic", lambda rows:
                         _first(rows, "collapse-pair")["relators"].insert(0, 5)),
    "requirement-not-text": ("dark-ring-basic", lambda rows:
                             _first(rows, "enumerate-witness").update(
                                 requirement=5)),
    "huge-maxdeg": ("dark-ring-basic", lambda rows:
                    rows[0]["params"].update(maxdeg=10 ** 12)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_VALUES))
def test_verify_malformed_values_exit_two(case, tmp_path, capsys):
    name, mutate = MALFORMED_VALUES[case]
    rows = [json.loads(ln) for ln in open(shipped(f"{name}.log.jsonl"))]
    mutate(rows)
    path = tmp_path / "mutated.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    suites = (["membership"] if name.startswith("dark")
              else ["triangularity", "level-census", "vi-vs-U"])
    for suite in suites:
        rc, seconds, peak = timed_peak_of(["verify", str(path), suite])
        got = capsys.readouterr()
        assert rc == 2, (suite, got)
        assert got.out == "" and got.err.count("\n") == 1
        assert got.err.startswith(f"error: malformed log for suite {suite}: ")
        assert seconds < 10 and peak < 200_000_000


def test_verify_slot_named_like_an_error(tmp_path, capsys):
    text = open(shipped("sug-basic.log.jsonl")).read()
    assert '"slot":"g0"' in text
    path = tmp_path / "sug.jsonl"
    path.write_text(text.replace('"slot":"g0"', '"slot":"error: g0"'))
    assert main(["verify", str(path), "triangularity"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("error: g0: ") and out[0].endswith(
        " relators triangular, stages nondecreasing")
    assert out[-1] == "suite triangularity: PASS"


def test_verify_unknown_suite(capsys):
    rc = main(["verify", shipped("star-universal-basic.log.jsonl"), "magic"])
    assert rc == 2
    assert "unknown suite" in capsys.readouterr().err


def test_verify_wrong_construction(capsys):
    rc = main(["verify", shipped("star-universal-basic.log.jsonl"),
               "membership"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == "" and "applies to" in err


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


# an empty log's header that `replay.start` refuses, under each suite that
# applies to its construction: (suite, shipped log, header params to change,
# with None to drop a key)
EMPTY_LOG_HEADERS = {
    "membership-maxdeg-1000": ("membership", "dark-ring-basic",
                               {"maxdeg": 1000}),
    "membership-modulus-4": ("membership", "dark-group-basic",
                             {"modulus": 4}),
    "membership-epsilon-abc": ("membership", "dark-ring-basic",
                               {"epsilon": "abc"}),
    "membership-no-epsilon": ("membership", "dark-group-basic",
                              {"epsilon": None}),
    "triangularity-star-levels-6": ("triangularity", "star-universal-basic",
                                    {"levels": 6}),
    "triangularity-sug-negative-bound": ("triangularity", "sug-basic",
                                         {"coded_bound": -1}),
    "level-census-levels-6": ("level-census", "star-universal-basic",
                              {"levels": 6}),
    "level-census-pair-outside-bound": ("level-census",
                                        "star-universal-basic",
                                        {"universal": [[0, 5, 6]]}),
    "vi-vs-U-levels-6": ("vi-vs-U", "star-universal-basic", {"levels": 6}),
    "vi-vs-U-no-universal": ("vi-vs-U", "star-universal-basic",
                             {"universal": None}),
}


@pytest.mark.parametrize("case", sorted(EMPTY_LOG_HEADERS))
def test_verify_empty_log_checks_its_header(case, tmp_path, capsys):
    suite, name, changes = EMPTY_LOG_HEADERS[case]
    header = json.loads(open(shipped(f"{name}.log.jsonl")).readline())
    params = header["params"]
    for key, value in changes.items():
        if value is None:
            del params[key]
        else:
            params[key] = value
    path = tmp_path / "empty.jsonl"
    path.write_text(json.dumps(header) + "\n")
    assert main(["verify", str(path), suite]) == 2
    got = capsys.readouterr()
    assert got.out == "" and got.err.count("\n") == 1
    assert got.err.startswith(f"error: malformed log for suite {suite}: ")


STAGE_HEADER_LOGS = ["dark-group-basic", "dark-ring-basic", "sigma3-basic",
                     "star-universal-basic", "sug-basic"]


@pytest.mark.parametrize("records", [True, False],
                         ids=["with-records", "no-records"])
@pytest.mark.parametrize("stages", ["abc", -5, 100_001, True])
@pytest.mark.parametrize("name,suite", [
    (name, suite) for name in STAGE_HEADER_LOGS for suite, kinds
    in sorted(SUITES.items())
    if json.loads(open(shipped(f"{name}.log.jsonl")).readline())[
        "construction"] in kinds])
def test_verify_refuses_a_bad_header_stages(name, suite, stages, records,
                                            tmp_path, capsys):
    rows = open(shipped(f"{name}.log.jsonl")).readlines()
    header = json.loads(rows[0])
    header["params"]["stages"] = stages
    path = tmp_path / "stages.jsonl"
    path.write_text(json.dumps(header) + "\n"
                    + ("".join(rows[1:]) if records else ""))
    assert main(["verify", str(path), suite]) == 2
    error = ValueError(f"bad stages {stages!r}: must be an integer in "
                       "[0, 100000]")
    assert capsys.readouterr() == (
        "", f"error: malformed log for suite {suite}: {error!r}\n")


@pytest.mark.parametrize("stages", ["abc", -5, 100_001, True])
@pytest.mark.parametrize("name", STAGE_HEADER_LOGS)
def test_replay_start_refuses_a_bad_header_stages(name, stages):
    """Every construction's result refuses the stage count, sigma3's too,
    which no suite reads."""
    log = RunLog.load(shipped(f"{name}.log.jsonl"))
    log.header["params"]["stages"] = stages
    with pytest.raises(ValueError, match="^bad stages .*: must be an integer"):
        replay.start(log)


@pytest.mark.parametrize("bound", [float("inf"), float("nan"), 2.5, True,
                                   "3"])
@pytest.mark.parametrize("key", ["join_bound", "universal_bound"])
def test_replay_start_refuses_a_sigma3_bound_that_is_not_an_integer(key,
                                                                    bound):
    """Both of sigma3's table bounds are checked, though no suite reads a
    sigma3 log."""
    log = RunLog.load(shipped("sigma3-basic.log.jsonl"))
    log.header["params"][key] = bound
    with pytest.raises(ValueError) as caught:
        replay.start(log)
    assert str(caught.value) == f"bound {bound!r} is not an integer"


def test_verify_membership_names_the_audit_reason(tmp_path, capsys):
    rows = open(shipped("dark-ring-basic.log.jsonl")).read().splitlines()
    header = json.loads(rows[0])
    header["params"]["epsilon"] = "3/2"
    path = tmp_path / "eps.jsonl"
    path.write_text("\n".join([json.dumps(header)] + rows[1:]) + "\n")
    stages = [json.loads(row)["stage"] for row in rows[1:]]
    assert main(["verify", str(path), "membership"]) == 1
    assert capsys.readouterr() == ("".join(
        f"stage {stage}: growth audit fails: epsilon must lie in (0, 1], "
        "got 3/2\n" for stage in stages)
        + f"replayed {len(stages)} records; 2 witness pairs checked; "
        "FAILURES above\nsuite membership: FAIL\n", "")


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


@pytest.mark.parametrize("kind,bound,classes", [
    ("empty", 0, 0), ("block", 4097, 4096), ("block+1", 4098, 4097),
    ("mixed", 9000, None)])
def test_probe_classes_matches_the_per_class_reference(kind, bound, classes,
                                                       tmp_path, monkeypatch):
    if kind == "mixed":
        rng = random.Random(35)
        table = CeerTable.from_pairs(
            [(rng.randrange(bound), rng.randrange(bound), s // 3)
             for s in range(6000)], bound)
    else:
        table = CeerTable(bound=bound)
        if bound:
            table.assert_pair(0, 1, 0)
    dump = tmp_path / "dump.jsonl"
    dump.write_text(table.dumps())
    stage = table.last_stage // 2
    want = [json.dumps(cls) + "\n"
            for cls in reference_classes_at(table, stage)]
    assert classes is None or len(want) == classes
    out = BlockWriter(-(-len(want) // 4096))
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["probe", "classes", str(dump), "--bound", str(bound),
                 "--stage", str(stage)]) == 0
    # compared as lists of lines: a failure names the first bad line
    assert "".join(out.parts).splitlines(keepends=True) == want


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


@pytest.mark.parametrize("value", ["true", "1.5", "2.0", '"3"'])
@pytest.mark.parametrize("field", "abs")
def test_probe_refuses_a_dump_field_that_is_no_integer(field, value, tmp_path,
                                                       capsys):
    # line 2 has one field that is no JSON integer
    row = {"a": "0", "b": "1", "s": "2"}
    row[field] = value
    dump = tmp_path / "bad.jsonl"
    dump.write_text('{"a": 0, "b": 1, "s": 1}\n{'
                    + ", ".join(f'"{k}": {v}' for k, v in row.items()) + "}\n")
    assert main(["probe", "classes", str(dump)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot read dump: dump line 2: field "
                            f'"{field}" is not an integer\n')


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


def test_probe_pullback_map_file_takes_a_map_too_long_for_one_argument(
        tmp_path, capsys):
    """A 20,000-entry map (about 180 KB, past the 128 KiB one argument may
    hold on Linux) given as a file to a fresh process prints what the same
    map given inline to `main` prints."""
    rng = random.Random(27)
    target = CeerTable(bound=2000)
    for stage in range(1, 401):
        for _ in range(2):
            target.assert_pair(rng.randrange(2000), rng.randrange(2000), stage)
    dump = tmp_path / "target.jsonl"
    dump.write_text(target.dumps())
    fmap = ",".join(f"{n}:{rng.randrange(2000)}" for n in range(20_000))
    assert len(fmap) > 128 * 1024
    map_file = tmp_path / "map.txt"
    map_file.write_text(fmap + "\n")
    assert main(["probe", "pullback", str(dump), "--map", fmap]) == 0
    inline = capsys.readouterr().out
    child = subprocess.run(
        [sys.executable, "-m", "ceerlab", "probe", "pullback", str(dump),
         "--map-file", str(map_file)],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert (child.returncode, child.stderr) == (0, "")
    assert (hashlib.sha256(child.stdout.encode()).hexdigest()
            == hashlib.sha256(inline.encode()).hexdigest())
    assert inline.count("\n") > 10_000


@pytest.mark.parametrize("fmap", ["0:2,1:3,2:0,3:1", "0:2,1:0,2:1,3:1"])
def test_probe_verify_reduction_map_file_matches_inline(fmap, dumps, tmp_path,
                                                       capsys):
    left, right = dumps
    map_file = tmp_path / "map.txt"
    map_file.write_text(fmap)
    got = [(main(["probe", "verify-reduction", left, right, *given]),
            *capsys.readouterr())
           for given in (["--map", fmap], ["--map-file", str(map_file)])]
    assert got[0] == got[1]
    assert got[0][0] in (0, 1) and got[0][1]


@pytest.mark.parametrize("sub", ["pullback", "verify-reduction"])
def test_probe_map_file_errors(sub, dumps, tmp_path, capsys):
    left, right = dumps
    argv = ["probe", sub, left] + ([right] if sub == "verify-reduction" else [])
    missing = str(tmp_path / "no-map.txt")
    assert main(argv + ["--map-file", missing]) == 2
    assert capsys.readouterr() == (
        "", f"error: [Errno 2] No such file or directory: {missing!r}\n")
    over = tmp_path / "over.txt"
    over.write_text("0:0,2000000:1")
    assert main(argv + ["--map-file", str(over)]) == 2
    assert capsys.readouterr() == (
        "", "error: --map value 2000000 implies a bound above the ceiling "
        "1000000\n")
    for given in ([], ["--map", "0:0", "--map-file", missing]):
        with pytest.raises(SystemExit) as exc:
            main(argv + given)
        assert exc.value.code == 2
        assert "--map" in capsys.readouterr().err


# -- repeated calls ---------------------------------------------------------
# The tests and the benchmark call main many times in one process.


def test_repeated_calls_construct_no_parser(dumps, tmp_path, monkeypatch,
                                            capsys):
    left, _ = dumps
    assert main(["probe", "related", left, "0", "1"]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["run", shipped("sigma3-basic.txt"),
                 "--out", str(tmp_path / "run.jsonl")]) == 0
    assert main(["verify", shipped("sug-basic.log.jsonl"),
                 "triangularity"]) == 0
    assert main(["probe", "classes", left]) == 0
    assert built == []
    argparse.ArgumentParser(prog="counted")
    assert built == ["counted"]


@pytest.mark.parametrize("argv", [
    ["verify", shipped("sug-basic.log.jsonl")],
    ["probe", "nope", shipped("sug-basic.log.jsonl")],
])
def test_usage_error_is_unchanged_by_earlier_calls(argv, dumps, tmp_path,
                                                   monkeypatch, capsys):
    """The same exit code and stderr as a fresh process, before and after
    successful calls in this one."""
    monkeypatch.setenv("COLUMNS", child_env()["COLUMNS"])
    fresh = subprocess.run([sys.executable, "-m", "ceerlab", *argv],
                           capture_output=True, text=True, env=child_env(),
                           timeout=60)
    assert fresh.returncode == 2 and fresh.stdout == ""

    def usage_error():
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code, capsys.readouterr()

    assert usage_error() == (2, ("", fresh.stderr))
    left, _ = dumps
    assert main(["run", shipped("sigma3-basic.txt"), "--stages", "5",
                 "--out", str(tmp_path / "run.jsonl")]) == 0
    assert main(["verify", shipped("sug-basic.log.jsonl"),
                 "triangularity"]) == 0
    assert main(["probe", "related", left, "--stage", "2", "0", "1"]) == 0
    capsys.readouterr()
    assert usage_error() == (2, ("", fresh.stderr))


def test_run_after_a_stage_override_runs_the_scenario_stages(tmp_path,
                                                             capsys):
    out = str(tmp_path / "run.jsonl")
    assert main(["run", shipped("sigma3-basic.txt"), "--stages", "5",
                 "--out", out]) == 0
    capsys.readouterr()
    assert main(["run", shipped("sigma3-basic.txt"), "--out", out]) == 0
    captured = capsys.readouterr()
    assert (re.sub(r"(?m)^log: .*$", "log: LOG", captured.out)
            == SIGMA3_RUN.format(stages=60))


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
    proc = subprocess.run(argv, capture_output=True, text=True,
                          env=child_env(), timeout=60)
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


@pytest.mark.parametrize("buffered", [False, True])
@pytest.mark.parametrize("command", ["run", "verify", "probe",
                                     "probe-classes"])
def test_closed_stdout_exits_2_with_one_line(command, buffered, tmp_path):
    """A reader that closed stdout before the command printed: one error
    line on stderr and exit 2, whether the failed write comes from a print
    or from the flush at exit."""
    out = tmp_path / "star.jsonl"
    dump = tmp_path / "dump.jsonl"
    dump.write_text(CeerTable(bound=2).assert_pair(0, 1, 1).dumps())
    argv = {
        "run": ["run", shipped("star-universal-basic.txt"), "--out", str(out)],
        "verify": ["verify", shipped("star-universal-basic.log.jsonl"),
                   "level-census"],
        "probe": ["probe", "related", str(dump), "0", "1"],
        # 9,999 classes: three writes of up to 4,096 lines
        "probe-classes": ["probe", "classes", str(dump), "--bound", "10000"],
    }[command]
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "ceerlab", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    if command == "run":
        with open(shipped("star-universal-basic.log.jsonl")) as fh:
            assert out.read_text() == fh.read()


# a record's stage that JSON reads as no int: infinities, a NaN, a float, a
# bool and a string.  Let through, an infinite stage makes `level-census`
# and `vi-vs-U` climb a table's forest forever.
NOT_INT_STAGES = ("Infinity", "-Infinity", "NaN", "1e309", "2.5", "true",
                  '"3"')
# the child arms a watchdog once ceerlab is imported: a verify still running
# 1 s later dumps its stack and exits 1
_WATCHED_VERIFY = """\
import faulthandler, sys
from ceerlab.cli import main
faulthandler.dump_traceback_later(1, exit=True)
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("token", NOT_INT_STAGES)
@pytest.mark.parametrize("name,suite", [
    ("star-universal-basic", "triangularity"),
    ("star-universal-basic", "level-census"),
    ("star-universal-basic", "vi-vs-U"),
    ("dark-ring-basic", "membership"),
])
def test_verify_refuses_a_stage_that_is_no_integer_within_a_second(
        name, suite, token, tmp_path):
    with open(os.path.join(SCENARIOS, f"{name}.log.jsonl")) as fh:
        lines = fh.read().splitlines()
    last = json.loads(lines[-1])
    last["stage"] = "@stage@"
    lines[-1] = json.dumps(last, sort_keys=True, separators=(",", ":"))
    lines[-1] = lines[-1].replace('"@stage@"', token)
    path = tmp_path / "stage.jsonl"
    path.write_text("\n".join(lines) + "\n")
    proc = subprocess.run(
        [sys.executable, "-c", _WATCHED_VERIFY, "verify", str(path), suite],
        capture_output=True, text=True, env=child_env(), timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: cannot read log: log line {len(lines)}: stage is "
               "not an integer\n")
