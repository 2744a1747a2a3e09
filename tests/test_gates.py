"""The gates every change must keep: `run` logs at scale and under any hash
seed, the `verify` output of each shipped log under each suite and of the
scale star logs under `vi-vs-U`, and the `probe verify-reduction` output of
a few small dumps, byte for byte.

The log digests and the verify outputs were captured from a commit whose
logs and verdicts were checked by hand; a change that moves one of them
changes a log or a verdict.
"""
import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from ceerlab.cli import SUITES, main

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def shipped(name):
    return os.path.join(SCENARIOS, name)


# sha256 of the log `run` writes for a shipped scenario and extra flags
PINNED_LOGS = [
    ("star-universal-basic.txt", ["--levels", "3", "--base", "6"],
     "128e14c22cb18c22342f13ad6c8b4fbe425a647c582b48be3cba1670a3042090"),
    ("star-universal-basic.txt", ["--levels", "3", "--base", "10"],
     "0b181ef0e9a4f89439f2ab80cc781f3b53ab9afec6915ca30e854a24ca0d1040"),
    ("star-universal-basic.txt", ["--levels", "4", "--base", "10"],
     "c0fe88336ba4dec8d2a5a0cc278f0569de39302bdca0003e27b061b1701939e3"),
    ("sigma3-basic.txt", ["--stages", "2000"],
     "133ab850e744831a0046be34a0d92e3e681da6d00abb8d3ffe0c251daed78d83"),
    ("sug-basic.txt", ["--stages", "2000"],
     "8a8875db24fba584033c3ee83c4db9885dce42ff18bc3db2f9af29e1a6e5cc72"),
    # every shipped scenario at the stage ceiling, most stages logging nothing
    ("dark-group-basic.txt", ["--stages", "100000"],
     "35b4597e2afdd228e341cfe361a96955326b0195cc05e956cac6763a1918a605"),
    ("dark-ring-basic.txt", ["--stages", "100000"],
     "c6466c39783a4eb8b33da36f11008ccfb72ce816ed7c9ca1dbfbfe49ddaf13f6"),
    ("sigma3-basic.txt", ["--stages", "100000"],
     "57d4a6f29427fbe83d719cbc477c7607671ac9e2fc2843ce635e8d8c6cb63662"),
    ("star-universal-basic.txt", ["--stages", "100000"],
     "2295de5122938dde696df560b10c312bc7d86cd9f59524007b099f41c8494095"),
    ("sug-basic.txt", ["--stages", "100000"],
     "c06d9891d0a201a2ab85026eb268acd39d49d21849e8effa71c85cb885e93c43"),
    # dark runs at a wide horizon, where each audit spans 64 degrees
    ("dark-ring-basic.txt", ["--maxdeg", "64", "--stages", "3000"],
     "5249082a33f08263d8ccd508abc343361644adf12f88cc809228f25bd11868f8"),
    ("dark-group-basic.txt", ["--maxdeg", "64", "--stages", "3000"],
     "667d4d437ab257164f1e44ad2e464f9da99bc5ce7b1b6a98a1234de5c098fdf0"),
]


@pytest.mark.parametrize(
    "scenario,flags,digest", PINNED_LOGS,
    ids=[" ".join([scn, *flags]) for scn, flags, _ in PINNED_LOGS])
def test_run_log_is_pinned(scenario, flags, digest, tmp_path, capsys):
    out = tmp_path / "run.jsonl"
    assert main(["run", shipped(scenario), "--out", str(out), *flags]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _wrong_kind(suite, kinds, got):
    return (2, "",
            f"error: suite {suite!r} applies to {kinds} logs, got {got!r}\n")


_STAR_SUG = "star-universal, sug-indexset"
_DARK = "dark-ring, dark-group"

# (exit code, stdout, stderr) per shipped log and suite
PINNED_VERIFY = {
    ("dark-group-basic", "triangularity"):
        _wrong_kind("triangularity", _STAR_SUG, "dark-group"),
    ("dark-group-basic", "level-census"):
        _wrong_kind("level-census", "star-universal", "dark-group"),
    ("dark-group-basic", "vi-vs-U"):
        _wrong_kind("vi-vs-U", "star-universal", "dark-group"),
    ("dark-group-basic", "membership"):
        (0, "replayed 14 records; 1 witness pairs checked\n"
            "suite membership: PASS\n", ""),
    ("dark-ring-basic", "triangularity"):
        _wrong_kind("triangularity", _STAR_SUG, "dark-ring"),
    ("dark-ring-basic", "level-census"):
        _wrong_kind("level-census", "star-universal", "dark-ring"),
    ("dark-ring-basic", "vi-vs-U"):
        _wrong_kind("vi-vs-U", "star-universal", "dark-ring"),
    ("dark-ring-basic", "membership"):
        (0, "replayed 4 records; 2 witness pairs checked\n"
            "suite membership: PASS\n", ""),
    ("sigma3-basic", "triangularity"):
        _wrong_kind("triangularity", _STAR_SUG, "sigma3"),
    ("sigma3-basic", "level-census"):
        _wrong_kind("level-census", "star-universal", "sigma3"),
    ("sigma3-basic", "vi-vs-U"):
        _wrong_kind("vi-vs-U", "star-universal", "sigma3"),
    ("sigma3-basic", "membership"):
        _wrong_kind("membership", _DARK, "sigma3"),
    ("star-universal-basic", "triangularity"):
        (0, "main: 95 relators triangular, stages nondecreasing\n"
            "suite triangularity: PASS\n", ""),
    ("star-universal-basic", "level-census"):
        (0, "16 census checks at 6 checkpoints\nsuite level-census: PASS\n", ""),
    ("star-universal-basic", "vi-vs-U"):
        (0, "18 word/table comparisons\nsuite vi-vs-U: PASS\n", ""),
    ("star-universal-basic", "membership"):
        _wrong_kind("membership", _DARK, "star-universal"),
    ("sug-basic", "triangularity"):
        (0, "g0: 31 relators triangular, stages nondecreasing\n"
            "h0: 0 relators triangular, stages nondecreasing\n"
            "suite triangularity: PASS\n", ""),
    ("sug-basic", "level-census"):
        _wrong_kind("level-census", "star-universal", "sug-indexset"),
    ("sug-basic", "vi-vs-U"):
        _wrong_kind("vi-vs-U", "star-universal", "sug-indexset"),
    ("sug-basic", "membership"):
        _wrong_kind("membership", _DARK, "sug-indexset"),
}


def test_pinned_verify_covers_every_shipped_log_and_suite():
    logs = {name[:-len(".log.jsonl")] for name in os.listdir(SCENARIOS)
            if name.endswith(".log.jsonl")}
    assert set(PINNED_VERIFY) == {(log, suite) for log in logs
                                  for suite in SUITES}


@pytest.mark.parametrize("log,suite", sorted(PINNED_VERIFY))
def test_verify_of_shipped_log_is_pinned(log, suite, capsys):
    rc = main(["verify", shipped(f"{log}.log.jsonl"), suite])
    assert (rc, *capsys.readouterr()) == PINNED_VERIFY[log, suite]


# (exit code, stdout, stderr) of `verify … vi-vs-U` on the pinned star logs
# at scale, by the flags that write them
PINNED_SCALE_VI_VS_U = {
    ("--levels", "3", "--base", "6"):
        (0, "36 word/table comparisons\nsuite vi-vs-U: PASS\n", ""),
    ("--levels", "3", "--base", "10"):
        (0, "36 word/table comparisons\nsuite vi-vs-U: PASS\n", ""),
    ("--levels", "4", "--base", "10"):
        (0, "60 word/table comparisons\nsuite vi-vs-U: PASS\n", ""),
}


@pytest.mark.parametrize("flags", sorted(PINNED_SCALE_VI_VS_U),
                         ids=" ".join)
def test_verify_vi_vs_u_of_scale_star_log_is_pinned(flags, tmp_path, capsys):
    out = tmp_path / "star.jsonl"
    assert main(["run", shipped("star-universal-basic.txt"), "--out",
                 str(out), *flags]) == 0
    capsys.readouterr()
    rc = main(["verify", str(out), "vi-vs-U"])
    assert (rc, *capsys.readouterr()) == PINNED_SCALE_VI_VS_U[flags]


# JSON texts of a header's table bound that no table takes, each with the
# repr of the value JSON reads from it
NOT_INT_BOUNDS = [("Infinity", "inf"), ("-Infinity", "-inf"), ("NaN", "nan"),
                  ("1e309", "inf"), ("2.5", "2.5"), ("true", "True"),
                  ('"3"', "'3'")]

# malformed star headers, with the shipped records and with none: a header
# fails as malformed input before any record is applied, never as a
# rejected relation stream.  Each change is the JSON text of a header key,
# written as it stands, so `1e309` is tried as well as `Infinity`
MALFORMED_HEADERS = {
    "universal-out-of-stage-order": (
        {"universal": "[[0, 1, 5], [0, 2, 1]]"},
        "StageRegressionError('pair at stage 1 after stage 5')"),
    "negative-universal-bound": (
        {"universal_bound": "-1"}, "ValueError('bound must be nonnegative')"),
    **{f"universal-bound-{token}": (
        {"universal_bound": token},
        repr(ValueError(f"bound {value} is not an integer")))
       for token, value in NOT_INT_BOUNDS},
}


@pytest.mark.parametrize("records", [True, False],
                         ids=["with-records", "no-records"])
@pytest.mark.parametrize("suite", ["level-census", "vi-vs-U", "triangularity"])
@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_verify_of_malformed_star_header_is_pinned(case, suite, records,
                                                   tmp_path, capsys):
    change, error = MALFORMED_HEADERS[case]
    header, *rest = open(shipped("star-universal-basic.log.jsonl")).readlines()
    params = {key: json.dumps(value)
              for key, value in json.loads(header)["params"].items()}
    params.update(change)
    path = tmp_path / "star.jsonl"
    path.write_text('{"construction": "star-universal", "params": {'
                    + ", ".join(f'"{key}": {text}'
                                for key, text in params.items()) + "}}\n"
                    + ("".join(rest) if records else ""))
    rc = main(["verify", str(path), suite])
    assert (rc, *capsys.readouterr()) == (
        2, "", f"error: malformed log for suite {suite}: {error}\n")


@pytest.mark.parametrize("token,value", NOT_INT_BOUNDS)
def test_verify_of_sug_coded_bound_not_an_integer_is_pinned(token, value,
                                                           tmp_path, capsys):
    header, *rest = open(shipped("sug-basic.log.jsonl")).readlines()
    header, count = re.subn(r'"coded_bound":\d+', f'"coded_bound":{token}',
                            header)
    assert count == 1
    path = tmp_path / "sug.jsonl"
    path.write_text(header + "".join(rest))
    rc = main(["verify", str(path), "triangularity"])
    error = ValueError(f"bound {value} is not an integer")
    assert (rc, *capsys.readouterr()) == (
        2, "", f"error: malformed log for suite triangularity: {error!r}\n")


# star shapes `star.check_size` refuses, in a star
# header or a sug header's group-slot template: (shipped log, suites, header
# params to change, error)
STAR_SHAPES = {
    "star-odd-base": (
        "star-universal-basic", ["level-census", "triangularity", "vi-vs-U"],
        {"base": 7}, "ValueError('base must be an even integer >= 2')"),
    "star-float-base": (
        "star-universal-basic", ["level-census", "triangularity", "vi-vs-U"],
        {"base": 10.0}, "ValueError('base must be an even integer >= 2')"),
    "star-levels-true": (
        "star-universal-basic", ["level-census", "triangularity", "vi-vs-U"],
        {"levels": True},
        "ValueError('levels must be a nonnegative integer')"),
    "star-base-2-reserve": (
        "star-universal-basic", ["level-census", "triangularity", "vi-vs-U"],
        {"base": 2, "levels": 1},
        "ValueError('reserve budget fails at level 0: 1 - 0 <= 1; raise base "
        "or cut levels')"),
    "star-level-1-reserve": (
        "star-universal-basic", ["level-census", "triangularity", "vi-vs-U"],
        {"base": 4, "levels": 2},
        "ValueError('reserve budget fails at level 1: 12 - 8 <= 4; raise base "
        "or cut levels')"),
    "sug-star-base-2-reserve": (
        "sug-basic", ["triangularity"], {"star_base": 2},
        "ValueError('reserve budget fails at level 0: 1 - 0 <= 1; raise base "
        "or cut levels')"),
    "sug-odd-star-base": (
        "sug-basic", ["triangularity"], {"star_base": 5},
        "ValueError('base must be an even integer >= 2')"),
    "sug-star-levels-above-ceiling": (
        "sug-basic", ["triangularity"], {"star_levels": 6},
        "ValueError('base 6 and levels 6 need base ** (levels + 1) "
        "generators, above the ceiling 100000')"),
    "sug-negative-star-levels": (
        "sug-basic", ["triangularity"], {"star_levels": -1},
        "ValueError('levels must be a nonnegative integer')"),
}


@pytest.mark.parametrize("case,suite", [
    (case, suite) for case, (_, suites, _, _) in sorted(STAR_SHAPES.items())
    for suite in suites])
def test_verify_of_bad_star_shape_ignores_the_records(case, suite, tmp_path,
                                                      capsys):
    """A shape the run refuses is malformed input with the log's records and
    without them, with the same one line."""
    name, _, change, error = STAR_SHAPES[case]
    header, *rest = open(shipped(f"{name}.log.jsonl")).readlines()
    header = json.loads(header)
    header["params"].update(change)
    got = []
    for records in (rest, []):
        path = tmp_path / "shape.jsonl"
        path.write_text(json.dumps(header) + "\n" + "".join(records))
        got.append((main(["verify", str(path), suite]),
                    *capsys.readouterr()))
    expected = (2, "", f"error: malformed log for suite {suite}: {error}\n")
    assert got == [expected, expected]


# a relating record's output-table entry that no run writes: a stage below
# the earlier relating record's, or witnesses that are not a pair.  The star
# suites replay the table but check no pair of it, so both are malformed
# input, not a rejected relation stream: a pair is not a relation
BAD_TABLE_ENTRIES = {
    "pair-stage-below-earlier-pair": (
        {"stage": 0},
        "ValueError('output table pair at stage 0 after stage 2')"),
    "witnesses-not-a-pair": (
        {"witnesses": [0]},
        "TypeError(\"CeerTable.assert_pair() missing 1 required positional "
        "argument: 'stage'\")"),
}


@pytest.mark.parametrize("suite", ["level-census", "vi-vs-U"])
@pytest.mark.parametrize("case", sorted(BAD_TABLE_ENTRIES))
def test_verify_of_bad_output_table_entry_is_pinned(case, suite, tmp_path,
                                                    capsys):
    change, error = BAD_TABLE_ENTRIES[case]
    lines = open(shipped("star-universal-basic.log.jsonl")).readlines()
    record = json.loads(lines[6])
    assert (record["action"], record["stage"]) == ("case-1", 3)
    record.update(change)
    lines[6] = json.dumps(record) + "\n"
    path = tmp_path / "star.jsonl"
    path.write_text("".join(lines))
    rc = main(["verify", str(path), suite])
    assert (rc, *capsys.readouterr()) == (
        2, "", f"error: malformed log for suite {suite}: {error}\n")


def test_verify_of_nontriangular_sug_slot_relator_is_pinned(tmp_path, capsys):
    """A g0 inner relator whose right side names a larger generator fails
    `triangularity`, naming the slot; replay stops at that record."""
    lines = open(shipped("sug-basic.log.jsonl")).readlines()
    record = json.loads(lines[3])
    assert (record["action"], record["slot"]) == ("advance-slot", "g0")
    relator = record["inner"][0]["relators"][2]
    assert relator == {"lhs": 8, "rhs": [[6, -1]]}
    relator["rhs"] = [[9, -1]]
    lines[3] = json.dumps(record) + "\n"
    path = tmp_path / "sug.jsonl"
    path.write_text("".join(lines))
    rc = main(["verify", str(path), "triangularity"])
    assert (rc, *capsys.readouterr()) == (
        1, "g0: FAIL: relation for x8 mentions x9, not strictly smaller\n"
           "suite triangularity: FAIL\n", "")


def test_verify_of_sug_table_pair_out_of_stage_order_is_pinned(tmp_path,
                                                               capsys):
    """`triangularity` replays a sug log's table slots too, but checks no
    pair of them: a code-pair record moved below the one before it is
    malformed input, not a failed relation stream."""
    lines = open(shipped("sug-basic.log.jsonl")).readlines()
    record = json.loads(lines[11])
    assert (record["action"], record["slot"], record["stage"]) == (
        "code-pair", "h0", 10)
    record["stage"] = 8
    lines[11] = json.dumps(record) + "\n"
    path = tmp_path / "sug.jsonl"
    path.write_text("".join(lines))
    rc = main(["verify", str(path), "triangularity"])
    assert (rc, *capsys.readouterr()) == (
        2, "", "error: malformed log for suite triangularity: "
               "ValueError('table slot pair at stage 8 after stage 9')\n")


# a sug record whose kind is not its requirement's family, or whose action
# that family never logs: malformed input, refused before it is applied.  A
# C0 record of kind 1.5 once carried no inner records into g0, which then
# passed `triangularity` with 7 of its 31 relators
SUG_KIND_ACTION = {
    "kind-not-a-family": (
        6, 1.5,
        "ValueError(\"'C0' logs no record of kind 1.5 and action "
        "'advance-slot'\")"),
    "advance-slot-of-kind-D": (
        4, "D",
        "ValueError(\"'C0' logs no record of kind 'D' and action "
        "'advance-slot'\")"),
}


@pytest.mark.parametrize("case", sorted(SUG_KIND_ACTION))
def test_verify_of_sug_record_outside_its_family_is_pinned(case, tmp_path,
                                                          capsys):
    row, kind, error = SUG_KIND_ACTION[case]
    lines = open(shipped("sug-basic.log.jsonl")).readlines()
    record = json.loads(lines[row])
    assert (record["action"], record["kind"]) == ("advance-slot", "C")
    record["kind"] = kind
    lines[row] = json.dumps(record) + "\n"
    path = tmp_path / "sug.jsonl"
    path.write_text("".join(lines))
    rc = main(["verify", str(path), "triangularity"])
    assert (rc, *capsys.readouterr()) == (
        2, "", f"error: malformed log for suite triangularity: {error}\n")


# `probe verify-reduction` from a left dump (0 ~ 1 from stage 3, bound 4) to a
# right one (2 ~ 3 from stage 1, bound 4): (exit code, stdout, stderr)
PINNED_VERIFY_REDUCTION = {
    "no-violations": (["--map", "0:2,1:3,2:0,3:1"],
                      (0, "no violations\n", "")),
    "positive-violations": (
        ["--map", "0:2,1:0,2:1,3:1"],
        (1, "1 positive violation(s): (0,1); 1 pair(s) unaligned so far "
            "(inconclusive): (2,3)\n", "")),
    "unaligned-only": (
        ["--map", "0:0,1:0,2:2,3:3"],
        (0, "1 pair(s) unaligned so far (inconclusive): (2,3)\n", "")),
    "stage-before-source-pair": (
        ["--map", "0:2,1:0,2:1,3:1", "--stage", "2"],
        (0, "1 pair(s) unaligned so far (inconclusive): (2,3)\n", "")),
    "map-value-past-target": (
        ["--map", "0:9,1:8,2:2,3:3"],
        (1, "1 positive violation(s): (0,1); 1 pair(s) unaligned so far "
            "(inconclusive): (2,3)\n", "")),
    "bound-past-source": (
        ["--map", "0:0,1:0,2:2,3:3,4:2,5:3", "--bound", "6"],
        (0, "6 pair(s) unaligned so far (inconclusive): (2,3), (2,4), (2,5), "
            "(3,4), (3,5), (4,5)\n", "")),
    "bound-past-map": (
        ["--map", "0:0,1:0,2:2", "--bound", "4"],
        (2, "", "error: reduction function diverges on argument 3\n")),
}


@pytest.mark.parametrize("case", sorted(PINNED_VERIFY_REDUCTION))
def test_probe_verify_reduction_is_pinned(case, tmp_path, capsys):
    left, right = tmp_path / "left.jsonl", tmp_path / "right.jsonl"
    left.write_text('{"a": 0, "b": 1, "s": 3}\n')
    right.write_text('{"a": 2, "b": 3, "s": 1}\n')
    flags, expected = PINNED_VERIFY_REDUCTION[case]
    rc = main(["probe", "verify-reduction", str(left), str(right), *flags])
    assert (rc, *capsys.readouterr()) == expected


# every shipped scenario run in a fresh interpreter, writing its log into the
# directory named by the first argument
_RUN_SHIPPED = """
import os, sys
from ceerlab.cli import main
out, scenarios = sys.argv[1], sys.argv[2:]
for scn in scenarios:
    log = os.path.join(out, os.path.basename(scn)[:-len(".txt")] + ".log.jsonl")
    assert main(["run", scn, "--out", log]) == 0, scn
"""


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_shipped_logs_do_not_depend_on_the_hash_seed(hash_seed, tmp_path):
    """Acceptance 10 reruns the scenarios in the test's own process, whose
    string hashes are fixed, so a log that followed the iteration order of
    a set of strings would still match there."""
    scenarios = sorted(shipped(name) for name in os.listdir(SCENARIOS)
                       if name.endswith(".txt"))
    assert len(scenarios) == 5
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", _RUN_SHIPPED, str(tmp_path),
                    *scenarios], env=env, check=True, capture_output=True)
    for scn in scenarios:
        name = os.path.basename(scn)[:-len(".txt")] + ".log.jsonl"
        assert ((tmp_path / name).read_bytes()
                == open(shipped(name), "rb").read()), name
