"""A command loads only the construction modules it runs.

`replay.CONSTRUCTIONS` imports a construction's module on first lookup and
`scenario` imports none, so `import ceerlab.cli` loads no construction
module, `probe` none, `run` its scenario's and `verify` all four (its
unknown-suite message lists every suite).  Each case runs in a fresh
process and reads `sys.modules` there; nothing is timed.
"""
import os
import subprocess
import sys

import pytest

from ceerlab.ceers import CeerTable
from helpers import child_env
from test_traced_names import traced_names

ROOT = os.path.join(os.path.dirname(__file__), "..")
CONSTRUCTION_MODULES = {"dark", "sigma3", "star", "indexset"}

# runs `main` on argv with stdout captured, then prints its exit code and
# the ceerlab modules loaded
CHILD = """
import contextlib, io, sys
import ceerlab.cli
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        print(ceerlab.cli.main(sys.argv[1:]), file=sys.__stdout__)
print(" ".join(sorted(name for name in sys.modules
                      if name.startswith("ceerlab."))))
"""


def loaded(*argv, rc=0):
    """The ceerlab modules (last dotted part) a fresh process holds after
    `import ceerlab.cli` and, given argv, `main(argv)`, which must return
    `rc`."""
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv],
                          capture_output=True, text=True, env=child_env(),
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    *got, names = proc.stdout.splitlines()
    assert got == ([str(rc)] if argv else [])
    return {name.rpartition(".")[2] for name in names.split()}


def test_importing_the_cli_loads_no_construction_and_every_traced_module():
    modules = loaded()
    assert not modules & CONSTRUCTION_MODULES
    traced = {module.rpartition(".")[2] for module, _, _ in traced_names()}
    assert traced <= modules


def test_probe_loads_no_construction(tmp_path):
    dump = tmp_path / "t.jsonl"
    with open(dump, "w") as fh:
        CeerTable(4).assert_pair(0, 1, 1).assert_pair(2, 3, 2).dump(fh)
    assert not loaded("probe", "classes", str(dump)) & CONSTRUCTION_MODULES


# shipped scenario -> the construction modules its run loads; sug embeds a
# star construction in each group slot, so it loads star too
RUNS = {"dark-ring-basic": {"dark"}, "dark-group-basic": {"dark"},
        "sigma3-basic": {"sigma3"}, "star-universal-basic": {"star"},
        "sug-basic": {"indexset", "star"}}


def test_runs_cover_every_shipped_scenario():
    assert set(RUNS) == {name[:-len(".txt")] for name in os.listdir(
        os.path.join(ROOT, "scenarios")) if name.endswith(".txt")}


@pytest.mark.parametrize("scenario", sorted(RUNS))
def test_run_loads_only_its_construction(scenario, tmp_path):
    text = os.path.join(ROOT, "scenarios", scenario + ".txt")
    got = loaded("run", text, "--out", str(tmp_path / "log.jsonl"))
    assert got & CONSTRUCTION_MODULES == RUNS[scenario]


def test_verify_loads_every_construction():
    """Its unknown-suite message lists the suites of every module."""
    log = os.path.join(ROOT, "scenarios", "sigma3-basic.log.jsonl")
    assert loaded("verify", log, "nope", rc=2) >= CONSTRUCTION_MODULES
