"""Every function the benchmark's tracer wraps by name exists in ceerlab.

``bench/run.py --trace 1`` patches the names listed in
``bench/spans.py::TRACED`` and stops with AttributeError or KeyError when
one is gone.  The list is read here with ``ast``, without importing the
benchmark, so deleting or renaming a traced function fails this suite.
The tracer installs its wrappers partway through a run, so a command that
main has already run must still be reached through its patched name.
"""
import ast
import importlib
import os

from ceerlab import cli

ROOT = os.path.join(os.path.dirname(__file__), "..")
SPANS = os.path.join(ROOT, "bench", "spans.py")


def traced_names():
    with open(SPANS) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in node.targets)):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/spans.py defines no TRACED")


def test_every_traced_name_resolves():
    names = traced_names()
    assert names
    for module, path, span in names:
        owner = importlib.import_module(module)
        parts = path.split(".")
        assert len(parts) in (1, 2), path
        if len(parts) == 2:
            # the tracer patches methods through the class's own __dict__
            cls = getattr(owner, parts[0])
            assert parts[1] in vars(cls), f"{module}.{path} ({span})"
        else:
            assert callable(getattr(owner, path, None)), f"{module}.{path} ({span})"


def test_main_calls_the_command_patched_after_its_first_call(monkeypatch,
                                                             capsys):
    log = os.path.join(ROOT, "scenarios", "sug-basic.log.jsonl")
    assert cli.main(["verify", log, "triangularity"]) == 0
    calls = []
    command = cli.cmd_verify

    def traced(args):
        calls.append(args.suite)
        return command(args)

    monkeypatch.setattr(cli, "cmd_verify", traced)
    assert cli.main(["verify", log, "triangularity"]) == 0
    assert calls == ["triangularity"]
