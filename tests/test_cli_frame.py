"""`cli` holds no construction knowledge: its `verify` frame reads each
suite from the `SUITES` of the construction modules, through
`replay.CONSTRUCTIONS`, so adding a suite adds no line to `cli.py`.

`cli.py` is read as text with `ast`: it imports no construction module and
no kernel a construction builds on, and no string literal in it names a
construction.
"""
import ast
import os

from ceerlab import replay

CLI = os.path.join(os.path.dirname(__file__), "..", "src", "ceerlab",
                   "cli.py")

# the construction modules and the kernels their suites read
OFF_LIMITS = {"star", "dark", "indexset", "sigma3", "groups", "algebra"}


def _tree():
    with open(CLI, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _imported(tree):
    """The last dotted part of each module `cli.py` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.rpartition(".")[2]
        elif isinstance(node, ast.ImportFrom):
            if node.module in (None, "ceerlab"):  # `from . import replay`
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.rpartition(".")[2]


def test_cli_imports_no_construction_module():
    imported = set(_imported(_tree()))
    assert "replay" in imported
    assert not imported & OFF_LIMITS


def test_cli_names_no_construction():
    texts = [node.value for node in ast.walk(_tree())
             if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    named = [(name, text) for text in texts
             for name in replay.CONSTRUCTIONS if name in text]
    assert not named
