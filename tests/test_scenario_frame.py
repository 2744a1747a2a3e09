"""Every scenario integer is read by one reader: `scenario._int`.

`scenario.py` and the construction modules are read as text with `ast`:
`scenario.py` calls `int` only inside `_int` and writes no `\\d` in a
pattern (it matches non-ASCII digits), and no `run_scenario` calls `int`,
since the values it reads arrive typed.
"""
import ast
import os

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "ceerlab")


def _tree(module):
    with open(os.path.join(SRC, module + ".py"), encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _int_calls(node):
    return [call.lineno for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == "int"]


def test_scenario_calls_int_only_in_its_reader():
    tree = _tree("scenario")
    (reader,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_int"]
    assert _int_calls(reader)
    assert len(_int_calls(tree)) == len(_int_calls(reader))


def test_scenario_patterns_name_ascii_digits():
    texts = [node.value for node in ast.walk(_tree("scenario"))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert any("[0-9]" in text for text in texts)
    assert not [text for text in texts if "\\d" in text]


def test_no_run_scenario_calls_int():
    found = 0
    for module in ("dark", "indexset", "sigma3", "star"):
        for node in ast.walk(_tree(module)):
            if isinstance(node, ast.FunctionDef) and node.name == "run_scenario":
                found += 1
                assert not _int_calls(node), module
    assert found == 4
