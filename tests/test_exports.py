"""Every name a `ceerlab` module exports is defined there and reached, and
every private top-level name is read.

A name in a module's ``__all__`` must be defined at the module's top level,
and something outside its own definition must use it: another part of
``src/``, a benchmark script under ``bench/``, or the acceptance suite.  A
module that looks a global up by a name built from a literal head, as
``globals()[f"cmd_{...}"]``, reaches every name of its own with that head.  A
name that only its own unit tests call is surface nothing needs.  A
top-level function, class or constant whose name starts with ``_`` (a
dunder aside) must be read by code in ``src/`` outside its own definition;
one nothing reads is a leftover.  The sources are read as text with ``ast``
and ``re``; nothing is imported, the benchmark included.
"""
import ast
import glob
import os
import re

ROOT = os.path.join(os.path.dirname(__file__), "..")
SRC = os.path.join(ROOT, "src", "ceerlab")


def _read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _exports(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def _definitions(tree):
    """Top-level names the module binds, each with its line span."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            spans[node.name] = (node.lineno, node.end_lineno)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    spans[target.id] = (node.lineno, node.end_lineno)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            spans[node.target.id] = (node.lineno, node.end_lineno)
    return spans


def _src_uses(tree):
    """(name, line) for every name the module's code reads or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def _global_heads(tree):
    """The literal heads of the f-strings a module looks its globals up by."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Call)
                and getattr(node.value.func, "id", None) == "globals"
                and isinstance(node.slice, ast.JoinedStr) and node.slice.values
                and isinstance(node.slice.values[0], ast.Constant)):
            yield node.slice.values[0].value


def _sources():
    """Each module's parsed source, and the (module, line) of every use of
    each name."""
    modules = {os.path.basename(p)[:-3]: ast.parse(_read(p))
               for p in sorted(glob.glob(os.path.join(SRC, "*.py")))}
    uses = {}
    for module, tree in modules.items():
        for name, line in _src_uses(tree):
            uses.setdefault(name, []).append((module, line))
    return modules, uses


def _read_in_src(name, module, span, uses):
    """Whether code in `src/` uses `name` outside its definition's lines."""
    first, last = span
    return any(not (other == module and first <= line <= last)
               for other, line in uses.get(name, ()))


def test_every_export_is_defined_and_reached():
    modules, uses = _sources()
    outside = "\n".join(
        _read(p) for p in sorted(glob.glob(os.path.join(ROOT, "bench", "*.py")))
        + [os.path.join(ROOT, "tests", "test_acceptance.py")])
    undefined, unreached = [], []
    for module, tree in modules.items():
        spans = _definitions(tree)
        heads = tuple(_global_heads(tree))
        for name in _exports(tree):
            if name not in spans:
                undefined.append(f"{module}.{name}")
                continue
            reached = (name.startswith(heads)
                       or _read_in_src(name, module, spans[name], uses))
            if not (reached or re.search(rf"\b{re.escape(name)}\b", outside)):
                unreached.append(f"{module}.{name}")
    assert not undefined, f"exported but not defined: {undefined}"
    assert not unreached, f"exported but reached by nothing: {unreached}"


def test_every_private_name_is_read():
    modules, uses = _sources()
    unread = [f"{module}.{name}"
              for module, tree in modules.items()
              for name, span in _definitions(tree).items()
              if name.startswith("_") and not name.startswith("__")
              and not _read_in_src(name, module, span, uses)]
    assert not unread, f"private names nothing reads: {unread}"
