"""The runtime uses the standard library only.

Every `ceerlab` module is imported in a fresh interpreter started without
`site`, so no `.pth` hook loads anything first and site-packages is not on
the path: an installed third-party import fails there, and every top-level
module the imports do load must be `ceerlab` or in
`sys.stdlib_module_names`.
"""
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

PROBE = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import ceerlab
for info in pkgutil.iter_modules(ceerlab.__path__):
    if info.name != "__main__":  # it runs the command line when imported
        importlib.import_module("ceerlab." + info.name)
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(len([n for n in sys.modules if n.startswith("ceerlab.")]))
print(" ".join(sorted(loaded - set(sys.stdlib_module_names) - {"ceerlab"})))
"""


def test_every_module_imports_only_the_standard_library():
    got = subprocess.run([sys.executable, "-S", "-c", PROBE, SRC],
                         capture_output=True, text=True, timeout=60)
    assert got.returncode == 0, got.stderr
    count, outside = got.stdout.split("\n")[:2]
    modules = [f for f in os.listdir(os.path.join(SRC, "ceerlab"))
               if f.endswith(".py") and f not in ("__init__.py", "__main__.py")]
    assert int(count) == len(modules)  # every module really was imported
    assert outside == "", f"non-stdlib modules loaded: {outside}"
