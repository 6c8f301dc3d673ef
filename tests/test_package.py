"""The package surface: every module imports cleanly, every export exists,
and no private helper is left without a caller in the package."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import oscurve

CHECK = """
import importlib, pkgutil
import oscurve
for info in pkgutil.iter_modules(oscurve.__path__):
    importlib.import_module("oscurve." + info.name)
missing = [name for name in oscurve.__all__ if not hasattr(oscurve, name)]
assert not missing, f"oscurve.__all__ names missing attributes: {missing}"
assert len(set(oscurve.__all__)) == len(oscurve.__all__), "oscurve.__all__ repeats a name"
"""


def test_every_module_imports_under_warnings_as_errors_and_every_export_resolves():
    # a fresh interpreter, so import-time warnings fire again
    src = str(Path(oscurve.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", CHECK],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def _referenced_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_private_helper_is_used_in_the_package():
    # a `_name` function or class that only its own body or the tests call is dead code
    defined = {}
    references = Counter()
    for path in sorted(Path(oscurve.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        references.update(_referenced_names(tree))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                if not node.name.endswith("__"):
                    defined[node.name] = f"{path.name}:{node.lineno}"
                    references[node.name] -= sum(
                        name == node.name for name in _referenced_names(node)
                    )
    unused = sorted(f"{name} ({where})" for name, where in defined.items() if references[name] <= 0)
    assert not unused, f"private helpers nothing in the package uses: {unused}"
