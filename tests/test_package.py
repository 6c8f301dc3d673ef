"""The package surface: every module imports cleanly and every export exists."""

import os
import subprocess
import sys
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
