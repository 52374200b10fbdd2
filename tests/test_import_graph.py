"""The package's import graph stays stdlib-only.

Every server process imports the directory stack; an optional
accelerator pulled in by any module costs each of them its resident
memory and start-up time whether or not it is ever used.  This test
imports every ``repro.*`` module in a fresh interpreter and asserts that
numpy never entered ``sys.modules``.
"""

import os
import pathlib
import subprocess
import sys

import repro

SRC_ROOT = pathlib.Path(repro.__file__).resolve().parent.parent

PROBE = """
import importlib
import pkgutil
import sys

import repro

names = [info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in names:
    importlib.import_module(name)
print(len(names))
sys.exit(1 if "numpy" in sys.modules else 0)
"""


def test_no_repro_module_imports_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_ROOT)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    result = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, (
        f"a repro module imported numpy:\n{result.stdout}\n{result.stderr}"
    )
    assert int(result.stdout.strip()) > 50  # the walk really covered the package
