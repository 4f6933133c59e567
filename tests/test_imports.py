"""Every name a package module imports is used in that module, and importing the
package leaves its slowest dependencies, SciPy and mpmath, unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ioncodesign"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no other node of the module reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*" and not (isinstance(node, ast.ImportFrom)
                                              and node.module == "__future__"):
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detector_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == \
        ["d (line 2)", "os (line 1)"]
    assert unused_imports("from __future__ import annotations\nimport os\nx: os.PathLike\n") \
        == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def _run_python(code: str, *args) -> str:
    """stdout of code run in a fresh interpreter that imports the package from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True).stdout


def test_package_and_cli_import_without_scipy_optimize():
    # SciPy is not a runtime dependency, and mpmath is most of the import time;
    # only the 1F2 fallback uses mpmath, and it imports it on first use.
    code = ("import sys, ioncodesign, ioncodesign.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'mpmath')))")
    assert _run_python(code).strip() == "[]"


RUN_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
import numpy as np
from ioncodesign.calibration import fit_c2, fit_phase_damping, simulate_calibration
from ioncodesign.cli import main
from ioncodesign.feedforward import FeedforwardTable

curve = simulate_calibration(np.linspace(0.5, 6.0, 4), np.linspace(0.0, 60.0, 5), 0.02, 500)
print(fit_c2(curve)["c2_hat"] > 0, fit_phase_damping(curve)["gamma_hat"] >= 0)
print(FeedforwardTable().lookup(2.0, 0.3)["fidelity_star"] > 0)
print([main(argv + ["--out", sys.argv[1] + "/" + argv[0]])
       for argv in (["calibrate", "--shots", "500"],
                    ["feedforward-table", "--n-phi", "3", "--n-lam", "3"])])
"""


def test_the_runtime_needs_no_scipy(tmp_path):
    # the fits, a cold feedforward corner at lambda > 0 and the two CLI commands
    # that run them, with every import of SciPy failing
    lines = _run_python(RUN_WITHOUT_SCIPY, str(tmp_path)).splitlines()
    assert lines[:2] == ["True True", "True"]
    assert lines[-1] == "[0, 0]"
    assert (tmp_path / "calibrate" / "calibration_fit.json").stat().st_size > 0
    assert (tmp_path / "feedforward-table" / "feedforward_table.csv").stat().st_size > 0
