"""Every demo script runs to completion against the sources in this tree and
prints the text it printed when its digest was pinned; the package root
exports what the demos and the README's Library section use, and no more."""

import ast
import hashlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hypoalarm

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout; the same under any PYTHONHASHSEED
STDOUT_SHA256 = {
    "01_parse_and_label.py": "7705ce50ff256b1c51a30a16adb8c59c288fab920fa2ab7ac75594b27095c03b",
    "02_features_from_meals.py": "c3c1815f2a1cdb368aadeed88aa9ac517792236f417f35b536806f0decff9aa8",
    "03_cost_sensitive_tree.py": "7ffbafdea923ebc176cb5ae38d1f8fb393030b22bae1899c48e7e7a6288ee262",
    "04_cross_validation_protocol.py":
        "1a70029bef3f18395795e310df04e9420ca6577dc20b0b3f3db279659ec59a61",
    "05_per_patient_severity_anova.py":
        "d32a167eac4733acfec25aea134124732858ca18bd5536cffb597f7eacab934e",
}


def test_demos_exist():
    assert DEMOS and [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(demo, tmp_path):
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.name]


def test_root_exports_what_the_demos_and_readme_use():
    exported = {name for name, value in vars(hypoalarm).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    demo_names = {alias.name for demo in DEMOS for node in ast.walk(ast.parse(demo.read_text()))
                  if isinstance(node, ast.ImportFrom) and node.module == "hypoalarm"
                  for alias in node.names}
    library = (ROOT / "README.md").read_text().split("\n## Library\n")[1].split("\n## ")[0]
    listed = library.split("The package root exports ")[1].split("\n\n")[0]
    readme_names = set(re.findall(r"`(\w+)`", listed))
    example = re.search(r"from hypoalarm import \((.*?)\)", library, re.DOTALL).group(1)
    assert set(re.findall(r"\w+", example)) <= readme_names
    assert exported == demo_names | readme_names
