"""The package stays stdlib-only: it imports nothing outside the standard
library and declares no runtime dependency."""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_package_imports_only_the_stdlib():
    allowed = sys.stdlib_module_names | {"pinassign"}
    outside = []
    for path in sorted((ROOT / "src" / "pinassign").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert outside == []


def test_pyproject_declares_no_runtime_dependencies():
    # a text check: Python 3.10 has no tomllib
    lines = (ROOT / "pyproject.toml").read_text(encoding="utf-8").splitlines()
    assert "dependencies = []" in lines
