"""The package's public names, and the README's Python snippet and module list."""

import ast
import importlib
import re
from pathlib import Path

import pinassign
from pinassign import Assignment

README_PATH = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
    "AllPinsUsedWarning", "Assignment", "Binding", "Board", "BoardMismatchError",
    "BoardParseError", "ConfigDiff", "EmitterOutput", "EnumerationLimitError",
    "FunctionEntry",
    "Infeasible", "NO_DETAIL", "Pin", "PinChange", "Rejection", "Request",
    "RequestParseError", "Semantics", "SolveOptions", "SolveOutcome", "Witness",
    "apply_diff", "board_stats", "canonical_kind", "check_witness", "config_space",
    "config_space_board", "count_solutions", "diff_assignments", "emit_alloy_best_assertions",
    "emit_alloy_feasibility_assertion", "emit_alloy_spec", "emit_graph_dot",
    "emit_prolog", "enumerate_all", "extend_assignment",
    "find_best", "find_feasible", "iter_assignments", "k_factor",
    "merge_requests", "parse_board", "parse_request", "quick_reject", "serialize_board",
]


def test_public_names_are_pinned():
    """Adding or dropping a public name is an API change and edits this list."""
    assert len(PUBLIC_NAMES) == 45
    assert sorted(pinassign.__all__) == PUBLIC_NAMES
    assert len(set(pinassign.__all__)) == len(pinassign.__all__)
    for name in pinassign.__all__:
        assert getattr(pinassign, name) is not None, name


DEFINING_MODULES = ["board", "codegen", "configops", "counting", "request", "solver"]


def test_each_public_name_is_declared_where_it_is_defined():
    """Each module's __all__ lists only names its own top level binds by a
    def, class or assignment, and the package re-exports exactly those lists."""
    joined = []
    for name in DEFINING_MODULES:
        module = importlib.import_module(f"pinassign.{name}")
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        defined = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        assert [n for n in module.__all__ if n not in defined] == [], name
        joined += module.__all__
    assert pinassign.__all__ == joined
    namespace: dict = {}
    exec("from pinassign import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES


def _readme_section(heading: str) -> str:
    text = README_PATH.read_text(encoding="utf-8")
    return text.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_library_snippet_runs(monkeypatch, capsys):
    (snippet,) = re.findall(r"```python\n(.*?)```", _readme_section("Library"), flags=re.S)
    monkeypatch.chdir(README_PATH.parent)
    namespace: dict = {}
    exec(snippet, namespace)
    best = namespace["best"]
    assert isinstance(best, Assignment)
    assert capsys.readouterr().out == f"{best.total_cost} {sorted(best.used_pins)}\n"


def test_readme_key_modules_name_public_attributes():
    """Every name the README's module list shows, other than the module
    files themselves, is an attribute of the package."""
    modules = _readme_section("Library").split("Key modules", 1)[1]
    names = [n for n in re.findall(r"`([^`]+)`", modules) if not n.endswith((".py", "/"))]
    assert len(names) >= 10
    assert [n for n in names if not hasattr(pinassign, n)] == []
