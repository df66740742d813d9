"""The package imports nothing beyond the standard library and numpy."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "evpirank"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "evpirank"}


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the absolute imports in source that ALLOWED does not hold."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


def test_checker_flags_a_third_party_import():
    source = "import json\nimport numpy as np\nfrom . import neural\nfrom scipy import special\n"
    assert foreign_imports(source) == ["scipy"]


def test_runtime_dependencies_are_numpy_only():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = {path.name: foreign_imports(path.read_text(encoding="utf-8")) for path in files}
    assert {name: imports for name, imports in found.items() if imports} == {}
