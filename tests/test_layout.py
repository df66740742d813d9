"""README's Layout block names each module of the package, and no other."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def layout_modules(readme: str) -> set[str]:
    """The file names the `## Layout` code block lists under `src/evpirank/`."""
    block = readme.split("\n## Layout\n", 1)[1].split("```")[1]
    package = block.split("src/evpirank/\n", 1)[1]
    return set(re.findall(r"^  (\w+\.py) ", package, flags=re.MULTILINE))


def test_layout_lists_every_module():
    modules = {path.name for path in (ROOT / "src" / "evpirank").glob("*.py")}
    listed = layout_modules((ROOT / "README.md").read_text(encoding="utf-8"))
    assert listed == modules - {"__init__.py"}
