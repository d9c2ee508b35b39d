"""The package is stdlib-only: ``pyproject.toml`` declares no runtime
dependencies, so no module under ``src/repro`` may import anything else.

The one exception is the optional FastAPI adapter, which imports
``fastapi`` behind a guard and is never imported by the rest of the
package."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
OPTIONAL = {("service/app.py", "fastapi")}


def top_level_imports(path: Path):
    """``(line, name)`` of every absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


@pytest.mark.skipif(not hasattr(sys, "stdlib_module_names"),
                    reason="needs Python 3.10+")
def test_package_imports_only_the_stdlib():
    allowed = set(sys.stdlib_module_names) | {"repro"}
    foreign = [
        f"{path.relative_to(PACKAGE)}:{line}: {name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, name in top_level_imports(path)
        if name not in allowed
        and (path.relative_to(PACKAGE).as_posix(), name) not in OPTIONAL
    ]
    assert foreign == []
