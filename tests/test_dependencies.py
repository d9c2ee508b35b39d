"""What the package imports.

The package is stdlib-only: ``pyproject.toml`` declares no runtime
dependencies, so no module under ``src/repro`` may import anything else.
The one exception is the optional FastAPI adapter, which imports
``fastapi`` behind a guard and is never imported by the rest of the
package.

The entry points that never simulate (the CLI before it dispatches a
command, and the job server) must not import the simulator: every
process start would pay for loading it.  Those checks run a fresh
interpreter, because this one has imported everything already."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
OPTIONAL = {("service/app.py", "fastapi")}

#: packages that make up the simulator proper.
SIMULATOR_PACKAGES = {
    "gpu", "uvm", "gmmu", "core", "tlb", "memory", "interconnect", "faults",
}
#: event-kernel modules; ``repro.sim.rng`` and friends are light.
SIMULATOR_KERNEL = {"repro.sim.engine", "repro.sim.process", "repro.sim.snapshot"}


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


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this checkout's sources;
    returns its stdout."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def is_simulator(module: str) -> bool:
    parts = module.split(".")
    return module in SIMULATOR_KERNEL or (
        parts[0] == "repro" and len(parts) > 1 and parts[1] in SIMULATOR_PACKAGES
    )


@pytest.mark.parametrize("entry", ["repro.cli", "repro.service.server"])
def test_entry_point_does_not_import_the_simulator(entry):
    loaded = run_fresh(
        f"import sys, {entry}; print(*sorted(sys.modules), sep='\\n')"
    ).split()
    assert entry in loaded
    assert [m for m in loaded if is_simulator(m)] == []


@pytest.mark.parametrize("package", ["repro", "repro.experiments"])
def test_lazy_public_names_resolve(package):
    out = run_fresh(
        "import importlib\n"
        f"pkg = importlib.import_module({package!r})\n"
        "for name in pkg.__all__:\n"
        "    assert getattr(pkg, name).__name__ == name, name\n"
        "try:\n"
        "    pkg.no_such_name\n"
        "except AttributeError:\n"
        "    print('unknown name refused')\n"
    )
    assert out.strip() == "unknown name refused"
