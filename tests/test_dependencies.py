"""The package imports nothing but the stdlib, numpy and itself.

An optional-dependency fork (an import-guarded second backend that no CI
job installs and no benchmark measures) starts with one ``import``; this
scan is where it gets noticed.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


def test_src_imports_only_stdlib_numpy_and_repro():
    foreign = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign.update(
                f"{path.relative_to(SRC)}: {name}" for name in names
                if name.split(".")[0] not in ALLOWED)
    assert not foreign, sorted(foreign)
