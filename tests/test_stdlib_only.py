"""The library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "qmgraph"


def _imported_roots(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # relative imports (level > 0) stay inside the package
            yield "qmgraph" if node.level else node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_imports_are_stdlib_or_qmgraph(path):
    outside = {root for root in _imported_roots(path)
               if root != "qmgraph" and root not in sys.stdlib_module_names}
    assert not outside
