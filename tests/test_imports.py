"""Every name a library module imports is used in that module.

Deleting code tends to leave its imports behind; this catches them. The
package ``__init__`` re-exports names on purpose and is exempt, as is
``from __future__ import annotations``.
"""

import ast
from pathlib import Path

import pytest

import tokpress

MODULES = sorted(p for p in Path(tokpress.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    source = "import os\nimport sys\nfrom pathlib import Path as P\nsys.exit(0)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: P"]
