"""Every name a library module, test module or demo imports is used in that
file, every third-party package the library imports is a declared
dependency, every name the package exports or the benchmark's tracer
binds exists, the exports derived from ``__init__``'s imports hold no
stray name, no library module rebinds a module-level name from a
function, every module-level name the library defines is exported or
read somewhere in it, no library module writes a file except through
``tokenfile._overwrite``, every stage module imports nothing from the
package but ``core``, no library module but ``core`` reads the block size
``_BLOCK`` or calls ``np.isfinite``, and the library stays within its line
budget.

Deleting code tends to leave its imports behind, its name in other
places, and the tables only it read; this catches them. The package
``__init__`` re-exports names on purpose and is exempt from the import
check, as is ``from __future__ import annotations``.
"""

import __future__
import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tokpress

PACKAGE = Path(tokpress.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
PYPROJECT = PACKAGE.parent.parent / "pyproject.toml"
REPO = Path(__file__).resolve().parent.parent
SPANS = REPO / "perfbench" / "spans.py"
SCRIPTS = sorted(REPO.glob("tests/*.py")) + sorted(REPO.glob("demos/*.py"))
# the most lines src/tokpress/*.py may hold; a change that raises it says so in CHANGES.md
LINE_BUDGET = 1788


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


@pytest.mark.parametrize(
    "path", MODULES + SCRIPTS, ids=lambda p: p.name if p.parent == PACKAGE else f"{p.parent.name}/{p.name}"
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_an_unused_import():
    source = "import os\nimport sys\nfrom pathlib import Path as P\nsys.exit(0)\n"
    assert unused_imports(source) == ["line 1: os", "line 3: P"]


def global_statements(source: str) -> list[str]:
    """``line N: a, b`` for each ``global`` statement in ``source``."""
    return [
        f"line {node.lineno}: {', '.join(node.names)}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Global)
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_global_state(path):
    # the library is stateless: a function that rebinds a module-level name shares state across calls and threads
    assert global_statements(path.read_text(encoding="utf-8")) == []


def test_guard_sees_a_global_statement():
    source = "_cache = None\n\ndef f(x):\n    global _cache\n    _cache = x\n    return x\n"
    assert global_statements(source) == ["line 4: _cache"]


def file_writes(source: str, exempt: str | None = None) -> list[str]:
    """``line N: call`` for each call in ``source`` that writes a file, outside any function named ``exempt``.

    A write is ``.write_bytes(``, ``.write_text(``, ``os.open(``, or an ``open(`` whose
    literal mode holds w, a, x or +; a mode held in a variable goes unseen.
    """
    tree = ast.parse(source)
    skip = {
        id(node)
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef) and func.name == exempt
        for node in ast.walk(func)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in skip:
            continue
        call = ast.unparse(node.func)
        args = node.args + [k.value for k in node.keywords if k.arg == "mode"]
        modes = [a.value for a in args if isinstance(a, ast.Constant) and isinstance(a.value, str)]
        writes = any(set(m) <= set("rwxabt+") and set(m) & set("wax+") for m in modes)
        if call.endswith((".write_bytes", ".write_text")) or call == "os.open" or (
            call.rpartition(".")[2] == "open" and writes
        ):
            found.append(f"line {node.lineno}: {call}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_files_are_written_only_by_the_writer(path):
    # _overwrite writes over an existing file in place; any other write would truncate it first
    exempt = "_overwrite" if path.name == "tokenfile.py" else None
    assert file_writes(path.read_text(encoding="utf-8"), exempt) == []


def test_guard_sees_file_writes():
    source = (
        "import os\n"
        "def save(p, q, data):\n"
        "    p.write_bytes(data)\n"
        "    q.write_text('x')\n"
        "    with open(p, 'rb') as f, open(q, mode='a+') as g, p.open('x'):\n"
        "        os.open(p, os.O_WRONLY)\n"
        "def _overwrite(p, data):\n"
        "    with open(p, 'wb') as f:\n"
        "        f.write(data)\n"
    )
    assert file_writes(source) == [
        "line 3: p.write_bytes", "line 4: q.write_text", "line 5: open", "line 5: p.open",
        "line 6: os.open", "line 8: open",
    ]  # fmt: skip
    assert file_writes(source, exempt="_overwrite") == file_writes(source)[:-1]


def package_imports(source: str) -> list[str]:
    """``line N: module`` for each package module ``source`` imports, as ``.core`` or ``tokpress.core``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            modules = [base] if node.module else [base + alias.name for alias in node.names]
        else:
            continue
        found += [f"line {node.lineno}: {m}" for m in modules if m.startswith(".") or m.split(".")[0] == "tokpress"]
    return found


def stray_package_imports(source: str) -> list[str]:
    return [line for line in package_imports(source) if not line.endswith((": .core", ": tokpress.core"))]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name not in ("pipeline.py", "cli.py")], ids=lambda p: p.name
)
def test_stage_modules_import_only_core(path):
    # the stages depend on core alone; the pipeline and the CLI are the only modules that compose them
    assert stray_package_imports(path.read_text(encoding="utf-8")) == []


def test_guard_sees_package_imports():
    source = (
        "import os\n"
        "import tokpress.cli\n"
        "from . import merge, core\n"
        "from .core import _BLOCK, sq_norms\n"
        "from tokpress.similarity import _relevance\n"
        "from numpy import linalg\n"
    )
    assert package_imports(source) == [
        "line 2: tokpress.cli", "line 3: .merge", "line 3: .core", "line 4: .core", "line 5: tokpress.similarity",
    ]  # fmt: skip
    assert stray_package_imports(source) == ["line 2: tokpress.cli", "line 3: .merge", "line 5: tokpress.similarity"]


def name_reads(source: str, name: str) -> list[str]:
    """``line N: <name>`` for each import, bare read or attribute read of ``name`` in ``source``, in line order."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name | ast.Attribute):
            names = [node.id if isinstance(node, ast.Name) else node.attr]
        else:
            continue
        lines += [node.lineno for read in names if read == name]
    return [f"line {n}: {name}" for n in sorted(lines)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_only_core_reads_the_block_size(path):
    # core._row_blocks is the one block rule; a module that reads _BLOCK writes a second one
    assert name_reads(path.read_text(encoding="utf-8"), "_BLOCK") == []


def test_guard_sees_block_size_reads():
    source = (
        "from .core import _BLOCK, sq_norms\n"
        "from . import core\n"
        "def f(rows, d):\n"
        "    step = max(1, core._BLOCK // (4 * d))\n"
        "    return [sq_norms(rows[i : i + step]) for i in range(0, len(rows), step)], _BLOCK\n"
        "_BLOCKS = 2\n"
    )
    assert name_reads(source, "_BLOCK") == ["line 1: _BLOCK", "line 4: _BLOCK", "line 5: _BLOCK"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "core.py"], ids=lambda p: p.name)
def test_only_core_calls_isfinite(path):
    # core._finite is the one finiteness check; a module that calls np.isfinite writes a second one
    assert name_reads(path.read_text(encoding="utf-8"), "isfinite") == []


def test_guard_sees_isfinite_reads():
    source = (
        "import numpy as np\n"
        "from numpy import isfinite\n"
        "def f(x):\n"
        "    return np.isfinite(x).all() and isfinite(x[0])\n"
        "is_finite = 1\n"
    )
    assert name_reads(source, "isfinite") == ["line 2: isfinite", "line 4: isfinite", "line 4: isfinite"]
    # the check top_m held before it took core's, put back into the module
    similarity = (PACKAGE / "similarity.py").read_text(encoding="utf-8")
    readded = similarity + "\n\ndef _scores_finite(scores):\n    return np.isfinite(scores).all()\n"
    assert name_reads(similarity, "isfinite") == []
    assert name_reads(readded, "isfinite") == [f"line {len(similarity.splitlines()) + 4}: isfinite"]


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports in ``source`` that are not in the standard library."""
    tree = ast.parse(source)
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_guard_sees_third_party_imports():
    source = "import os\nimport numpy as np\nfrom scipy import ndimage\nfrom .core import x\n"
    assert third_party_imports(source) == {"numpy", "scipy"}


def test_dependencies_are_exactly_the_imported_packages():
    tomllib = pytest.importorskip("tomllib")
    declared = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]["dependencies"]
    # a requirement starts with its distribution name: "numpy>=1.24" declares numpy
    names = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower() for req in declared}
    sources = (p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py"))
    imported = set().union(*map(third_party_imports, sources))
    assert names == imported == {"numpy"}


def test_import_loads_no_scipy():
    probe = (
        "import sys, tokpress, tokpress.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    assert [name for name in tokpress.__all__ if not hasattr(tokpress, name)] == []


def test_exports_hold_no_module_future_feature_duplicate_or_private_name():
    # __all__ is derived from the names __init__ imports, so an import can slip in what is no export
    exports = [getattr(tokpress, name) for name in tokpress.__all__]
    assert [v for v in exports if isinstance(v, types.ModuleType | __future__._Feature)] == []
    assert len(set(tokpress.__all__)) == len(tokpress.__all__)
    assert [name for name in tokpress.__all__ if name.startswith("_")] == ["__version__"]


def test_every_name_the_benchmark_traces_resolves():
    # perfbench/spans.py rebinds each traced function by name, so a deleted one breaks its --trace runs
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    traced = {mod: names for mod, (_, names) in spans.TRACED.items() if mod.startswith("tokpress.")}
    assert traced
    missing = [
        f"{mod}.{name}" for mod, names in traced.items() for name in names
        if not hasattr(importlib.import_module(mod), name)
    ]
    assert missing == []


def defined_names(source: str) -> set[str]:
    """The names ``source`` binds at module level by assignment, ``def`` or ``class``, dunder names aside."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            names.add(node.name)
        elif isinstance(node, ast.Assign | ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("__")}


def read_names(source: str) -> set[str]:
    """The names ``source`` reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)) or isinstance(node, ast.Attribute)
    }


def test_every_module_level_name_is_exported_or_read():
    # a table or helper that outlives its last reader is dead code; exports are read by the package's users
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(read_names, sources.values())) | set(tokpress.__all__)
    dead = [f"{name}: {n}" for name, source in sources.items() for n in sorted(defined_names(source) - read)]
    assert dead == []


def test_guard_sees_a_dead_module_level_name():
    source = (
        "import re\n"
        "__all__ = ['f']\n"
        "TABLE, _TYPES = {}, {}\n"
        "_LIMIT: int = 3\n"
        "class Spec:\n"
        "    width = 1\n"
        "def f(x):\n"
        "    unused = 2\n"
        "    return re.sub(_LIMIT, x, Spec.width)\n"
        "def _g():\n"
        "    pass\n"
    )
    assert defined_names(source) == {"TABLE", "_TYPES", "_LIMIT", "Spec", "f", "_g"}
    assert defined_names(source) - read_names(source) - {"f"} == {"TABLE", "_TYPES", "_g"}


def test_library_stays_within_its_line_budget():
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in PACKAGE.glob("*.py"))
    assert lines <= LINE_BUDGET
