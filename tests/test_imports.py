"""Every name a library module imports is used in that module, and every
module-level private name is used somewhere in the package.

No linter is part of the toolchain, so this walks the syntax tree instead.
``__init__.py`` is skipped for imports: they are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bidouble"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def defined_names(statement: ast.stmt) -> set[str]:
    """Names a module-level statement binds by def, class or assignment."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {statement.name}
    targets = []
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, (ast.AnnAssign, ast.AugAssign)):
        targets = [statement.target]
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def read_names(statement: ast.stmt) -> set[str]:
    """Names a statement reads, as a variable or as an attribute."""
    out: set[str] = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` of every module-level ``_private`` name that no other
    module-level statement of the package reads; a function that only calls
    itself counts as unreferenced."""
    statements = [
        (module, stmt)
        for module, source in sorted(sources.items())
        for stmt in ast.parse(source).body
    ]
    reads = [read_names(stmt) for _, stmt in statements]
    out = []
    for i, (module, stmt) in enumerate(statements):
        for name in sorted(defined_names(stmt)):
            if not name.startswith("_") or name.startswith("__"):
                continue
            if not any(name in r for j, r in enumerate(reads) if j != i):
                out.append(f"{module}:{name}")
    return sorted(out)


def test_detector_finds_unused_names():
    source = "import os.path\nimport json as j\nfrom a import b, c\nb()\nj.dumps\n"
    assert unused_imports(source) == ["c", "os"]


def test_detector_finds_unreferenced_private_names():
    sources = {
        "a.py": "def _same(x):\n    return _same(x)\n_cache = {}\ndef _used():\n    pass\n",
        "b.py": "from .a import _used\n_used()\n_TABLE: dict = {}\n",
        "c.py": "import b\nb._TABLE.clear()\n",
    }
    assert unreferenced_private_names(sources) == ["a.py:_cache", "a.py:_same"]


def test_modules_found():
    assert {"cli.py", "cover.py", "recipes.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def test_no_unreferenced_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unreferenced_private_names(sources) == []
