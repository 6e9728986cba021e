"""Every imported name in the sources and tests is read somewhere.

``tauforge/__init__.py`` is skipped: its imports are the package's
re-exports.  ``from __future__`` imports are directives, not names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py")
               if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in read]


def test_scan_sees_unread_imports():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["line 1: os", "line 2: b"]
    assert unused_imports("from __future__ import annotations\nimport os.path\n"
                          "os.sep\n") == []


def test_no_unread_imports():
    assert len(FILES) > 10
    found = {str(path.relative_to(ROOT)): unused
             for path in FILES if (unused := unused_imports(path.read_text()))}
    assert found == {}
