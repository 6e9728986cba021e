"""Every imported name in the sources and tests is read somewhere, and so
is every module-level definition of the package and every method and
property of its classes.

``tauforge/__init__.py`` is skipped: its imports are the package's
re-exports.  ``from __future__`` imports are directives, not names.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for top in ("src", "tests") for path in (ROOT / top).rglob("*.py")
               if path.name != "__init__.py")
PACKAGE = ROOT / "src" / "tauforge"


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


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def module_definitions(source: str) -> dict[str, int]:
    """Module-level functions, classes and assigned names, dunders aside,
    and the methods and properties of module-level classes as
    ``Class.name``."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            found.update((f"{node.name}.{item.name}", item.lineno)
                         for item in node.body
                         if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and not is_dunder(item.name))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [n.id for target in node.targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not is_dunder(name):
                found[name] = node.lineno
    return found


def names_read(source: str) -> set[str]:
    """Names loaded bare (``f``) or as an attribute (``mod.f``)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_scan_sees_unread_definitions():
    source = ("A = 1\nB, C = 2, 3\n__all__ = []\ndef f(): return g.h\n"
              "class K: pass\nD: int = A\n"
              "class M:\n    def m(self): pass\n    @property\n    def p(self): pass\n"
              "    def __eq__(self, other): pass\n    x = 1\n")
    assert module_definitions(source) == \
        {"A": 1, "B": 2, "C": 2, "f": 4, "K": 5, "D": 6, "M": 7, "M.m": 8,
         "M.p": 10}
    assert names_read(source) == {"A", "g", "h", "int", "property"}


def test_no_unread_definitions():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set().union(*(names_read(path.read_text()) for path in FILES))
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    found = {path.name: unread for path in modules
             if (unread := [f"line {line}: {name}" for name, line
                            in module_definitions(path.read_text()).items()
                            if name.rpartition(".")[2] not in read
                            and name not in exported])}
    assert found == {}
