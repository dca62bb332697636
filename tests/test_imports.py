"""The package imports only the standard library, numpy and itself; sympy
and hypothesis are test extras."""

import ast
import sys
from pathlib import Path

import hopfqt

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "hopfqt"}


def _imported_roots(tree):
    """(line, top-level module) for every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_src_imports_only_stdlib_numpy_and_itself():
    sources = sorted(Path(hopfqt.__file__).parent.rglob("*.py"))
    assert {p.name for p in sources} >= {"exactfield.py", "qtlab.py", "cli.py"}
    outside = [f"{p.name}:{line} imports {root}"
               for p in sources
               for line, root in _imported_roots(ast.parse(p.read_text(encoding="utf-8")))
               if root not in ALLOWED]
    assert outside == []


def test_import_guard_sees_third_party_imports():
    tree = ast.parse("import sympy\nfrom hypothesis import given\n"
                     "from . import qtlab\nimport numpy as np\nfrom os import path\n")
    assert [root for _, root in _imported_roots(tree) if root not in ALLOWED] == \
        ["sympy", "hypothesis"]


def _imported_modules(tree, package):
    """The full name of every module imported anywhere in the tree, the
    relative imports resolved against package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package if node.level else ""
            if node.module:
                base = f"{base}.{node.module}" if base else node.module
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def test_hopfcore_does_not_import_bismash():
    # bismash builds on hopfcore; hopfcore takes built bismash products
    path = Path(hopfqt.__file__).parent / "hopfcore.py"
    imported = set(_imported_modules(ast.parse(path.read_text(encoding="utf-8")),
                                     "hopfqt"))
    assert "hopfqt.grouptool" in imported
    assert not any(name == "hopfqt.bismash" or name.startswith("hopfqt.bismash.")
                   for name in imported)


def test_bismash_import_guard_sees_deferred_imports():
    tree = ast.parse("def f():\n    from .bismash import build_bismash\n"
                     "from . import bismash\n")
    assert set(_imported_modules(tree, "hopfqt")) == {
        "hopfqt", "hopfqt.bismash", "hopfqt.bismash.build_bismash"}
