"""The package imports only the standard library, numpy and itself; sympy
and hypothesis are test extras."""

import ast
import importlib.util
import inspect
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


def _perfbench_module(name):
    """perfbench/<name>.py of this checkout, imported under a private name
    so that the benchmark's flat module names stay out of sys.modules."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(modules):
    """Every module attribute, and every attribute of a hopfqt class, by
    owner and name."""
    out = {}
    for mod in modules.values():
        for attr, val in vars(mod).items():
            out[mod.__name__, attr] = val
            if inspect.isclass(val) and val.__module__.startswith("hopfqt"):
                for cattr, cval in vars(val).items():
                    out[mod.__name__, attr, cattr] = cval
    return out


def test_tracer_binds_its_names_and_puts_every_binding_back():
    """The benchmark tracer binds names of src/ by attribute; install()
    finds each of them, and uninstall() puts every binding back."""
    jobs = _perfbench_module("jobs")
    mods = jobs.import_hopfqt()
    hc, qt, ef = mods["hopfcore"], mods["qtlab"], mods["exactfield"]
    named = {
        "HopfAlgebra.mono_tables": lambda: vars(hc.HopfAlgebra)["mono_tables"],
        "IdemSupport.certify": lambda: vars(qt.IdemSupport)["certify"],
        "IdemSupport.conj_perms": lambda: vars(qt.IdemSupport)["conj_perms"],
        "AlgebraElement.__mul__": lambda: vars(hc.AlgebraElement)["__mul__"],
        "CycloNumber.__mul__": lambda: vars(ef.CycloNumber)["__mul__"],
        "CycloNumber.__add__": lambda: vars(ef.CycloNumber)["__add__"],
        "enumerate_bicharacters": lambda: qt.enumerate_bicharacters,
        "conjugation_map": lambda: qt.conjugation_map,
    }
    before = _bindings(mods)
    originals = {name: get() for name, get in named.items()}
    tracer = _perfbench_module("tracer").Tracer(mods).install()
    try:
        assert [name for name, get in named.items()
                if get() is originals[name]] == []
    finally:
        tracer.uninstall()
    after = _bindings(mods)
    assert after.keys() == before.keys()
    assert [key for key, val in before.items() if after[key] is not val] == []
