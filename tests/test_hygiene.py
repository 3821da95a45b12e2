"""Source hygiene: every module of the package uses what it imports,
every private module-level name of the package is read somewhere in it,
every name a module exports in `__all__` exists, and every function the
benchmark's tracer wraps exists.

The import check is an AST scan, no import of the package.  A name
bound by an import counts as used when it is read anywhere in the module
(an attribute chain `a.b.c` reads `a`) or listed in the module's
`__all__`.  Package `__init__.py` files are skipped, since their imports
are re-exports, and so are `from __future__` imports, which bind no name.

The private-name check is an AST scan too.  A module-level function,
class or assignment whose name starts with a single `_` must be read in
some module of the package: as a name, as an attribute (`mod._name`) or
by a `from ... import _name` in another module.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "xratio"


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(line, name) for name, line in _imported_names(tree) if name not in used]


def test_scan_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport json as js\nfrom a import b, c\n"
              "from d import e\n__all__ = ['e']\n"
              "def f():\n    return os.path.join(c)\n")
    assert unused_imports(source) == [(3, "js"), (4, "b")]


def test_package_has_no_unused_imports():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert modules
    found = [f"{p.relative_to(SRC.parent)}:{line}: {name}"
             for p in modules for line, name in unused_imports(p.read_text())]
    assert found == []


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def dead_private_names(sources: dict[str, str]) -> list[tuple[str, int, str]]:
    """(module, line, name) of every private module-level name that no
    module of `sources` reads."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    read = set()
    for tree in trees.values():
        read |= _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return [(mod, line, name) for mod, tree in trees.items()
            for name, line in _private_definitions(tree) if name not in read]


def test_private_scan_flags_only_unread_names():
    sources = {
        "a": ("_A, _B = range(2)\n_C: int = 3\n__version__ = '1'\n"
              "def _dead():\n    return _A\n"
              "def _imported():\n    pass\n"
              "class _Via:\n    pass\n"
              "def public():\n    _local = 1\n    return _local\n"),
        "b": "from a import _imported\nimport a\nprint(a._Via)\n",
    }
    assert dead_private_names(sources) == [("a", 1, "_B"), ("a", 2, "_C"), ("a", 4, "_dead")]


def test_package_has_no_dead_private_names():
    sources = {str(p.relative_to(SRC.parent)): p.read_text() for p in SRC.rglob("*.py")}
    assert sources
    assert dead_private_names(sources) == []


def test_tracer_layer_functions_resolve():
    # bench/tracer.py wraps these by name; a rename would silently break --trace 1
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "LAYER_FUNCTIONS" for t in node.targets))
    assert layers
    missing = [f"{modname}.{fname}" for _, modname, fnames in layers for fname in fnames
               if not callable(getattr(importlib.import_module(modname), fname, None))]
    assert missing == []


def test_every_export_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # `from module import *`; __main__ is skipped, importing it runs the CLI
    missing = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__main__.py":
            continue
        parts = path.relative_to(SRC.parent).with_suffix("").parts
        modname = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
        module = importlib.import_module(modname)
        missing += [f"{modname}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []
    namespace = {}
    exec("from xratio.oracle import *", namespace)
    assert {"numeric_degree", "build_system", "matching_bound"} <= namespace.keys()
