import ast
import pathlib

import pytest

import evanescent

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "evanescent"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads.  Scopes are not told
    apart: a name read anywhere in the module counts as used, and a read
    of ``a.b`` reads ``a``.  ``from __future__ import ...`` is exempt."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted(set(imported) - read)


def test_the_guard_sees_an_unused_import():
    source = "from __future__ import annotations\nimport a.b, c\nfrom .d import e, f as g\nc(g)\n"
    assert unused_imports(source) == ["a", "e"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def definitions(source: str) -> list[str]:
    """The module-level names a module defines: functions, classes and
    assignment targets."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


def private_definitions(source: str) -> list[str]:
    """The module-level names that start with ``_``, dunders exempt."""
    return [n for n in definitions(source) if n.startswith("_") and not (n.startswith("__") and n.endswith("__"))]


def reads(sources) -> set:
    """The names the sources read, as a name or as an attribute."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def unread_private_names(sources: dict) -> list[str]:
    """``module.name`` for each module-level private name that no source
    reads, as a name or as an attribute."""
    read = reads(sources.values())
    return sorted(
        f"{module}.{name}"
        for module, source in sources.items()
        for name in private_definitions(source)
        if name not in read
    )


def unread_public_names(sources: dict, exported, readers=()) -> list[str]:
    """``module.name`` for each module-level public name of the package
    ``sources`` that is not ``exported`` and that neither a package source
    nor one of the ``readers`` (as ``bench/`` reads the package) reads:
    code that only tests would read."""
    read = reads([*sources.values(), *readers])
    return sorted(
        f"{module}.{name}"
        for module, source in sources.items()
        for name in definitions(source)
        if not name.startswith("_") and name not in exported and name not in read
    )


def test_the_guard_sees_an_unread_private_name():
    sources = {
        "a": "_CACHE: dict = {}\n_left = 1\n__all__ = []\n\ndef _helper():\n    return _CACHE\n\nclass _Gone:\n    pass\n",
        "b": "from .a import _helper\n\ndef _unused(x):\n    return _helper() + x._left\n",
    }
    assert unread_private_names(sources) == ["a._Gone", "b._unused"]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_the_guard_sees_an_unread_public_name():
    sources = {
        "a": "def helper():\n    return 1\n\ndef gone():\n    pass\n\nclass Unread:\n    pass\n",
        "b": "from .a import helper\n\ndef exported():\n    return helper()\n\ndef benched():\n    pass\n",
    }
    bench = ["import evanescent\nevanescent.b.benched()\n"]
    assert unread_public_names(sources, {"exported"}, bench) == ["a.Unread", "a.gone"]
    assert unread_public_names(sources, {"exported"}) == ["a.Unread", "a.gone", "b.benched"]
    assert unread_public_names(sources, set(), bench) == ["a.Unread", "a.gone", "b.exported"]


def test_every_public_name_is_exported_or_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    bench = [
        path.read_text(encoding="utf-8")
        for path in (ROOT / "bench").glob("*.py")
        if not path.name.startswith("test_")
    ]
    assert unread_public_names(sources, set(evanescent.__all__), bench) == []
