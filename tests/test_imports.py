import ast
import os
import pathlib
import subprocess
import sys

import pytest

import evanescent

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "evanescent"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def package_sources() -> dict:
    return {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}


def bench_sources() -> list:
    """The sources of ``bench/``, its tests left out: they read the
    package as library users do."""
    return [
        path.read_text(encoding="utf-8")
        for path in (ROOT / "bench").glob("*.py")
        if not path.name.startswith("test_")
    ]


# modules a CLI process must not load: ``dataclasses`` pulls in the other
# three, and each costs start-up time in every fresh process
COLD_START_UNLOADED = ("dataclasses", "inspect", "ast", "dis")


def test_a_cold_start_loads_no_dataclasses():
    # in a fresh interpreter: pytest itself has loaded all four here
    code = "import evanescent, evanescent.cli, sys; print(*sorted(set(sys.argv[1:]) & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code, *COLD_START_UNLOADED], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", "\n")


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
    assert unread_private_names(package_sources()) == []


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
    assert unread_public_names(package_sources(), set(evanescent.__all__), bench_sources()) == []


# Public members of exported classes that no source in src/ or bench/
# reads, kept for library users, each with its reason.
KEPT_MEMBERS = {
    "poly.Polynomial.homogeneous_type": "the type of a homogeneous polynomial, as users check it",
    "peirce.PeircePolynomial.shift": "multiplication by t^k, the one operation the ring lacks otherwise",
    "baric.BaricAlgebra.structure": "the structure constants as rationals, the constructor's own input",
    "baric.BaricAlgebra.omega": "the weight of a vector, the defining map of a baric algebra",
    "peirce.Identity.polynomial": "an identity as a Polynomial, to evaluate or substitute it",
}


def attribute_reads(sources) -> set:
    """The names the sources read as an attribute, ``a.name``."""
    return {
        node.attr
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_members(sources: dict, kept, readers=()) -> list[str]:
    """``module.Class.name`` for each public method or property of a
    module-level class of the package ``sources`` that is not ``kept``
    and that neither a package source nor one of the ``readers`` reads
    as an attribute: code that only tests would read.  Reads are matched
    by name alone, so a reader's attribute of the same name, such as the
    bench tracer's ``report()``, hides a member that nothing reads."""
    read = attribute_reads([*sources.values(), *readers])
    return sorted(
        name
        for module, source in sources.items()
        for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef)
        for member in node.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
        and member.name not in read
        and (name := f"{module}.{node.name}.{member.name}") not in kept
    )


def test_the_guard_sees_an_unread_member():
    sources = {
        "a": (
            "class A:\n    def read(self):\n        return self.size\n\n"
            "    @property\n    def size(self):\n        return 1\n\n"
            "    def gone(self):\n        pass\n\n    def _private(self):\n        pass\n\n"
            "    def kept(self):\n        pass\n\n    def benched(self):\n        pass\n"
        ),
        "b": "from .a import A\n\ndef read():\n    return A().read()\n\ndef gone():\n    pass\n",
    }
    bench = ["import evanescent\nevanescent.a.A().benched()\n"]
    assert unread_members(sources, {"a.A.kept"}, bench) == ["a.A.gone"]
    assert unread_members(sources, {"a.A.kept"}) == ["a.A.benched", "a.A.gone"]
    assert unread_members(sources, set(), bench) == ["a.A.gone", "a.A.kept"]


def test_every_public_member_is_read_or_kept():
    sources, bench = package_sources(), bench_sources()
    assert unread_members(sources, KEPT_MEMBERS, bench) == []
    # a kept member that a source now reads, or that is gone, leaves the table
    assert unread_members(sources, set(), bench) == sorted(KEPT_MEMBERS)
