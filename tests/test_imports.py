"""Source hygiene: every module uses each name it imports, every private
top-level name is used somewhere in the package, and the public API and the
source stay within their counted sizes."""
import ast
from pathlib import Path

import pytest

import posepartition

SOURCES = sorted(Path(posepartition.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s (line %d)" % (name, line) for name, line in imported.items() if name not in used]


def test_the_scan_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "import os.path\n"
        "from .errors import ParameterError, SchemaError\n"
        "def f(x: SchemaError) -> float:\n"
        "    return math.pi + os.path.sep.count('/')\n"
    )
    assert unused_imports(source) == ["np (line 3)", "ParameterError (line 5)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def bound_names(stmt: ast.stmt) -> list[str]:
    """Names a top-level def, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Private top-level names (a leading underscore, not a dunder) bound by
    a def, class or assignment that no module references outside the
    statement binding them, as "module.name"."""
    defined = []
    refs = []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            nodes = list(ast.walk(stmt))
            used = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            used |= {n.attr for n in nodes if isinstance(n, ast.Attribute)}
            used |= {a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
            refs.append((stmt, used))
            for name in bound_names(stmt):
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined.append((module, name, stmt))
    return [
        "%s.%s" % (module, name)
        for module, name, stmt in defined
        if not any(name in used for other, used in refs if other is not stmt)
    ]


def test_the_scan_finds_unused_private_names():
    sources = {
        "a": (
            "__version__ = '1'\n"
            "_LIMIT = 3\n"
            "_spare, _pair = 1, 2\n"
            "def _helper(n):\n"
            "    return _helper(n - 1)\n"
            "class _Unused:\n"
            "    pass\n"
            "def _shared():\n"
            "    return 1\n"
            "def _attr():\n"
            "    return 2\n"
            "def public(x=_pair):\n"
            "    return _LIMIT + x\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import _shared\n"
            "def g():\n"
            "    return a._attr() + _shared()\n"
        ),
    }
    assert unused_private_names(sources) == ["a._spare", "a._helper", "a._Unused"]


def test_package_has_no_unused_private_names():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unused_private_names(sources) == []


def public_names(sources: dict[str, str]) -> list[str]:
    """Top-level names without a leading underscore bound by a def, class
    or assignment, as "module.name"."""
    return [
        "%s.%s" % (module, name)
        for module, source in sources.items()
        for stmt in ast.parse(source).body
        for name in bound_names(stmt)
        if not name.startswith("_")
    ]


def test_the_scan_counts_public_names():
    sources = {
        "a": "__version__ = '1'\n_LIMIT = 3\nLIMIT, _spare = 3, 4\ndef f():\n    g = 1\nclass C:\n    x = 1\n",
        "b": "from .a import f\nimport math\nif True:\n    HIDDEN = 1\n",
    }
    assert public_names(sources) == ["a.LIMIT", "a.f", "a.C"]


# The public API surface: raise this bound only with a reason in CHANGES.md.
MAX_PUBLIC_NAMES = 86


def test_public_api_stays_within_its_bound():
    names = public_names({p.stem: p.read_text(encoding="utf-8") for p in SOURCES})
    assert len(names) <= MAX_PUBLIC_NAMES, names


# Lines in the package's modules, as `wc -l` counts them: raise this bound
# only with a reason in CHANGES.md.
MAX_SRC_LINES = 2577


def test_source_stays_within_its_line_bound():
    counts = {p.name: p.read_bytes().count(b"\n") for p in SOURCES}
    assert sum(counts.values()) <= MAX_SRC_LINES, counts
