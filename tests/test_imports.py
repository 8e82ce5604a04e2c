"""Source hygiene: every module uses each name it imports."""
import ast
from pathlib import Path

import pytest

import posepartition

MODULES = sorted(
    p for p in Path(posepartition.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
