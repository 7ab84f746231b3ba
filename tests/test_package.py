import ast
from pathlib import Path

import suffcast


def test_public_names_resolve():
    missing = [name for name in suffcast.__all__ if not hasattr(suffcast, name)]
    assert missing == []
    namespace = {}
    exec("from suffcast import *", namespace)
    assert set(suffcast.__all__) <= set(namespace)


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads; a name in ``__all__`` is read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_imports_checker_sees_each_kind():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nimport a.b\n"
        "from dataclasses import dataclass, field\n"
        "__all__ = ['dataclass']\n"
        "x = np.zeros(1)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: a", "line 5: field"]


def test_no_unused_imports():
    package = Path(suffcast.__file__).parent
    found = {
        path.name: unused
        for path in sorted(package.glob("*.py"))
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}
