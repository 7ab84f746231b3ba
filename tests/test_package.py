import ast
import subprocess
import sys
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


def read_names(tree: ast.AST) -> set[str]:
    """Names a module loads, as a name or as an attribute."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    return read


def unread_definitions(sources: dict) -> list[str]:
    """Module-level functions, classes and constants that no module reads.

    ``sources`` maps a module's file name to its source.  A name is read where
    any module loads it as a name or an attribute; a name in ``__all__`` is
    read too.
    """
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.lineno, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [
                    (module, node.lineno, t.id) for t in targets if isinstance(t, ast.Name)
                ]
        read |= read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                read.update(ast.literal_eval(node.value))
    return [
        f"{module}: line {line}: {name}"
        for module, line, name in defined
        if name not in read and not name.startswith("__")
    ]


def test_unread_definitions_checker_sees_each_kind():
    sources = {
        "a.py": (
            "import b\n"
            "__all__ = ['Public']\n"
            "LIMIT = 3\nSCALE: float = 2.0\nUNUSED = 1\n"
            "def helper():\n    return b.shared() * SCALE\n"
            "def _dead():\n    return helper()\n"
            "class Public:\n    pass\n"
            "class _Gone:\n    def method(self):\n        return LIMIT\n"
        ),
        "b.py": "def shared():\n    return 1\n_STORED: int\n",
    }
    assert unread_definitions(sources) == [
        "a.py: line 5: UNUSED",
        "a.py: line 8: _dead",
        "a.py: line 12: _Gone",
        "b.py: line 3: _STORED",
    ]


def test_no_unread_definitions():
    package = Path(suffcast.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.glob("*.py"))}
    assert unread_definitions(sources) == []


def unread_exports(exported, sources: dict) -> list[str]:
    """Names in ``exported`` that no module of ``sources`` reads (:func:`read_names`)."""
    read = set().union(*(read_names(ast.parse(source)) for source in sources.values()))
    return [name for name in exported if name not in read]


def test_unread_exports_checker_sees_each_kind():
    sources = {
        "a.py": "from b import shared\nx = shared()\ny = b.Other\nz: Typed = 1\n",
        "b.py": "def Stored():\n    pass\nGone = 1\n",
    }
    exported = ["shared", "Other", "Typed", "Stored", "Gone"]
    assert unread_exports(exported, sources) == ["Stored", "Gone"]


#: exported names no module of the package reads: ``sample_dgp`` is the
#: one-replicate draw the chunk-draw tests compare the study's draws against
ALLOWED_UNREAD_EXPORTS = {"sample_dgp"}


def test_no_unread_exports():
    # a public helper nothing in the package calls is a second way to do what
    # the pipeline does, and drifts from it unseen
    package = Path(suffcast.__file__).parent
    sources = {
        path.name: path.read_text()
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert set(unread_exports(suffcast.__all__, sources)) == ALLOWED_UNREAD_EXPORTS


def test_cli_import_leaves_out_multiprocessing():
    # the process pool, and the multiprocessing it pulls in, is imported only
    # by a study that starts one; every CLI call pays for the import otherwise
    src = str(Path(suffcast.__file__).parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import suffcast.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_import_leaves_openblas_unloaded():
    # numpy's bundled OpenBLAS is looked up on first use: by a thread pin or
    # by the eigensolver, not by an import
    src = str(Path(suffcast.__file__).parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import suffcast.cli; "
        "from suffcast._parallel import bundled_openblas; "
        "print(bundled_openblas.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "0"
