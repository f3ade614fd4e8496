import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import distmagic


def test_public_names_resolve():
    assert len(set(distmagic.__all__)) == len(distmagic.__all__)
    for name in distmagic.__all__:
        getattr(distmagic, name)
    namespace = {}
    exec("from distmagic import *", namespace)
    assert set(distmagic.__all__) <= set(namespace)


ROOT = Path(__file__).resolve().parent.parent


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; names in __all__ count as read."""
    tree = ast.parse(path.read_text(), str(path))
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", "") == "__all__" for target in node.targets):
            read.update(ast.literal_eval(node.value))
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert [hit for path in files for hit in unused_imports(path)] == []


# stdlib modules whose import costs more than the package's own; the
# package needs only array, bisect, itertools, operator and math
HEAVY = {"dataclasses", "typing", "inspect", "functools", "ast", "dis", "tokenize"}


def modules_loaded_by(*modules: str) -> set[str]:
    """The modules a `python -S` interpreter holds after importing `modules`."""
    code = f"import sys, {', '.join(modules)}; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


@pytest.mark.parametrize("modules,absent", [
    (("distmagic", "distmagic.search", "distmagic.rearrange", "distmagic.constructors"), HEAVY),
    # argparse loads functools through re
    (("distmagic.cli",), HEAVY - {"functools"}),
], ids=["library", "cli"])
def test_import_loads_no_heavy_stdlib(modules, absent):
    assert modules_loaded_by(*modules) & absent == set()
