import ast
from pathlib import Path

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
