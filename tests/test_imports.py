"""Import hygiene of the package source, read with the standard ast module.

A name a module imports but never reads is left behind by a deletion; this
fails on it.  The package's __init__ re-exports what it imports, and a name
a module lists in __all__ is exported, so both count as used.
"""

import ast
from pathlib import Path

import nivatk.cli

SRC = Path(__file__).resolve().parents[1] / "src" / "nivatk"


def _exported(tree) -> set:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in read and name not in _exported(tree))


def test_package_modules_read_every_import():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [u for p in modules for u in unused_imports(p)] == []


def test_unused_import_is_reported(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os\nimport sys\nfrom math import gcd, lcm\n"
                    "__all__ = ['lcm']\nprint(sys.argv)\n", encoding="utf-8")
    assert unused_imports(path) == ["m.py:1 os", "m.py:3 gcd"]


def test_cli_all_names_exist():
    assert nivatk.cli.__all__
    for name in nivatk.cli.__all__:
        assert hasattr(nivatk.cli, name), name
