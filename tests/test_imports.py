"""Import hygiene of the package source and the tests, read with the standard ast module.

A name a module imports but never reads is left behind by a deletion; this
fails on it.  The package's __init__ re-exports what it imports, and a name
a module lists in __all__ is exported, so both count as used.  A deletion
can also leave a private helper behind: a module-level _name that no
package module reads fails too.  Modules import each other at module
level, so that the import graph is the layering; the one import below
module level is named in its test.  The test modules share boards, draws
and references through tests/draws.py and tests/fast_paths.py only: none
imports another test module, none defines a helper under a name those two
define, and no two top-level helpers in tests/ have the same body.
"""

import ast
import textwrap
from pathlib import Path

import nivatk.cli

SRC = Path(__file__).resolve().parents[1] / "src" / "nivatk"
TESTS = Path(__file__).resolve().parent


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


def test_test_modules_read_every_import():
    assert [u for p in sorted(TESTS.glob("*.py")) for u in unused_imports(p)] == []


def test_unused_import_is_reported(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("import os\nimport sys\nfrom math import gcd, lcm\n"
                    "__all__ = ['lcm']\nprint(sys.argv)\n", encoding="utf-8")
    assert unused_imports(path) == ["m.py:1 os", "m.py:3 gcd"]


def _private_names(node) -> list:
    """The private names a top-level statement defines (def, class or assignment), dunders aside."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        return []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _reads(node) -> set:
    """Names a statement loads or imports from another module.

    An attribute read such as self._coerce names a member, not a module-level
    helper, so it does not count.
    """
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unread_private_names(paths) -> list:
    """Module-level private names that no top-level statement but their own definition reads."""
    statements = [(p, node) for p in paths
                  for node in ast.parse(p.read_text(encoding="utf-8"), filename=str(p)).body]
    reads = [_reads(node) for _, node in statements]
    return sorted(f"{p.name}:{node.lineno} {name}" for i, (p, node) in enumerate(statements)
                  for name in _private_names(node)
                  if not any(name in r for j, r in enumerate(reads) if j != i))


def test_package_modules_read_every_private_name():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    assert unread_private_names(modules) == []


def test_unread_private_name_is_reported(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(textwrap.dedent("""\
        _LIMIT = 3
        _seen: set = set()


        def _used():
            return _LIMIT


        def _dead(n):
            return _dead(n - 1) if n else 0


        class _Gone:
            pass


        def __getattr__(name):
            raise AttributeError(name)
        """), encoding="utf-8")
    b.write_text("from .a import _used\n", encoding="utf-8")
    assert unread_private_names([a, b]) == ["a.py:13 _Gone", "a.py:2 _seen", "a.py:9 _dead"]


def nested_imports(paths) -> list:
    """Imports below module level, in a function or class body, as
    module:qualified name of the enclosing definition:imported module."""
    out = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, path, scope + [child.name])
            elif isinstance(child, (ast.Import, ast.ImportFrom)) and scope:
                module = ("." * child.level + (child.module or "")
                          if isinstance(child, ast.ImportFrom) else child.names[0].name)
                out.append(f"{path.name}:{'.'.join(scope)}:{module}")
            else:
                visit(child, path, scope)

    for path in paths:
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path, [])
    return sorted(out)


def test_only_the_polynomial_repr_imports_below_module_level():
    """The modules import each other at the top, in one direction; textio
    imports laurent, so LaurentPolynomial.__repr__ reads format_poly late."""
    assert nested_imports(sorted(SRC.glob("*.py"))) == [
        "laurent.py:LaurentPolynomial.__repr__:.textio"]


def test_nested_import_is_reported(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(textwrap.dedent("""\
        import os


        class C:
            import sys

            def f(self):
                from . import a
                return a


        def g():
            def h():
                import json
            return h
        """), encoding="utf-8")
    assert nested_imports([path]) == ["m.py:C.f:.", "m.py:C:sys", "m.py:g.h:json"]


def test_cli_all_names_exist():
    assert nivatk.cli.__all__
    for name in nivatk.cli.__all__:
        assert hasattr(nivatk.cli, name), name


def imports_of_test_modules(paths) -> list:
    """Imports of a test_* module, as module:line imported name."""
    return [f"{path.name}:{node.lineno} {name}" for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for name in [getattr(node, "module", None) or ""] + [alias.name for alias in node.names]
            if any(part.startswith("test_") for part in name.split("."))]


def test_no_test_module_imports_another():
    assert imports_of_test_modules(sorted(TESTS.glob("*.py"))) == []


def test_test_module_import_is_reported(tmp_path):
    path = tmp_path / "test_m.py"
    path.write_text("import draws\nfrom test_a import x\nimport tests.test_b\n"
                    "from tests import test_c\n", encoding="utf-8")
    assert imports_of_test_modules([path]) == [
        "test_m.py:2 test_a", "test_m.py:3 tests.test_b", "test_m.py:4 test_c"]


def same_body_helpers(paths) -> list:
    """Groups of top-level functions and classes, test_ functions aside, whose
    bodies parse to the same tree past their docstrings, each as module:line name."""
    groups = {}
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("test_")):
                body = node.body[1:] if ast.get_docstring(node) else node.body
                body = "\n".join(ast.dump(stmt) for stmt in body)
                groups.setdefault(body, []).append(f"{path.name}:{node.lineno} {node.name}")
    return sorted(group for group in groups.values() if len(group) > 1)


def test_no_two_test_helpers_share_a_body():
    assert same_body_helpers(sorted(TESTS.glob("*.py"))) == []


def test_helpers_sharing_a_body_are_reported(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text('def board():\n    """A docstring is not part of the body, nor is a comment."""\n'
                 '    # the same list\n    return [1, 2]\n\n\ndef test_board():\n    return [1, 2]\n',
                 encoding="utf-8")
    b.write_text("def grid():\n    return [1, 2]\n\n\ndef other():\n    return [2, 1]\n",
                 encoding="utf-8")
    assert same_body_helpers([a, b]) == [["a.py:1 board", "b.py:1 grid"]]


def shadowed_names(paths, shared) -> list:
    """Top-level functions and classes of paths named like one of shared's, as module:line name."""
    def defs(path):
        return [node for node in ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))]

    names = {node.name for path in shared for node in defs(path)}
    return sorted(f"{path.name}:{node.lineno} {node.name}" for path in paths
                  for node in defs(path) if node.name in names)


def test_no_test_module_defines_a_name_of_the_shared_modules():
    shared = [TESTS / "draws.py", TESTS / "fast_paths.py"]
    assert shadowed_names(sorted(TESTS.glob("test_*.py")), shared) == []


def test_a_shadowed_name_is_reported(tmp_path):
    draws, a = tmp_path / "draws.py", tmp_path / "test_a.py"
    draws.write_text("def random_box(rng):\n    return rng\n\n\nclass Recorder:\n    pass\n", encoding="utf-8")
    a.write_text("def random_box(rng, d):\n    return d\n\n\ndef Recorder():\n    pass\n\n\n"
                 "def test_random_box():\n    random_box = 1\n    assert random_box\n", encoding="utf-8")
    assert shadowed_names([a], [draws]) == ["test_a.py:1 random_box", "test_a.py:5 Recorder"]
