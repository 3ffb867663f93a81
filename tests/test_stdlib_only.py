"""The package has no runtime dependencies: every absolute import in its
source names a standard-library module.  And every name a module imports
is used in that module."""

import ast
import pathlib
import sys

import coverpebble

PACKAGE_DIR = pathlib.Path(coverpebble.__file__).parent


def _absolute_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_absolute_import_is_stdlib():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules, PACKAGE_DIR
    outside = [
        f"{path.relative_to(PACKAGE_DIR)}:{line}: {name}"
        for path in modules
        for line, name in _absolute_imports(ast.parse(path.read_text(encoding="utf-8")))
        if name not in sys.stdlib_module_names
    ]
    assert not outside, outside


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_every_imported_name_is_used():
    # __init__.py imports in order to re-export
    modules = sorted(p for p in PACKAGE_DIR.rglob("*.py") if p.name != "__init__.py")
    assert modules, PACKAGE_DIR
    unused = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.relative_to(PACKAGE_DIR)}:{line}: {name}"
            for line, name in _imported_names(tree)
            if name not in used
        ]
    assert not unused, unused
