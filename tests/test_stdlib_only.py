"""The package has no runtime dependencies: every absolute import in its
source names a standard-library module."""

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
