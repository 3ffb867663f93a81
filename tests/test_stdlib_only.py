"""The package has no runtime dependencies: every absolute import in its
source names a standard-library module.  Every name a module imports is
used in that module, and every parameter and local a function binds is
read.  Each export is defined in the one module whose __all__ lists it,
and every private definition is referenced somewhere else in the
package.  No code outside errors.check_int tests type(...) against int,
no code outside SolveMemo._tree builds a BFS tree, and no code outside
SolveMemo._passing runs a tree pass."""

import ast
import importlib
import inspect
import pathlib
import sys
import textwrap

import coverpebble
from coverpebble.errors import check_int
from coverpebble.exact import SolveMemo

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


def _top_level_names(tree):
    # names a module's own statements bind at its top level; imports do not count
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id


def test_each_export_is_defined_in_the_one_module_that_lists_it():
    # __init__.py re-exports each module's __all__, so a name listed there
    # but bound nowhere, or listed by two modules, would be a drift
    owners = {}
    for path in sorted(p for p in PACKAGE_DIR.rglob("*.py") if p.name != "__init__.py"):
        listed = getattr(importlib.import_module(f"coverpebble.{path.stem}"), "__all__", [])
        defined = set(_top_level_names(ast.parse(path.read_text(encoding="utf-8"))))
        assert set(listed) <= defined, (path.name, sorted(set(listed) - defined))
        for name in listed:
            owners.setdefault(name, []).append(path.name)
    shared = {name: modules for name, modules in owners.items() if len(modules) > 1}
    assert not shared, shared
    assert sorted(owners) == sorted(coverpebble.__all__)


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


# (module, function, parameter) kept although unread: the benchmark's
# two-thread scan probe passes verify_threshold a worker count
_UNREAD_ALLOWED = {("exact.py", "verify_threshold", "worker_count")}


def _unread_locals(tree):
    # per function: each parameter and each name it binds that no load in
    # its body reads, nested functions included, since a closure reads
    # the names of the function around it; self, cls and names starting
    # with an underscore are exempt
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        spec = fn.args
        params = spec.posonlyargs + spec.args + spec.kwonlyargs + [a for a in (spec.vararg, spec.kwarg) if a]
        bound = [(a.lineno, a.arg) for a in params]
        read = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                else:
                    bound.append((node.lineno, node.id))
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.append((node.lineno, node.name))
        name = getattr(fn, "name", "<lambda>")
        for line, local in bound:
            if local not in read and local not in ("self", "cls") and not local.startswith("_"):
                yield line, name, local


def test_every_parameter_and_local_is_read():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert modules, PACKAGE_DIR
    found = {}
    for path in modules:
        module = str(path.relative_to(PACKAGE_DIR))
        for line, name, local in _unread_locals(ast.parse(path.read_text(encoding="utf-8"))):
            found[module, name, local] = line
    unread = sorted(f"{m}:{line}: {name}: {local}" for (m, name, local), line in found.items()
                    if (m, name, local) not in _UNREAD_ALLOWED)
    assert not unread, unread
    # an exemption outlives its reason once the name is read or gone
    assert _UNREAD_ALLOWED <= found.keys()


def _definitions(tree):
    # (name, node defining it): functions, classes and methods at any
    # depth, and the plain names that module and class bodies assign
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, (ast.Module, ast.ClassDef)):
            for stmt in node.body:
                if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                    yield from ((t.id, stmt) for t in targets if isinstance(t, ast.Name))


def test_every_private_definition_is_referenced():
    # a private helper, class, method or alias that no code in the
    # package reads outside its own definition is dead
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE_DIR.rglob("*.py"))}
    assert trees, PACKAGE_DIR
    reads = [
        (path, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    ]
    dead = []
    for path, tree in trees.items():
        for name, node in _definitions(tree):
            if not name.startswith("_") or name.startswith("__"):
                continue
            own = range(node.lineno, node.end_lineno + 1)
            if not any(read == name and (where != path or line not in own) for where, line, read in reads):
                dead.append(f"{path.relative_to(PACKAGE_DIR)}:{node.lineno}: {name}")
    assert not dead, dead


def _type_is_int_tests(tree):
    # each `type(x) is int` or `type(x) is not int`, either way round
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
            sides = [node.left, *node.comparators]
            calls_type = any(isinstance(s, ast.Call) and getattr(s.func, "id", None) == "type" for s in sides)
            if calls_type and any(getattr(s, "id", None) == "int" for s in sides):
                yield node.lineno


def test_only_check_int_tests_for_an_int():
    # errors.check_int owns the integer rule; an inline copy elsewhere
    # would drift from its message and its refusal of bools
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = range(0)
        if path.name == "errors.py":
            [fn] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "check_int"]
            owner = range(fn.lineno, fn.end_lineno + 1)
        found += [(path.name, line) for line in _type_is_int_tests(tree) if line not in owner]
    assert not found, found
    # the owner itself holds the test, so the guard looks for the right shape
    assert list(_type_is_int_tests(ast.parse(inspect.getsource(check_int))))


def _calls(tree, name):
    # each call of name, by name or as an attribute
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
            yield node.lineno


def _calls_outside_memo_method(name, owner):
    # the package's calls of name, but for those inside SolveMemo.<owner>,
    # and the calls the owner itself holds
    found = []
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = range(0)
        if path.name == "exact.py":
            [memo] = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SolveMemo"]
            [fn] = [n for n in memo.body if isinstance(n, ast.FunctionDef) and n.name == owner]
            inside = range(fn.lineno, fn.end_lineno + 1)
        found += [(path.name, line) for line in _calls(tree, name) if line not in inside]
    source = textwrap.dedent(inspect.getsource(getattr(SolveMemo, owner)))
    return found, len(list(_calls(ast.parse(source), name)))


def test_only_the_memo_tree_table_builds_bfs_trees():
    # SolveMemo._tree owns the BFS trees, one per root and memo; a second
    # call site would build them again on every call
    found, owned = _calls_outside_memo_method("_bfs_steps", "_tree")
    assert not found, found
    # the owner itself holds the one call, so the guard looks for the right shape
    assert owned == 1


def test_only_the_memo_runs_the_tree_passes():
    # SolveMemo._passing owns the passes that solve and verify_threshold
    # share, with their roots and the bound keep vector; a second call
    # site would be a second copy of that rule
    found, owned = _calls_outside_memo_method("_pass", "_passing")
    assert not found, found
    assert owned == 1


def test_only_the_memo_plan_table_plans_the_prefix_dps():
    # SolveMemo._plan owns the plan of each root's prefix DPs, built once
    # and kept in the memo's table; a second call site would run a prefix
    # DP from a plan the table does not hold, or build one per call
    found, owned = _calls_outside_memo_method("_dp_plan", "_plan")
    assert not found, found
    assert owned == 1
