"""Every line of the package has a reader.

Two rules over the syntax trees of src/qrecon, so that a deletion cannot
leave its helpers behind: no module imports a name it never uses, and every
module-level private name is referenced somewhere in the package beyond its
own definition.  `__init__` is exempt from the first rule, since its imports
are the public surface (pinned in test_public_surface.py).  A third keeps
three rules of the theory in one place, `exceptions`: only it tests whether
a size is a power of 2, with `v & (v - 1)`, reads the norm tolerance
RENORM_TOL, or calls `np.isfinite(...).all(...)`; every other module calls
its guards.  A fourth keeps the stream rule: only `criteria._stream` and
`sampling.measurement_stream` call `np.random.<name>(...)`, so every seeded
draw comes from a stream keyed by the run's seed.
"""

import ast
from pathlib import Path

import pytest

import qrecon

PACKAGE = Path(qrecon.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), filename=str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def names_read(node: ast.AST) -> set[str]:
    """The plain names and attribute names that node reads or imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def defined_names(stmt: ast.stmt) -> list[str]:
    """The module-level names one top-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [sub.id for target in targets for sub in ast.walk(target)
            if isinstance(sub, ast.Name)]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_every_imported_name_is_used(module):
    tree = MODULES[module]
    imported = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                imported[alias.asname or alias.name.split(".")[0]] = stmt
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                imported[alias.asname or alias.name] = stmt
    used = set()
    for stmt in tree.body:
        if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
            used |= names_read(stmt)
    assert sorted(set(imported) - used) == []


def test_every_private_module_name_has_a_reader():
    # a statement that reads its own name (a recursive function) is no reader
    reads = [(stmt, names_read(stmt)) for tree in MODULES.values()
             for stmt in tree.body]
    unread = [f"{module}.{name}" for module, tree in MODULES.items()
              for stmt in tree.body for name in defined_names(stmt)
              if name.startswith("_") and not name.startswith("__")
              and not any(other is not stmt and name in names
                          for other, names in reads)]
    assert unread == []


def is_power_of_two_test(node: ast.AST) -> bool:
    """Whether node is `v & (v - 1)` or `(v - 1) & v` on one operand v."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
        return False
    for value, less in ((node.left, node.right), (node.right, node.left)):
        if (isinstance(less, ast.BinOp) and isinstance(less.op, ast.Sub)
                and isinstance(less.right, ast.Constant) and less.right.value == 1
                and ast.dump(less.left) == ast.dump(value)):
            return True
    return False


def reads_renorm_tol(node: ast.AST) -> bool:
    """Whether node reads the norm rule's tolerance RENORM_TOL."""
    return (isinstance(node, ast.Name) and node.id == "RENORM_TOL"
            and isinstance(node.ctx, ast.Load))


def is_finite_entry_test(node: ast.AST) -> bool:
    """Whether node is a call `np.isfinite(...).all(...)`."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "all" and isinstance(node.func.value, ast.Call)
            and isinstance(node.func.value.func, ast.Attribute)
            and node.func.value.func.attr == "isfinite")


@pytest.mark.parametrize("rule", [is_power_of_two_test, reads_renorm_tol,
                                  is_finite_entry_test],
                         ids=["power-of-2", "norm", "finite-entry"])
def test_only_exceptions_applies_the_rule(rule):
    sites = [f"{module}:{node.lineno}" for module, tree in MODULES.items()
             if module != "exceptions" for node in ast.walk(tree) if rule(node)]
    assert sites == []
    assert any(map(rule, ast.walk(MODULES["exceptions"])))


def is_numpy_random_call(node: ast.AST) -> bool:
    """Whether node is a call `np.random.<name>(...)`."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "random"
            and isinstance(node.func.value.value, ast.Name)
            and node.func.value.value.id == "np")


STREAM_HELPERS = {("criteria", "_stream"), ("sampling", "measurement_stream")}


def test_only_the_stream_helpers_call_numpy_random():
    # each top-level statement, by its module and its name, if any
    top = [(module, getattr(stmt, "name", None), stmt)
           for module, tree in MODULES.items() for stmt in tree.body]
    lines = {id(stmt): [node.lineno for node in ast.walk(stmt)
                        if is_numpy_random_call(node)] for _, _, stmt in top}
    sites = [f"{module}:{line}" for module, name, stmt in top
             if (module, name) not in STREAM_HELPERS for line in lines[id(stmt)]]
    assert sites == []
    assert {(module, name) for module, name, stmt in top
            if lines[id(stmt)]} == STREAM_HELPERS
