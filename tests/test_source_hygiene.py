"""Every line of the package has a reader.

Two rules over the syntax trees of src/qrecon, so that a deletion cannot
leave its helpers behind: no module imports a name it never uses, and every
module-level private name is referenced somewhere in the package beyond its
own definition.  `__init__` is exempt from the first rule, since its imports
are the public surface (pinned in test_public_surface.py).
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
