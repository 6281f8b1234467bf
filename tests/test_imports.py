"""Every module of the package imports at its top and reads each name it
imports."""

import ast
from pathlib import Path

import nablamu

PACKAGE = Path(nablamu.__file__).parent


def _unread_imports(tree: ast.Module) -> list:
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_no_module_imports_a_name_it_never_reads():
    # __init__ imports names only to export them
    unread = {
        path.name: _unread_imports(ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert len(unread) > 1
    assert not {name: names for name, names in unread.items() if names}


def _function_imports(tree: ast.Module) -> list:
    return sorted(
        {
            node.lineno
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
            if isinstance(node, (ast.Import, ast.ImportFrom))
        }
    )


def test_no_module_imports_inside_a_function():
    # an import inside a function hides a dependency between the modules
    found = {
        path.name: _function_imports(ast.parse(path.read_text()))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert len(found) > 1
    assert not {name: lines for name, lines in found.items() if lines}
