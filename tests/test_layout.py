"""The modules of the package import in one direction.

Each module of `src/agealg` imports only modules before it in `ORDER`, and
only at its top, so no import cycle needs a function-local import to break
it.  The one exception is `cli`'s import of `verify` inside `cmd_verify`:
no other command needs the criteria table.  The package's `__init__` only
gathers the public names, and is not in the order.  Every module uses each
name it imports, so code that is removed takes its imports with it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "agealg"
ORDER = ("errors", "structures", "templates", "planar", "algebra",
         "decomposition", "hilbert", "gallery", "verify", "cli")
LOCAL_IMPORTS = {("cli", "cmd_verify", "verify")}


def package_imports(node, function=None):
    """(innermost enclosing function or None, module name) for each
    package-relative import under `node`.  `from . import x` names module
    x when the package has one, else the package's `__init__`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from package_imports(child, child.name)
        elif isinstance(child, ast.ImportFrom) and child.level:
            if child.module:
                yield function, child.module.split(".")[0]
            for alias in child.names if not child.module else ():
                module = alias.name
                if not (PACKAGE / f"{module}.py").is_file():
                    module = "__init__"
                yield function, module
        else:
            yield from package_imports(child, function)


def imports_of(module):
    return list(package_imports(ast.parse((PACKAGE / f"{module}.py").read_text())))


def test_the_order_lists_every_module():
    assert sorted(ORDER) == sorted(p.stem for p in PACKAGE.glob("*.py")
                                   if p.stem != "__init__")


def test_package_imports_sit_at_module_top():
    local = {(module, function, target) for module in ORDER
             for function, target in imports_of(module) if function}
    assert local == LOCAL_IMPORTS


def test_modules_import_only_earlier_modules():
    later = [(module, target) for i, module in enumerate(ORDER)
             for _, target in imports_of(module)
             if target != "__init__" and ORDER.index(target) >= i]
    assert not later


def unused_imports(module):
    """The names that `module` imports and never reads."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    return imported - {node.id for node in ast.walk(tree)
                       if isinstance(node, ast.Name)}


def test_modules_use_every_name_they_import():
    unused = {module: sorted(unused_imports(module)) for module in ORDER}
    assert not {module: names for module, names in unused.items() if names}
