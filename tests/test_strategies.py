"""Each test helper is defined in one place.

A generator or oracle that several modules use lives in `strategies.py`;
a module that needs a special shape passes parameters to it instead of
keeping a copy under the same name.
"""

import ast
from collections import defaultdict
from pathlib import Path


def helper_names(path):
    """The top-level non-test functions and classes and the upper-case
    constants that a module defines."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("test_"):
                yield node.name
        elif isinstance(node, ast.Assign):
            yield from (t.id for t in node.targets
                        if isinstance(t, ast.Name) and t.id.isupper())


def test_each_helper_is_defined_in_one_module():
    modules = defaultdict(list)
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for name in set(helper_names(path)):
            modules[name].append(path.name)
    assert {name: where for name, where in modules.items() if len(where) > 1} == {}
