"""Repository guards: the runtime imports nothing outside the standard library."""

import ast
import os
import sys

import locfine

SRC = os.path.dirname(os.path.abspath(locfine.__file__))


def test_runtime_imports_only_the_standard_library():
    sources = sorted(n for n in os.listdir(SRC) if n.endswith(".py"))
    assert "carrier.py" in sources
    outside = []
    for name in sources:
        with open(os.path.join(SRC, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            outside += [(name, m) for m in modules
                        if m.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
