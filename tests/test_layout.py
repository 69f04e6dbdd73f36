"""The package ships no test-only API: every function, class and method
defined in src/psl2ham has a caller in src/psl2ham.  Helpers that only
tests call belong in tests/reference.py or tests/util.py."""

import ast
from pathlib import Path

import psl2ham

SRC = Path(psl2ham.__file__).resolve().parent


def test_every_definition_has_a_caller_in_src():
    # __init__.py only re-exports, so its imports do not count as callers
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((node.name, f"{path.name}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert defined, f"no definitions found under {SRC}"
    assert sorted(f"{where} {name}" for name, where in defined
                  if name not in used) == []
