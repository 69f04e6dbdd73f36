"""The package ships no test-only API: every function, class and method
defined in src/psl2ham has a caller in src/psl2ham, and every field of
its records is read there.  Helpers that only tests call belong in
tests/reference.py or tests/util.py.  Importing the package loads none
of `dataclasses`, `inspect` and `argparse`, and the command line, which
reads argv against its own flag table, loads none of `argparse`,
`gettext` and `locale` either."""

import ast
import subprocess
import sys
from pathlib import Path

import psl2ham
from util import fresh_process_env

SRC = Path(psl2ham.__file__).resolve().parent


def test_import_loads_no_dataclasses_inspect_or_argparse():
    # the records are NamedTuples and the package does not import its
    # command line; the command line parses without argparse, whose gettext
    # loads locale at its first message.  The child reports only what
    # importing psl2ham, then psl2ham.cli and parsing one command line,
    # adds to the modules of a bare interpreter, so a site hook that
    # preloads one of them does not count
    probe = ("import sys; bare = set(sys.modules); import psl2ham; "
             "print(sorted({'dataclasses', 'inspect', 'argparse'} "
             "& (set(sys.modules) - bare))); import psl2ham.cli; "
             "psl2ham.cli.parse_args(['hamilton', '--k', '61']); "
             "print(sorted({'dataclasses', 'inspect', 'argparse', 'gettext', "
             "'locale'} & (set(sys.modules) - bare)))")
    out = subprocess.run([sys.executable, "-c", probe], env=fresh_process_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n[]\n"


def src_trees():
    """(file name, syntax tree) of every module but __init__.py, which
    only re-exports, so its imports do not count as callers."""
    return [(path.name, ast.parse(path.read_text(), str(path)))
            for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def test_every_definition_has_a_caller_in_src():
    # A method counts as used only through an attribute, and a plain name
    # only where it is read: a local variable named like a method, or
    # assigned over a function, keeps neither alive
    defined, names, attrs = [], set(), set()
    for name, tree in src_trees():
        methods = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) for node in cls.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((node.name, f"{name}:{node.lineno}",
                                    id(node) in methods))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    assert defined, f"no definitions found under {SRC}"
    assert sorted(f"{where} {name}" for name, where, method in defined
                  if name not in attrs and (method or name not in names)) == []


def test_every_record_field_is_read_in_src():
    # a NamedTuple field counts as read only where an attribute of its
    # name is loaded: a keyword argument that fills it does not; a field
    # that only tests read belongs in the tests
    fields, attrs = [], set()
    for name, tree in src_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(b, ast.Name) and b.id == "NamedTuple"
                    for b in node.bases):
                fields += [(f.target.id, f"{name}:{f.lineno} {node.name}")
                           for f in node.body if isinstance(f, ast.AnnAssign)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                ast.Load):
                attrs.add(node.attr)
    assert fields, f"no records found under {SRC}"
    assert sorted(f"{where}.{field}" for field, where in fields
                  if field not in attrs) == []
