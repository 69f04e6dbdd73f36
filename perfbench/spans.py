"""Span and call-count wrappers around psl2ham's layers, for traced runs.

`install()` replaces the listed functions and methods with wrappers, in
every psl2ham module namespace that binds them (`cli` imports most names
directly, `quotient` imports `neighborhood` from `orbital`).  Spanned
callables record (name, start, end, parent) per call; counted callables,
the per-element arithmetic called millions of times, only bump a counter.
Spans stay in memory until the worker hands them back.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from functools import cached_property

# (span name, module, attribute path); a dotted path names a method or a
# cached property of a class in that module
SPANNED = (
    ("gf.Field", "gf", "Field.__init__"),
    ("psl2.PSL2", "psl2", "PSL2.__init__"),
    ("psl2.S", "psl2", "PSL2.S"),
    ("psl2.H", "psl2", "PSL2.H"),
    ("action.CosetAction", "action", "CosetAction.__init__"),
    ("action.s_orbits", "action", "CosetAction.s_orbits"),
    ("orbital.neighborhood", "orbital", "neighborhood"),
    ("orbital.build_graph", "orbital", "build_graph"),
    ("orbital.union_neighbor_sets", "orbital", "union_neighbor_sets"),
    ("orbital.edgelist_lines", "orbital", "edgelist_lines"),
    ("orbital.to_dot", "orbital", "to_dot"),
    ("quotient.build_quotient", "quotient", "build_quotient"),
    ("quotient.lift_cycle", "quotient", "lift_cycle"),
    ("quotient.verify_certificate", "quotient", "verify_certificate"),
    ("quotient.certificate_to_text", "quotient", "certificate_to_text"),
    ("quotient.parse_certificate", "quotient", "parse_certificate"),
    ("diag.solvability_report", "diag", "solvability_report"),
    ("diag.count_solutions", "diag", "count_solutions"),
    ("diag.count_nonzero_x2", "diag", "count_nonzero_x2"),
    ("cli.run", "cli", "run"),
    ("cli.run_pipeline", "cli", "run_pipeline"),
    ("cli.full_graph_mode", "cli", "full_graph_mode"),
    ("cli.build_action", "cli", "build_action"),
)
COUNTED = (
    ("gf.add", "gf", "Field.add"),
    ("gf.mul", "gf", "Field.mul"),
    ("psl2.mul", "psl2", "PSL2.mul"),
    ("action.point_of", "action", "CosetAction.point_of"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self._counters: dict[str, itertools.count] = {}
        self.missing: list[str] = []  # wrapped names the program lacks

    def counts(self) -> dict[str, int]:
        # itertools.count hands out 0, 1, ...: the next value is the tally
        return {name: next(c) for name, c in self._counters.items()}

    def spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def open_span():
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(len(spans) - 1)

        def close_span():
            spans[stack.pop()][2] = clock()

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                open_span()
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    close_span()
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_span()
            try:
                return fn(*args, **kwargs)
            finally:
                close_span()
        return wrapper

    def counted(self, name, fn):
        tick = self._counters.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args):
            tick()
            return fn(*args)
        return wrapper


def _modules():
    return [mod for name, mod in sys.modules.items()
            if mod is not None and (name == "psl2ham" or name.startswith("psl2ham."))]


def _patch(tracer: Tracer, name: str, module: str, path: str, make) -> None:
    mod = sys.modules.get(f"psl2ham.{module}")
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(mod, owner_name, None) if owner_name else mod
    orig = owner.__dict__.get(attr) if owner is not None else None
    if orig is None:
        tracer.missing.append(name)
        return
    if isinstance(orig, cached_property):
        new = cached_property(make(name, orig.func))
        new.__set_name__(owner, attr)
        setattr(owner, attr, new)
        return
    new = make(name, orig)
    setattr(owner, attr, new)
    if not owner_name:
        for other in _modules():
            for bound, val in list(vars(other).items()):
                if val is orig:
                    setattr(other, bound, new)


def install() -> Tracer:
    """Wrap psl2ham's layers in place; call after `import psl2ham`."""
    tracer = Tracer()
    for name, module, path in SPANNED:
        _patch(tracer, name, module, path, tracer.spanned)
    for name, module, path in COUNTED:
        _patch(tracer, name, module, path, tracer.counted)
    return tracer
