"""In-memory span recorder that wraps fleetsim's public entry points.

The benchmark never edits the program: it replaces a function or method
with a timing wrapper for the duration of one traced phase and puts the
original back afterwards.  A function is replaced in every ``fleetsim``
module that holds a reference to it, so callers that imported it by name
(``from .roadgraph import shortest_path``) are traced too.

Each span is ``[name, start, end, parent, info]``: times are
``perf_counter`` seconds, ``parent`` is the index of the enclosing span
(-1 at top level) and ``info`` is whatever the span's ``on_result``
callback extracted from the call.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrapper(self, fn, name: str, on_result):
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if on_result is not None:
                rec[INFO] = on_result(args, kwargs, result)
            return result

        return traced

    def wrap_function(self, module: str, attr: str, name: str, on_result=None) -> None:
        """Trace ``module.attr`` everywhere fleetsim refers to it."""
        original = getattr(importlib.import_module(module), attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        traced = self._wrapper(original, name, on_result)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fleetsim" or mod_name.startswith("fleetsim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
                    self._undo.append((mod, key, original))

    def wrap_method(self, cls, attr: str, name: str, on_result=None) -> None:
        """Trace ``cls.attr`` for every instance."""
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__module__}.{cls.__name__}.{attr}")
            return
        setattr(cls, attr, self._wrapper(original, name, on_result))
        self._undo.append((cls, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def self_time(spans: list[list], name: str) -> float:
    """Total duration of spans called ``name`` minus their direct children."""
    total = 0.0
    children = 0.0
    index = {i for i, s in enumerate(spans) if s[NAME] == name}
    for i in index:
        total += spans[i][END] - spans[i][START]
    for s in spans:
        if s[PARENT] in index:
            children += s[END] - s[START]
    return total - children


def write_spans(path, phases: dict[str, list[list]]) -> None:
    """Write each phase's spans as JSON; times are relative to its first span."""
    out = {}
    for phase, spans in phases.items():
        t0 = spans[0][START] if spans else 0.0
        out[phase] = [
            {"name": s[NAME], "start": s[START] - t0, "end": s[END] - t0,
             "parent": s[PARENT]}
            for s in spans
        ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
