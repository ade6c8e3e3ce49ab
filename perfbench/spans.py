"""In-memory spans recorded around the package's public functions.

Spans are installed from outside the package: each traced function is
replaced, in every ``sic_simplex`` module namespace that holds it, by a
wrapper that records a span.  Modules that bind a name with
``from ... import`` keep their own reference, so every namespace is patched,
not only the defining module.  ``restore`` puts the originals back.
"""

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float | None = None
    error: bool = False
    note: object = None  # per-function detail taken from the return value


class Tracer:
    """Collects nested spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, note=None):
        """``fn`` recording a span called ``name`` (or ``name(*args)``);
        ``note(result)`` is kept on the span when given."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent, span_name, self.clock())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = self.clock()
                self._stack.pop()
            if note is not None:
                span.note = note(result)
            return result
        return traced


def self_times(spans):
    """Span id -> duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children[s.id]):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.id] = (s.end - s.start) - covered
    return out


def summarize(spans):
    """Span name -> {"calls", "self_ms", "errors"} summed over the spans."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "self_ms": 0.0, "errors": 0})
    for s in spans:
        row = out[s.name]
        row["calls"] += 1
        row["self_ms"] += selfs[s.id] * 1e3
        row["errors"] += int(s.error)
    return dict(out)


def install(tracer, targets, package="sic_simplex"):
    """Wrap each target in every namespace of ``package`` that holds it.

    ``targets`` is a list of ``(module, function_name, span_name, note)``.
    Returns the patch list for ``restore``.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if name == package or name.startswith(package + ".")]
    patched = []
    for module, fn_name, span_name, note in targets:
        original = getattr(module, fn_name)
        wrapper = tracer.wrap(span_name, original, note)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    patched.append((m, attr, original))
    return patched


def restore(patched):
    """Undo ``install``; raises if a namespace no longer holds our wrapper."""
    for m, attr, original in reversed(patched):
        current = getattr(m, attr)
        if getattr(current, "__wrapped__", None) is not original:
            raise RuntimeError(f"{m.__name__}.{attr} changed while traced")
        setattr(m, attr, original)
