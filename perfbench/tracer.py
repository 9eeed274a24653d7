"""Per-layer tracing from outside the program.

The tracer replaces public attributes of the program's modules (functions,
or the function behind a ``cached_property``) with timing wrappers while it
is installed, and puts the originals back when it is removed, so the
program's own code is never edited.  Spans stay in memory, aggregated to one
record per layer per instance:

* ``calls``  -- number of calls;
* ``s``      -- inclusive seconds of the outermost calls of the layer, so a
  layer that calls itself (directly or through another wrapped name of the
  same layer) is not counted twice;
* ``self_s`` -- seconds minus the time spent in nested wrapped calls;
* ``start`` / ``end`` -- first entry and last exit, on ``time.perf_counter``.

An ``observe`` hook may count things in the returned value; it gets the
layer's ``counts`` dict and the result.  A binding that does not exist is
listed in ``missing``; a layer none of whose bindings exist is listed in
``unmeasured``; an observer that cannot read a result is switched off and
listed in ``unobserved``.  None of these stops a run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable


@dataclass(frozen=True)
class Binding:
    """Wrap ``getattr(owner, attr)`` and account its calls to ``layer``."""

    owner: Any
    attr: str
    layer: str
    observe: Callable[[dict, Any], None] | None = None


@dataclass(slots=True)
class Span:
    """One layer's aggregate within one instance."""

    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    start: float | None = None
    end: float | None = None
    depth: int = 0
    counts: dict = field(default_factory=dict)


class Tracer:
    def __init__(self, bindings: list[Binding]):
        self.bindings = bindings
        self.instances: dict[Any, dict[str, Span]] = {}
        self.missing: list[str] = []
        self.unobserved: set[str] = set()
        self._stack: list[float] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self.layers = sorted({b.layer for b in bindings})
        present = set()
        for b in bindings:
            if hasattr(b.owner, b.attr):
                present.add(b.layer)
            else:
                self.missing.append(f"{getattr(b.owner, '__name__', b.owner)}.{b.attr}")
        self.unmeasured = [layer for layer in self.layers if layer not in present]
        # calls made outside any instance land here and are not reported
        self._current = {layer: Span() for layer in self.layers}

    def begin_instance(self, key) -> None:
        """Account the following calls to instance ``key``."""
        self._current = {layer: Span() for layer in self.layers}
        self.instances[key] = self._current

    def __enter__(self) -> "Tracer":
        for b in self.bindings:
            # look in the class dict so a cached_property is seen as itself
            raw = vars(b.owner).get(b.attr) if isinstance(b.owner, type) else None
            if raw is None and not hasattr(b.owner, b.attr):
                continue
            original = raw if raw is not None else getattr(b.owner, b.attr)
            if isinstance(original, cached_property):
                replacement = cached_property(self._wrap(original.func, b))
                replacement.__set_name__(b.owner, b.attr)
            else:
                replacement = self._wrap(original, b)
            self._saved.append((b.owner, b.attr, original))
            setattr(b.owner, b.attr, replacement)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable, binding: Binding) -> Callable:
        layer = binding.layer
        observe = binding.observe
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            nonlocal observe
            span = tracer._current[layer]
            span.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                elapsed = t1 - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.depth -= 1
                span.calls += 1
                if span.depth == 0:
                    span.s += elapsed
                span.self_s += elapsed - nested
                if span.start is None:
                    span.start = t0
                span.end = t1
            if observe is not None:
                try:
                    observe(span.counts, result)
                except (AttributeError, TypeError, ValueError):
                    tracer.unobserved.add(layer)
                    observe = None
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def totals(self) -> dict[str, Span]:
        """Per-layer sums over every instance traced so far."""
        out = {layer: Span() for layer in self.layers}
        for spans in self.instances.values():
            for layer, span in spans.items():
                total = out[layer]
                total.calls += span.calls
                total.s += span.s
                total.self_s += span.self_s
                for name, value in span.counts.items():
                    total.counts[name] = total.counts.get(name, 0) + value
        return out

    def records(self) -> list[dict]:
        """Every non-empty span, parented to its instance, for the trace file."""
        out = []
        for key, spans in self.instances.items():
            for layer, span in spans.items():
                if span.calls:
                    out.append(
                        {
                            "instance": key,
                            "parent": "instance",
                            "layer": layer,
                            "calls": span.calls,
                            "s": span.s,
                            "self_s": span.self_s,
                            "start": span.start,
                            "end": span.end,
                            **span.counts,
                        }
                    )
        return out
