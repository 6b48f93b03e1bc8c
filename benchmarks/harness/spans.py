"""In-memory spans recorded from outside the program.

A :class:`SpanRecorder` keeps ``(name, start, end, parent)`` tuples in a list
and installs timing wrappers on *class attributes* of the program's public
classes -- a wrapper on the class is seen by every instance however the
caller reached it, which a patched module-level name would not be.
:meth:`SpanRecorder.remove` puts the original function objects back, so
method identity is restored after the traced pass.

Single-threaded by design: every wrapped boundary of the in-process workloads
runs on the main thread (the service and the fleet workers are separate
processes and are timed client-side).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Span = Tuple[str, float, float, int]      # name, start, end, parent index (-1 = root)


class SpanRecorder:
    """Spans plus the wrappers that produce them."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------------ recording
    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its handle."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        return index

    def end(self, index: int) -> None:
        """Close the span ``begin`` returned (must be the innermost one)."""
        end = time.perf_counter()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)
        self._stack.pop()

    def cancel(self, index: int) -> None:
        """Drop the innermost open span (nothing happened inside it)."""
        self._stack.pop()
        self.spans[index] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)

    # ------------------------------------------------------------------ wrappers
    def wrap(self, cls: type, attribute: str, name: str) -> bool:
        """Time every call of ``cls.attribute`` as a span called ``name``.

        Returns ``False`` (and installs nothing) when the class no longer has
        the attribute -- the probe's boundary is gone and its metrics are
        absent from the output.
        """
        original = cls.__dict__.get(attribute)
        if original is None or not callable(original):
            return False
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def timed(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        timed.__wrapped__ = original
        timed.__name__ = getattr(original, "__name__", attribute)
        setattr(cls, attribute, timed)
        self._installed.append((cls, attribute, original))
        return True

    def wrap_prefix(self, cls: type, prefixes: Sequence[str], name: str) -> List[str]:
        """Wrap every public method of ``cls`` whose name starts with a prefix.

        Discovery by prefix keeps the probe alive when the set of entry
        points changes (six walks collapsing into one, say).
        """
        wrapped = []
        for attribute, value in list(cls.__dict__.items()):
            if (not attribute.startswith("_") and callable(value)
                    and attribute.startswith(tuple(prefixes))
                    and self.wrap(cls, attribute, name)):
                wrapped.append(attribute)
        return wrapped

    def remove(self) -> None:
        """Restore every wrapped attribute to the original function object."""
        while self._installed:
            cls, attribute, original = self._installed.pop()
            setattr(cls, attribute, original)

    # ------------------------------------------------------------------ arithmetic
    def aggregate(self) -> Dict[str, "Aggregate"]:
        """Per span name: calls, total, outermost total and self time."""
        result: Dict[str, Aggregate] = {}
        spans = self.spans
        for span in spans:
            if span is None:
                continue
            name, start, end, parent = span
            duration = end - start
            entry = result.get(name)
            if entry is None:
                entry = result[name] = Aggregate()
            entry.calls += 1
            entry.total += duration
            entry.self_time += duration
            if parent >= 0:
                result[spans[parent][0]].self_time -= duration
            # A method that calls a same-named sibling (one walk entry point
            # delegating to another) must not be counted twice.
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                entry.outermost += duration
        return result

    def dump(self) -> List[Dict[str, object]]:
        """JSON-ready span list (the ``--spans`` file)."""
        return [{"id": index, "name": span[0], "start": span[1], "end": span[2],
                 "parent": span[3]}
                for index, span in enumerate(self.spans) if span is not None]


class Aggregate:
    """Totals of one span name."""

    __slots__ = ("calls", "total", "outermost", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0          # every span, nested same-name spans included
        self.outermost = 0.0      # spans without a same-name ancestor
        self.self_time = 0.0      # total minus time covered by direct children
