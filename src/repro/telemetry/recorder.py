"""The process-wide telemetry recorder: metrics registry + span tracing.

One :class:`Recorder` instance (:data:`RECORDER`) exists per process.  It is
**disabled by default** and every recording call is a no-op behind a single
``self.enabled`` check, so an un-instrumented-feeling fast path survives in
instrumented code -- the hot sites in the simulation engines guard with
``if RECORDER.enabled:`` before even reading a clock.  Enabling happens
through the ``REPRO_TELEMETRY`` environment variable (any of
``1/true/on/yes``) or the CLI's ``--telemetry`` flag, which sets the
variable so campaign worker processes inherit it.

Three metric kinds live in the registry:

* **counters** -- monotonically accumulated floats (``count``),
* **gauges**   -- last-write-wins values (``gauge``),
* **histograms** -- fixed-bucket distributions (``observe``), Prometheus
  cumulative-``le`` style, so exports never re-bin.

Spans (``with RECORDER.span("campaign.run", jobs=42):``) capture wall-clock
start (epoch, comparable across processes) and a monotonic duration; they
nest through a per-scope stack and serialise as plain dicts.

Multiprocessing is handled by *scopes*, not shared state: a campaign worker
pushes a fresh scope before executing a job, records freely, pops the scope
into a picklable payload that rides back on the job result, and the parent
:meth:`merge`s it -- span ids are remapped and the worker's root spans are
re-parented under the parent's currently open span, so a merged trace reads
as one tree.  No locks, no shared memory, no divergence between the
``workers=1`` in-process path and the pool path.

Pushed scopes belong to the thread that pushed them: two jobs executing at
once on two threads of one process (the service's default) each record into
their own.  The *base* scope, which exports and ``/metrics`` read, is shared
by every thread; a thread with nothing pushed records into it.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

#: Environment variable enabling telemetry (``1``/``true``/``on``/``yes``).
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Truthy spellings accepted in :data:`TELEMETRY_ENV`.
_TRUTHY = ("1", "true", "on", "yes")

#: Fixed histogram bucket upper bounds, in seconds (Prometheus ``le`` style);
#: every histogram shares them so merges and exports never re-bin.  The last
#: implicit bucket is +Inf.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0)


def env_enabled() -> bool:
    """Whether ``$REPRO_TELEMETRY`` asks for telemetry."""
    return os.environ.get(TELEMETRY_ENV, "").strip().lower() in _TRUTHY


def _new_histogram() -> Dict[str, object]:
    return {"buckets": [0] * (len(DEFAULT_BUCKETS) + 1), "sum": 0.0, "count": 0}


class _Scope:
    """One recording scope: metric stores, span log and the open-span stack."""

    __slots__ = ("spans", "counters", "gauges", "histograms", "stack")

    def __init__(self):
        self.spans: List[Dict] = []
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Dict] = {}
        self.stack: List[int] = []


class _ThreadScopes(threading.local):
    """The scopes one thread has pushed (empty: it records into the base)."""

    def __init__(self):
        self.pushed: List[_Scope] = []


class _NullSpan:
    """The disabled path's span handle: enters and exits for free."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """An open span; appended to its scope as a plain dict on exit."""

    __slots__ = ("recorder", "span_id", "name", "tags", "start_wall", "_start_perf")

    def __init__(self, recorder: "Recorder", name: str, tags: Dict):
        self.recorder = recorder
        self.name = name
        self.tags = tags
        self.span_id = recorder._next_span_id()
        self.start_wall = time.time()
        self._start_perf = time.perf_counter()

    def __enter__(self):
        self.recorder._top().stack.append(self.span_id)
        return self

    def __exit__(self, *exc_info):
        duration = time.perf_counter() - self._start_perf
        scope = self.recorder._top()
        if scope.stack and scope.stack[-1] == self.span_id:
            scope.stack.pop()
        parent = scope.stack[-1] if scope.stack else None
        scope.spans.append({
            "id": self.span_id,
            "parent": parent,
            "name": self.name,
            "start": self.start_wall,
            "duration": duration,
            "tags": self.tags,
        })
        return False


class Recorder:
    """Process-wide metrics registry and span collector (no-op when disabled)."""

    def __init__(self, enabled: Optional[bool] = None):
        self.enabled = env_enabled() if enabled is None else enabled
        self.reset()

    # ------------------------------------------------------------------
    def configure_from_env(self) -> bool:
        """Re-read ``$REPRO_TELEMETRY`` (the CLI sets it before dispatching)."""
        self.enabled = env_enabled()
        return self.enabled

    def reset(self) -> None:
        """Drop every recorded value and scope (tests, fresh sessions)."""
        self._base = _Scope()
        self._local = _ThreadScopes()
        self._ids = itertools.count(1)

    def _top(self) -> _Scope:
        pushed = self._local.pushed
        return pushed[-1] if pushed else self._base

    def _next_span_id(self) -> int:
        return next(self._ids)

    # ------------------------------------------------------------------ spans
    def span(self, name: str, **tags):
        """Context manager timing one named span (no-op when disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return _SpanHandle(self, name, tags)

    def record_span(self, name: str, start_wall: float, duration: float,
                    **tags) -> None:
        """Append one already-measured span (e.g. a cache hit's lookup)."""
        if not self.enabled:
            return
        scope = self._top()
        scope.spans.append({
            "id": self._next_span_id(),
            "parent": scope.stack[-1] if scope.stack else None,
            "name": name,
            "start": start_wall,
            "duration": duration,
            "tags": tags,
        })

    # ------------------------------------------------------------------ metrics
    def count(self, name: str, value: float = 1.0) -> None:
        """Accumulate ``value`` onto counter ``name``."""
        if not self.enabled:
            return
        counters = self._top().counters
        counters[name] = counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        if not self.enabled:
            return
        self._top().gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name`` (fixed buckets)."""
        if not self.enabled:
            return
        histogram = self._top().histograms.get(name)
        if histogram is None:
            histogram = self._top().histograms[name] = _new_histogram()
        for index, bound in enumerate(DEFAULT_BUCKETS):
            if value <= bound:
                histogram["buckets"][index] += 1
                break
        else:
            histogram["buckets"][-1] += 1
        histogram["sum"] += value
        histogram["count"] += 1

    # ------------------------------------------------------------------ scopes
    def push_scope(self) -> None:
        """Start a fresh recording scope for this thread (a job's buffer)."""
        self._local.pushed.append(_Scope())

    def pop_scope(self) -> Dict[str, object]:
        """Close this thread's top scope and return its picklable payload."""
        pushed = self._local.pushed
        if not pushed:
            raise RuntimeError("cannot pop the recorder's base scope")
        scope = pushed.pop()
        return {
            "spans": scope.spans,
            "counters": scope.counters,
            "gauges": scope.gauges,
            "histograms": scope.histograms,
        }

    def snapshot(self) -> Dict[str, object]:
        """The active scope's current payload (shared references, read-only)."""
        scope = self._top()
        return {
            "spans": scope.spans,
            "counters": scope.counters,
            "gauges": scope.gauges,
            "histograms": scope.histograms,
        }

    def drain(self) -> Dict[str, object]:
        """The active scope's payload, detached; the scope restarts empty."""
        scope = self._top()
        payload = {
            "spans": scope.spans,
            "counters": scope.counters,
            "gauges": scope.gauges,
            "histograms": scope.histograms,
        }
        pushed = self._local.pushed
        if pushed:
            pushed[-1] = _Scope()
        else:
            self._base = _Scope()
        return payload

    def merge(self, payload: Dict[str, object]) -> None:
        """Fold a popped/returned payload into the active scope.

        Span ids are remapped onto this recorder's id sequence and the
        payload's *root* spans are re-parented under the currently open span
        (if any), so a worker's ``job.execute`` tree hangs off the parent's
        ``campaign.run``.  Counters add, gauges last-write-win, histograms
        merge bucket-wise (same fixed buckets everywhere).
        """
        if not self.enabled or not payload:
            return
        scope = self._top()
        remap: Dict[int, int] = {}
        attach_to = scope.stack[-1] if scope.stack else None
        for span in payload.get("spans", ()):
            remap[span["id"]] = self._next_span_id()
        for span in payload.get("spans", ()):
            parent = span.get("parent")
            scope.spans.append({
                **span,
                "id": remap[span["id"]],
                "parent": remap.get(parent, attach_to) if parent is not None
                          else attach_to,
            })
        for name, value in payload.get("counters", {}).items():
            scope.counters[name] = scope.counters.get(name, 0.0) + value
        for name, value in payload.get("gauges", {}).items():
            scope.gauges[name] = value
        for name, histogram in payload.get("histograms", {}).items():
            into = scope.histograms.get(name)
            if into is None:
                scope.histograms[name] = {
                    "buckets": list(histogram["buckets"]),
                    "sum": histogram["sum"],
                    "count": histogram["count"],
                }
                continue
            into["buckets"] = [a + b for a, b in
                               zip(into["buckets"], histogram["buckets"])]
            into["sum"] += histogram["sum"]
            into["count"] += histogram["count"]


#: The per-process recorder every instrumentation site talks to.  A stable
#: object (its identity never changes), so hot paths may bind it at import
#: time and still observe later ``enable``/``configure_from_env`` flips.
RECORDER = Recorder()
