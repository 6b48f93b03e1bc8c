"""The live ``--progress`` line for scenario runs.

One :class:`ProgressLine` instance sits behind ``repro scenario run
--progress`` (and ``resume``), fed from the progress callback the planner
already fires.  It renders::

    scaling 4/6 (67%) | hit 50% | 2.1 jobs/s | ETA 1s

On a TTY the line rewrites itself in place (``\\r``, stderr); on a pipe --
CI -- it degrades to one full line roughly every 10% of completion plus the
final line, so build logs stay greppable without per-job spam.

The hit-rate comes from the recorder's ``campaign.cache.hits`` /
``campaign.cache.misses`` counters when telemetry is enabled, and from the
callback's outcome stream otherwise -- progress works with telemetry off.
"""

from __future__ import annotations

import sys
import time
from typing import Optional, TextIO


class ProgressLine:
    """Renders a one-line live progress display onto stderr."""

    def __init__(self, total: int, label: str = "progress",
                 stream: Optional[TextIO] = None):
        self.total = max(total, 0)
        self.label = label
        self.stream = sys.stderr if stream is None else stream
        self.done = 0
        self.hits = 0
        self.started = time.perf_counter()
        self._last_bucket = -1
        self._is_tty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._open_line = False

    # ------------------------------------------------------------------
    def update(self, done: Optional[int] = None, hit: bool = False) -> None:
        """Advance the display by one completion (or to ``done``)."""
        self.done = self.done + 1 if done is None else done
        if hit:
            self.hits += 1
        if self._is_tty:
            self._render(end="")
            return
        # Non-TTY: one full line per ~10% bucket, always including the last.
        bucket = (self.done * 10 // self.total) if self.total else 10
        if bucket != self._last_bucket or self.done == self.total:
            self._last_bucket = bucket
            self._render(end="\n")

    def finish(self) -> None:
        """Terminate the in-place line so later output starts clean."""
        if self._is_tty and self._open_line:
            self.stream.write("\n")
            self.stream.flush()
        self._open_line = False

    # ------------------------------------------------------------------
    def render_text(self) -> str:
        """The current progress line (exposed for tests)."""
        elapsed = max(time.perf_counter() - self.started, 1e-9)
        rate = self.done / elapsed
        pct = (100 * self.done // self.total) if self.total else 100
        hit_pct = (100 * self.hits // self.done) if self.done else 0
        remaining = self.total - self.done
        eta = f"{remaining / rate:.0f}s" if rate > 0 and remaining else "0s"
        return (f"{self.label} {self.done}/{self.total} ({pct}%) | "
                f"hit {hit_pct}% | {rate:.1f} jobs/s | ETA {eta}")

    def _render(self, end: str) -> None:
        prefix = "\r" if self._is_tty else ""
        self.stream.write(f"{prefix}{self.render_text()}{end}")
        self.stream.flush()
        self._open_line = end == ""
