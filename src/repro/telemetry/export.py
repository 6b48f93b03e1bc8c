"""Telemetry exports: summary aggregation, Prometheus text, Chrome tracing.

Everything here reads the telemetry journal (or a live recorder payload) and
re-shapes it; nothing writes.  Three surfaces:

* :func:`summarize` -- the aggregate view behind ``repro telemetry summary``:
  per-span-name count/total/mean/max, plus folded counters, gauges and
  histograms (JSON-ready, so ``--json`` is the same dict).
* :func:`to_prometheus` -- Prometheus text exposition format 0.0.4.  Metric
  names are sanitised (``repro_`` prefix, dots to underscores) and
  histograms render the cumulative ``_bucket{le=...}`` / ``_sum`` /
  ``_count`` family.  :func:`lint_prometheus` re-checks the output against
  the exposition-format grammar (a ``promtool check metrics``-shaped regex
  pass) so CI can gate on it without promtool installed.
* :func:`to_chrome_trace` -- ``chrome://tracing`` / Perfetto JSON: every
  span becomes one complete ``"ph": "X"`` event with microsecond
  timestamps, one row per pid, so a campaign's execution timeline is
  load-and-look.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, List, Optional

from repro.telemetry.recorder import DEFAULT_BUCKETS

#: Prefix for every exported Prometheus metric name.
PROMETHEUS_PREFIX = "repro"

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABELS = r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
_SAMPLE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*" + _LABELS +
                     r" [-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN)$")
_HELP = re.compile(r"^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .*$")
_TYPE = re.compile(r"^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* "
                   r"(counter|gauge|histogram|summary|untyped)$")


def metric_name(name: str) -> str:
    """A recorder metric name -> a legal, prefixed Prometheus name."""
    cleaned = re.sub(r"[^a-zA-Z0-9_]", "_", name)
    return f"{PROMETHEUS_PREFIX}_{cleaned}"


# ----------------------------------------------------------------------
def summarize(records: Iterable[Dict]) -> Dict[str, object]:
    """Fold journal records into the summary dict behind ``telemetry summary``.

    Spans aggregate per name (count, total/mean/max duration); counters sum
    across processes and flushes; gauges keep the last write; histograms
    merge bucket-wise.  ``runs``/``pids`` report how many flushes and
    processes contributed, and ``spans_total`` the raw span count.
    """
    span_stats: Dict[str, Dict[str, float]] = {}
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict] = {}
    runs, pids = set(), set()
    spans_total = 0
    for record in records:
        runs.add(record.get("run"))
        pids.add(record.get("pid"))
        if record.get("kind") == "span":
            spans_total += 1
            stats = span_stats.setdefault(record["name"], {
                "count": 0, "total_seconds": 0.0, "max_seconds": 0.0})
            duration = float(record.get("duration", 0.0))
            stats["count"] += 1
            stats["total_seconds"] += duration
            stats["max_seconds"] = max(stats["max_seconds"], duration)
        elif record.get("kind") == "metric":
            name = record["name"]
            metric_type = record.get("type")
            if metric_type == "counter":
                counters[name] = counters.get(name, 0.0) + float(record["value"])
            elif metric_type == "gauge":
                gauges[name] = float(record["value"])
            elif metric_type == "histogram":
                into = histograms.get(name)
                buckets = list(record.get("buckets", ()))
                if into is None:
                    histograms[name] = {"sum": float(record.get("sum", 0.0)),
                                        "count": int(record.get("count", 0)),
                                        "buckets": buckets}
                else:
                    into["sum"] += float(record.get("sum", 0.0))
                    into["count"] += int(record.get("count", 0))
                    into["buckets"] = [a + b for a, b in
                                       zip(into["buckets"], buckets)]
    for stats in span_stats.values():
        stats["mean_seconds"] = (stats["total_seconds"] / stats["count"]
                                 if stats["count"] else 0.0)
    return {
        "runs": len(runs),
        "pids": len(pids),
        "spans_total": spans_total,
        "spans": {name: span_stats[name] for name in sorted(span_stats)},
        "counters": {name: counters[name] for name in sorted(counters)},
        "gauges": {name: gauges[name] for name in sorted(gauges)},
        "histograms": {name: histograms[name] for name in sorted(histograms)},
    }


def render_summary(summary: Dict[str, object]) -> str:
    """The human-readable form of :func:`summarize`'s dict."""
    lines = [f"telemetry: {summary['spans_total']} span(s) across "
             f"{summary['runs']} run(s), {summary['pids']} process(es)"]
    if summary["spans"]:
        lines.append("spans (name: count, total, mean, max):")
        for name, stats in summary["spans"].items():
            lines.append(
                f"  {name:<28} {stats['count']:>6}  "
                f"{stats['total_seconds']:>9.3f}s  "
                f"{stats['mean_seconds'] * 1000:>9.3f}ms  "
                f"{stats['max_seconds'] * 1000:>9.3f}ms")
    if summary["counters"]:
        lines.append("counters:")
        for name, value in summary["counters"].items():
            rendered = f"{value:g}"
            lines.append(f"  {name:<28} {rendered:>12}")
    if summary["gauges"]:
        lines.append("gauges:")
        for name, value in summary["gauges"].items():
            lines.append(f"  {name:<28} {value:>12g}")
    if summary["histograms"]:
        lines.append("histograms (name: count, sum, mean):")
        for name, histogram in summary["histograms"].items():
            count = histogram["count"]
            mean = histogram["sum"] / count if count else 0.0
            lines.append(f"  {name:<28} {count:>6}  "
                         f"{histogram['sum']:>9.3f}s  {mean * 1000:>9.3f}ms")
    if summary["spans_total"] == 0 and not summary["counters"]:
        lines.append("no telemetry recorded yet (enable with --telemetry or "
                     "REPRO_TELEMETRY=1)")
    return "\n".join(lines)


# ----------------------------------------------------------------------
def to_prometheus(summary: Dict[str, object]) -> str:
    """A summary dict -> Prometheus text exposition format (0.0.4).

    Span aggregates export as ``<name>_seconds_total`` + ``<name>_count``
    counters; histograms as the full cumulative bucket family.
    """
    lines: List[str] = []

    def emit(name: str, metric_type: str, help_text: str,
             samples: List[str]) -> None:
        assert _NAME_OK.match(name), name
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {metric_type}")
        lines.extend(samples)

    for name, value in summary.get("counters", {}).items():
        exported = metric_name(name)
        emit(exported, "counter", f"repro counter {name}",
             [f"{exported} {value:g}"])
    for name, value in summary.get("gauges", {}).items():
        exported = metric_name(name)
        emit(exported, "gauge", f"repro gauge {name}",
             [f"{exported} {value:g}"])
    for name, histogram in summary.get("histograms", {}).items():
        exported = metric_name(name)
        samples, cumulative = [], 0
        for bound, count in zip(DEFAULT_BUCKETS, histogram["buckets"]):
            cumulative += count
            samples.append(f'{exported}_bucket{{le="{bound:g}"}} {cumulative}')
        cumulative += histogram["buckets"][len(DEFAULT_BUCKETS)]
        samples.append(f'{exported}_bucket{{le="+Inf"}} {cumulative}')
        samples.append(f"{exported}_sum {histogram['sum']:g}")
        samples.append(f"{exported}_count {histogram['count']}")
        emit(exported, "histogram", f"repro histogram {name}", samples)
    for name, stats in summary.get("spans", {}).items():
        exported = metric_name(f"span.{name}")
        emit(f"{exported}_seconds_total", "counter",
             f"total seconds in span {name}",
             [f"{exported}_seconds_total {stats['total_seconds']:g}"])
        emit(f"{exported}_count", "counter",
             f"completed spans named {name}",
             [f"{exported}_count {stats['count']}"])
    return "\n".join(lines) + "\n" if lines else ""


def lint_prometheus(text: str) -> List[str]:
    """Exposition-format violations in ``text`` (empty list == clean).

    A promtool-shaped check: every line must be a HELP/TYPE comment or a
    well-formed sample; TYPE must precede its samples; histogram ``+Inf``
    bucket must equal ``_count``.
    """
    violations: List[str] = []
    typed: Dict[str, str] = {}
    inf_buckets: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            violations.append(f"line {lineno}: blank line")
            continue
        if line.startswith("# HELP "):
            if not _HELP.match(line):
                violations.append(f"line {lineno}: malformed HELP")
            continue
        if line.startswith("# TYPE "):
            if not _TYPE.match(line):
                violations.append(f"line {lineno}: malformed TYPE")
            else:
                _, _, name, metric_type = line.split(" ", 3)
                typed[name] = metric_type
            continue
        if line.startswith("#"):
            violations.append(f"line {lineno}: unknown comment form")
            continue
        if not _SAMPLE.match(line):
            violations.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name = re.split(r"[{ ]", line, 1)[0]
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            violations.append(f"line {lineno}: sample {name!r} has no TYPE")
        if name.endswith("_bucket") and 'le="+Inf"' in line:
            inf_buckets[base] = float(line.rsplit(" ", 1)[1])
        if name.endswith("_count") and typed.get(base) == "histogram":
            counts[base] = float(line.rsplit(" ", 1)[1])
    for base, count in counts.items():
        if base in inf_buckets and inf_buckets[base] != count:
            violations.append(f"histogram {base}: +Inf bucket "
                              f"{inf_buckets[base]:g} != count {count:g}")
    return violations


# ----------------------------------------------------------------------
def to_chrome_trace(records: Iterable[Dict]) -> Dict[str, object]:
    """Span records -> ``chrome://tracing`` JSON (complete ``X`` events).

    Timestamps are microseconds since the earliest span's wall-clock start,
    so the trace opens at t=0; each pid gets its own row.
    """
    spans = [record for record in records if record.get("kind") == "span"]
    epoch = min((span["start"] for span in spans), default=0.0)
    events = []
    for span in spans:
        events.append({
            "name": span["name"],
            "ph": "X",
            "ts": (span["start"] - epoch) * 1e6,
            "dur": span["duration"] * 1e6,
            "pid": span.get("pid", 0),
            "tid": span.get("pid", 0),
            "args": dict(span.get("tags", {}) or {},
                         span_id=span.get("id"), parent=span.get("parent")),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def to_json(summary: Dict[str, object]) -> str:
    """The summary as stable, sorted JSON text."""
    return json.dumps(summary, sort_keys=True, indent=2)
