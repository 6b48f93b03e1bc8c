"""End-to-end telemetry: spans, metrics, structured logs and progress.

The observability substrate for the whole campaign pipeline.  Four pieces:

* :mod:`repro.telemetry.recorder` -- the process-wide :data:`RECORDER`
  (counters/gauges/histograms + nested spans), no-op unless
  ``$REPRO_TELEMETRY`` (or ``--telemetry``) turns it on; multiprocessing
  handled by scope push/pop + payload merge, never shared state.
* :mod:`repro.telemetry.journal` -- spans and metrics as an append-only
  JSONL journal with the campaign journals' tail-repair, ingested by the
  warehouse into ``spans``/``metrics`` tables.
* :mod:`repro.telemetry.export` -- summary aggregation, Prometheus text
  exposition and Chrome ``chrome://tracing`` JSON.
* :mod:`repro.telemetry.log` / :mod:`repro.telemetry.progress` -- the
  structured stderr logger (``$REPRO_LOG_LEVEL``) and the live
  ``--progress`` line.
"""

from repro.telemetry.export import (
    lint_prometheus,
    render_summary,
    summarize,
    to_chrome_trace,
    to_json,
    to_prometheus,
)
from repro.telemetry.journal import (
    TELEMETRY_DIR_ENV,
    TELEMETRY_SCHEMA_VERSION,
    default_journal_path,
    default_telemetry_dir,
    flush,
    iter_telemetry_records,
    new_run_id,
    payload_records,
)
from repro.telemetry.log import LOG_LEVEL_ENV, get_logger
from repro.telemetry.progress import ProgressLine
from repro.telemetry.recorder import (
    DEFAULT_BUCKETS,
    RECORDER,
    TELEMETRY_ENV,
    Recorder,
    env_enabled,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "LOG_LEVEL_ENV",
    "ProgressLine",
    "RECORDER",
    "Recorder",
    "TELEMETRY_DIR_ENV",
    "TELEMETRY_ENV",
    "TELEMETRY_SCHEMA_VERSION",
    "default_journal_path",
    "default_telemetry_dir",
    "env_enabled",
    "flush",
    "get_logger",
    "iter_telemetry_records",
    "lint_prometheus",
    "new_run_id",
    "payload_records",
    "render_summary",
    "summarize",
    "to_chrome_trace",
    "to_json",
    "to_prometheus",
]
