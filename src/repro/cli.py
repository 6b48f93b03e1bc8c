"""Command-line interface.

Exposes the library's main workflows without writing Python::

    python -m repro info    --config 8c8w8t --gws 4096
    python -m repro run     vecadd --config 4c8w8t --scale bench --lws 32 --trace
    python -m repro scenario list
    python -m repro scenario run figure1 --fresh
    python -m repro scenario run figure2 --kernels vecadd,sgemm --sweep smoke --workers 4
    python -m repro scenario run scaling --scale smoke --workers 4
    python -m repro scenario resume scaling --scale smoke
    python -m repro scenario report scaling --scale smoke
    python -m repro campaign status
    python -m repro campaign clear-cache
    python -m repro warehouse sync
    python -m repro warehouse status --json
    python -m repro warehouse query "SELECT problem, MIN(cycles) FROM jobs GROUP BY problem"
    python -m repro warehouse report best-lws
    python -m repro --engine fast run sgemm --config 4c8w8t
    python -m repro --telemetry scenario run scaling --scale smoke --progress
    python -m repro telemetry summary
    python -m repro telemetry export prometheus -o metrics.prom

``--engine {reference,fast,batch}`` (or the ``REPRO_ENGINE`` environment
variable) selects the simulation engine for every launch of the invocation.
The three engines are bit-identical -- same cycles, counters and output
buffers, enforced by ``tests/test_engine_differential.py`` and
``tests/test_engine_fuzz.py`` -- so the choice never affects results, only
wall-clock time.

``info`` answers the runtime question the paper poses (what lws should this
launch use on this machine) and ``run`` executes a single workload under a
chosen or runtime-selected mapping.  Every grid -- the paper's Figure-1 trace
study and Figure-2 sweep included -- is a registered *scenario*
(``repro scenario list``), and ``scenario run`` is the one way to run it:
grids expand to content-addressed jobs, results stream to a JSONL sink (so
interrupted runs resume, and ``scenario report`` re-renders without
simulating), and the campaign engine supplies parallel workers plus the
persistent result cache (``~/.cache/repro`` by default, overridden by
``REPRO_CACHE_DIR`` or ``--cache-dir``).  ``--executor dist`` runs the same
grid on a fleet of ``repro worker`` processes.  ``campaign status`` and
``campaign clear-cache`` inspect and reset that cache.

``warehouse`` is the SQL analytics tier over everything the journals have
recorded: ``sync`` ingests the cache, sink *and telemetry* journals
incrementally, ``rebuild`` re-derives the whole store (and proves parity
against the journals), ``status``/``query``/``report`` answer
cross-campaign questions without re-parsing a single JSONL file.  The
store is stdlib sqlite (``warehouse.sqlite`` next to the cache).

``--telemetry`` (or ``REPRO_TELEMETRY=1``) records spans and metrics for
the whole invocation -- planner expansion, per-job execution and queue
wait, cache and sink I/O, engine phase timers -- and appends them to the
telemetry journal (``telemetry/telemetry.jsonl``, ``$REPRO_TELEMETRY_DIR``
aware) on exit.  ``repro telemetry summary`` aggregates the journal;
``repro telemetry export prometheus|chrome|json`` re-shapes it for scrapers
and ``chrome://tracing``.  ``--progress`` adds a live done/total + hit rate
+ jobs/sec + ETA line on stderr to ``scenario run``/``resume``; it works
with telemetry off.

Output discipline: stdout carries only the command's machine-readable or
report output (tables, JSON, Prometheus text); every diagnostic, stat line
and error goes through the structured stderr logger
(:mod:`repro.telemetry.log`, level from ``$REPRO_LOG_LEVEL``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional, Sequence, Tuple

from repro.campaign.cache import CACHE_DIR_ENV, ResultCache
from repro.campaign.runner import CampaignRunner
from repro.core.advisor import TuningAdvisor
from repro.core.optimizer import optimal_local_size
from repro.experiments.report import render_table
from repro.runtime.device import Device
from repro.runtime.launcher import launch_kernel
from repro.scenarios import (
    REGISTRY,
    Planner,
    ResultSink,
    ScenarioContext,
    ScenarioError,
    UnknownScenarioError,
    default_sink_path,
)
from repro.service.queue import SERVICE_DIR_ENV
from repro.sim.config import ArchConfig, ConfigError
from repro.sim.engine import DEFAULT_ENGINE, ENGINE_ENV, ENGINES
from repro.telemetry.export import (
    render_summary as render_telemetry_summary,
    summarize,
    to_chrome_trace,
    to_json,
    to_prometheus,
)
from repro.telemetry.journal import (
    TELEMETRY_DIR_ENV,
    default_journal_path,
    flush as flush_telemetry,
    iter_telemetry_records,
)
from repro.telemetry.log import configure_from_env as configure_logging, get_logger
from repro.telemetry.progress import ProgressLine
from repro.telemetry.recorder import RECORDER, TELEMETRY_ENV
from repro.warehouse import (
    CANNED,
    WarehouseError,
    WarehouseSinkView,
    journal_synced,
    open_store,
    parity_check,
    rebuild as warehouse_rebuild,
    render_status,
    run_canned,
    run_sql,
    status_payload,
    sync as warehouse_sync,
)
from repro.trace.render import render_issue_timeline, render_summary
from repro.trace.tracer import Tracer
from repro.workloads.problems import (
    UnknownProblemError,
    available_problems,
    make_problem,
)

_LOG = get_logger("cli")


# ----------------------------------------------------------------------
# Argument types: a bad value is a usage error (exit 2), never a traceback
# ----------------------------------------------------------------------
def _int_at_least(minimum: int):
    """An argparse ``type=`` accepting integers ``>= minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected an integer, got {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


_positive_int = _int_at_least(1)


def _machine(text: str) -> ArchConfig:
    """An argparse ``type=`` for a machine name such as ``4c8w8t``."""
    try:
        return ArchConfig.from_name(text)
    except ConfigError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _address(text: str) -> Tuple[str, int]:
    """An argparse ``type=`` for a ``HOST:PORT`` address -> ``(host, port)``.

    Defaults are given pre-split, so argparse never calls this for them and
    only an explicit address imports the fleet package.
    """
    from repro.campaign.dist import parse_address

    try:
        host, port = parse_address(text)
        if not 0 <= port <= 65535:
            raise ValueError(port)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {text!r}") from None
    return host, port


# ----------------------------------------------------------------------
# Shared option groups (argparse parent parsers)
# ----------------------------------------------------------------------
def _grid_options() -> argparse.ArgumentParser:
    """The grid flags shared by ``scenario run``, ``resume`` and ``report``.

    One definition for every command that shapes an experiment grid: each
    accepts the same ``--kernels/--sweep/--scale/--seed/--exact-calls``
    vocabulary.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--kernels", default="vecadd,relu,saxpy,sgemm,knn",
                        help="comma-separated workload names")
    parent.add_argument("--sweep", default="smoke", choices=("smoke", "bench", "paper"),
                        help="hardware-configuration grid")
    parent.add_argument("--scale", default="bench", choices=("smoke", "bench", "paper"),
                        help="problem sizes")
    parent.add_argument("--seed", type=_int_at_least(0), default=0,
                        help="single RNG seed threaded into every grid point")
    parent.add_argument("--exact-calls", action="store_true",
                        help="simulate every sequential kernel call (no extrapolation)")
    return parent


def _executor_options(wait_workers: bool = True) -> argparse.ArgumentParser:
    """The distributed-execution flags shared by every run command.

    ``--executor local`` (the default) runs on this host: in-process, or on
    a local fleet forked from this process (``--workers``/``--sim-workers``);
    ``--executor dist`` starts a work-stealing coordinator in this process
    and executes on whatever ``repro worker`` processes join it.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--executor", choices=("local", "dist"),
                        default="local",
                        help="where jobs execute: this host, on worker "
                             "processes forked from this one (local, default) "
                             "or a worker fleet other hosts can join (dist)")
    parent.add_argument("--listen", type=_address, default=("127.0.0.1", 0),
                        help="with --executor dist: coordinator bind address "
                             "as HOST:PORT (default 127.0.0.1:0 -- a free "
                             "port, logged at startup)")
    parent.add_argument("--dist-workers", type=_int_at_least(0), default=0,
                        metavar="N",
                        help="with --executor dist: also start N worker "
                             "processes from this one, forked on Linux "
                             "(default 0 -- workers join via `repro worker "
                             "--connect`)")
    if wait_workers:
        parent.add_argument("--wait-workers", type=_int_at_least(0),
                            default=None, metavar="N",
                            help="with --executor dist: block until N workers "
                                 "have joined before running (default: the "
                                 "--dist-workers count)")
    return parent


def _cache_options(no_cache: bool = True) -> argparse.ArgumentParser:
    """The result-cache flags shared by ``campaign`` and ``scenario`` commands."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--cache-dir", default=None,
                        help=f"cache directory (default: $"
                             f"{CACHE_DIR_ENV} or ~/.cache/repro)")
    if no_cache:
        parent.add_argument("--no-cache", action="store_true",
                            help="simulate every point fresh, persist nothing")
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for documentation and tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Vortex-like GPGPU simulator with runtime micro-architecture-aware "
                    "kernel mapping (IISWC 2023 reproduction).",
    )
    parser.add_argument(
        "--engine", choices=ENGINES, default=None,
        help="simulation engine driving every launch of this invocation "
             f"(default: ${ENGINE_ENV} or '{DEFAULT_ENGINE}').  All engines "
             "produce bit-identical cycles, counters and output buffers; "
             "'fast' and 'batch' are simply quicker.",
    )
    parser.add_argument(
        "--telemetry", action="store_true",
        help="record spans and metrics for this invocation (equivalent to "
             f"${TELEMETRY_ENV}=1, which campaign workers inherit); the "
             "records append to the telemetry journal on exit.  Results are "
             "bit-identical with telemetry on or off.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    grid = _grid_options()
    cache = _cache_options()
    executor = _executor_options()

    info = sub.add_parser("info", help="describe a machine and the Eq.-1 mapping for a launch")
    info.add_argument("--config", type=_machine, default="4c8w8t",
                      help="machine shape, e.g. 4c8w8t")
    info.add_argument("--gws", type=_positive_int, default=None,
                      help="global work size to map")

    run = sub.add_parser("run", help="run one workload on one machine")
    run.add_argument("problem", choices=available_problems())
    run.add_argument("--config", type=_machine, default="4c8w8t",
                     help="machine shape, e.g. 4c8w8t")
    run.add_argument("--scale", default="bench", choices=("smoke", "bench", "paper"))
    run.add_argument("--lws", type=_positive_int, default=None,
                     help="local work size (omit to use the runtime Eq.-1 choice)")
    run.add_argument("--trace", action="store_true", help="print an issue timeline")
    run.add_argument("--advise", action="store_true", help="print the tuning-advisor report")

    campaign = sub.add_parser(
        "campaign",
        help="inspect or clear the persistent, content-addressed result cache",
        description="Every grid runs with `repro scenario run` (add "
                    "`--executor dist` for a worker fleet): each (kernel, "
                    "machine, lws, seed) point is hashed and served from this "
                    "cache when already simulated.  These commands show and "
                    "reset the cache.",
        epilog=f"The cache lives in ~/.cache/repro by default; override it "
               f"with the {CACHE_DIR_ENV} environment variable or --cache-dir. "
               f"Cached results are invalidated automatically when the "
               f"simulator version changes.",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    cstatus = campaign_sub.add_parser("status", parents=[_cache_options(no_cache=False)],
                                      help="show the result-cache state")
    cstatus.add_argument("--json", action="store_true",
                         help="emit the status as JSON instead of text")
    campaign_sub.add_parser("clear-cache", parents=[_cache_options(no_cache=False)],
                            help="delete the persistent result cache")

    scenario = sub.add_parser(
        "scenario",
        help="declarative experiment scenarios: list, run, resume, report",
        description="Every experiment is a registered scenario: a declarative "
                    "grid (problems x configs x strategies x engines x seeds) "
                    "plus an analysis hook.  The planner expands the grid into "
                    "content-addressed jobs, executes them through the "
                    "campaign engine, and streams one JSONL record per "
                    "completed job to a sink -- killed runs resume from the "
                    "sink, executing only the remaining jobs.",
    )
    scenario_sub = scenario.add_subparsers(dest="scenario_command", required=True)

    slist = scenario_sub.add_parser("list", help="list every registered scenario")
    del slist

    for verb, help_text in (
            ("run", "execute a scenario (resumes from its sink unless --fresh)"),
            ("resume", "continue an interrupted scenario run from its sink")):
        sparser = scenario_sub.add_parser(verb, parents=[grid, cache, executor],
                                          help=help_text)
        sparser.set_defaults(kernels=None, sweep=None, scale=None)
        sparser.add_argument("name", help="registered scenario name (see 'scenario list')")
        sparser.add_argument("--workers", type=_positive_int, default=1,
                             help="worker processes for fresh points (default 1)")
        sparser.add_argument("--sink", default=None,
                             help="JSONL sink path (default: "
                                  "scenario-runs/<name>-<scale>.jsonl, "
                                  "honouring $REPRO_SCENARIO_DIR)")
        sparser.add_argument("--progress", action="store_true",
                             help="live progress line on stderr (done/total, "
                                  "hit rate, jobs/sec, ETA)")
        if verb == "run":
            sparser.add_argument("--fresh", action="store_true",
                                 help="discard the existing sink and start over")

    sreport = scenario_sub.add_parser(
        "report", parents=[grid],
        help="render a scenario's analysis from its sink, without executing")
    sreport.set_defaults(kernels=None, sweep=None, scale=None)
    sreport.add_argument("name", help="registered scenario name")
    sreport.add_argument("--sink", default=None,
                         help="JSONL sink path (default: "
                              "scenario-runs/<name>-<scale>.jsonl)")
    sreport.add_argument("--source", choices=("auto", "journal", "warehouse"),
                         default="auto",
                         help="where the records come from: the JSONL sink, the "
                              "synced warehouse, or auto (warehouse when it fully "
                              "covers the sink, journal otherwise; default)")
    sreport.add_argument("--db", default=None,
                         help="warehouse database path (for --source warehouse/auto)")
    sreport.add_argument("--json", action="store_true",
                         help="emit the run (stats + per-point records) as "
                              "JSON instead of the human report")

    warehouse = sub.add_parser(
        "warehouse",
        help="SQL analytics over every journaled result (sync/rebuild/status/"
             "query/report)",
        description="Derive a SQL-queryable warehouse from the append-only "
                    "JSONL journals (campaign cache + scenario sinks).  The "
                    "journals stay the source of truth: sync ingests them "
                    "incrementally by byte offset, rebuild re-derives the "
                    "whole store and proves the rows equal to the "
                    "journals' last-wins fold.",
        epilog="The store is stdlib sqlite.  The database lives next to "
               "the cache (warehouse.sqlite) unless --db or "
               "REPRO_WAREHOUSE_PATH says otherwise.  `counters` is a view "
               "over the records' JSON (full scans are cheap, nothing is "
               "indexed by counter name).",
    )
    warehouse_sub = warehouse.add_subparsers(dest="warehouse_command", required=True)
    wh_common = argparse.ArgumentParser(add_help=False)
    wh_common.add_argument("--db", default=None,
                           help="warehouse database path (default: "
                                "<cache dir>/warehouse.sqlite, or "
                                "$REPRO_WAREHOUSE_PATH)")
    wh_journals = argparse.ArgumentParser(add_help=False)
    wh_journals.add_argument("--cache-dir", default=None,
                             help="campaign cache directory to ingest "
                                  f"(default: ${CACHE_DIR_ENV} or ~/.cache/repro)")
    wh_journals.add_argument("--scenario-dir", default=None,
                             help="scenario sink directory to ingest (default: "
                                  "$REPRO_SCENARIO_DIR or scenario-runs/)")
    wh_journals.add_argument("--telemetry-dir", default=None,
                             help="telemetry journal directory to ingest "
                                  f"(default: ${TELEMETRY_DIR_ENV} or "
                                  "telemetry/)")

    wsync = warehouse_sub.add_parser(
        "sync", parents=[wh_common, wh_journals],
        help="ingest new journal records incrementally (by byte offset)")
    wsync.add_argument("--full", action="store_true",
                       help="re-ingest every journal from byte zero")
    wrebuild = warehouse_sub.add_parser(
        "rebuild", parents=[wh_common, wh_journals],
        help="drop every derived row, re-ingest all journals, verify parity")
    wrebuild.add_argument("--no-verify", action="store_true",
                          help="skip the journal-parity proof after rebuilding")
    wstatus = warehouse_sub.add_parser(
        "status", parents=[wh_common],
        help="per-table row counts and per-journal sync offsets")
    wstatus.add_argument("--json", action="store_true",
                         help="emit the status as JSON instead of text")
    wquery = warehouse_sub.add_parser(
        "query", parents=[wh_common],
        help="run one read-only SQL statement (SELECT/WITH) against the store")
    wquery.add_argument("sql", help="the statement, e.g. "
                        "\"SELECT problem, MIN(cycles) FROM jobs GROUP BY problem\"")
    wreport = warehouse_sub.add_parser(
        "report", parents=[wh_common],
        help="run a canned analytics query (see --list)")
    wreport.add_argument("name", nargs="?", default=None,
                         help="canned query name (omit with --list)")
    wreport.add_argument("--list", action="store_true",
                         help="list the canned queries and exit")

    telemetry = sub.add_parser(
        "telemetry",
        help="summarise or export the recorded spans/metrics journal",
        description="Aggregate and export the telemetry journal that "
                    "--telemetry (or REPRO_TELEMETRY=1) invocations append "
                    "to: 'summary' folds it into per-span and per-metric "
                    "aggregates, 'export' re-shapes it as Prometheus text "
                    "exposition, chrome://tracing JSON, or the summary JSON.",
        epilog=f"The journal lives at telemetry/telemetry.jsonl unless "
               f"${TELEMETRY_DIR_ENV} or --journal says otherwise.",
    )
    telemetry_sub = telemetry.add_subparsers(dest="telemetry_command",
                                             required=True)
    tele_common = argparse.ArgumentParser(add_help=False)
    tele_common.add_argument("--journal", default=None,
                             help="telemetry journal path (default: "
                                  "telemetry/telemetry.jsonl, honouring "
                                  f"${TELEMETRY_DIR_ENV})")
    tsummary = telemetry_sub.add_parser(
        "summary", parents=[tele_common],
        help="aggregate spans, counters, gauges and histograms")
    tsummary.add_argument("--json", action="store_true",
                          help="emit the summary as JSON instead of text")
    texport = telemetry_sub.add_parser(
        "export", parents=[tele_common],
        help="export the journal for external tools")
    texport.add_argument("format", choices=("prometheus", "chrome", "json"),
                         help="prometheus text exposition, chrome://tracing "
                              "JSON, or the summary as JSON")
    texport.add_argument("-o", "--output", default=None,
                         help="write to a file instead of stdout")

    serve = sub.add_parser(
        "serve", parents=[_executor_options(wait_workers=False)],
        help="run the simulation-as-a-service HTTP API",
        description="Serve the async job API over the campaign stack: "
                    "POST /jobs submits a scenario name or an ad-hoc grid, "
                    "GET /jobs/{id} polls it, GET /jobs/{id}/events streams "
                    "progress as Server-Sent Events, and /healthz + /metrics "
                    "cover operations.  Jobs are journaled to a durable "
                    "queue, so a killed server resumes pending work on "
                    "restart; results are memoized in the shared campaign "
                    "cache across all clients.",
        epilog=f"Queue state lives under ./service (${SERVICE_DIR_ENV} or "
               f"--queue-dir override); the result cache is the usual "
               f"campaign cache directory.",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=_int_at_least(0), default=8321,
                       help="bind port (default 8321; 0 picks a free one)")
    serve.add_argument("--workers", type=_positive_int, default=2,
                       help="concurrent jobs in flight (default 2)")
    serve.add_argument("--sim-workers", type=_positive_int, default=1,
                       help="simulator processes in the one pool every "
                            "job shares (default 1: in-process)")
    serve.add_argument("--queue-dir", default=None,
                       help="service state directory (default ./service, "
                            f"honouring ${SERVICE_DIR_ENV})")
    serve.add_argument("--cache-dir", default=None,
                       help="shared result cache directory (default: the "
                            "campaign cache location)")
    serve.add_argument("--no-cache", action="store_true",
                       help="run every job fresh (disables the shared "
                            "memoization cache)")
    serve.add_argument("--rate", type=float, default=10.0,
                       help="per-client request rate limit in requests/s "
                            "(default 10; 0 disables)")
    serve.add_argument("--burst", type=_positive_int, default=20,
                       help="per-client burst allowance (default 20)")

    worker = sub.add_parser(
        "worker",
        help="join a distributed campaign fleet",
        description="Connect to a coordinator started with `repro scenario "
                    "run NAME --executor dist --listen HOST:PORT` (or `repro "
                    "serve --executor dist`) and simulate whatever chunks it "
                    "serves: pull-based stealing, heartbeat liveness; the "
                    "coordinator alone reads and writes the result cache.  "
                    "The process exits when the coordinator shuts the fleet "
                    "down.",
    )
    worker.add_argument("--connect", type=_address, required=True,
                        metavar="HOST:PORT",
                        help="the coordinator's --listen address")
    worker.add_argument("--max-tasks", type=_positive_int, default=None,
                        help="fault-injection: silently drop the connection "
                             "after simulating this many jobs (emulates a "
                             "SIGKILLed worker; used by the chaos tests)")
    return parser


# ----------------------------------------------------------------------
def _cmd_info(args) -> int:
    config = args.config
    print(config.describe())
    if args.gws is not None:
        lws = optimal_local_size(args.gws, config)
        advisor = TuningAdvisor(config)
        print()
        print(advisor.advise(args.gws).render())
        print()
        print(f"Eq. 1: lws = ceil({args.gws} / {config.hardware_parallelism}) = {lws}")
    return 0


def _cmd_run(args) -> int:
    config = args.config
    problem = make_problem(args.problem, scale=args.scale)
    tracer = Tracer(max_events=500_000) if args.trace else None
    device = Device(config, tracer=tracer)
    result = launch_kernel(device, problem.kernel, problem.arguments, problem.global_size,
                           local_size=args.lws)
    print(problem.summary())
    print(result.summary())
    print(f"  workgroups          : {result.num_workgroups}")
    print(f"  lane utilisation    : {result.dispatch.average_lane_utilization:.1%}")
    print(f"  IPC (warp instr/cyc): {result.counters.ipc:.3f}")
    print(f"  L1 hit rate         : {result.counters.l1_hit_rate:.1%}")
    if args.trace and tracer is not None:
        print()
        print(render_issue_timeline(tracer.events, width=100,
                                    title=f"{problem.name} on {config.name}"))
        print()
        print(render_summary(tracer.events, result.counters,
                             config.threads_per_warp, dropped=tracer.dropped))
    if args.advise:
        print()
        advisor = TuningAdvisor(config)
        print(advisor.advise(problem.global_size, current_local_size=result.local_size,
                             counters=result.counters).render())
    return 0


# ----------------------------------------------------------------------
def _grid_context(args) -> ScenarioContext:
    """A :class:`ScenarioContext` from the shared grid flags.

    Raises :class:`UnknownProblemError` for a ``--kernels`` name that is not
    a workload (``main`` reports it), before anything is planned or opened.
    """
    kernels = None
    if args.kernels:
        kernels = tuple(name.strip() for name in args.kernels.split(",") if name.strip())
        known = available_problems()
        unknown = [name for name in kernels if name not in known]
        if unknown:
            raise UnknownProblemError(
                f"unknown kernel(s) {', '.join(unknown)}; available: "
                f"{', '.join(known)}")
    return ScenarioContext(
        scale=args.scale if args.scale else "bench",
        seed=args.seed,
        exact_calls=args.exact_calls,
        problems=kernels,
        sweep=args.sweep,
    )


class _ProgressReporter:
    """Adapts the planner's ``progress(done, total, outcome)`` callback onto
    a :class:`ProgressLine` (built lazily -- the total is only known once the
    planner resolved resume state)."""

    def __init__(self, label: str):
        self.label = label
        self.line: Optional[ProgressLine] = None

    def __call__(self, done: int, total: int, outcome) -> None:
        if self.line is None:
            self.line = ProgressLine(total, label=self.label)
        result = getattr(outcome, "result", outcome)
        self.line.update(done=done, hit=bool(getattr(result, "from_cache", False)))

    def finish(self) -> None:
        if self.line is not None:
            self.line.finish()


def _cmd_campaign(args) -> int:
    cache = ResultCache(args.cache_dir)
    if args.campaign_command == "status":
        stats = cache.stats()
        print(json.dumps(stats.to_dict(), indent=2) if args.json
              else stats.render())
        return 0
    # campaign clear-cache
    dropped = cache.clear()
    print(f"cleared {dropped} cached result(s) from {cache.directory}")
    return 0


def _make_executor(args, wait_workers: Optional[int] = None):
    """The ``--executor dist`` coordinator, or ``None`` for the local path.

    Starts the coordinator on ``--listen``, optionally starts
    ``--dist-workers`` local worker processes from this one (forked on
    Linux), and blocks for ``wait_workers`` joins (default: the local ones)
    so the work starts against a known fleet.  The caller owns the returned
    executor and must ``close()`` it.
    """
    if args.executor != "dist":
        return None
    from repro.campaign.dist import DistributedExecutor, format_address

    host, port = args.listen
    dist_executor = DistributedExecutor(host=host, port=port)
    _LOG.info("distributed coordinator listening",
              listen=format_address(dist_executor.address))
    if args.dist_workers:
        dist_executor.spawn_local_workers(args.dist_workers)
    expected = wait_workers if wait_workers is not None else args.dist_workers
    if expected:
        dist_executor.wait_for_workers(expected)
        _LOG.info("worker fleet ready", workers=dist_executor.worker_count)
    return dist_executor


# ----------------------------------------------------------------------
def _closing_store(db, read_only: bool = False):
    """An ``open_store`` wrapped so every CLI exit path closes the handle."""
    import contextlib

    return contextlib.closing(open_store(db, read_only=read_only))


def _cmd_warehouse(args) -> int:
    try:
        if args.warehouse_command == "sync":
            with _closing_store(args.db) as store:
                report = warehouse_sync(store, cache_dir=args.cache_dir,
                                        scenario_dir=args.scenario_dir,
                                        telemetry_dir=args.telemetry_dir,
                                        full=args.full)
                print(report.render())
            return 0

        if args.warehouse_command == "rebuild":
            with _closing_store(args.db) as store:
                report = warehouse_rebuild(store, cache_dir=args.cache_dir,
                                           scenario_dir=args.scenario_dir,
                                           telemetry_dir=args.telemetry_dir)
                print(report.render())
                if not args.no_verify:
                    mismatches = parity_check(store, cache_dir=args.cache_dir,
                                              scenario_dir=args.scenario_dir,
                                              telemetry_dir=args.telemetry_dir)
                    if mismatches:
                        detail = "\n".join(mismatches)
                        _LOG.error(f"parity check FAILED:\n{detail}")
                        return 1
                    print("parity check passed: warehouse rows equal to "
                          "the journals' last-wins fold")
            return 0

        if args.warehouse_command == "status":
            with _closing_store(args.db) as store:
                print(json.dumps(status_payload(store), indent=2)
                      if args.json else render_status(store))
            return 0

        if args.warehouse_command == "query":
            # Read-only connection: raw SQL physically cannot write.
            with _closing_store(args.db, read_only=True) as store:
                print(run_sql(store, args.sql).render())
            return 0

        # warehouse report
        if args.list or args.name is None:
            rows = [[canned.name, canned.description]
                    for canned in CANNED.values()]
            print(render_table(["query", "answers"], rows))
            return 0
        with _closing_store(args.db, read_only=True) as store:
            result = run_canned(store, args.name)
            print(result.render())
            if not result.rows:
                _LOG.info("(no rows -- has `repro warehouse sync` run since "
                          "the last campaign?)")
        return 0
    except WarehouseError as error:
        _LOG.error(f"error: {error}")
        return 1


# ----------------------------------------------------------------------
#: Comma-separated modules imported before scenario commands run, so custom
#: scenarios registered at import time appear in list/run/resume/report.
SCENARIO_MODULES_ENV = "REPRO_SCENARIO_MODULES"


def _import_scenario_modules() -> None:
    import importlib

    for module in os.environ.get(SCENARIO_MODULES_ENV, "").split(","):
        module = module.strip()
        if module:
            importlib.import_module(module)


def _report_source(args, sink: ResultSink):
    """Where ``scenario report`` reads records from: sink or warehouse.

    ``--source warehouse`` demands the synced store (and errors when the
    sink journal is not fully ingested -- serving a stale projection would
    silently drop recent records).  ``--source auto`` prefers the warehouse
    exactly when it fully covers the sink file, so a freshly appended
    journal transparently falls back to the JSONL path until the next sync.
    """
    if args.source == "journal":
        return sink
    store = open_store(args.db)
    if journal_synced(store, sink.path):
        return WarehouseSinkView(store, sink.path)
    store.close()
    if args.source == "warehouse":
        raise WarehouseError(
            f"the warehouse does not (fully) cover {sink.path}; run "
            f"`repro warehouse sync` first, or use --source journal")
    return sink


def _cmd_scenario(args) -> int:
    _import_scenario_modules()
    if args.scenario_command == "list":
        rows = [[scenario.name, scenario.default_scale, scenario.description]
                for scenario in REGISTRY]
        print(render_table(["scenario", "default scale", "description"], rows))
        print(f"\n{len(REGISTRY)} scenario(s) registered; run one with "
              f"`repro scenario run <name> [--scale smoke|bench|paper]`")
        return 0

    try:
        scenario = REGISTRY.get(args.name)
    except UnknownScenarioError as error:
        _LOG.error(f"error: {error.args[0]}")
        return 2

    scale = args.scale if args.scale else scenario.default_scale
    context = _grid_context(args)
    if args.scale is None:
        context = context.with_scale(scale)
    sink = ResultSink(args.sink if args.sink else default_sink_path(scenario.name, scale))

    if args.scenario_command == "report":
        planner = Planner()
        source = None
        try:
            source = _report_source(args, sink)
            run = planner.load(scenario, context, sink=source)
            print(json.dumps(run.payload(), indent=2) if args.json
                  else run.report())
            return 0
        except (ScenarioError, WarehouseError) as error:
            _LOG.error(f"error: {error}")
            return 1
        finally:
            if isinstance(source, WarehouseSinkView):
                source.store.close()

    if args.scenario_command == "resume" and not sink.exists():
        _LOG.error(f"error: no sink at {sink.path} to resume from; "
                   f"start with `repro scenario run {scenario.name}`")
        return 1

    # Non-cacheable scenarios (wall-time measurements) never touch the cache;
    # skip even loading its journal.
    use_cache = scenario.cacheable and not args.no_cache
    cache = ResultCache(args.cache_dir) if use_cache else None
    dist_executor = _make_executor(args, args.wait_workers)
    runner = CampaignRunner(workers=args.workers, cache=cache,
                            executor=dist_executor)
    planner = Planner(runner=runner)
    fresh = bool(getattr(args, "fresh", False))
    reporter = _ProgressReporter(scenario.name) if args.progress else None
    try:
        run = planner.run(scenario, context, sink=sink, fresh=fresh,
                          progress=reporter)
    except ScenarioError as error:
        _LOG.error(f"error: {error}")
        return 1
    finally:
        if reporter is not None:
            reporter.finish()
        runner.close()
        if dist_executor is not None:
            dist_executor.close()
    _LOG.info(f"scenario {scenario.name!r} ({scale}): {run.stats.render()}")
    _LOG.info(f"sink: {sink.path}")
    if cache is not None:
        stats = cache.stats()
        _LOG.info(f"cache {stats.path}: {stats.hits} hit(s), "
                  f"{stats.misses} miss(es), {stats.entries} entries")
    print(run.report())
    return 0


# ----------------------------------------------------------------------
def _cmd_telemetry(args) -> int:
    records = list(iter_telemetry_records(args.journal))
    summary = summarize(records)
    if args.telemetry_command == "summary":
        print(to_json(summary) if args.json
              else render_telemetry_summary(summary))
        return 0

    # telemetry export
    if args.format == "prometheus":
        text = to_prometheus(summary)
    elif args.format == "chrome":
        text = json.dumps(to_chrome_trace(records), indent=2) + "\n"
    else:
        text = to_json(summary) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        _LOG.info("telemetry export written", format=args.format,
                  records=len(records), output=args.output)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_serve(args) -> int:
    # Deferred import: the service stack (asyncio server, worker pool) is
    # only needed by this one command.
    from repro.service.routes import Service, ServiceConfig
    from repro.service.server import serve as run_server

    # The service always records telemetry: /metrics is part of its API, and
    # the env var (not just the in-process switch) makes simulator worker
    # processes inherit it.  The process exits when serving stops, so there
    # is nothing to restore.
    os.environ[TELEMETRY_ENV] = "1"
    RECORDER.configure_from_env()

    config = ServiceConfig(
        queue_dir=Path(args.queue_dir) if args.queue_dir else None,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        use_cache=not args.no_cache,
        workers=args.workers,
        sim_workers=args.sim_workers,
        rate=args.rate,
        burst=args.burst,
    )
    service = Service(config, executor=_make_executor(args))
    _LOG.info("service starting", host=args.host, port=args.port,
              queue=str(service.queue.path),
              cache=(str(service.cache.directory)
                     if service.cache is not None else "off"),
              pending=service.queue.pending_count())
    run_server(service.app, host=args.host, port=args.port,
               startup=service.startup, shutdown=service.shutdown)
    return 0


def _cmd_worker(args) -> int:
    # Deferred import, like the service: only this command needs the fleet
    # client, and a worker should start fast.
    from repro.campaign.dist import format_address, run_worker

    try:
        executed = run_worker(args.connect, max_tasks=args.max_tasks)
    except OSError as error:
        _LOG.error(f"error: cannot reach coordinator at "
                   f"{format_address(args.connect)}: {error}")
        return 1
    _LOG.info("worker exiting", executed=executed)
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "run": _cmd_run,
    "campaign": _cmd_campaign,
    "scenario": _cmd_scenario,
    "warehouse": _cmd_warehouse,
    "telemetry": _cmd_telemetry,
    "serve": _cmd_serve,
    "worker": _cmd_worker,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging()
    # The engine and the telemetry switch are threaded through the
    # environment rather than through every experiment/campaign signature:
    # Device() resolves the engine wherever one is built and worker
    # processes inherit both variables.  Restored afterwards so in-process
    # callers (tests) are unaffected.
    overrides = {}
    if args.engine is not None:
        overrides[ENGINE_ENV] = args.engine
    if args.telemetry:
        overrides[TELEMETRY_ENV] = "1"
    previous = {env: os.environ.get(env) for env in overrides}
    for env, value in overrides.items():
        os.environ[env] = value
    enabled = RECORDER.configure_from_env()
    try:
        code = _COMMANDS[args.command](args)
        if enabled and args.command != "telemetry":
            written = flush_telemetry(RECORDER)
            if written:
                _LOG.info("telemetry journal updated",
                          path=str(default_journal_path()), records=written)
        return code
    except UnknownProblemError as error:      # a --kernels name
        _LOG.error(f"error: {error.args[0]}")
        return 2
    finally:
        for env, value in previous.items():
            if value is None:
                os.environ.pop(env, None)
            else:
                os.environ[env] = value
        RECORDER.configure_from_env()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
