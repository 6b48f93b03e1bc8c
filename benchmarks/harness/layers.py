"""Per-layer metrics from the traced round's spans.

:func:`install` puts the timing wrappers on the program's public class
boundaries; :func:`from_spans` turns one traced round into the metrics any
workload can report.  Metrics that need a workload's own inputs (direct
probes) come from ``Workload.layers``.  A metric whose boundary no longer
exists is simply absent from the output (``0`` in the driver's JSON line).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.campaign import CampaignRunner, ResultCache
from repro.scenarios import Planner, ResultSink
from repro.sim.gpu import Gpu
from repro.sim.memory.hierarchy import MemoryHierarchy

from benchmarks.harness.spans import Aggregate, SpanRecorder
from benchmarks.harness.workloads import Check

Layers = Dict[str, Optional[float]]

RUN_CALL = "sim.run_call"
WALK = "sim.memory.walk"

#: (class, method, span name) of every wrapped boundary besides the walks.
BOUNDARIES = (
    (Gpu, "run_call", RUN_CALL),
    (ResultCache, "get_many", "campaign.cache.get_many"),
    (ResultCache, "put", "campaign.cache.put"),
    (ResultSink, "append", "scenarios.sink.append"),
    (ResultSink, "load", "scenarios.sink.load"),
    (Planner, "plan", "scenarios.plan"),
    (Planner, "run", "scenarios.run"),
    (Planner, "load", "scenarios.load"),
    (CampaignRunner, "run", "campaign.runner.run"),
)


def install(tracer: SpanRecorder) -> None:
    """Wrap every boundary that still exists; ``tracer.remove()`` undoes it."""
    for cls, method, name in BOUNDARIES:
        tracer.wrap(cls, method, name)
    # Walk entry points are found by prefix, so collapsing six walks into one
    # does not break the probe.
    tracer.wrap_prefix(MemoryHierarchy, ("load", "store"), WALK)


def _mean_ms(entry: Optional[Aggregate]) -> Optional[float]:
    return entry.total / entry.calls * 1e3 if entry is not None else None


def from_spans(tracer: SpanRecorder, check: Check, wall: float) -> Layers:
    """Metrics of one traced round that lasted ``wall`` seconds."""
    totals = tracer.aggregate()
    out: Layers = {}

    run_call = totals.get(RUN_CALL)
    out["sim.run_call_s"] = run_call.total if run_call else 0.0
    out["sim.run_call_frac"] = out["sim.run_call_s"] / wall
    out["sim.run_calls"] = run_call.calls if run_call else 0
    walk = totals.get(WALK)
    if walk is not None and run_call is not None:
        out["sim.memory.walk_s"] = walk.outermost
        out["sim.memory.walk_frac"] = walk.outermost / run_call.total
        out["sim.memory.walk_calls"] = walk.calls
        lines = check.values.get("load_lines", 0) + check.values.get("store_lines", 0)
        if lines:
            out["sim.memory.ns_per_line"] = walk.outermost / lines * 1e9
    launch = totals.get("launch")
    if launch is not None and run_call is not None:
        out["runtime.launch_overhead_frac"] = 1.0 - run_call.total / launch.total

    if "warp_instructions" in check.values:
        out["sim.warp_instructions"] = check.values["warp_instructions"]
        out["sim.cycles"] = check.values["cycles"]
        out["sim.ipc"] = check.values["warp_instructions"] / check.values["cycles"]

    get_many = totals.get("campaign.cache.get_many")
    if get_many is not None and check.ops:
        out["campaign.cache.get_many_us_per_spec"] = get_many.total / check.ops * 1e6
    out["campaign.cache.put_ms"] = _mean_ms(totals.get("campaign.cache.put"))
    jobs = totals.get("executor.job")
    runner = totals.get("campaign.runner.run")
    if jobs is not None and runner is not None:
        out["campaign.runner.overhead_ms_per_job"] = (
            (runner.total - jobs.total) / jobs.calls * 1e3)

    out["scenarios.plan_ms"] = _mean_ms(totals.get("scenarios.plan"))
    out["scenarios.sink.append_ms"] = _mean_ms(totals.get("scenarios.sink.append"))
    out["scenarios.sink.load_ms"] = _mean_ms(totals.get("scenarios.sink.load"))
    out["scenarios.report_ms"] = _mean_ms(totals.get("scenarios.report"))
    if "planned" in check.values:
        out["scenarios.dedup_frac"] = 1.0 - check.values["unique"] / check.values["planned"]

    for name, suffix, scale in (("warehouse.sync", "_s", 1.0),
                                ("warehouse.parity_check", "_s", 1.0),
                                ("warehouse.query.best_lws", "_ms", 1e3),
                                ("warehouse.query.speedup", "_ms", 1e3)):
        if name in totals:
            out[name + suffix] = totals[name].total * scale
    if "warehouse.sync" in totals:
        out["warehouse.sync_rows_per_s"] = (
            check.values["rows"] / totals["warehouse.sync"].total)
    return {name: value for name, value in out.items() if value is not None}
