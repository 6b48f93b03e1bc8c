"""Job execution: the function that runs inside worker processes.

:func:`execute_job` is what every fleet worker runs per task (and what the
in-process path calls directly); it rebuilds the problem's input
data deterministically from the spec's ``(problem, scale, seed, size)``
tuple, simulates the launch, and returns either a
:class:`~repro.campaign.result.JobResult` or a
:class:`~repro.campaign.result.JobFailure` -- it never raises, so one bad job
cannot take a worker (or the campaign) down with it.

When telemetry is enabled (``$REPRO_TELEMETRY`` is inherited by worker
processes), every execution records into a *fresh* recorder scope pushed
just for that job -- under ``fork`` the child inherits the parent's
buffers, and the scope push is what keeps them untouched.  The popped
payload (the ``job.execute`` span tree plus any engine metrics) travels
back to the parent attached to the result, where
:class:`~repro.campaign.runner.CampaignRunner` merges it; nothing is
shared between processes.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import replace
from typing import Optional, Union

from repro.campaign.result import JobFailure, JobResult
from repro.campaign.spec import JobSpec
from repro.telemetry.recorder import RECORDER


def run_spec(spec: JobSpec, engine: Optional[str] = None) -> JobResult:
    """Simulate one spec on ``engine`` and summarise the launch (raises on error)."""
    # Imports are local so a worker process only pays for what it runs.
    from repro.runtime.device import Device
    from repro.runtime.launcher import launch_kernel
    from repro.trace.tracer import Tracer
    from repro.workloads.problems import make_problem

    problem = make_problem(spec.problem, scale=spec.scale, seed=spec.seed,
                           size=spec.size)
    tracer = Tracer(max_events=spec.max_trace_events) if spec.collect_trace else None
    device = Device(spec.config, tracer=tracer, engine=engine)
    started = time.perf_counter()
    launch = launch_kernel(
        device, problem.kernel, problem.arguments, problem.global_size,
        local_size=spec.local_size,
        call_simulation_limit=spec.call_simulation_limit,
        max_cycles_per_call=spec.max_cycles_per_call,
    )
    elapsed = time.perf_counter() - started
    return JobResult(
        job_hash=spec.content_hash(),
        problem=problem.name,
        category=problem.category,
        config_name=spec.config.name,
        hardware_parallelism=spec.config.hardware_parallelism,
        global_size=launch.global_size,
        local_size=launch.local_size,
        num_workgroups=launch.num_workgroups,
        num_calls=launch.num_calls,
        cycles=launch.cycles,
        sim_cycles=launch.sim_cycles,
        overhead_cycles=launch.overhead_cycles,
        extrapolated=launch.extrapolated,
        lane_utilization=(launch.dispatch.average_lane_utilization
                          if launch.dispatch else 0.0),
        counters=launch.counters.as_dict(),
        elapsed_seconds=elapsed,
        events=tuple(tracer.events) if tracer is not None else None,
    )


def execute_job(spec: JobSpec,
                engine: Optional[str] = None) -> Union[JobResult, JobFailure]:
    """Run one spec on ``engine``, converting any exception into a
    :class:`JobFailure`.

    The engine is an argument, not process state, so one long-lived fleet
    worker -- local or remote -- serves mixed-engine shards, and two jobs
    running at once in one process each keep their own.  An unknown engine
    name becomes a :class:`JobFailure` like any other job error (the Device
    constructor validates it); ``None`` resolves as ``Device()`` does.
    """
    if not RECORDER.enabled:
        try:
            return run_spec(spec, engine)
        except Exception as error:  # noqa: BLE001 - isolation is the contract
            return JobFailure(
                job_hash=spec.content_hash(),
                label=spec.display_name(),
                error=f"{type(error).__name__}: {error}",
                traceback=traceback.format_exc(),
            )
    started_wall = time.time()
    RECORDER.push_scope()
    try:
        with RECORDER.span("job.execute", job_hash=spec.content_hash(),
                           problem=spec.problem, config=spec.config.name):
            outcome: Union[JobResult, JobFailure] = run_spec(spec, engine)
        RECORDER.count("campaign.jobs.executed")
    except Exception as error:  # noqa: BLE001 - isolation is the contract
        RECORDER.count("campaign.jobs.failed")
        outcome = JobFailure(
            job_hash=spec.content_hash(),
            label=spec.display_name(),
            error=f"{type(error).__name__}: {error}",
            traceback=traceback.format_exc(),
        )
    payload = RECORDER.pop_scope()
    payload["started_wall"] = started_wall
    return replace(outcome, telemetry=payload)
