"""Job results and failures.

A :class:`JobResult` is the cache-sized summary of one simulated launch: the
resolved launch geometry, the cycle breakdown, the full performance-counter
dictionary and the wall-clock cost of producing it.  It is what the
:class:`~repro.campaign.cache.ResultCache` persists and what experiments
consume; the heavyweight launch artefacts (buffers, outputs, dispatch plans)
never cross the campaign boundary.

Traced jobs additionally carry their in-memory event tuple -- a fleet worker
sends it beside the result, but it is deliberately not persisted (a single
traced launch can produce hundreds of thousands of events).  The same
treatment applies to the ``telemetry`` payload a worker's recorder scope
produces: it rides the result back across the process boundary so the
parent can merge it, and is stripped before anything touches the cache.

A :class:`JobFailure` captures one job's exception without aborting the
campaign: the error string and formatted traceback travel back to the parent
so a single bad job cannot kill a thousand-point sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.sim.stats import PerfCounters


@dataclass(frozen=True)
class JobResult:
    """Summary of one successfully simulated job."""

    job_hash: str
    problem: str
    category: str
    config_name: str
    hardware_parallelism: int
    global_size: int
    local_size: int
    num_workgroups: int
    num_calls: int
    cycles: int
    sim_cycles: int
    overhead_cycles: int
    extrapolated: bool
    lane_utilization: float
    counters: Dict[str, float]
    elapsed_seconds: float = 0.0
    from_cache: bool = False
    events: Optional[Tuple] = None        # trace events; in-memory only
    telemetry: Optional[Dict] = None      # worker recorder payload; in-memory only

    def perf_counters(self) -> PerfCounters:
        """The counters as a :class:`PerfCounters` instance."""
        return PerfCounters.from_dict(self.counters)

    def as_cached(self) -> "JobResult":
        """A copy marked as served from the cache (without events/telemetry)."""
        return replace(self, from_cache=True, events=None, telemetry=None)

    def summary(self) -> str:
        """One-line rendering for progress output."""
        origin = "cache" if self.from_cache else f"{self.elapsed_seconds:.2f}s"
        return (f"{self.problem} on {self.config_name} lws={self.local_size}: "
                f"{self.cycles} cycles [{origin}]")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Serialise to plain JSON types (events are dropped, never stored)."""
        return {
            "job_hash": self.job_hash,
            "problem": self.problem,
            "category": self.category,
            "config_name": self.config_name,
            "hardware_parallelism": self.hardware_parallelism,
            "global_size": self.global_size,
            "local_size": self.local_size,
            "num_workgroups": self.num_workgroups,
            "num_calls": self.num_calls,
            "cycles": self.cycles,
            "sim_cycles": self.sim_cycles,
            "overhead_cycles": self.overhead_cycles,
            "extrapolated": self.extrapolated,
            "lane_utilization": self.lane_utilization,
            "counters": dict(self.counters),
            "elapsed_seconds": self.elapsed_seconds,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            job_hash=str(data["job_hash"]),
            problem=str(data["problem"]),
            category=str(data["category"]),
            config_name=str(data["config_name"]),
            hardware_parallelism=int(data["hardware_parallelism"]),
            global_size=int(data["global_size"]),
            local_size=int(data["local_size"]),
            num_workgroups=int(data["num_workgroups"]),
            num_calls=int(data["num_calls"]),
            cycles=int(data["cycles"]),
            sim_cycles=int(data["sim_cycles"]),
            overhead_cycles=int(data["overhead_cycles"]),
            extrapolated=bool(data["extrapolated"]),
            lane_utilization=float(data["lane_utilization"]),
            counters={str(k): v for k, v in dict(data["counters"]).items()},
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        )


@dataclass(frozen=True)
class JobFailure:
    """One job's captured exception (the campaign itself keeps running).

    ``host`` and ``last_heartbeat`` locate failures that were *inflicted* on a
    job rather than raised by it: a fleet worker that died mid-chunk, or one
    whose job escaped :func:`~repro.campaign.worker.execute_job`, reports
    where the job was running and when that worker was last known alive
    (Unix wall-clock seconds).  Jobs that fail by raising leave both fields
    empty.
    """

    job_hash: str
    label: str
    error: str
    traceback: str = ""
    host: str = ""                        # where the job was running, if known
    last_heartbeat: Optional[float] = None  # worker's last sign of life (wall)
    telemetry: Optional[Dict] = None      # worker recorder payload; in-memory only

    def summary(self) -> str:
        """One-line rendering for progress output and reports."""
        where = f" [on {self.host}]" if self.host else ""
        return f"{self.label}: FAILED ({self.error}){where}"

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Serialise to plain JSON types (telemetry travels separately)."""
        return {
            "job_hash": self.job_hash,
            "label": self.label,
            "error": self.error,
            "traceback": self.traceback,
            "host": self.host,
            "last_heartbeat": self.last_heartbeat,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobFailure":
        """Inverse of :meth:`to_dict`."""
        heartbeat = data.get("last_heartbeat")
        return cls(
            job_hash=str(data["job_hash"]),
            label=str(data["label"]),
            error=str(data["error"]),
            traceback=str(data.get("traceback", "")),
            host=str(data.get("host", "")),
            last_heartbeat=None if heartbeat is None else float(heartbeat),
        )
