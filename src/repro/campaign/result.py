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
A result the cache serves from a line :meth:`~repro.campaign.journal.Journal.append`
wrote keeps that line's ``result`` text (:meth:`JobResult.to_json`), so a
sink line for it is written without serialising the result again.  Results
are slotted, and :meth:`JobResult.from_dict` checks each field's type
rather than coercing it (a ``"false"`` is not ``False``) and builds the
object in one step: reading a journal line back costs little more than its
``json.loads``.

A :class:`JobFailure` captures one job's exception without aborting the
campaign: the error string and formatted traceback travel back to the parent
so a single bad job cannot kill a thousand-point sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from numbers import Integral, Real
from operator import itemgetter
from typing import Dict, Mapping, Optional, Tuple

from repro.sim.stats import PerfCounters


@dataclass(frozen=True, slots=True)
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
    # to_json()'s memo: not compared, and a replace() copy starts without it.
    _json: Optional[str] = field(default=None, init=False, repr=False,
                                 compare=False)

    def perf_counters(self) -> PerfCounters:
        """The counters as a :class:`PerfCounters` instance."""
        return PerfCounters.from_dict(self.counters)

    def as_cached(self) -> "JobResult":
        """A copy marked as served from the cache (without events/telemetry)."""
        return replace(self, from_cache=True, events=None, telemetry=None)

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), sort_keys=True)``, memoised.

        A result read from a cache line :meth:`Journal.append` wrote answers
        with that line's own ``result`` text (see :meth:`from_dict`); a copy
        made by ``dataclasses.replace`` starts without it.
        """
        text = self._json
        if text is None:
            text = json.dumps(self.to_dict(), sort_keys=True)
            object.__setattr__(self, "_json", text)
        return text

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
    def from_dict(cls, data: Mapping[str, object], from_cache: bool = False,
                  text: Optional[str] = None) -> "JobResult":
        """Inverse of :meth:`to_dict`, for JSON-decoded ``data``.

        Each field is checked, not coerced: the str fields must be ``str``,
        the int fields integers (a ``bool`` is not one), ``extrapolated`` a
        ``bool``, ``lane_utilization`` and ``elapsed_seconds`` real numbers
        (stored as ``float``) and ``counters`` a dict with ``str`` keys.
        Anything else raises ``TypeError``, which both journal read rules
        turn into a refused line.  The object is built in one step: each
        slot is set once, and ``counters`` is copied once.

        ``text`` is the JSON ``data`` was parsed from, when the caller knows
        it is ``json.dumps(result.to_dict(), sort_keys=True)`` of the result
        built here; :meth:`to_json` then returns it as is.
        """
        strs = _get_strs(data)
        ints = _get_ints(data)
        extrapolated = data["extrapolated"]
        counters = data["counters"]
        if not isinstance(counters, dict):
            raise TypeError(f"counters: expected a dict, got {counters!r}")
        counters = dict(counters)
        try:
            "".join(strs)         # a TypeError at the first item not a str
            "".join(counters)
        except TypeError:
            raise TypeError("the str fields and the counter names must "
                            "be str") from None
        if not set(map(type, ints)) <= _INT:
            ints = tuple(map(_integer, _INT_FIELDS, ints))
        if type(extrapolated) is not bool:
            raise TypeError(f"extrapolated: expected a bool, got {extrapolated!r}")
        lane_utilization = _real("lane_utilization", data["lane_utilization"])
        elapsed_seconds = _real("elapsed_seconds",
                                data.get("elapsed_seconds", 0.0))

        (set_job_hash, set_problem, set_category, set_config_name,
         set_hardware_parallelism, set_global_size, set_local_size,
         set_num_workgroups, set_num_calls, set_cycles, set_sim_cycles,
         set_overhead_cycles, set_extrapolated, set_lane_utilization,
         set_counters, set_elapsed_seconds, set_from_cache, set_events,
         set_telemetry, set_json) = _SETTERS
        result = object.__new__(cls)
        set_job_hash(result, strs[0])
        set_problem(result, strs[1])
        set_category(result, strs[2])
        set_config_name(result, strs[3])
        set_hardware_parallelism(result, ints[0])
        set_global_size(result, ints[1])
        set_local_size(result, ints[2])
        set_num_workgroups(result, ints[3])
        set_num_calls(result, ints[4])
        set_cycles(result, ints[5])
        set_sim_cycles(result, ints[6])
        set_overhead_cycles(result, ints[7])
        set_extrapolated(result, extrapolated)
        set_lane_utilization(result, lane_utilization)
        set_counters(result, counters)
        set_elapsed_seconds(result, elapsed_seconds)
        set_from_cache(result, from_cache)
        set_events(result, None)
        set_telemetry(result, None)
        set_json(result, text)
        return result


#: The field layout :meth:`JobResult.from_dict` reads: str fields, then int
#: fields, in declaration order.
_STR_FIELDS = ("job_hash", "problem", "category", "config_name")
_INT_FIELDS = ("hardware_parallelism", "global_size", "local_size",
               "num_workgroups", "num_calls", "cycles", "sim_cycles",
               "overhead_cycles")
_get_strs = itemgetter(*_STR_FIELDS)
_get_ints = itemgetter(*_INT_FIELDS)
_INT = frozenset((int,))


def slot_setters(cls: type) -> Tuple:
    """Each field's slot setter of a frozen, slotted dataclass, in declaration
    order: ``setter(obj, value)`` skips the frozen ``__setattr__``, so
    ``from_dict`` sets each slot of an ``object.__new__`` instance once."""
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


_SETTERS = slot_setters(JobResult)


def _integer(name: str, value: object) -> int:
    """``value`` as an ``int`` when it is an integer and not a ``bool``."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    raise TypeError(f"{name}: expected an integer, got {value!r}")


def _real(name: str, value: object) -> float:
    """``value`` as a ``float`` when it is a real number and not a ``bool``."""
    if type(value) is float:
        return value
    if isinstance(value, Real) and not isinstance(value, bool):
        return float(value)
    raise TypeError(f"{name}: expected a real number, got {value!r}")


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
