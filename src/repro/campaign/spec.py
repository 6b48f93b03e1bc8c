"""Job specifications: naming one simulation point, content-addressably.

A :class:`JobSpec` is the declarative description of one simulator run: the
workload (problem name, scale, seed and optional size override -- everything
the problem factory needs to rebuild bit-identical input data), the machine
(a full :class:`~repro.sim.config.ArchConfig`, launch overheads and timing
overrides included) and the launch parameters (lws, call-extrapolation limit).
Two specs that describe the same simulation serialise to the same canonical
JSON and therefore to the same SHA-256 content hash, no matter which
experiment built them or in which process -- that hash is the key of the
persistent :class:`~repro.campaign.cache.ResultCache`.

A :class:`Campaign` is an ordered list of specs (duplicates allowed; the
runner executes each distinct hash once and fans the result back out).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from typing import Dict, List, Mapping, Optional, Tuple

from repro.isa.latencies import FunctionalUnit, OpTiming
from repro.isa.opcodes import Opcode
from repro.sim.config import ArchConfig

#: Bump when the cached-record layout changes; old cache entries are ignored.
CACHE_SCHEMA_VERSION = 1


def simulator_version() -> str:
    """The simulator version stamped into hashes and cache records.

    Any release bump invalidates every cached result: the cycle model may
    have changed, so previously stored cycle counts can no longer be trusted.
    """
    import repro

    return repro.__version__


# ----------------------------------------------------------------------
# ArchConfig (de)serialisation
# ----------------------------------------------------------------------
def config_to_dict(config: ArchConfig) -> Dict[str, object]:
    """Serialise every field of an :class:`ArchConfig` to plain JSON types.

    Memoised on the (frozen) instance, as :meth:`JobSpec.content_hash` is: a
    grid shares a dozen configs among thousands of specs, each serialising
    its config for the hash and for the journal.  Callers get their own dict.
    """
    cached = config.__dict__.get("_as_dict")
    if cached is None:
        cached = {}
        for f in fields(config):
            value = getattr(config, f.name)
            if f.name == "timing_overrides":
                cached[f.name] = sorted(
                    [opcode.name, timing.unit.value, timing.latency,
                     timing.initiation_interval]
                    for opcode, timing in value.items()
                )
            else:
                cached[f.name] = value
        object.__setattr__(config, "_as_dict", cached)
    return dict(cached)


def config_from_dict(data: Mapping[str, object]) -> ArchConfig:
    """Inverse of :func:`config_to_dict`."""
    kwargs = dict(data)
    overrides_raw = kwargs.pop("timing_overrides", [])
    overrides: Dict[Opcode, OpTiming] = {}
    for opcode_name, unit, latency, interval in overrides_raw:
        overrides[Opcode[opcode_name]] = OpTiming(
            unit=FunctionalUnit(unit),
            latency=None if latency is None else int(latency),
            initiation_interval=int(interval),
        )
    return ArchConfig(timing_overrides=overrides, **kwargs)


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JobSpec:
    """One simulation point, fully determined by its fields.

    ``label`` is a display-only tag (used by progress output and experiment
    bookkeeping); it does not participate in the content hash, so the same
    point submitted under two labels is still one cache entry.
    """

    problem: str
    config: ArchConfig
    scale: str = "bench"
    seed: int = 0
    size: Optional[int] = None            # global-size override (sizeable problems)
    local_size: Optional[int] = None      # None -> the runtime Eq.-1 mapping
    call_simulation_limit: Optional[int] = None
    max_cycles_per_call: Optional[int] = None
    collect_trace: bool = False           # traced jobs are never cache-served
    max_trace_events: int = 200_000
    label: str = ""

    # ------------------------------------------------------------------
    def display_name(self) -> str:
        """The label when set, otherwise a readable point description."""
        if self.label:
            return self.label
        lws = "eq1" if self.local_size is None else self.local_size
        return f"{self.problem}/{self.config.name}/lws={lws}"

    def hash_payload(self) -> Dict[str, object]:
        """The canonical dictionary the content hash is computed over.

        ``collect_trace``/``max_trace_events``/``label`` are presentation
        concerns -- they change what is reported, not what is simulated -- so
        they are deliberately excluded.
        """
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "simulator": simulator_version(),
            "problem": self.problem,
            "scale": self.scale,
            "seed": self.seed,
            "size": self.size,
            "config": config_to_dict(self.config),
            "local_size": self.local_size,
            "call_simulation_limit": self.call_simulation_limit,
            "max_cycles_per_call": self.max_cycles_per_call,
        }

    def content_hash(self) -> str:
        """Stable SHA-256 over the canonical JSON of :meth:`hash_payload`.

        Stable across processes, interpreter restarts and ``PYTHONHASHSEED``
        values (it never touches Python's builtin ``hash``).  The digest is
        memoised per instance: the runner consults it several times per job
        (cache lookup, dedup grouping, write-back).
        """
        cached = self.__dict__.get("_content_hash")
        if cached is not None:
            return cached
        canonical = json.dumps(self.hash_payload(), sort_keys=True,
                               separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_content_hash", digest)
        return digest

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Serialise to plain types (for workers and the cache journal)."""
        return {
            "problem": self.problem,
            "config": config_to_dict(self.config),
            "scale": self.scale,
            "seed": self.seed,
            "size": self.size,
            "local_size": self.local_size,
            "call_simulation_limit": self.call_simulation_limit,
            "max_cycles_per_call": self.max_cycles_per_call,
            "collect_trace": self.collect_trace,
            "max_trace_events": self.max_trace_events,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobSpec":
        """Inverse of :meth:`to_dict`."""
        kwargs = dict(data)
        kwargs["config"] = config_from_dict(kwargs["config"])
        return cls(**kwargs)


# ----------------------------------------------------------------------
@dataclass
class Campaign:
    """A named, ordered collection of job specs."""

    name: str = "campaign"
    specs: List[JobSpec] = field(default_factory=list)

    def add(self, spec: JobSpec) -> JobSpec:
        """Append one spec and return it."""
        self.specs.append(spec)
        return spec

    def __len__(self) -> int:
        return len(self.specs)

    def unique_hashes(self) -> List[str]:
        """Distinct content hashes in first-seen order (the work to execute)."""
        seen: Dict[str, None] = {}
        for spec in self.specs:
            seen.setdefault(spec.content_hash(), None)
        return list(seen)

    def summary(self) -> str:
        """One-line description for logs and the CLI."""
        return (f"campaign {self.name!r}: {len(self.specs)} job(s), "
                f"{len(self.unique_hashes())} distinct point(s)")
