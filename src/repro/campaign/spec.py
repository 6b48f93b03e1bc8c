"""Job specifications: naming one simulation point, content-addressably.

A :class:`JobSpec` is the declarative description of one simulator run: the
workload (problem name, scale, seed and optional size override -- everything
the problem factory needs to rebuild bit-identical input data), the machine
(a full :class:`~repro.sim.config.ArchConfig`, launch overheads and timing
overrides included) and the launch parameters (lws, call-extrapolation limit).
Two specs that describe the same simulation serialise to the same canonical
JSON and therefore to the same SHA-256 content hash, no matter which
experiment built them or in which process -- that hash is the key of the
persistent :class:`~repro.campaign.cache.ResultCache`.  The canonical
string is composed (:func:`canonical_json`) around the config's JSON, which
is serialised once per :class:`ArchConfig` and memoised on it
(:func:`config_json`): a grid shares a dozen configs among thousands of specs.

A :class:`Campaign` is an ordered list of specs (duplicates allowed; the
runner executes each distinct hash once and fans the result back out).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from functools import lru_cache
from json.encoder import encode_basestring_ascii
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


#: ``separators`` of the hashed form, and of every journal line (json's default).
COMPACT = (",", ":")
LINE = (", ", ": ")


class RawJSON(str):
    """JSON text that :func:`canonical_json` splices in verbatim."""

    __slots__ = ()


def _json_other(value, separators: Tuple[str, str]) -> str:
    """The JSON of a value that is not a ``str``, an ``int`` or ``None``."""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is dict:
        return canonical_json(value, separators)
    return json.dumps(value, sort_keys=True, separators=separators)


@lru_cache(maxsize=256)       # the callers compose a few fixed layouts
def _layout(keys: Tuple[object, ...], separators: Tuple[str, str],
            ) -> Optional[Tuple[Tuple[str, str], ...]]:
    """``(key, text before its value)`` in sorted key order, or ``None``
    when a key is not a ``str`` (``json.dumps`` converts those)."""
    if not all(type(key) is str for key in keys):
        return None
    item, colon = separators
    return tuple((key, (item if index else "") + encode_basestring_ascii(key) + colon)
                 for index, key in enumerate(sorted(keys)))


def canonical_json(mapping: Mapping[str, object],
                   separators: Tuple[str, str] = LINE) -> str:
    """``json.dumps(mapping, sort_keys=True, separators=separators)``, composed.

    Byte-identical to that call for every value: ``str``, ``int``, ``bool``,
    ``None`` and ``dict`` values are encoded here (``ensure_ascii`` escaping
    included), any other type by ``json.dumps`` -- except that a
    :class:`RawJSON` value is spliced in as the JSON text it already is.
    """
    layout = _layout(tuple(mapping), separators)
    if layout is None:
        return json.dumps(mapping, sort_keys=True, separators=separators)
    parts = ["{"]
    for key, head in layout:
        value = mapping[key]
        kind = type(value)
        if kind is str:
            parts.append(head + encode_basestring_ascii(value))
        elif kind is RawJSON:
            parts.append(head + value)
        elif kind is int:
            parts.append(head + repr(value))
        elif value is None:
            parts.append(head + "null")
        else:
            parts.append(head + _json_other(value, separators))
    parts.append("}")
    return "".join(parts)


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


def config_json(config: ArchConfig, separators: Tuple[str, str] = LINE) -> RawJSON:
    """``json.dumps(config_to_dict(config), sort_keys=True, separators=...)``.

    Memoised on the (frozen) instance per separator pair, like
    :func:`config_to_dict`: the content hash and every journal line embed it.
    """
    forms = config.__dict__.get("_as_json")
    if forms is None:
        forms = {}
        object.__setattr__(config, "_as_json", forms)
    text = forms.get(separators)
    if text is None:
        text = forms[separators] = RawJSON(json.dumps(
            config_to_dict(config), sort_keys=True, separators=separators))
    return text


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


#: Content hashes memoised per process; the memo is cleared when it holds
#: this many, so one-off specs (fuzzing, a long-lived service) never pile up.
DIGEST_MEMO_SIZE = 2 ** 14
_DIGESTS: Dict[tuple, str] = {}


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
        return self._hash_fields(config_to_dict(self.config))

    def _hash_fields(self, config: object) -> Dict[str, object]:
        return {
            "schema": CACHE_SCHEMA_VERSION,
            "simulator": simulator_version(),
            "problem": self.problem,
            "scale": self.scale,
            "seed": self.seed,
            "size": self.size,
            "config": config,
            "local_size": self.local_size,
            "call_simulation_limit": self.call_simulation_limit,
            "max_cycles_per_call": self.max_cycles_per_call,
        }

    def content_hash(self) -> str:
        """Stable SHA-256 over the canonical JSON of :meth:`hash_payload`.

        That is ``json.dumps(self.hash_payload(), sort_keys=True,
        separators=COMPACT)``, composed around the memoised config JSON.
        Stable across processes, interpreter restarts and ``PYTHONHASHSEED``
        values (it never touches Python's builtin ``hash``).  The digest is
        memoised per instance: the runner consults it several times per job
        (cache lookup, dedup grouping, write-back).  It is also memoised per
        process, keyed by every input of the payload: a re-planned grid
        builds fresh specs for the same points (:data:`DIGEST_MEMO_SIZE`).
        """
        cached = self.__dict__.get("_content_hash")
        if cached is not None:
            return cached
        config = config_json(self.config, COMPACT)
        inputs = (self.problem, self.scale, self.seed, self.size,
                  self.local_size, self.call_simulation_limit,
                  self.max_cycles_per_call)
        # Every input of the payload, each value with its type (True == 1,
        # but the two serialise differently).
        key = (simulator_version(), CACHE_SCHEMA_VERSION, config, *inputs,
               *map(type, inputs))
        digest = _DIGESTS.get(key)
        if digest is None:
            canonical = canonical_json(self._hash_fields(config), COMPACT)
            digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            if len(_DIGESTS) >= DIGEST_MEMO_SIZE:
                _DIGESTS.clear()
            _DIGESTS[key] = digest
        object.__setattr__(self, "_content_hash", digest)
        return digest

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Serialise to plain types (for workers and the cache journal)."""
        return self._fields(config_to_dict(self.config))

    def to_json(self) -> RawJSON:
        """``json.dumps(self.to_dict(), sort_keys=True)``, composed around the
        memoised config JSON: the ``spec`` of a journal line."""
        return RawJSON(canonical_json(self._fields(config_json(self.config))))

    def _fields(self, config: object) -> Dict[str, object]:
        return {
            "problem": self.problem,
            "config": config,
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
