"""The one JSONL journal: append, tail repair, offset reads, fold, compaction.

Every append-only journal in the repository -- the campaign
:class:`~repro.campaign.cache.ResultCache`, the scenario
:class:`~repro.scenarios.sink.ResultSink`, the service
:class:`~repro.service.queue.JobQueue` and the telemetry journal -- is a
:class:`Journal`: one canonical JSON object per line, appended only by
:meth:`Journal.append` and read only through :meth:`Journal.read`.

Each client declares one *read rule* next to its writer: a function
``(record, end_offset, text) -> (key, value) | None`` that turns one parsed
line into the value its loader serves, keyed the way the journal folds, or
refuses the line (version stamps of the wrong type, missing fields, a
malformed payload).  The client's own loader and the results warehouse
(:mod:`repro.warehouse`) both read through that one rule, so they cannot
disagree about which lines count.  Records of another release are not
refused: their key says which release wrote them, and "current" is a
comparison on the key (:func:`current_stamps`).

Reads stream one line at a time (never the whole journal into memory) and
report the byte offset each line ends at, which is what the warehouse uses
to sync incrementally -- a journal synced to offset N resumes at byte N.
Each line also carries its text as written, which the warehouse stores and
compares instead of serialising the parsed record again, and which the
cache's rule cuts the ``result`` JSON from: a cache-served sink line is
written from the cache line's own result text.  A writer may hand
:meth:`Journal.append` a line it composed itself, as long as it is the
record's canonical JSON: the cache and the sink compose theirs with
:func:`~repro.campaign.spec.canonical_json` around a spec's memoised config
JSON, the same way the spec's content hash is composed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Hashable, Iterator, Mapping,
                    NamedTuple, Optional, Sequence, Tuple, Union)

from repro.campaign.spec import CACHE_SCHEMA_VERSION, simulator_version

#: What a read rule makes of one accepted line.
Read = Tuple[Hashable, Any]
#: ``(record, end_offset, text) -> (key, value)``, or ``None`` to refuse the
#: line; ``text`` is the line as written (see :class:`Line`).
ReadRule = Callable[[Dict, int, str], Optional[Read]]


def parse_line(text: str) -> Optional[Dict]:
    """One line's text -> its JSON object, or ``None`` when blank or corrupt."""
    try:
        record = json.loads(text)
    except ValueError:
        return None
    return record if isinstance(record, dict) else None


class Line(tuple):
    """One line as :meth:`Journal.read` yields it: ``(record, read, end_offset)``.

    ``text`` is the line as its writer wrote it, decoded and without its
    newline (``None`` when the bytes are not UTF-8).  For every line
    :meth:`Journal.append` wrote it is the record's canonical JSON.
    """

    def __new__(cls, text: Optional[str], record: Optional[Dict],
                read: Optional[Read], end: int) -> "Line":
        line = super().__new__(cls, (record, read, end))
        line.text = text
        return line


class Appended(NamedTuple):
    """What one :meth:`Journal.append` committed."""

    written: int              # bytes of the records' lines (not a tail repair)
    fsync_seconds: float      # 0.0 under the no-fsync policy


def stamped_key(record: Mapping, name: str) -> Optional[Tuple[str, str, int]]:
    """``(record[name], simulator, schema)`` when typed str, str, int, else None.

    The key the cache and sink journals fold on.  A ``bool`` is not an int,
    and nothing is coerced: a ``"schema": "1"`` line is refused, not served.
    """
    key = (record.get(name), record.get("simulator"), record.get("schema"))
    if type(key[0]) is str and type(key[1]) is str and type(key[2]) is int:
        return key
    return None


def current_stamps() -> Tuple[str, int]:
    """``(simulator, schema)`` of this release: a key's tail when current."""
    return simulator_version(), CACHE_SCHEMA_VERSION


@dataclass
class Fold:
    """A journal folded last-wins on its read rule's key."""

    entries: Dict[Hashable, Any] = field(default_factory=dict)
    ends: Dict[Hashable, int] = field(default_factory=dict)  # key -> last line's end
    rejected: int = 0         # lines the rule refused: blank, corrupt, torn
    superseded: int = 0       # accepted lines a later line with their key replaced
    end: int = 0              # bytes read

    def current(self) -> Dict[str, Any]:
        """``{name: value}`` of this release's entries (:func:`stamped_key` keys)."""
        stamps = current_stamps()
        return {key[0]: value for key, value in self.entries.items()
                if key[1:] == stamps}


class Journal:
    """One append-only JSONL journal and the read rule its client declared.

    :meth:`append` lands a batch of records (canonical ``sort_keys`` JSON, one
    per line, or a line the caller already composed as that JSON) with a
    single write and -- where the client's fixed policy asks for durability
    (sink, queue, telemetry: yes; cache: no, a lost entry costs one
    re-simulation) -- a single ``fsync``.  A tail that a killed writer left
    without its newline is terminated before the first append (a record merged
    into it would corrupt both), once per instance and again after
    :meth:`reset`, because another process may re-create the file with a
    partial tail.
    """

    def __init__(self, path: Path, rule: ReadRule, fsync: bool = False):
        self.path = path
        self.rule = rule
        self.fsync = fsync
        self._tail_checked = False

    def append(self, records: Sequence[Union[Mapping[str, object], str]],
               ) -> Appended:
        """Commit ``records`` together; returns the bytes written and the
        seconds spent in fsync.

        A ``str`` record is a pre-serialised line, written as is: it must be
        ``json.dumps(record, sort_keys=True)`` of the record it stands for.
        """
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if not self._tail_checked:
            self._tail_checked = True
            self._repair_tail()
        lines = [record if isinstance(record, str)
                 else json.dumps(record, sort_keys=True) for record in records]
        lines.append("")                  # the last line's newline
        data = "\n".join(lines).encode("utf-8")
        with self.path.open("ab") as journal:
            journal.write(data)
            if not self.fsync:
                return Appended(len(data), 0.0)
            journal.flush()
            started = time.perf_counter()
            os.fsync(journal.fileno())
            return Appended(len(data), time.perf_counter() - started)

    def _repair_tail(self) -> None:
        """Append a newline if the journal ends mid-line (a killed writer's)."""
        if not self.path.exists() or self.path.stat().st_size == 0:
            return
        with self.path.open("rb") as journal:
            journal.seek(-1, os.SEEK_END)
            ends_clean = journal.read(1) == b"\n"
        if not ends_clean:
            with self.path.open("a") as journal:
                journal.write("\n")

    def read(self, start: int = 0, complete_only: bool = False,
             ) -> Iterator[Line]:
        """Stream one :class:`Line` per line from byte ``start``.

        Each unpacks as ``(record, read, end_offset)``: ``record`` is the
        parsed line (``None`` when blank or corrupt) and ``read`` what the
        rule made of it (``None`` when refused); the line's ``text`` rides
        along.  A line is decoded once and parsed from that text.
        ``end_offset`` is the byte offset after the line's newline -- feeding
        it back as ``start`` resumes exactly where this read stopped, and
        blank lines advance it too, so a consumer that persists it never
        re-reads them.  The last line of a journal whose writer died
        mid-record has no newline: with ``complete_only=True`` (the warehouse)
        it is neither yielded nor consumed, and a later read picks it up once
        terminated; by default (the loaders) it is read like any other line.
        """
        if not self.path.exists():
            return
        rule = self.rule
        offset = start
        with self.path.open("rb") as journal:
            journal.seek(start)
            for raw in journal:
                offset += len(raw)
                if raw.endswith(b"\n"):
                    raw = raw[:-1]
                elif complete_only:
                    return            # a writer may still be mid-append
                try:
                    text = raw.decode("utf-8")
                except UnicodeDecodeError:
                    yield Line(None, None, None, offset)
                    continue
                record = parse_line(text)
                yield Line(text, record,
                           None if record is None else rule(record, offset, text),
                           offset)

    def fold(self, complete_only: bool = False) -> Fold:
        """The whole journal folded last-wins per key (first-seen key order)."""
        fold = Fold()
        for _, read, end in self.read(0, complete_only):
            fold.end = end
            if read is None:
                fold.rejected += 1
                continue
            key, value = read
            if key in fold.entries:
                fold.superseded += 1
            fold.entries[key] = value
            fold.ends[key] = end
        return fold

    def compact(self, fold: Fold) -> bool:
        """Atomically rewrite the journal as ``fold``'s last line per key.

        Lines keep their bytes and their order; refused and superseded lines
        are dropped.  Strictly best-effort: the journal may be shared between
        processes, so a rewrite from a snapshot could drop a record another
        process appended after :meth:`fold` read the file.  The window is
        narrowed by re-checking the size immediately before the atomic
        replace -- if it moved, skip and let the next load retry -- and *any*
        filesystem error (read-only directory, journal removed concurrently)
        aborts the rewrite instead of failing the load.
        """
        keep = set(fold.ends.values())
        tmp_path = self.path.with_name(f"{self.path.name}.{os.getpid()}.tmp")
        try:
            with self.path.open("rb") as journal, tmp_path.open("wb") as tmp:
                offset = 0
                for raw in journal:
                    offset += len(raw)
                    if offset > fold.end:
                        break
                    if offset in keep:
                        tmp.write(raw if raw.endswith(b"\n") else raw + b"\n")
            if self.path.stat().st_size != fold.end:
                tmp_path.unlink()             # someone appended meanwhile
                return False
            os.replace(tmp_path, self.path)
            return True
        except OSError:
            tmp_path.unlink(missing_ok=True)
            return False

    def reset(self) -> None:
        """Delete the journal and re-arm the tail check for the next file.

        Also sweeps any ``<name>.<pid>.tmp`` left by a concurrent compaction
        (its ``os.replace`` loses the race with the unlink, and the temp file
        would otherwise sit in the directory forever).
        """
        self.path.unlink(missing_ok=True)
        for stale_tmp in self.path.parent.glob(f"{self.path.name}.*.tmp"):
            try:
                stale_tmp.unlink()
            except OSError:
                pass                      # already gone, or not ours to remove
        self._tail_checked = False
