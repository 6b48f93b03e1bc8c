"""Persistent, content-addressed result cache.

Results are stored as one JSON object per line in ``results.jsonl`` under the
cache directory -- append-only between loads, human greppable, and robust to
partial writes (lines the read rule :func:`read_cache_line` refuses are
skipped on load).  When a load finds the same key on several lines
(concurrent campaigns can both simulate a point before either sees the
other's write), the journal is compacted in place -- rewritten atomically
keeping the last record per key -- so duplicates never accumulate.  Every
record carries the simulator version and cache schema version it was
produced under; records from a different simulator release are not served,
so bumping ``repro.__version__`` invalidates the whole cache without
touching the file.  A cache folds the journal when it opens and, on a
lookup that misses, reads on from there: a long-lived cache serves what
another process on the same directory wrote since.

Each point is written, hashed and served once.  Its key, the spec's content
hash, is composed around the config JSON memoised on the ``ArchConfig``
(:meth:`JobSpec.content_hash`), and so is the ``spec`` of the line
:meth:`ResultCache.put` writes.  The index holds every result in the form a
hit serves (``from_cache=True``, no events, no telemetry), so a hit is a
dict lookup, not a copy.  A result folded from a line
:meth:`~repro.campaign.journal.Journal.append` wrote keeps that line's
``result`` JSON (:meth:`JobResult.to_json`): a cache-served sink line is
written from the cache line's own result text.

The cache directory resolves, in order, to:

1. an explicit ``path`` argument,
2. the ``REPRO_CACHE_DIR`` environment variable,
3. ``$XDG_CACHE_HOME/repro`` or ``~/.cache/repro``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from functools import partial
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.campaign.journal import Journal, current_stamps, stamped_key
from repro.campaign.result import JobResult
from repro.campaign.spec import (CACHE_SCHEMA_VERSION, JobSpec, RawJSON,
                                  canonical_json, simulator_version)
from repro.telemetry.recorder import RECORDER

#: Environment variable overriding the default cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: File name of the JSON-lines journal inside the cache directory.
CACHE_FILE_NAME = "results.jsonl"


def default_cache_dir() -> Path:
    """The cache directory honouring ``REPRO_CACHE_DIR`` and XDG conventions."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg).expanduser() if xdg else Path.home() / ".cache"
    return base / "repro"


#: Where the result ends in a line :meth:`Journal.append` wrote.
_SCHEMA_FIELD = ', "schema": '


def read_cache_line(record: Mapping, end: int, text: str,
                    keep_text: bool = False,
                    ) -> Optional[Tuple[Tuple[str, str, int], JobResult]]:
    """The cache journal's read rule: ``(hash, simulator, schema) -> result``.

    Keyed by all three: in normal operation the hash already embeds the
    version (two releases never collide on a hash), but a tampered or
    hand-merged journal must not let a stale record shadow -- and
    compaction then delete -- a usable one.  The result comes in the form a
    hit serves.  With ``keep_text`` (the cache's own loader; the warehouse
    has no use for it) it carries the line's ``result`` text when the line
    is one :meth:`Journal.append` wrote (:func:`_result_text`).
    """
    key = stamped_key(record, "hash")
    if key is None:
        return None
    try:
        return key, JobResult.from_dict(
            record["result"], from_cache=True,
            text=_result_text(text, key[0]) if keep_text else None)
    except (KeyError, TypeError, ValueError, OverflowError):
        return None


def _result_text(text: str, job_hash: str) -> Optional[str]:
    """The ``result`` JSON of a line :meth:`Journal.append` wrote, else None.

    Such a line is ``json.dumps(record, sort_keys=True)``: it opens with
    ``{"hash": <hash>, "result": `` and the result runs up to the
    ``, "schema": `` that follows it.  A line in any other JSON text, or
    with that separator twice (a counter named ``schema``), gives ``None``
    and its result is serialised afresh when needed.
    """
    head = '{"hash": ' + encode_basestring_ascii(job_hash) + ', "result": '
    end = text.rfind(_SCHEMA_FIELD)
    if (end < len(head) or not text.startswith(head)
            or text.find(_SCHEMA_FIELD, len(head), end) != -1):
        return None
    return text[len(head):end]


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss accounting plus on-disk footprint of one cache instance."""

    path: str
    entries: int
    stale_entries: int          # records written under another simulator version
    hits: int
    misses: int
    size_bytes: int
    journal_lines: int = 0      # lines in the journal after the last load
    compacted_lines: int = 0    # superseded/corrupt lines removed on load

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def bytes_per_entry(self) -> float:
        """Average on-disk footprint of one usable entry."""
        return self.size_bytes / self.entries if self.entries else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (``repro campaign status --json``)."""
        return {
            "path": self.path,
            "entries": self.entries,
            "stale_entries": self.stale_entries,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "size_bytes": self.size_bytes,
            "journal_lines": self.journal_lines,
            "compacted_lines": self.compacted_lines,
        }

    def render(self) -> str:
        """Multi-line human readable summary (used by ``repro campaign status``)."""
        compacted = (f" (compacted {self.compacted_lines} superseded/corrupt "
                     f"line(s) on load)" if self.compacted_lines else "")
        return "\n".join([
            f"cache directory : {self.path}",
            f"usable entries  : {self.entries} (+{self.stale_entries} stale)",
            f"journal lines   : {self.journal_lines}{compacted}",
            f"journal size    : {self.size_bytes} bytes "
            f"({self.size_bytes / 1024:.1f} KiB, "
            f"{self.bytes_per_entry:.0f} B/entry)",
            f"session hits    : {self.hits}",
            f"session misses  : {self.misses}",
            f"session hit rate: {self.hit_rate:.0%}",
        ])


class ResultCache:
    """Content-addressed store of :class:`JobResult` summaries."""

    def __init__(self, path: Optional[Union[str, Path]] = None):
        self.directory = Path(path).expanduser() if path is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        # No fsync: a cache entry lost to a crash costs one re-simulation.
        self._journal = Journal(self.journal_path,
                                partial(read_cache_line, keep_text=True),
                                fsync=False)
        # One instance may be shared by several runners on different threads
        # (the service's ``asyncio.to_thread`` workers); all index/journal
        # mutation happens under this lock.
        self._lock = threading.RLock()
        self._load()

    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> Path:
        return self.directory / CACHE_FILE_NAME

    def _load(self) -> None:
        """Fold the journal, indexing the records of this release by hash.

        The journal is append-only, so the same key can appear several times
        (e.g. two concurrent campaigns simulating the same fresh point); the
        last record per key wins, and when superseded duplicates are found
        the journal is compacted -- rewritten atomically with one line per
        key -- instead of growing forever.  Lines the read rule refuses never
        survive a compaction; they are only preserved (and counted as stale)
        when the journal needs no rewrite.
        """
        fold = self._journal.fold()
        self._index: Dict[str, JobResult] = fold.current()
        self._stale = len(fold.entries) - len(self._index)
        self._compacted = 0
        if fold.superseded and self._journal.compact(fold):
            self._compacted = fold.superseded + fold.rejected
            self._journal_lines = len(fold.entries)
        else:
            # No rewrite happened (nothing superseded, or compaction aborted):
            # every physical line is still in the journal.
            self._stale += fold.rejected
            self._journal_lines = (len(fold.entries) + fold.rejected
                                   + fold.superseded)
        # Where this instance has folded to, and in which file: a compaction
        # (ours above, or another process's) replaces the file.
        self._folded = self._file_state()
        if self._folded is not None and self._folded[1] > fold.end:
            # Appended to after the fold read it: catch up from there.
            self._folded = (self._folded[0], fold.end)

    def _file_state(self) -> Optional[Tuple[Tuple[int, int], int]]:
        """``((device, inode), size)`` of the journal, or ``None`` if absent."""
        try:
            stat = self.journal_path.stat()
        except FileNotFoundError:
            return None
        return (stat.st_dev, stat.st_ino), stat.st_size

    def _catch_up(self) -> None:
        """Fold what other processes appended since this instance last read.

        Called when a lookup misses, so a long-lived cache (``repro serve``)
        serves what a ``repro scenario run`` on the same directory wrote
        meanwhile instead of simulating it again.  Reads on from the offset
        this instance last folded to; refolds from zero when the journal
        shrank or was replaced (a compaction).  Lines of keys already indexed
        -- this instance's own appends among them -- change nothing.
        """
        state = self._file_state()
        if state is None or state == self._folded:
            return
        if (self._folded is None or state[0] != self._folded[0]
                or state[1] < self._folded[1]):
            self._load()
            return
        identity, offset = self._folded
        stamps = current_stamps()
        for line in self._journal.read(offset, complete_only=True):
            _, read, offset = line
            if not line.text:
                continue      # a torn tail's repair newline: counted by _load
            if read is None or read[0][1:] != stamps:
                self._stale += 1
                self._journal_lines += 1
            elif read[0][0] not in self._index:
                self._index[read[0][0]] = read[1]
                self._journal_lines += 1
        self._folded = identity, offset

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, spec: JobSpec) -> bool:
        return spec.content_hash() in self._index

    def get_many(self, specs: Sequence[JobSpec]) -> List[Optional[JobResult]]:
        """Resolve many specs in one indexed pass: one slot per spec, in order.

        The cache's one lookup: each spec counts a hit or a miss, and every
        served result is the indexed one, already ``from_cache``.  A batch
        with a miss first folds what other processes appended to the journal
        since this instance last read it (:meth:`_catch_up`).  The whole batch
        is one lock acquisition and **one** ``cache.get_many`` telemetry
        span, which is what a 10^4-point campaign's cache-first resolve wants.
        """
        started_wall = time.time()
        started = time.perf_counter()
        with self._lock:
            hashes = [spec.content_hash() for spec in specs]
            if not all(job_hash in self._index for job_hash in hashes):
                self._catch_up()
            index = self._index
            found: List[Optional[JobResult]] = [index.get(job_hash)
                                                for job_hash in hashes]
            misses = sum(1 for result in found if result is None)
            hits = len(found) - misses
            self.hits += hits
            self.misses += misses
        if RECORDER.enabled:
            RECORDER.record_span("cache.get_many", started_wall,
                                 time.perf_counter() - started,
                                 jobs=len(found), hits=hits, misses=misses)
            if hits:
                RECORDER.count("campaign.cache.hits", hits)
            if misses:
                RECORDER.count("campaign.cache.misses", misses)
        return found

    def put(self, spec: JobSpec, result: JobResult) -> None:
        """Persist one result (idempotent per content hash).

        The line is ``json.dumps`` of ``{hash, schema, simulator, spec,
        result}`` with sorted keys, composed from the spec's and the
        result's memoised JSON: ``result`` keeps its text for its sink line,
        while the index entry, which a long-lived cache holds for good, does
        not.
        """
        with self._lock:
            job_hash = spec.content_hash()
            if job_hash in self._index:
                return
            line = canonical_json({
                "hash": job_hash,
                "schema": CACHE_SCHEMA_VERSION,
                "simulator": simulator_version(),
                "spec": spec.to_json(),
                "result": RawJSON(result.to_json()),
            })
            # The served form: traced results can carry 10^5 events, and
            # neither the journal nor get_many() ever serves them.
            self._index[job_hash] = result.as_cached()
            # (A torn tail terminated here was already counted by ``_load``.)
            before = self._file_state()
            written = self._journal.append([line]).written
            self._journal_lines += 1
            # Fold past our own line, so the next miss does not read it back
            # -- but only when the file held nothing unread before it and grew
            # by exactly that line: another writer's append stays unread.
            after = self._file_state()
            if (before == self._folded and after is not None
                    and after[1] == (before[1] if before else 0) + written
                    and (before is None or after[0] == before[0])):
                self._folded = after

    def clear(self) -> int:
        """Delete the journal; returns how many usable entries were dropped.

        :meth:`Journal.reset` also sweeps the temp files of a concurrent
        compaction and re-arms the tail check: if another process re-creates
        the journal with a partial tail, it is repaired again, not trusted.
        """
        with self._lock:
            dropped = len(self._index)
            self._journal.reset()
            self._index.clear()
            self._stale = 0
            self._compacted = 0
            self._journal_lines = 0
            self._folded = None
            return dropped

    def stats(self) -> CacheStats:
        """Current accounting snapshot."""
        size = self.journal_path.stat().st_size if self.journal_path.exists() else 0
        return CacheStats(
            path=str(self.directory),
            entries=len(self._index),
            stale_entries=self._stale,
            hits=self.hits,
            misses=self.misses,
            size_bytes=size,
            journal_lines=self._journal_lines,
            compacted_lines=self._compacted,
        )
