"""Every journal is read through one rule, by its loader and by the warehouse.

Three kinds of check:

* the loaders survive lines their rule refuses (a queue transition with a
  bad ``time``, a cache key that cannot be hashed) instead of crashing;
* a property test over a grammar of cache and sink lines -- good,
  superseded, from another version, a stamp of the wrong type, an
  unhashable key, not JSON, blank, a torn tail -- shows that after a
  warehouse sync the loaders and the warehouse serve the same records,
  every refused line is counted as skipped, and parity holds;
* every crash point of every client: the last batch of each journal is
  truncated at every byte, and loading, folding and appending again behave
  as if only the torn line had never been written.
"""

import json
import os
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign import CACHE_SCHEMA_VERSION, JobResult, JobSpec, ResultCache
from repro.campaign.cache import CACHE_FILE_NAME
from repro.campaign.spec import simulator_version
from repro.scenarios import ResultSink, SinkRecord
from repro.service import JobQueue, validate_request
from repro.sim.config import ArchConfig
from repro.telemetry import Recorder, flush, iter_telemetry_records
from repro.warehouse import (
    KIND_CACHE,
    KIND_SINK,
    open_store,
    parity_check,
    sync,
)

from tests.test_warehouse import cache_record, result_dict, sink_line

CONFIG = ArchConfig.from_name("2c2w4t")
REQUEST = {"problems": ["vecadd"], "configs": ["2c2w4t"], "scale": "smoke"}


def line(record) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# Lines a loader used to crash on
# ----------------------------------------------------------------------
class TestRefusedLines:
    @pytest.mark.parametrize("state, stamp", [("running", None),
                                              ("pending", "soon")])
    def test_queue_skips_a_transition_with_a_bad_time(self, tmp_path, state,
                                                      stamp):
        path = tmp_path / "jobs.jsonl"
        job = JobQueue(path).submit(validate_request(REQUEST))
        bad = {"queue_schema": 1, "job": job.id if state == "running" else "j2",
               "state": state, "time": stamp, "request": REQUEST}
        with path.open("a") as journal:
            journal.write(line(bad))
        queue = JobQueue(path)
        assert [j.id for j in queue.jobs()] == [job.id]
        assert queue.get(job.id).state == "pending"
        assert queue.recovered == 0          # the running line did not count

    @pytest.mark.parametrize("field, value", [("hash", ["x"]),
                                              ("simulator", {"v": 1})])
    def test_cache_counts_an_unhashable_key_as_corrupt(self, tmp_path, field,
                                                       value):
        job = JobSpec(problem="vecadd", config=CONFIG, scale="smoke")
        result = JobResult.from_dict(result_dict(job_hash=job.content_hash()))
        cache = ResultCache(tmp_path)
        cache.put(job, result)
        good = cache.journal_path.read_text()
        bad = {"hash": "x", "schema": 1, "simulator": "s", "result": {}}
        bad[field] = value
        with cache.journal_path.open("a") as journal:
            journal.write(line(bad) + good)          # corrupt + superseded
        reloaded = ResultCache(tmp_path)
        assert reloaded.get_many([job]) == [result.as_cached()]
        stats = reloaded.stats()
        assert stats.compacted_lines == 2
        assert stats.journal_lines == 1
        assert cache.journal_path.read_text() == good   # compaction dropped it


# ----------------------------------------------------------------------
# The loaders and the warehouse agree on every line
# ----------------------------------------------------------------------
GOOD, SUPERSEDED, OTHER_VERSION, WRONG_TYPE, UNHASHABLE, NOT_JSON, BLANK = (
    "good", "superseded", "other-version", "wrong-type", "unhashable",
    "not-json", "blank")
WRONG_TYPES = [("schema", str(CACHE_SCHEMA_VERSION)), ("schema", True),
               ("schema", float(CACHE_SCHEMA_VERSION)), ("simulator", 1),
               ("simulator", None), ("key", 7)]
UNHASHABLES = [("key", ["x"]), ("simulator", {"v": 1}), ("schema", [1])]

journal_lines = st.lists(st.tuples(
    st.sampled_from((GOOD, SUPERSEDED, OTHER_VERSION, WRONG_TYPE, UNHASHABLE,
                     NOT_JSON, BLANK)),
    st.integers(0, 5)), max_size=10)


def build_journal(path, kind, lines, torn):
    """Write one cache or sink journal from the grammar; returns the number
    of complete lines the read rule must refuse."""
    key_field = "hash" if kind == KIND_CACHE else "key"
    keys = []

    def record(key, cycles):
        if kind == KIND_CACHE:
            return cache_record(key, cycles=cycles)
        return sink_line(key, f"h-{key}", cycles=cycles)

    text, refused = "", 0
    for index, (line_kind, pick) in enumerate(lines):
        cycles = 100 + index
        if line_kind in (GOOD, SUPERSEDED, OTHER_VERSION):
            if line_kind == SUPERSEDED and keys:
                key = keys[pick % len(keys)]
            else:
                key = f"k{index}"
                keys.append(key)
            data = record(key, cycles)
            if line_kind == OTHER_VERSION:
                data["simulator"] = "0.0.0-old"
            text += line(data)
            continue
        refused += 1
        if line_kind == NOT_JSON:
            text += '{"hash": "k0", not json\n'
        elif line_kind == BLANK:
            text += "\n"
        else:
            # Same key as a served record: a refused line must not shadow it.
            data = record(keys[pick % len(keys)] if keys else "k0", cycles)
            field, value = (WRONG_TYPES[pick % len(WRONG_TYPES)]
                            if line_kind == WRONG_TYPE
                            else UNHASHABLES[pick % len(UNHASHABLES)])
            data[key_field if field == "key" else field] = value
            text += line(data)
    if torn:
        whole = line(record("torn", 1))
        text += whole[:max(1, len(whole) * torn // 8)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return refused


@settings(max_examples=60)
@given(cache_lines=journal_lines, sink_lines=journal_lines,
       torn=st.integers(0, 7))
@example(cache_lines=[], sink_lines=[(GOOD, 0), (WRONG_TYPE, 0)], torn=0)
def test_loaders_and_warehouse_agree_on_every_line(cache_lines, sink_lines,
                                                   torn):
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        cache_path = root / "cache" / CACHE_FILE_NAME
        sink_path = root / "sinks" / "tiny-smoke.jsonl"
        refused = {
            KIND_CACHE: build_journal(cache_path, KIND_CACHE, cache_lines, torn),
            KIND_SINK: build_journal(sink_path, KIND_SINK, sink_lines, torn),
        }
        journals = [(cache_path, KIND_CACHE), (sink_path, KIND_SINK)]
        with open_store(root / "wh.sqlite") as store:
            report = sync(store, journals=journals)
            assert parity_check(store, journals=journals) == []
            assert {j.kind: j.skipped for j in report.journals} == refused
            stamps = (simulator_version(), CACHE_SCHEMA_VERSION)
            sink_rows = store.query(
                "SELECT key, raw FROM scenario_runs WHERE simulator = ? "
                "AND schema_version = ?", stamps).rows
            rows = store.query(
                "SELECT hash, raw FROM jobs WHERE simulator = ? "
                "AND schema_version = ?", stamps).rows
        assert ResultSink(sink_path).load() == {
            key: SinkRecord.from_dict(json.loads(raw)) for key, raw in sink_rows}
        served = {job_hash: JobResult.from_dict(json.loads(raw)["result"])
                  for job_hash, raw in rows}
        cache = ResultCache(cache_path.parent)
        assert len(cache) == len(served)
        assert cache.get_many([hashed(job_hash) for job_hash in served]) == [
            result.as_cached() for result in served.values()]


def hashed(job_hash):
    """A stand-in spec for a journal key that no real spec hashes to."""
    return types.SimpleNamespace(content_hash=lambda: job_hash)


# ----------------------------------------------------------------------
# A cache-served sink line is written from the cache line's result text
# ----------------------------------------------------------------------
META = {"scenario": "tiny", "strategy": "ours", "engine": None, "seed": 0}


def served_sink_line(tmp_path, monkeypatch, cache_line=None, **overrides):
    """Write one cache line (``put``, or ``cache_line(record)`` by hand),
    serve it from a fresh cache and append its sink line.  Returns the
    record, the sink file's text and whether the append serialised the
    result again instead of using the cache line's text."""
    job = cache_spec(4)
    result = JobResult.from_dict(result_dict(job_hash=job.content_hash(),
                                             **overrides))
    if cache_line is None:
        ResultCache(tmp_path / "cache").put(job, result)
    else:
        record = {"hash": job.content_hash(), "schema": CACHE_SCHEMA_VERSION,
                  "simulator": simulator_version(), "spec": job.to_dict(),
                  "result": result.to_dict()}
        (tmp_path / "cache").mkdir()
        (tmp_path / "cache" / CACHE_FILE_NAME).write_text(cache_line(record) + "\n")
    [served] = ResultCache(tmp_path / "cache").get_many([job])
    assert served == result.as_cached()
    sink_record = SinkRecord.of(job.content_hash(), "tiny", job, served, META)
    calls = []
    with monkeypatch.context() as patch:
        to_dict = JobResult.to_dict
        patch.setattr(JobResult, "to_dict",
                      lambda self: calls.append(self) or to_dict(self))
        ResultSink(tmp_path / "sink.jsonl").append(sink_record)
    return sink_record, (tmp_path / "sink.jsonl").read_text(), bool(calls)


class TestCacheServedSinkLine:
    @pytest.mark.parametrize("cache_line, reserialised", [
        (None, False),
        (lambda record: json.dumps(record, separators=(",", ":")), True),
        (lambda record: json.dumps(dict(reversed(record.items()))), True),
    ], ids=["canonical", "compact", "unsorted"])
    def test_the_sink_line_is_the_records_canonical_json(
            self, tmp_path, monkeypatch, cache_line, reserialised):
        record, written, again = served_sink_line(tmp_path, monkeypatch,
                                                  cache_line)
        assert written == json.dumps(record.to_dict(), sort_keys=True) + "\n"
        assert again == reserialised

    def test_a_counter_named_schema_takes_the_fallback(self, tmp_path,
                                                       monkeypatch):
        counters = {"cycles": 100.0, "schema": 2.0, "zeta": 1.0}
        record, written, again = served_sink_line(tmp_path, monkeypatch,
                                                  counters=counters)
        assert again
        assert written.count(', "schema": ') == 2
        assert written == json.dumps(record.to_dict(), sort_keys=True) + "\n"
        loaded = ResultSink(tmp_path / "sink.jsonl").load()[record.key]
        assert loaded.to_dict() == record.to_dict()


# ----------------------------------------------------------------------
# Every crash point of every client
# ----------------------------------------------------------------------
CACHE_LWS = (1, 2, 4, 8, 16)


def cache_spec(lws):
    return JobSpec(problem="vecadd", config=CONFIG, scale="smoke", local_size=lws)


def cache_entry(lws):
    job = cache_spec(lws)
    return job, JobResult.from_dict(result_dict(job_hash=job.content_hash(),
                                                lws=lws, cycles=100 + lws))


def sink_record(index):
    result = JobResult.from_dict(result_dict(job_hash=f"h{index}",
                                             cycles=100 + index))
    return SinkRecord(key=f"k{index}", job_hash=f"h{index}", scenario="tiny",
                      result=result, meta={"strategy": "ours"})


def telemetry_flush(path, run, *names):
    recorder = Recorder(enabled=True)
    for name in names:
        recorder.count(name)
        recorder.observe(name, 0.5)
    flush(recorder, path=path, run=run)


class CacheClient:
    file_name = CACHE_FILE_NAME

    def write(self, path):
        cache = ResultCache(path.parent)
        for lws in (1, 2, 4):
            cache.put(*cache_entry(lws))
        yield
        cache.put(*cache_entry(8))          # a cache batch is one record

    def load(self, path):
        cache = ResultCache(path.parent)
        return len(cache), cache.get_many([cache_spec(lws) for lws in CACHE_LWS])

    def append(self, path):
        ResultCache(path.parent).put(*cache_entry(16))


class SinkClient:
    file_name = "tiny-smoke.jsonl"

    def write(self, path):
        sink = ResultSink(path)
        sink.append(sink_record(0))
        yield
        sink.append([sink_record(i) for i in (1, 2, 3)])

    def load(self, path):
        return ResultSink(path).load()

    def append(self, path):
        ResultSink(path).append(sink_record(4))


class QueueClient:
    file_name = "jobs.jsonl"

    def write(self, path):
        queue = JobQueue(path)
        self.first = queue.submit(validate_request(REQUEST), client="a").id
        yield
        queue.claim()
        queue.finish(self.first, {"cycles": 7})
        queue.submit(validate_request(REQUEST), client="b")

    def load(self, path):
        queue = JobQueue(path)
        return ([job.to_dict() for job in queue.jobs()], queue.pending_count(),
                queue.recovered)

    def append(self, path):
        JobQueue(path).fail(self.first, "boom")


class TelemetryClient:
    file_name = "telemetry.jsonl"

    def write(self, path):
        telemetry_flush(path, "r0", "first")
        yield
        recorder = Recorder(enabled=True)
        with recorder.span("campaign.run", jobs=2):
            recorder.count("second")
        flush(recorder, path=path, run="r1")

    def load(self, path):
        return list(iter_telemetry_records(path))

    def append(self, path):
        telemetry_flush(path, "r2", "late")


@pytest.mark.parametrize("client", [CacheClient(), SinkClient(),
                                    QueueClient(), TelemetryClient()],
                         ids=["cache", "sink", "queue", "telemetry"])
def test_every_crash_point_loses_at_most_the_torn_line(client, tmp_path,
                                                       monkeypatch):
    # Truncation stands in for the crash, so real fsyncs would only add wall
    # time; the queue's clock is frozen so that appends are reproducible.
    monkeypatch.setattr(os, "fsync", lambda fd: None)
    monkeypatch.setattr("repro.service.queue.time",
                        types.SimpleNamespace(time=lambda: 1000.0))
    path = tmp_path / "full" / client.file_name
    writing = client.write(path)
    next(writing)
    before = path.stat().st_size
    next(writing, None)
    data = path.read_bytes()

    # The uninterrupted folds of every whole-record prefix, before and after
    # one more append.
    ends = [before] + [before + i + 1 for i, byte in enumerate(data[before:])
                       if byte == ord("\n")]
    folds, appended = [], []
    for count, end in enumerate(ends):
        prefix = tmp_path / f"prefix{count}" / client.file_name
        prefix.parent.mkdir()
        prefix.write_bytes(data[:end])
        folds.append(client.load(prefix))
        client.append(prefix)
        appended.append(client.load(prefix))

    victim = tmp_path / "victim" / client.file_name
    victim.parent.mkdir()
    for size in range(before, len(data) + 1):
        victim.write_bytes(data[:size])
        # A record missing only its newline is whole.
        whole = data[before:size + 1].count(b"\n")
        assert client.load(victim) == folds[whole], size
        client.append(victim)
        assert client.load(victim) == appended[whole], size
