"""Tests for the one JSONL journal (repro.campaign.journal.Journal).

Covers the append path (a batch is one write and at most one fsync, tail
repair once per journal and again after ``reset``) and pins its four
clients: cache, queue, telemetry and sink journals keep the exact bytes --
canonical ``sort_keys`` JSON, one object per line -- and the fsync policy
they had when each hand-wrote its own append.
"""

import copy
import json
import re
from pathlib import Path

import repro
from repro.campaign import CACHE_SCHEMA_VERSION, JobSpec, ResultCache, execute_job
from repro.campaign.journal import Journal
from repro.campaign.spec import simulator_version
from repro.service import JobQueue, validate_request
from repro.sim.config import ArchConfig
from repro.telemetry import Recorder, flush
from repro.telemetry.journal import payload_records


def canonical(records) -> str:
    """The bytes every journal has always held for ``records``."""
    return "".join(json.dumps(record, sort_keys=True) + "\n" for record in records)


def every_line(record, end, text):
    """A read rule accepting every JSON object, keyed by its line's end."""
    return end, record


def records_of(journal):
    return [record for record, _, _ in journal.read()]


class TestJournalWriter:
    def test_a_batch_is_one_append_and_one_fsync(self, tmp_path, fsynced):
        path = tmp_path / "deep" / "er" / "journal.jsonl"     # parents created
        writer = Journal(path, every_line, fsync=True)
        batch = [{"b": 2, "a": 1}, {"n": [1, 2]}, {"s": "x"}]
        first = writer.append(batch)
        assert first.fsync_seconds >= 0.0
        assert first.written == len(canonical(batch))
        single = writer.append(batch[:1])                     # a batch of one
        assert single.fsync_seconds >= 0.0
        assert single.written == len(canonical(batch[:1]))
        assert path.read_text() == canonical(batch + batch[:1])
        assert path.stat().st_size == first.written + single.written
        assert fsynced == [path.stat().st_ino] * 2

    def test_no_fsync_policy_never_syncs(self, tmp_path, fsynced):
        writer = Journal(tmp_path / "journal.jsonl", every_line)
        assert writer.append([{"a": 1}, {"a": 2}]).fsync_seconds == 0.0
        assert fsynced == []
        assert writer.path.read_text() == canonical([{"a": 1}, {"a": 2}])

    def test_tail_is_repaired_once_and_again_after_rearm(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_text('{"torn": ')                          # a killed writer
        writer = Journal(path, every_line)
        writer.append([{"a": 1}])
        assert records_of(writer) == [None, {"a": 1}]
        # the client reset the journal; someone else left a torn tail
        writer.reset()
        path.write_text('{"torn": ')
        writer.append([{"a": 2}, {"a": 3}])
        assert records_of(writer) == [None, {"a": 2}, {"a": 3}]

    def test_fsync_lives_in_the_writer_only(self):
        package = Path(repro.__file__).parent
        callers = sorted(str(source.relative_to(package))
                         for source in package.rglob("*.py")
                         if re.search(r"\bfsync\(", source.read_text()))
        assert callers == ["campaign/journal.py"]


class TestClientsKeepTheirBytes:
    def test_cache_journal_bytes_and_no_fsync(self, tmp_path, fsynced):
        cache = ResultCache(tmp_path)
        config = ArchConfig.from_name("2c2w4t")
        expected = []
        for lws in (2, 4):
            spec = JobSpec(problem="vecadd", config=config, scale="smoke",
                           local_size=lws)
            result = execute_job(spec)
            cache.put(spec, result)
            expected.append({"hash": spec.content_hash(),
                             "schema": CACHE_SCHEMA_VERSION,
                             "simulator": simulator_version(),
                             "spec": spec.to_dict(),
                             "result": result.to_dict()})
        assert cache.journal_path.read_text() == canonical(expected)
        assert fsynced == []

    def test_queue_journal_bytes_and_one_fsync_per_transition(self, tmp_path,
                                                              fsynced):
        queue = JobQueue(tmp_path / "jobs.jsonl")
        request = validate_request({"problems": ["vecadd"],
                                    "configs": ["2c2w4t"], "scale": "smoke"})
        job = queue.submit(request, client="alice")
        queue.claim()
        queue.finish(job.id, {"cycles": 7})
        text = queue.path.read_text()
        records = [json.loads(line) for line in text.splitlines()]
        assert text == canonical(records)
        assert [(r["job"], r["state"]) for r in records] == \
               [(job.id, "pending"), (job.id, "running"), (job.id, "done")]
        assert records[0]["request"] == request.to_dict()
        assert records[2]["result"] == {"cycles": 7}
        assert fsynced == [queue.path.stat().st_ino] * 3

    def test_telemetry_journal_bytes_and_one_fsync_per_flush(self, tmp_path,
                                                             fsynced):
        recorder = Recorder(enabled=True)
        with recorder.span("campaign.run", jobs=2):
            recorder.count("jobs", 2)
            recorder.observe("wait", 0.5)
        expected = payload_records(copy.deepcopy(recorder.snapshot()), "r1")
        path = tmp_path / "telemetry" / "telemetry.jsonl"
        assert flush(recorder, path=path, run="r1") == len(expected) == 3
        assert path.read_text() == canonical(expected)
        assert fsynced == [path.stat().st_ino]
