"""Distributed campaigns: executor conformance, fleet fault tolerance,
the runner as the fleet's one cache client, and the wire protocol.

The conformance suite runs the *same* assertions against every executor --
in-process, a forked local fleet, and a distributed fleet over loopback TCP
-- to pin the protocol's contract: one completion per task, submission-order
folding and dedup when driven through the runner, failure isolation, and
results bit-identical to the serial in-process path (modulo
``elapsed_seconds``, which is wall-clock and differs between *any* two
runs; true bit-identity including wall-clock fields is proven through the
shared cache, exactly like the service layer's bit-for-bit test).

The fleet tests use ``run_worker(..., max_tasks=N)`` -- a worker that
silently drops its socket after N jobs, indistinguishable from SIGKILL on
the coordinator side -- to prove the re-queue/retry path loses nothing and
duplicates nothing.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import subprocess
import threading
import time

import pytest

from repro.campaign import (
    Campaign,
    CampaignRunner,
    JobFailure,
    JobResult,
    JobSpec,
    LocalExecutor,
    ResultCache,
)
from repro.campaign.dist import (
    Connection,
    DistributedExecutor,
    ProtocolError,
    parse_address,
    run_worker,
)
from repro.campaign.cache import CACHE_FILE_NAME, read_cache_line
from repro.campaign.executor import ExecutorCompletion, ExecutorTask
from repro.campaign.journal import Journal
from repro.campaign.worker import execute_job
from repro.sim.config import ArchConfig
from repro.sim.engine import ENGINE_ENV, EngineError
from repro.sim.gpu import Gpu

CONFIG = ArchConfig.from_name("2c2w4t")


def spec(seed: int = 0, lws: int = 4, problem: str = "vecadd",
         **overrides) -> JobSpec:
    return JobSpec(problem=problem, scale="smoke", seed=seed, config=CONFIG,
                   local_size=lws, **overrides)


def stripped(outcome) -> dict:
    """``to_dict()`` minus the one nondeterministic (wall-clock) field."""
    payload = outcome.to_dict()
    payload.pop("elapsed_seconds", None)
    return payload


def engine_spy(monkeypatch, barrier=None) -> dict:
    """Record, per thread, the engine of every ``Gpu`` built from now on.

    With a ``barrier``, every thread waits on it before and after building,
    so all the builds run while no thread can have moved on.
    """
    original = Gpu.__init__
    engines: dict = {}

    def spying(gpu, *args, **kwargs):
        if barrier is not None:
            barrier.wait()
        original(gpu, *args, **kwargs)
        if barrier is not None:
            barrier.wait()
        engines.setdefault(threading.get_ident(), []).append(gpu.engine)

    monkeypatch.setattr(Gpu, "__init__", spying)
    return engines


def fleet_pids() -> list:
    """Pids of this process's live local fleet workers."""
    return sorted(child.pid for child in multiprocessing.active_children()
                  if child.name == "repro-fleet-worker")


def make_fleet(workers: int = 2, worker_args=None,
               **overrides) -> DistributedExecutor:
    """A coordinator plus ``workers`` loopback worker threads, ready to go."""
    options = dict(heartbeat_interval=0.2, heartbeat_timeout=3.0,
                   worker_wait=20.0)
    options.update(overrides)
    executor = DistributedExecutor(**options)
    worker_args = worker_args if worker_args is not None else [{}] * workers
    for kwargs in worker_args:
        threading.Thread(target=run_worker, args=(executor.address,),
                         kwargs=kwargs, daemon=True).start()
    executor.wait_for_workers(len(worker_args), timeout=20.0)
    return executor


# ----------------------------------------------------------------------
# executor-protocol conformance: every executor, same contract
# ----------------------------------------------------------------------
@pytest.fixture(params=["local-serial", "local-pool", "dist"])
def any_executor(request):
    if request.param == "local-serial":
        executor = LocalExecutor(workers=1)
    elif request.param == "local-pool":
        executor = LocalExecutor(workers=2)
    else:
        executor = make_fleet(workers=2)
    yield executor
    executor.close()


class TestExecutorConformance:
    def test_one_completion_per_task(self, any_executor):
        tasks = [ExecutorTask(index=i, spec=spec(seed=i)) for i in range(5)]
        completions = list(any_executor.execute(tasks))
        assert sorted(c.index for c in completions) == list(range(5))
        reference = {i: execute_job(spec(seed=i)) for i in range(5)}
        for completion in completions:
            assert isinstance(completion.outcome, JobResult)
            assert (stripped(completion.outcome)
                    == stripped(reference[completion.index]))

    def test_runner_submission_order_and_dedup(self, any_executor):
        specs = [spec(seed=0), spec(seed=1), spec(seed=0), spec(seed=2),
                 spec(seed=1)]
        runner = CampaignRunner(executor=any_executor)
        outcome = runner.run(Campaign("conformance", specs=list(specs)))
        assert outcome.stats.total == 5
        assert outcome.stats.executed == 3
        assert outcome.stats.deduplicated == 2
        assert outcome.stats.failed == 0
        # submission-order folding: slot i answers spec i, and duplicate
        # submissions receive the *same* outcome object's payload
        serial = CampaignRunner().run(Campaign("serial", specs=list(specs)))
        for ours, reference in zip(outcome.results, serial.results):
            assert stripped(ours) == stripped(reference)
        assert outcome.results[0].to_dict() == outcome.results[2].to_dict()

    def test_traced_jobs_return_their_events(self, any_executor):
        # A fleet worker sends a traced job's events beside its result; the
        # figure1 timelines are rendered from them.
        traced = [spec(seed=i, collect_trace=True) for i in range(2)]
        completions = list(any_executor.execute(
            [ExecutorTask(index=i, spec=job) for i, job in enumerate(traced)]))
        for completion in completions:
            reference = execute_job(traced[completion.index])
            assert reference.events
            assert completion.outcome.events == reference.events

    def test_failures_are_isolated(self, any_executor):
        specs = [spec(seed=0), spec(problem="no_such_kernel"), spec(seed=1)]
        outcome = CampaignRunner(executor=any_executor).run(
            Campaign("isolation", specs=specs))
        assert outcome.stats.failed == 1
        assert isinstance(outcome.results[0], JobResult)
        assert isinstance(outcome.results[1], JobFailure)
        assert "no_such_kernel" in outcome.results[1].error
        assert isinstance(outcome.results[2], JobResult)


# ----------------------------------------------------------------------
# fleet fault tolerance: kill a worker mid-campaign, lose nothing
# ----------------------------------------------------------------------
class TestFleetFaultTolerance:
    def test_killed_worker_mid_campaign_loses_nothing(self):
        # Worker 0 silently drops its socket after 2 jobs (a SIGKILL, as the
        # coordinator sees it); worker 1 must absorb the re-queued work and
        # the campaign must complete with zero lost or duplicated results.
        executor = make_fleet(worker_args=[{"max_tasks": 2}, {}],
                              max_retries=2)
        try:
            specs = [spec(seed=seed) for seed in range(10)]
            outcome = CampaignRunner(executor=executor).run(
                Campaign("chaos", specs=list(specs)))
            assert outcome.stats.total == 10
            assert outcome.stats.failed == 0
            assert len(outcome.results) == 10
            serial = CampaignRunner().run(Campaign("serial", specs=list(specs)))
            for ours, reference in zip(outcome.results, serial.results):
                assert stripped(ours) == stripped(reference)
        finally:
            executor.close()

    def test_retries_exhausted_carry_host_and_heartbeat(self):
        # A fleet whose only worker dies before finishing anything: the
        # tasks it held fail with the dead worker's identity; the tasks
        # still queued fail once the fleet has been empty for worker_wait.
        executor = make_fleet(worker_args=[{"max_tasks": 0}],
                              max_retries=0, worker_wait=1.0)
        try:
            outcome = CampaignRunner(executor=executor).run(
                Campaign("doomed", specs=[spec(seed=s) for s in range(4)]))
            assert outcome.stats.failed == 4
            died_holding = [f for f in outcome.results if f.host]
            assert died_holding, "some failure must name the dead worker"
            for failure in died_holding:
                assert isinstance(failure, JobFailure)
                assert "/pid" in failure.host
                assert failure.last_heartbeat is not None
                assert failure.last_heartbeat <= time.time()
        finally:
            executor.close()

    def test_fleet_arriving_late_still_serves(self):
        # Workers may join after execute() started: tasks wait (up to
        # worker_wait) instead of failing fast.
        executor = DistributedExecutor(heartbeat_interval=0.2,
                                       worker_wait=20.0)
        try:
            def late_worker():
                time.sleep(0.6)
                run_worker(executor.address)
            threading.Thread(target=late_worker, daemon=True).start()
            outcome = CampaignRunner(executor=executor).run(
                Campaign("late", specs=[spec(seed=0)]))
            assert outcome.stats.failed == 0
        finally:
            executor.close()


# ----------------------------------------------------------------------
# worker death on a local fleet: retried, then failed with context, then
# a fresh fleet
# ----------------------------------------------------------------------
def _die_once(marker):
    """An ``execute_job`` that kills the first worker to run it."""
    def run(job_spec, engine=None):  # pragma: no cover - runs in a fleet worker
        try:
            os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            return execute_job(job_spec, engine=engine)
        os._exit(13)
    return run


def _kill_on_seed_0(job_spec, engine=None):  # pragma: no cover - in a worker
    if job_spec.seed == 0:
        os._exit(13)
    return execute_job(job_spec, engine=engine)


class TestWorkerDeathParity:
    def test_a_killed_workers_task_is_retried(self, monkeypatch, tmp_path):
        import repro.campaign.dist.worker as worker_module

        monkeypatch.setattr(worker_module, "execute_job",
                            _die_once(tmp_path / "died"))
        executor = LocalExecutor(workers=2)
        try:
            tasks = [ExecutorTask(index=i, spec=spec(seed=i)) for i in range(2)]
            completions = list(executor.execute(tasks))
            assert (tmp_path / "died").exists(), "no worker was killed"
            assert sorted(c.index for c in completions) == [0, 1]
            for completion in completions:
                assert (stripped(completion.outcome)
                        == stripped(execute_job(tasks[completion.index].spec)))
        finally:
            executor.close()

    def test_broken_pool_failures_carry_host_and_heartbeat(self, monkeypatch):
        # The seed-0 task kills every worker that takes it.  Nobody else can
        # join a local fleet, so it fails as soon as the last worker is
        # lost -- not after worker_wait -- naming that worker.
        import repro.campaign.dist.worker as worker_module

        monkeypatch.setattr(worker_module, "execute_job", _kill_on_seed_0)
        executor = LocalExecutor(workers=2)
        try:
            started = time.monotonic()
            completions = list(executor.execute(
                [ExecutorTask(index=i, spec=spec(seed=i)) for i in range(2)]))
            assert time.monotonic() - started < 10.0
            assert len(completions) == 2
            outcomes = {c.index: c.outcome for c in completions}
            assert isinstance(outcomes[0], JobFailure)
            assert "every local worker is lost" in outcomes[0].error
            for failure in outcomes.values():
                if isinstance(failure, JobFailure):
                    assert "/pid" in failure.host, "say where it ran"
                    assert failure.last_heartbeat is not None
                    assert failure.last_heartbeat <= time.time()
        finally:
            executor.close()

    def test_broken_pool_is_replaced_on_the_next_call(self, monkeypatch):
        import repro.campaign.dist.worker as worker_module

        before = set(fleet_pids())
        executor = LocalExecutor(workers=2)
        try:
            monkeypatch.setattr(worker_module, "execute_job", _kill_on_seed_0)
            broken = list(executor.execute(
                [ExecutorTask(index=i, spec=spec(seed=0)) for i in range(2)]))
            assert all(isinstance(c.outcome, JobFailure) for c in broken)
            assert set(fleet_pids()) - before == set()
            monkeypatch.undo()
            healed = list(executor.execute(
                [ExecutorTask(index=i, spec=spec(seed=i)) for i in range(2)]))
            assert all(isinstance(c.outcome, JobResult) for c in healed)
            assert len(set(fleet_pids()) - before) == 2
        finally:
            executor.close()


# ----------------------------------------------------------------------
# teardown signals its threads; it does not sit out their join timeouts
# ----------------------------------------------------------------------
class TestTeardown:
    def test_executor_close_is_prompt_and_leaves_nothing_running(self):
        before = set(threading.enumerate())
        executor = DistributedExecutor()
        processes = executor.spawn_local_workers(2)
        executor.wait_for_workers(2, timeout=30.0)
        started = time.monotonic()
        executor.close()
        assert time.monotonic() - started < 1.0
        assert [process.poll() for process in processes] == [0, 0]
        started_here = [thread for thread in threading.enumerate()
                        if thread not in before]
        for thread in started_here:     # per-connection readers exit on their own
            thread.join(timeout=1.0)
        assert [thread.name for thread in started_here
                if thread.is_alive()] == []

    def test_close_right_after_spawn_is_prompt(self):
        # Attached workers never dial, so closing before they have said a
        # word neither waits on them nor kills them.
        executor = DistributedExecutor()
        processes = executor.spawn_local_workers(2)
        started = time.monotonic()
        executor.close()
        assert time.monotonic() - started < 1.0
        assert [process.poll() for process in processes] == [0, 0]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="lists listening sockets through /proc")
    def test_local_pool_listens_nowhere_and_leaves_no_worker(self):
        before = set(fleet_pids())
        listening = socket_inodes(os.getpid()) & listening_inodes()
        executor = LocalExecutor(workers=2)
        try:
            list(executor.execute(
                [ExecutorTask(index=i, spec=spec(seed=i)) for i in range(2)]))
            workers = set(fleet_pids()) - before
            assert len(workers) == 2
            assert socket_inodes(os.getpid()) & listening_inodes() <= listening
            for pid in workers:
                assert not socket_inodes(pid) & listening_inodes()
        finally:
            executor.close()
        assert not set(fleet_pids()) & workers


# ----------------------------------------------------------------------
# the local fleet is forked from the coordinator's process
# ----------------------------------------------------------------------
def dist_threads() -> list:
    return sorted(thread.name for thread in threading.enumerate()
                  if thread.name in ("dist-accept", "dist-dispatch",
                                     "dist-monitor"))


def fd_targets(pid: int) -> set:
    """What process ``pid``'s open descriptors point at (Linux /proc)."""
    targets = set()
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            targets.add(os.readlink(f"/proc/{pid}/fd/{fd}"))
        except OSError:
            continue                      # closed while listing
    return targets


def socket_inodes(pid: int) -> set:
    """Inodes of the sockets process ``pid`` holds open (Linux /proc)."""
    return {int(target[len("socket:["):-1]) for target in fd_targets(pid)
            if target.startswith("socket:[")}


def eventually(predicate, timeout: float = 30.0) -> bool:
    """Poll ``predicate`` until it holds or ``timeout`` passes."""
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.02)
    return predicate()


def listening_inodes() -> set:
    """Inodes of every listening TCP socket in this network namespace."""
    inodes = set()
    for table in ("/proc/net/tcp", "/proc/net/tcp6"):
        try:
            with open(table) as rows:
                next(rows)                # the header
                for row in rows:
                    fields = row.split()
                    if fields[3] == "0A":   # TCP_LISTEN
                        inodes.add(int(fields[9]))
        except OSError:
            continue                      # no IPv6 table
    return inodes


class TestForkedFleet:
    def test_threads_start_on_first_use(self):
        executor = DistributedExecutor()
        try:
            assert dist_threads() == []
            executor.spawn_local_workers(1)
            assert dist_threads() == []   # the fork saw no coordinator thread
            executor.wait_for_workers(1, timeout=30.0)
            assert dist_threads() == ["dist-accept", "dist-dispatch",
                                      "dist-monitor"]
        finally:
            executor.close()

    def test_close_before_first_use_joins_nothing(self):
        executor = DistributedExecutor()
        executor.close()      # Thread.join raises on a thread never started
        assert dist_threads() == []
        with pytest.raises(RuntimeError, match="closed"):
            list(executor.execute([]))
        assert dist_threads() == []

    def test_worker_writes_nothing_to_fd1_and_keeps_stderr(self, capfd,
                                                           monkeypatch):
        import repro.campaign.dist.coordinator as coordinator

        def noisy_worker(address):        # runs in the forked child
            os.write(1, b"worker-stdout\n")
            os.write(2, b"worker-stderr\n")
            return run_worker(address)

        monkeypatch.setattr(coordinator, "run_worker", noisy_worker)
        print("parent-buffered", end="")  # flushed once, before the fork
        executor = DistributedExecutor()
        processes = executor.spawn_local_workers(2)
        try:
            executor.wait_for_workers(2, timeout=30.0)
        finally:
            executor.close()
        assert [process.poll() for process in processes] == [0, 0]
        captured = capfd.readouterr()
        assert captured.out == "parent-buffered"
        assert captured.err.count("worker-stderr") == 2

    def test_a_raising_worker_exits_1(self, monkeypatch):
        import repro.campaign.dist.coordinator as coordinator

        def broken_worker(address):
            raise RuntimeError("worker blew up")

        monkeypatch.setattr(coordinator, "run_worker", broken_worker)
        executor = DistributedExecutor()
        try:
            (process,) = executor.spawn_local_workers(1)
            assert process.wait(timeout=30.0) == 1
        finally:
            executor.close()

    def test_wait_times_out_like_popen_and_kill_ends_the_worker(self):
        executor = DistributedExecutor()
        try:
            (process,) = executor.spawn_local_workers(1)
            with pytest.raises(subprocess.TimeoutExpired):
                process.wait(timeout=0.05)  # parked: no welcome before use
            assert process.poll() is None
            process.kill()
            assert process.wait(timeout=30.0) == -signal.SIGKILL
        finally:
            executor.close()

    def test_address_is_refused_after_close(self):
        executor = DistributedExecutor()
        executor.spawn_local_workers(2)
        executor.wait_for_workers(2, timeout=30.0)
        address = executor.address
        executor.close()
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5.0).close()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                        reason="lists a child's open sockets through /proc")
    def test_children_hold_no_coordinator_socket(self, tmp_path):
        # Besides the coordinator's own sockets, the parent holds one more
        # socket and one open file while it spawns -- an HTTP listener and a
        # queue journal, say -- and no child keeps any of them.
        executor = DistributedExecutor()
        journal = tmp_path / "jobs.jsonl"
        with socket.socket() as extra, open(journal, "w") as held:
            try:
                first = executor.spawn_local_workers(1)
                executor.wait_for_workers(1, timeout=30.0)
                # A later spawn forks while a worker's connection is served.
                second = executor.spawn_local_workers(1)
                executor.wait_for_workers(2, timeout=30.0)
                parent = {os.fstat(sock.fileno()).st_ino for sock in
                          [executor._listener, extra,
                           *(worker.connection.sock
                             for worker in executor._workers.values())]}
                assert len(parent) == 4   # listener, extra, two connections
                assert parent <= socket_inodes(os.getpid())
                assert str(journal) in fd_targets(os.getpid())
                assert not held.closed
                # An attached worker counts before its child has run a line:
                # give each one time to close what it inherited.
                for process in first + second:
                    assert eventually(
                        lambda: not socket_inodes(process.pid) & parent)
                    assert str(journal) not in fd_targets(process.pid)
            finally:
                executor.close()
        assert [process.poll() for process in first + second] == [0, 0]


class TestSharedCacheAcrossTheFleet:
    def test_fleet_results_are_cache_served_bit_identically(self, tmp_path):
        # The service-layer bit-for-bit pattern, distributed: a fleet run
        # seeds the shared cache; a *local* runner over the same cache must
        # be served the identical records -- wall-clock fields included --
        # and the journal's last-wins view must hold exactly one record per
        # point, whichever worker computed it.
        cache = ResultCache(tmp_path / "cache")
        executor = make_fleet(workers=2)
        specs = [spec(seed=s) for s in range(6)]
        try:
            fleet = CampaignRunner(cache=cache, executor=executor).run(
                Campaign("fleet", specs=list(specs)))
            assert fleet.stats.failed == 0
            assert fleet.stats.executed == 6
        finally:
            executor.close()
        local = CampaignRunner(cache=ResultCache(tmp_path / "cache")).run(
            Campaign("local", specs=list(specs)))
        assert local.stats.cache_hits == 6
        assert local.stats.executed == 0
        for served, computed in zip(local.results, fleet.results):
            assert served.to_dict() == computed.to_dict()
        # exactly-once in the journal's last-wins view
        last_wins = Journal(tmp_path / "cache" / CACHE_FILE_NAME,
                            read_cache_line).fold().current()
        assert len(last_wins) == 6
        for computed in fleet.results:
            assert last_wins[computed.job_hash].to_dict() == computed.to_dict()

    def test_a_cold_fleet_run_counts_one_miss_per_submitted_spec(self, tmp_path):
        # The runner resolves the campaign once and journals every result;
        # the workers never read or write the cache, so a cold run counts
        # one miss per submitted spec, simulates each distinct point once
        # and leaves one journal line per distinct point.
        cache = ResultCache(tmp_path / "cache")
        specs = [spec(seed=s % 12) for s in range(16)]
        distinct = len({probe.content_hash() for probe in specs})
        assert distinct == 12
        executor = make_fleet(workers=2)
        try:
            outcome = CampaignRunner(cache=cache, executor=executor).run(
                Campaign("cold", specs=list(specs)))
        finally:
            executor.close()
        assert outcome.stats.failed == 0
        assert cache.hits == 0
        assert cache.misses == len(specs)
        assert outcome.stats.executed == distinct
        lines = [record for record, read, _ in
                 Journal(cache.journal_path, read_cache_line).read() if read]
        assert len(lines) == distinct
        assert len({record["hash"] for record in lines}) == distinct


# ----------------------------------------------------------------------
# fleet-vs-local on a 3-engine grid
# ----------------------------------------------------------------------
class TestThreeEngineGrid:
    def test_fleet_matches_local_on_every_engine(self):
        specs = [spec(seed=0, lws=2), spec(seed=1, lws=4),
                 spec(seed=0, problem="saxpy")]
        executor = make_fleet(workers=2)
        try:
            by_engine = {}
            for engine in ("reference", "fast", "batch"):
                fleet = CampaignRunner(executor=executor).run(
                    Campaign(f"fleet-{engine}", specs=list(specs)),
                    engine=engine)
                local = CampaignRunner().run(
                    Campaign(f"local-{engine}", specs=list(specs)),
                    engine=engine)
                assert fleet.stats.failed == 0
                by_engine[engine] = [stripped(r) for r in fleet.results]
                assert by_engine[engine] == [stripped(r) for r in local.results]
            # and the engines agree with each other, distributed or not
            assert by_engine["reference"] == by_engine["fast"]
            assert by_engine["reference"] == by_engine["batch"]
        finally:
            executor.close()

    def test_unknown_engine_is_rejected_before_dispatch(self):
        with pytest.raises(EngineError, match="no_such_engine"):
            CampaignRunner().run(Campaign("bad", specs=[spec()]),
                                 engine="no_such_engine")


# ----------------------------------------------------------------------
# ResultCache.get_many (the batched cache-first resolve)
# ----------------------------------------------------------------------
class TestGetMany:
    def test_matches_sequential_gets(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        CampaignRunner(cache=cache).run(
            Campaign("seed", specs=[spec(seed=0), spec(seed=1)]))
        batched_cache = ResultCache(tmp_path / "cache")
        sequential_cache = ResultCache(tmp_path / "cache")
        probes = [spec(seed=0), spec(seed=5), spec(seed=1), spec(seed=0)]
        batched = batched_cache.get_many(probes)
        sequential = [sequential_cache.get_many([probe])[0] for probe in probes]
        for ours, reference in zip(batched, sequential):
            if reference is None:
                assert ours is None
            else:
                assert ours.to_dict() == reference.to_dict()
                assert ours.from_cache
        assert batched_cache.hits == sequential_cache.hits == 3
        assert batched_cache.misses == sequential_cache.misses == 1

    def test_empty_batch(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert cache.get_many([]) == []
        assert cache.hits == 0 and cache.misses == 0

    def test_runner_resolves_through_one_batch(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "cache")
        specs = [spec(seed=s) for s in range(3)]
        CampaignRunner(cache=cache).run(Campaign("seed", specs=list(specs)))
        calls = []
        original = ResultCache.get_many

        def counting_get_many(self, batch):
            calls.append(len(batch))
            return original(self, batch)
        monkeypatch.setattr(ResultCache, "get_many", counting_get_many)
        warm = CampaignRunner(cache=cache).run(
            Campaign("warm", specs=list(specs)))
        assert warm.stats.cache_hits == 3
        assert calls == [3], "one get_many pass for the whole campaign"


# ----------------------------------------------------------------------
# the wire protocol itself
# ----------------------------------------------------------------------
class TestProtocol:
    def test_roundtrip_over_a_socketpair(self):
        left, right = socket.socketpair()
        a, b = Connection(left), Connection(right)
        message = {"type": "chunk", "tasks": [{"task": 1, "pi": 3.141592653589793}]}
        a.send(message)
        assert b.recv() == message
        assert a.bytes_sent == b.bytes_received > 0
        a.close()
        assert b.recv() is None          # clean EOF between frames
        b.close()

    def test_floats_survive_the_wire_exactly(self):
        left, right = socket.socketpair()
        a, b = Connection(left), Connection(right)
        values = [0.1, 1e-300, 2**53 - 1.0, 0.30000000000000004]
        a.send({"values": values})
        assert b.recv()["values"] == values
        a.close()
        b.close()

    def test_eof_mid_frame_is_a_protocol_error(self):
        left, right = socket.socketpair()
        left.sendall(b"\x00\x00\x01\x00partial")   # promises 256 bytes
        left.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            Connection(right).recv()

    def test_oversized_frame_is_rejected(self):
        left, right = socket.socketpair()
        left.sendall(b"\xff\xff\xff\xff")
        with pytest.raises(ProtocolError, match="ceiling"):
            Connection(right).recv()
        left.close()
        right.close()

    def test_parse_address(self):
        assert parse_address("127.0.0.1:8321") == ("127.0.0.1", 8321)
        assert parse_address(("h", 1)) == ("h", 1)
        with pytest.raises(ValueError):
            parse_address("no-port")


class TestJobFailureWire:
    def test_round_trip(self):
        failure = JobFailure(job_hash="h", label="l", error="e",
                             traceback="tb", host="vm/pid7",
                             last_heartbeat=123.5)
        assert JobFailure.from_dict(failure.to_dict()) == failure
        bare = JobFailure(job_hash="h", label="l", error="e")
        assert JobFailure.from_dict(bare.to_dict()) == bare
        assert "on vm/pid7" in failure.summary()


# ----------------------------------------------------------------------
# persistent local pool (satellite: no pool spin-up per shard)
# ----------------------------------------------------------------------
class TestPersistentLocalPool:
    def test_pool_survives_across_execute_calls(self):
        before = set(fleet_pids())
        executor = LocalExecutor(workers=2)
        try:
            list(executor.execute(
                [ExecutorTask(index=i, spec=spec(seed=i)) for i in range(2)]))
            first = set(fleet_pids()) - before
            assert len(first) == 2
            list(executor.execute(
                [ExecutorTask(index=i, spec=spec(seed=i + 2)) for i in range(2)]))
            assert set(fleet_pids()) - before == first
        finally:
            executor.close()
        assert not set(fleet_pids()) & first

    def test_runner_shares_one_pool_across_engine_shards(self):
        # The planner submits one campaign per engine group; the runner's
        # executor must keep one warm set of workers across them.
        before = set(fleet_pids())
        with CampaignRunner(workers=2) as runner:
            for engine in ("reference", "fast"):
                outcome = runner.run(
                    Campaign(engine, specs=[spec(seed=0), spec(seed=1)]),
                    engine=engine)
                assert outcome.stats.failed == 0
            workers = set(fleet_pids()) - before
            assert len(workers) == 2
            runner.run(Campaign("again", specs=[spec(seed=2), spec(seed=3)]),
                       engine="batch")
            assert set(fleet_pids()) - before == workers

    def test_engine_pin_restores_the_environment(self, monkeypatch):
        # The engine is an argument: the job runs on it, and os.environ is
        # never written, so there is nothing to restore.
        engines = engine_spy(monkeypatch)
        monkeypatch.setenv(ENGINE_ENV, "reference")
        before = dict(os.environ)
        assert isinstance(execute_job(spec(seed=0), engine="fast"), JobResult)
        assert dict(os.environ) == before
        monkeypatch.delenv(ENGINE_ENV)
        assert isinstance(execute_job(spec(seed=0), engine="batch"), JobResult)
        assert ENGINE_ENV not in os.environ
        assert list(engines.values()) == [["fast", "batch"]]

    def test_without_cache_borrows_the_executor(self, tmp_path):
        runner = CampaignRunner(workers=2, cache=ResultCache(tmp_path / "c"))
        clone = runner.without_cache()
        assert clone.executor is runner.executor
        clone.close()                     # must NOT shut the shared executor
        outcome = runner.run(Campaign("alive", specs=[spec(seed=0)]))
        assert outcome.stats.failed == 0
        runner.close()


class TestEngineIsAnArgument:
    def test_concurrent_jobs_each_run_on_their_own_engine(self, monkeypatch):
        # Both jobs build their Gpu at the same moment, so an engine carried
        # by process state would reach both as whichever was written last.
        engines = engine_spy(monkeypatch, threading.Barrier(2, timeout=30))
        before = dict(os.environ)
        outcomes = {}

        def run(engine, seed):
            outcomes[engine] = execute_job(spec(seed=seed), engine=engine)

        threads = [threading.Thread(target=run, args=pinned)
                   for pinned in (("fast", 0), ("reference", 1))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert all(isinstance(o, JobResult) for o in outcomes.values())
        assert sorted(engines.values()) == [["fast"], ["reference"]]
        assert dict(os.environ) == before

    def test_runner_names_the_engine_on_every_task(self, monkeypatch):
        # run() without engine= still sends a concrete name, so a remote
        # worker runs the coordinator's engine, not its own default.
        class Recording:
            def __init__(self):
                self.tasks = []

            def execute(self, tasks):
                self.tasks.extend(tasks)
                for task in tasks:
                    yield ExecutorCompletion(task.index, execute_job(
                        task.spec, engine=task.engine))

            def close(self):
                pass

        monkeypatch.setenv(ENGINE_ENV, "reference")
        executor = Recording()
        outcome = CampaignRunner(executor=executor).run(
            Campaign("named", specs=[spec(seed=0), spec(seed=1)]))
        assert outcome.stats.failed == 0
        assert [task.engine for task in executor.tasks] == ["reference"] * 2


# ----------------------------------------------------------------------
# the service's distributed backend
# ----------------------------------------------------------------------
class TestServiceDistBackend:
    def test_api_job_drains_through_the_fleet(self, tmp_path):
        from repro.service.queue import JobQueue
        from repro.service.schemas import validate_request
        from repro.service.worker import EventBook, WorkerPool

        cache = ResultCache(tmp_path / "cache")
        executor = make_fleet(workers=1)
        try:
            queue = JobQueue(tmp_path / "service" / "jobs.jsonl")
            pool = WorkerPool(queue, EventBook(), cache=cache,
                              executor=executor)
            request = validate_request({"problems": ["vecadd"],
                                        "configs": ["2c2w4t"],
                                        "scale": "smoke", "lws": [4]})
            job = queue.submit(request, client="test")
            payload = pool._execute_sync(job)
            assert payload["stats"]["failed"] == 0
            served = payload["results"][0]["result"]
            # the fleet seeded the shared cache: a direct run is bit-for-bit
            direct = CampaignRunner(cache=cache).run(request.specs())
            assert direct.stats.cache_hits == 1
            assert served == direct.results[0].to_dict()
        finally:
            executor.close()
