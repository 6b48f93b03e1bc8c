"""Tests for the simulation-as-a-service layer (repro.service).

Covers the acceptance properties of the subsystem: strict submission
validation, the durable queue's kill-and-resume fold, token-bucket rate
limiting, and the HTTP surface end to end over real sockets -- submit,
poll, Server-Sent-Events progress ordering, 429s, Prometheus-lintable
metrics, and bit-equality of an HTTP-served result against a direct
:class:`~repro.campaign.runner.CampaignRunner` run through the shared
result cache.
"""

import http.client
import json
import multiprocessing
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.runner import CampaignRunner
from repro.service import (
    JobQueue,
    RateLimiter,
    ServerThread,
    Service,
    ServiceConfig,
    ValidationError,
    validate_request,
)
from repro.service.rate_limit import TokenBucket

GRID_REQUEST = {"problems": ["vecadd"], "configs": ["2c2w4t"],
                "scale": "smoke"}


def fleet_pids() -> list:
    """Pids of this process's live local fleet workers."""
    return sorted(child.pid for child in multiprocessing.active_children()
                  if child.name == "repro-fleet-worker")


# ----------------------------------------------------------------------
# submission validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_grid_request_round_trips(self):
        request = validate_request(dict(GRID_REQUEST, lws=[None, 4], seed=3))
        assert request.kind == "grid"
        assert request.lws == (None, 4)
        from repro.service.schemas import JobRequest
        assert JobRequest.from_dict(request.to_dict()) == request
        specs = request.specs()
        assert len(specs) == 2
        assert {s.local_size for s in specs} == {None, 4}

    def test_scenario_request_resolves_the_registry(self):
        request = validate_request({"scenario": "figure1", "scale": "smoke"})
        assert request.kind == "scenario"
        assert request.describe() == "scenario:figure1@smoke"

    @pytest.mark.parametrize("bad", [
        [],                                             # not an object
        {},                                             # neither shape
        {"scenario": "nope"},                           # unknown scenario
        {"scenario": "figure1", "problems": ["x"], "configs": ["y"]},
        {"problems": ["no_such_kernel"], "configs": ["2c2w4t"]},
        {"problems": ["vecadd"], "configs": ["not-a-shape"]},
        {"problems": ["vecadd"], "configs": ["2c2w4t"], "scale": "huge"},
        {"problems": ["vecadd"], "configs": ["2c2w4t"], "seed": "zero"},
        {"problems": ["vecadd"], "configs": ["2c2w4t"], "lws": []},
        {"problems": ["vecadd"], "configs": ["2c2w4t"], "lws": [0]},
        {"problems": ["vecadd"], "configs": ["2c2w4t"], "frobnicate": 1},
        {"scenario": "figure1", "sweep": "gigantic"},
        {"problems": ["vecadd"], "configs": ["2c2w4t"], "seed": -1},
    ])
    def test_unrunnable_requests_are_rejected(self, bad):
        with pytest.raises(ValidationError):
            validate_request(bad)

    def test_scenario_request_plans_what_the_cli_plans(self):
        # Planning only: the HTTP request and the CLI flags it mirrors must
        # expand to the same grid -- ``sweep`` reshapes the grid, it never
        # sets the problem scale.
        from repro.cli import _grid_context, build_parser
        from repro.scenarios import Planner

        scenario, context, plan = validate_request(
            {"scenario": "figure2", "scale": "smoke", "sweep": "bench"}).planned()
        assert plan is None
        args = build_parser().parse_args(
            ["scenario", "run", "figure2", "--scale", "smoke", "--sweep", "bench"])
        served = Planner().plan(scenario, context)
        cli = Planner().plan(scenario, _grid_context(args))
        assert [job.spec.to_dict() for job in served] == \
            [job.spec.to_dict() for job in cli]
        assert {job.spec.scale for job in served} == {"smoke"}

    def test_grid_request_plans_its_own_specs(self):
        from repro.scenarios import REGISTRY

        request = validate_request(dict(GRID_REQUEST, lws=[None, 4]))
        scenario, context, plan = request.planned()
        assert [job.spec for job in plan] == request.specs()
        assert scenario.name == request.describe()
        assert scenario.name not in REGISTRY


# ----------------------------------------------------------------------
# the durable queue
# ----------------------------------------------------------------------
class TestJobQueue:
    def request(self):
        return validate_request(GRID_REQUEST)

    def test_submissions_survive_a_reload(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.jsonl")
        job = queue.submit(self.request(), client="alice")
        reloaded = JobQueue(tmp_path / "jobs.jsonl")
        twin = reloaded.get(job.id)
        assert twin is not None
        assert twin.state == "pending"
        assert twin.client == "alice"
        assert twin.request == job.request
        assert reloaded.pending_count() == 1

    def test_killed_mid_job_folds_back_to_pending(self, tmp_path):
        # A job claimed but never finished (the server died) is simply
        # still owed: the restarted queue re-enqueues it.
        queue = JobQueue(tmp_path / "jobs.jsonl")
        first = queue.submit(self.request())
        second = queue.submit(self.request())
        assert queue.claim().id == first.id
        restarted = JobQueue(tmp_path / "jobs.jsonl")
        assert restarted.recovered == 1
        assert restarted.pending_count() == 2
        # original submission order is preserved
        assert restarted.claim().id == first.id
        assert restarted.claim().id == second.id

    def test_terminal_states_survive_a_reload(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.jsonl")
        done = queue.submit(self.request())
        failed = queue.submit(self.request())
        queue.claim(), queue.claim()
        queue.finish(done.id, {"kind": "grid", "stats": {}})
        queue.fail(failed.id, "boom")
        restarted = JobQueue(tmp_path / "jobs.jsonl")
        assert restarted.recovered == 0
        assert restarted.get(done.id).state == "done"
        assert restarted.get(done.id).result == {"kind": "grid", "stats": {}}
        assert restarted.get(failed.id).state == "failed"
        assert restarted.get(failed.id).error == "boom"
        assert restarted.counts() == {"pending": 0, "running": 0,
                                      "done": 1, "failed": 1}

    def test_partial_tail_is_repaired_not_fatal(self, tmp_path):
        queue = JobQueue(tmp_path / "jobs.jsonl")
        job = queue.submit(self.request())
        with queue.path.open("a") as journal:
            journal.write('{"queue_schema": 1, "job": "partial')  # no newline
        restarted = JobQueue(tmp_path / "jobs.jsonl")
        assert restarted.get(job.id).state == "pending"
        restarted.submit(self.request())             # append repairs the tail
        assert JobQueue(tmp_path / "jobs.jsonl").pending_count() == 2


# ----------------------------------------------------------------------
# rate limiting
# ----------------------------------------------------------------------
class TestRateLimiting:
    def test_bucket_refills_at_the_configured_rate(self):
        bucket = TokenBucket(rate=2.0, burst=2, now=0.0)
        assert bucket.take(0.0) == (True, 0.0)
        assert bucket.take(0.0) == (True, 0.0)
        allowed, retry_after = bucket.take(0.0)      # burst exhausted
        assert not allowed
        assert retry_after == pytest.approx(0.5)
        allowed, _ = bucket.take(0.6)                # refilled 1.2 tokens
        assert allowed

    def test_limiter_isolates_clients(self):
        limiter = RateLimiter(rate=0.001, burst=1)
        assert limiter.check("alice")[0]
        assert not limiter.check("alice")[0]
        assert limiter.check("bob")[0]               # bob has his own bucket

    def test_zero_rate_disables_limiting(self):
        limiter = RateLimiter(rate=0.0)
        assert all(limiter.check("x")[0] for _ in range(100))


# ----------------------------------------------------------------------
# the HTTP surface, end to end over real sockets
# ----------------------------------------------------------------------
def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=30) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())


def _post(base, path, payload, client=None):
    headers = {"content-type": "application/json"}
    if client:
        headers["x-client"] = client
    request = urllib.request.Request(
        base + path, data=json.dumps(payload).encode(),
        headers=headers, method="POST")
    try:
        with urllib.request.urlopen(request, timeout=30) as resp:
            return resp.status, json.load(resp)
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode())


def _await_terminal(base, job_id, timeout=120):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, job = _get(base, f"/jobs/{job_id}")
        assert status == 200
        if job["state"] in ("done", "failed"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} did not finish within {timeout}s")


@pytest.fixture
def service(tmp_path):
    instance = Service(ServiceConfig(
        queue_dir=tmp_path / "service",
        cache_dir=tmp_path / "cache",
        workers=1, rate=0.0))
    server = ServerThread(instance.app, startup=instance.startup,
                          shutdown=instance.shutdown).start()
    try:
        yield instance, server.url
    finally:
        server.stop()


def _without_wall_time(records):
    """Sink records minus ``elapsed_seconds``: a traced point (all of
    ``figure1``) bypasses cache reads, so every run re-measures its wall
    time while every simulated number repeats exactly."""
    return [dict(record, result={key: value
                                 for key, value in record["result"].items()
                                 if key != "elapsed_seconds"})
            for record in records]


class TestServiceHTTP:
    def test_submit_poll_result_matches_a_direct_runner_bit_for_bit(
            self, service, tmp_path):
        instance, base = service
        status, submitted = _post(base, "/jobs", GRID_REQUEST)
        assert status == 202
        assert submitted["state"] == "pending"
        job = _await_terminal(base, submitted["job"])
        assert job["state"] == "done", job["error"]
        served = job["result"]["results"][0]["result"]
        # The HTTP run seeded the shared cache, so a direct library run of
        # the same spec must be served the *identical* record -- including
        # wall-clock fields -- not merely an equivalent re-simulation.
        direct_spec = validate_request(GRID_REQUEST).specs()[0]
        direct = CampaignRunner(cache=ResultCache(tmp_path / "cache")).run(
            [direct_spec])
        assert direct.stats.cache_hits == 1
        assert direct.stats.executed == 0
        assert served == direct.results[0].to_dict()
        # and a second HTTP submission is cache-served through the same path
        _, again = _post(base, "/jobs", GRID_REQUEST)
        rerun = _await_terminal(base, again["job"])
        assert rerun["result"]["stats"]["cache_hits"] == 1
        assert rerun["result"]["results"][0]["result"] == served

    def test_sse_stream_replays_events_in_order(self, service):
        instance, base = service
        _, submitted = _post(base, "/jobs", GRID_REQUEST)
        _await_terminal(base, submitted["job"])

        conn = http.client.HTTPConnection(*base[len("http://"):].split(":"),
                                          timeout=30)
        conn.request("GET", f"/jobs/{submitted['job']}/events")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("content-type").startswith(
            "text/event-stream")
        body = response.read().decode()          # stream closes after `done`
        conn.close()
        events = [line.split(": ", 1)[1] for line in body.splitlines()
                  if line.startswith("event: ")]
        meaningful = [e for e in events if e != "heartbeat"]
        assert meaningful[0] == "running"
        assert meaningful[-1] == "done"
        assert "progress" in meaningful[1:-1]

    def test_old_histories_are_evicted_and_answered_with_the_outcome(
            self, service, monkeypatch):
        # The book keeps the N most recently finished jobs' histories, not
        # every job the process ever ran.
        monkeypatch.setattr("repro.service.worker.MAX_FINISHED_HISTORIES", 2)
        instance, base = service
        jobs = []
        for _ in range(5):
            jobs.append(_post(base, "/jobs", GRID_REQUEST)[1]["job"])
            _await_terminal(base, jobs[-1])
        assert [job for job in jobs if instance.events.history(job)] == jobs[-2:]
        assert len(instance.events._events) == 2

        def event_names(job_id):
            conn = http.client.HTTPConnection(
                *base[len("http://"):].split(":"), timeout=30)
            conn.request("GET", f"/jobs/{job_id}/events")
            body = conn.getresponse().read().decode()
            conn.close()
            return [line.split(": ", 1)[1] for line in body.splitlines()
                    if line.startswith("event: ")]

        assert event_names(jobs[0]) == ["done"]          # evicted: outcome only
        assert event_names(jobs[-1])[0] == "running"     # retained: full replay
        assert event_names(jobs[-1])[-1] == "done"

    def test_unknown_job_and_route_and_method(self, service):
        _, base = service
        assert _get(base, "/jobs/doesnotexist")[0] == 404
        assert _get(base, "/no/such/route")[0] == 404
        status, body = _post(base, "/healthz", {})
        assert status == 405

    def test_invalid_submissions_are_400s(self, service):
        _, base = service
        status, body = _post(base, "/jobs", {"scenario": "nope"})
        assert status == 400
        assert "unknown scenario" in body["error"]
        request = urllib.request.Request(
            (base + "/jobs"), data=b"not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_rate_limited_clients_get_429_with_retry_after(self, tmp_path):
        instance = Service(ServiceConfig(
            queue_dir=tmp_path / "service", cache_dir=tmp_path / "cache",
            workers=1, rate=0.001, burst=1))
        server = ServerThread(instance.app, startup=instance.startup,
                              shutdown=instance.shutdown).start()
        try:
            base = server.url
            assert _post(base, "/jobs", GRID_REQUEST, client="alice")[0] == 202
            status, body = _post(base, "/jobs", GRID_REQUEST, client="alice")
            assert status == 429
            assert body["retry_after"] > 0
            # an independent client is not collateral damage
            assert _post(base, "/jobs", GRID_REQUEST, client="bob")[0] == 202
        finally:
            server.stop()

    def test_healthz_and_metrics(self, service):
        _, base = service
        status, health = _get(base, "/healthz")
        assert status == 200
        assert health["status"] == "ok"
        assert set(health["queue"]) == {"pending", "running", "done", "failed"}
        with urllib.request.urlopen(base + "/metrics", timeout=30) as resp:
            assert resp.status == 200
            assert "text/plain" in resp.getheader("content-type")
            text = resp.read().decode()
        from repro.telemetry.export import lint_prometheus
        assert lint_prometheus(text) == []

    def test_jobs_share_one_local_pool(self, tmp_path):
        # --sim-workers 2: every job runs on the service's one LocalExecutor,
        # so two jobs of two misses each run on the same forked worker
        # processes, and shutdown ends them.
        instance = Service(ServiceConfig(
            queue_dir=tmp_path / "service", cache_dir=tmp_path / "cache",
            workers=1, sim_workers=2, rate=0.0))
        before = set(fleet_pids())
        server = ServerThread(instance.app, startup=instance.startup,
                              shutdown=instance.shutdown).start()
        try:
            pids = []
            for lws in ([1, 2], [4, 8]):
                _, submitted = _post(server.url, "/jobs",
                                     dict(GRID_REQUEST, lws=lws))
                job = _await_terminal(server.url, submitted["job"])
                assert job["state"] == "done", job["error"]
                assert job["result"]["stats"]["executed"] == 2
                pids.append(set(fleet_pids()) - before)
            assert len(pids[0]) == 2
            assert pids[1] == pids[0]
        finally:
            server.stop()
        assert not set(fleet_pids()) & pids[0]

    def test_killed_server_resumes_queued_jobs_on_restart(self, tmp_path):
        # "Kill": enqueue directly into the durable queue with no server
        # running (exactly what a dead server's journal looks like), then
        # start the service on the same state directory.
        queue = JobQueue(tmp_path / "service" / "jobs.jsonl")
        orphan = queue.submit(validate_request(GRID_REQUEST))
        queue.claim()                         # died mid-run, never journaled

        instance = Service(ServiceConfig(
            queue_dir=tmp_path / "service", cache_dir=tmp_path / "cache",
            workers=1, rate=0.0))
        assert instance.queue.recovered == 1
        server = ServerThread(instance.app, startup=instance.startup,
                              shutdown=instance.shutdown).start()
        try:
            job = _await_terminal(server.url, orphan.id)
            assert job["state"] == "done", job["error"]
            assert job["result"]["stats"]["total"] == 1
        finally:
            server.stop()

    def test_scenario_jobs_run_through_the_planner(self, service, tmp_path):
        from repro.scenarios import REGISTRY, Planner, ScenarioContext

        _, base = service
        _, submitted = _post(base, "/jobs",
                             {"scenario": "figure1", "scale": "smoke"})
        job = _await_terminal(base, submitted["job"])
        assert job["state"] == "done", job["error"]
        assert job["result"]["kind"] == "scenario"
        assert job["result"]["stats"]["failed"] == 0
        assert job["result"]["records"]
        assert "Figure 1" in job["result"]["report"]
        direct = Planner(runner=CampaignRunner(
            cache=ResultCache(tmp_path / "cache"))).run(
                REGISTRY.get("figure1"), ScenarioContext(scale="smoke"))
        assert _without_wall_time(job["result"]["records"]) == \
            _without_wall_time(direct.payload()["records"])

    def test_grid_progress_counts_completed_points(self, service):
        # The second point is cached, so it completes first: ``done`` must
        # still count 1, 2 -- completed points, not grid positions.
        instance, base = service
        _, warming = _post(base, "/jobs", dict(GRID_REQUEST, lws=[4]))
        _await_terminal(base, warming["job"])
        request = dict(GRID_REQUEST, lws=[None, 4])
        warm = validate_request(request).specs()[1]
        _, submitted = _post(base, "/jobs", request)
        job = _await_terminal(base, submitted["job"])
        assert job["state"] == "done", job["error"]
        progress = [payload for name, payload
                    in instance.events.history(submitted["job"])
                    if name == "progress"]
        assert [(event["done"], event["total"]) for event in progress] == \
            [(1, 2), (2, 2)]
        assert progress[0]["label"] == warm.display_name()
        assert job["result"]["stats"]["cache_hits"] == 1

    def test_job_listing_reflects_submissions(self, service):
        _, base = service
        _, submitted = _post(base, "/jobs", GRID_REQUEST)
        _await_terminal(base, submitted["job"])
        status, listing = _get(base, "/jobs")
        assert status == 200
        assert [entry["job"] for entry in listing["jobs"]] == [submitted["job"]]
        assert listing["counts"]["done"] == 1
        assert "result" not in listing["jobs"][0]
