"""The service's HTTP surface: endpoints wired over queue + workers + cache.

=======================  =====================================================
``POST /jobs``           submit a scenario name or ad-hoc grid; 202 + handle
``GET /jobs``            every known job, submission order (no result bodies)
``GET /jobs/{id}``       one job's full state, result payload included
``GET /jobs/{id}/events``  Server-Sent-Events progress stream (replay + live)
``GET /healthz``         liveness + queue counts, always 200 when serving
``GET /metrics``         Prometheus text exposition of the process recorder
=======================  =====================================================

:class:`Service` owns the long-lived pieces (queue, shared result cache,
worker pool, event book, rate limiter) and :func:`create_app` binds them
onto a :class:`~repro.service.server.App`.  Construction is cheap and lazy
-- the pool's workers only start inside :meth:`Service.startup` on the
serving loop.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from repro.campaign.cache import ResultCache, default_cache_dir
from repro.campaign.executor import LocalExecutor
from repro.service.queue import JobQueue, default_service_dir
from repro.service.rate_limit import RateLimiter
from repro.service.schemas import validate_request
from repro.service.server import (
    App,
    EventStreamResponse,
    JSONResponse,
    Request,
    TextResponse,
)
from repro.service.worker import EventBook, WorkerPool
from repro.telemetry.export import summarize, to_prometheus
from repro.telemetry.journal import payload_records
from repro.telemetry.recorder import RECORDER


class ServiceConfig:
    """Knobs for one service instance (the ``repro serve`` flag set)."""

    def __init__(self,
                 queue_dir: Optional[Path] = None,
                 cache_dir: Optional[Path] = None,
                 use_cache: bool = True,
                 workers: int = 2,
                 sim_workers: int = 1,
                 rate: float = 10.0,
                 burst: int = 20):
        self.queue_dir = Path(queue_dir) if queue_dir else default_service_dir()
        self.cache_dir = Path(cache_dir) if cache_dir else default_cache_dir()
        self.use_cache = use_cache
        self.workers = workers
        self.sim_workers = sim_workers
        self.rate = rate
        self.burst = burst


class Service:
    """One service instance: state + workers + the HTTP app over them.

    ``executor`` is the shared :class:`~repro.campaign.executor.Executor`
    every job runs on (``repro serve --executor dist`` passes its fleet
    coordinator); ``None`` builds one
    :class:`~repro.campaign.executor.LocalExecutor` of ``sim_workers`` for
    the service's lifetime, so jobs share one warm local fleet instead of
    each forking and joining its own.  The service owns it:
    :meth:`shutdown` closes it.
    """

    def __init__(self, config: Optional[ServiceConfig] = None, executor=None):
        self.config = config or ServiceConfig()
        self.queue = JobQueue(self.config.queue_dir / "jobs.jsonl")
        self.cache = (ResultCache(self.config.cache_dir)
                      if self.config.use_cache else None)
        self.limiter = RateLimiter(rate=self.config.rate,
                                   burst=self.config.burst)
        self.events = EventBook()
        self.executor = (executor if executor is not None
                         else LocalExecutor(workers=self.config.sim_workers))
        self.pool = WorkerPool(
            self.queue, self.events, self.executor,
            workers=self.config.workers,
            cache=self.cache)
        self.app = create_app(self)

    async def startup(self) -> None:
        """Start the worker pool (must run on the serving event loop)."""
        await self.pool.start()

    async def shutdown(self) -> None:
        await self.pool.stop()
        self.executor.close()


def create_app(service: Service) -> App:
    """Bind every endpoint onto a fresh app for ``service``."""
    app = App(title="repro simulation service")

    @app.route("/jobs", methods=["POST"])
    def submit_job(request: Request):
        allowed, retry_after = service.limiter.check(request.client)
        if not allowed:
            return JSONResponse(
                {"error": "rate limit exceeded",
                 "retry_after": round(retry_after, 3)},
                status=429,
                headers=[("retry-after", str(max(1, int(retry_after + 0.5))))])
        job_request = validate_request(request.json())
        job = service.queue.submit(job_request, client=request.client)
        service.pool.notify()
        return JSONResponse(
            {"job": job.id, "state": job.state,
             "label": job_request.describe(),
             "links": {"self": f"/jobs/{job.id}",
                       "events": f"/jobs/{job.id}/events"}},
            status=202)

    @app.route("/jobs", methods=["GET"])
    def list_jobs(request: Request):
        return JSONResponse({
            "jobs": [job.to_dict(with_result=False)
                     for job in service.queue.jobs()],
            "counts": service.queue.counts(),
        })

    @app.route("/jobs/{job_id}", methods=["GET"])
    def get_job(request: Request):
        job = service.queue.get(request.path_params["job_id"])
        if job is None:
            return JSONResponse({"error": "no such job"}, status=404)
        return JSONResponse(job.to_dict())

    @app.route("/jobs/{job_id}/events", methods=["GET"])
    def job_events(request: Request):
        job_id = request.path_params["job_id"]
        job = service.queue.get(job_id)
        if job is None:
            return JSONResponse({"error": "no such job"}, status=404)

        async def stream():
            if job.terminal and not service.events.history(job_id):
                # Finished before this process started (or history evicted):
                # there is nothing to replay but the outcome itself.
                yield job.state, {"job": job_id, "error": job.error}
                return
            async for event in service.events.subscribe(job_id):
                yield event

        return EventStreamResponse(stream())

    @app.route("/healthz", methods=["GET"])
    def healthz(request: Request):
        return JSONResponse({
            "status": "ok",
            "queue": service.queue.counts(),
            "workers": service.config.workers,
            "cache": (str(service.cache.directory)
                      if service.cache is not None else None),
        })

    @app.route("/metrics", methods=["GET"])
    def metrics(request: Request):
        records = payload_records(RECORDER.snapshot(), run="live",
                                  pid=os.getpid())
        return TextResponse(
            to_prometheus(summarize(records)).encode("utf-8"),
            content_type="text/plain; version=0.0.4; charset=utf-8")

    return app
