"""Simulation-as-a-service: an async HTTP job API over the campaign stack.

``repro serve`` runs it; see :mod:`repro.service.routes` for the endpoint
map, :mod:`repro.service.queue` for the durable queue semantics and
:mod:`repro.service.server` for routing and the stdlib HTTP server.
"""

from repro.service.queue import JobQueue, default_queue_path, default_service_dir
from repro.service.rate_limit import RateLimiter
from repro.service.routes import Service, ServiceConfig, create_app
from repro.service.schemas import (
    Job,
    JobRequest,
    ValidationError,
    validate_request,
)
from repro.service.server import (
    App,
    JSONResponse,
    Request,
    Response,
    ServerThread,
    serve,
)
from repro.service.worker import EventBook, WorkerPool

__all__ = [
    "App",
    "EventBook",
    "JSONResponse",
    "Job",
    "JobQueue",
    "JobRequest",
    "RateLimiter",
    "Request",
    "Response",
    "ServerThread",
    "Service",
    "ServiceConfig",
    "ValidationError",
    "WorkerPool",
    "create_app",
    "default_queue_path",
    "default_service_dir",
    "serve",
    "validate_request",
]
