"""Distributed campaign execution: a coordinator and its workers.

The package generalises the campaign engine across hosts while keeping
every guarantee of the local path -- submission order, dedup, failure
isolation, and bit-identical results:

* :mod:`~repro.campaign.dist.protocol` -- length-prefixed JSON frames over
  TCP (stdlib sockets; no framework).
* :mod:`~repro.campaign.dist.coordinator` -- :class:`DistributedExecutor`,
  a work-stealing implementation of the
  :class:`~repro.campaign.executor.Executor` protocol with heartbeat
  liveness and bounded retry on worker death.
* :mod:`~repro.campaign.dist.worker` -- :func:`run_worker`, the whole
  lifecycle of one worker: a ``repro worker`` process on any host, or a
  local worker forked from the coordinator (``--workers N``).

Workers only simulate.  The coordinator's
:class:`~repro.campaign.runner.CampaignRunner` is the one cache client: it
resolves the campaign against its ``ResultCache`` before the fleet sees a
task and journals every result the fleet sends back.

Every run command builds its executor from the same flags: ``--workers N``
simulators on this host (1 runs in-process, N > 1 forks a fleet) and, with
``--listen HOST:PORT``, a coordinator that ``repro worker`` processes on any
host can join.  Quick start (three shells)::

    repro scenario run figure2 --listen 0.0.0.0:7070 --workers 0 --wait-workers 2
    repro worker --connect coordinator-host:7070      # as many as you like
    repro worker --connect coordinator-host:7070
"""

from repro.campaign.dist.coordinator import DistributedExecutor
from repro.campaign.dist.protocol import (
    Connection,
    ProtocolError,
    connect,
    format_address,
    parse_address,
)
from repro.campaign.dist.worker import run_worker

__all__ = [
    "Connection",
    "DistributedExecutor",
    "ProtocolError",
    "connect",
    "format_address",
    "parse_address",
    "run_worker",
]
