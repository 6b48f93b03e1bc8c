"""Campaign engine: parallel simulation execution with a persistent cache.

The campaign subsystem sits between the experiment layer and the simulator:

* :mod:`~repro.campaign.spec` -- :class:`JobSpec` names one simulation point
  (kernel, machine, mapping, sizes, seed) and serialises to a stable SHA-256
  content hash; :class:`Campaign` is an ordered batch of specs.
* :mod:`~repro.campaign.cache` -- :class:`ResultCache` persists result
  summaries to a JSON-lines journal keyed by that hash (default
  ``~/.cache/repro``, override with ``REPRO_CACHE_DIR``), with hit/miss
  accounting and automatic invalidation on simulator-version bumps.
* :mod:`~repro.campaign.worker` -- the per-job execution function every
  worker runs.
* :mod:`~repro.campaign.executor` -- the :class:`Executor` protocol behind
  the runner: :class:`LocalExecutor` (in-process, or a persistent fleet of
  workers forked on this host) here, the multi-host
  :class:`DistributedExecutor` it is built on in :mod:`~repro.campaign.dist`.
* :mod:`~repro.campaign.runner` -- :class:`CampaignRunner` resolves specs
  against the cache, deduplicates identical points, fans the rest out
  through an executor, and returns outcomes in deterministic submission
  order with per-job failure isolation.

Quick start::

    from repro.campaign import Campaign, CampaignRunner, JobSpec, ResultCache
    from repro.sim.config import ArchConfig

    campaign = Campaign("demo")
    for lws in (1, 16, 32):
        campaign.add(JobSpec(problem="vecadd", scale="bench", seed=0,
                             config=ArchConfig.from_name("4c8w8t"),
                             local_size=lws))
    outcome = CampaignRunner(workers=4, cache=ResultCache()).run(campaign)
    for result in outcome.job_results():
        print(result.summary())
"""

from repro.campaign.cache import (
    CACHE_DIR_ENV,
    CacheStats,
    ResultCache,
    default_cache_dir,
)
from repro.campaign.executor import (
    Executor,
    ExecutorCompletion,
    ExecutorTask,
    LocalExecutor,
)
from repro.campaign.result import JobFailure, JobResult
from repro.campaign.runner import (
    CampaignError,
    CampaignOutcome,
    CampaignRunner,
    RunStats,
)
from repro.campaign.spec import (
    CACHE_SCHEMA_VERSION,
    Campaign,
    JobSpec,
    config_from_dict,
    config_to_dict,
    simulator_version,
)
from repro.campaign.worker import execute_job, run_spec

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "Campaign",
    "CampaignError",
    "CampaignOutcome",
    "CampaignRunner",
    "Executor",
    "ExecutorCompletion",
    "ExecutorTask",
    "JobFailure",
    "LocalExecutor",
    "JobResult",
    "ResultCache",
    "RunStats",
    "config_from_dict",
    "config_to_dict",
    "default_cache_dir",
    "execute_job",
    "run_spec",
    "simulator_version",
]
