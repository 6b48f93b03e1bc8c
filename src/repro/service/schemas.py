"""Service request/record schemas: what a job submission names, validated.

A :class:`JobRequest` is the HTTP-submitted description of one unit of
service work.  Two shapes are accepted (exactly one of them per request):

* ``{"scenario": "<name>", ...}`` -- a registered scenario, planned exactly
  like ``repro scenario run`` with the same flags;
* ``{"problems": [...], "configs": [...], ...}`` -- an ad-hoc grid of
  ``problems x configs x lws`` points: an anonymous scenario whose plan is
  the request's own specs.

Either way :meth:`JobRequest.planned` yields one
:meth:`~repro.scenarios.planner.Planner.run` (minus the sink: the shared
:class:`~repro.campaign.cache.ResultCache` is the service's memoization
layer, so overlapping submissions cost one simulation each).

Validation is strict and happens at submission time -- a request that names
an unknown scenario, problem, or machine shape is rejected with a 400 before
it ever reaches the queue, so the queue journal only ever holds runnable
work.  A :class:`Job` is one queued submission's full lifecycle record:
request, state machine (``pending -> running -> done | failed``), timestamps
and the terminal payload.
"""

from __future__ import annotations

import uuid
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.campaign.spec import JobSpec
from repro.sim.config import ArchConfig

#: Valid job lifecycle states, in order.
JOB_STATES = ("pending", "running", "done", "failed")

#: The problem scales a request may name (mirrors the CLI choices).
SCALES = ("smoke", "bench", "paper")


class ValidationError(ValueError):
    """A submitted request that cannot be turned into runnable work."""


def new_job_id() -> str:
    """A fresh, unguessable job handle."""
    return uuid.uuid4().hex[:16]


@dataclass(frozen=True)
class JobRequest:
    """One validated submission: a scenario reference or an ad-hoc grid."""

    scenario: Optional[str] = None
    problems: Tuple[str, ...] = ()
    configs: Tuple[str, ...] = ()
    lws: Tuple[Optional[int], ...] = (None,)
    scale: str = "smoke"
    seed: int = 0
    sweep: Optional[str] = None            # scenario grid override (--sweep)
    exact_calls: bool = False

    @property
    def kind(self) -> str:
        return "scenario" if self.scenario is not None else "grid"

    def describe(self) -> str:
        """One-line label for logs and job listings."""
        if self.scenario is not None:
            return f"scenario:{self.scenario}@{self.scale}"
        return (f"grid:{','.join(self.problems)}x{','.join(self.configs)}"
                f"@{self.scale}")

    # ------------------------------------------------------------------
    def specs(self) -> List[JobSpec]:
        """The ad-hoc grid as concrete job specs (``kind == "grid"`` only)."""
        if self.scenario is not None:
            raise ValueError("scenario requests expand through the Planner, "
                             "not through specs()")
        jobs: List[JobSpec] = []
        for problem in self.problems:
            for config_name in self.configs:
                config = ArchConfig.from_name(config_name)
                for lws in self.lws:
                    jobs.append(JobSpec(
                        problem=problem, config=config, scale=self.scale,
                        seed=self.seed, local_size=lws,
                        label=f"service/{problem}/{config_name}/"
                              f"lws={'eq1' if lws is None else lws}"))
        return jobs

    def planned(self):
        """``(scenario, context, plan)``: this request as one ``Planner.run``.

        A scenario request resolves the registry and leaves ``plan`` to the
        planner.  An ad-hoc grid is an anonymous, unregistered scenario
        planned as :meth:`specs` verbatim, so every point keeps its raw
        ``local_size``, content hash and label.
        """
        from repro.scenarios import REGISTRY, PlannedJob, Scenario, ScenarioContext

        context = ScenarioContext(scale=self.scale, seed=self.seed,
                                  exact_calls=self.exact_calls,
                                  problems=self.problems or None,
                                  sweep=self.sweep)
        if self.scenario is not None:
            return REGISTRY.get(self.scenario), context, None
        scenario = Scenario(name=self.describe(), description="ad-hoc grid",
                            grid=(), analyze=lambda run: "")
        return scenario, context, [PlannedJob(spec) for spec in self.specs()]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Plain JSON types (what the queue journal persists)."""
        return {
            "scenario": self.scenario,
            "problems": list(self.problems),
            "configs": list(self.configs),
            "lws": list(self.lws),
            "scale": self.scale,
            "seed": self.seed,
            "sweep": self.sweep,
            "exact_calls": self.exact_calls,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "JobRequest":
        """Inverse of :meth:`to_dict` (journal records are pre-validated)."""
        return cls(
            scenario=data.get("scenario"),
            problems=tuple(data.get("problems") or ()),
            configs=tuple(data.get("configs") or ()),
            lws=tuple(data.get("lws") or (None,)),
            scale=str(data.get("scale", "smoke")),
            seed=int(data.get("seed", 0)),
            sweep=data.get("sweep"),
            exact_calls=bool(data.get("exact_calls", False)),
        )


def _int_or_none(value, what: str) -> Optional[int]:
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{what} must be an integer or null, got {value!r}")
    return value


def validate_request(data: object) -> JobRequest:
    """A decoded JSON body -> a :class:`JobRequest`, or :class:`ValidationError`.

    Every name the request uses (scenario, problem, machine shape, scale) is
    resolved against the live registries here, so nothing unrunnable is ever
    accepted into the queue.
    """
    # Deferred: the scenario library registers on import and the service
    # must not pay (or re-trigger) that at module-import time.
    from repro.scenarios import REGISTRY
    from repro.workloads.problems import available_problems

    if not isinstance(data, Mapping):
        raise ValidationError(f"request body must be a JSON object, "
                              f"got {type(data).__name__}")
    known = {"scenario", "problems", "configs", "lws", "scale", "seed",
             "sweep", "exact_calls", "kernels"}
    unknown = set(data) - known
    if unknown:
        raise ValidationError(f"unknown request field(s): "
                              f"{', '.join(sorted(unknown))}")

    scenario = data.get("scenario")
    problems = tuple(data.get("problems") or ())
    configs = tuple(data.get("configs") or ())
    if (scenario is None) == (not problems):
        raise ValidationError(
            'exactly one of "scenario" or an ad-hoc grid ("problems" + '
            '"configs") must be given')

    scale = data.get("scale", "smoke")
    if scale not in SCALES:
        raise ValidationError(f"scale must be one of {', '.join(SCALES)}, "
                              f"got {scale!r}")
    seed = data.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")

    if scenario is not None:
        if not isinstance(scenario, str) or scenario not in REGISTRY:
            raise ValidationError(
                f"unknown scenario {scenario!r}; registered: "
                f"{', '.join(REGISTRY.names())}")
        sweep = data.get("sweep")
        if sweep is not None and sweep not in SCALES:
            raise ValidationError(f"sweep must be one of {', '.join(SCALES)}, "
                                  f"got {sweep!r}")
        kernels = tuple(data.get("kernels") or ()) or None
        if kernels:
            for name in kernels:
                if name not in available_problems():
                    raise ValidationError(f"unknown kernel {name!r}")
        return JobRequest(scenario=scenario, scale=scale, seed=seed,
                          sweep=sweep, problems=kernels or (),
                          exact_calls=bool(data.get("exact_calls", False)))

    if not configs:
        raise ValidationError('an ad-hoc grid needs at least one "configs" entry')
    for problem in problems:
        if problem not in available_problems():
            raise ValidationError(
                f"unknown problem {problem!r}; available: "
                f"{', '.join(available_problems())}")
    for config_name in configs:
        try:
            ArchConfig.from_name(str(config_name))
        except (ValueError, TypeError) as error:
            raise ValidationError(f"bad machine shape {config_name!r}: "
                                  f"{error}") from None
    lws_raw = data.get("lws", [None])
    if not isinstance(lws_raw, (list, tuple)) or not lws_raw:
        raise ValidationError('"lws" must be a non-empty list of integers/null')
    lws = tuple(_int_or_none(value, "lws entry") for value in lws_raw)
    for value in lws:
        if value is not None and value < 1:
            raise ValidationError(f"lws entries must be >= 1, got {value}")
    return JobRequest(problems=tuple(str(p) for p in problems),
                      configs=tuple(str(c) for c in configs),
                      lws=lws, scale=scale, seed=seed)


# ----------------------------------------------------------------------
@dataclass
class Job:
    """One queued submission's lifecycle record."""

    id: str
    request: JobRequest
    state: str = "pending"
    client: str = ""
    submitted: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    result: Optional[Dict[str, object]] = None
    error: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in ("done", "failed")

    def to_dict(self, with_result: bool = True) -> Dict[str, object]:
        """The job as the API serves it (``GET /jobs/{id}``)."""
        payload: Dict[str, object] = {
            "job": self.id,
            "state": self.state,
            "kind": self.request.kind,
            "label": self.request.describe(),
            "request": self.request.to_dict(),
            "client": self.client,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
        }
        if with_result:
            payload["result"] = self.result
        return payload
