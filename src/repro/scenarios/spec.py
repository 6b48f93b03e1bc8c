"""Declarative scenario specifications.

A :class:`Scenario` is the declarative description of one experiment: a grid
(problems x configs x strategies x engines x seeds, per scale) plus an
analysis hook that turns the completed grid's sink records into a rendered
report.  Adding an experiment to the repository means declaring one of these
and registering it -- the planner, the campaign runner, the result sink, the
CLI and CI all come for free (compare S2RDF's move of compiling declarative
queries onto a precomputed substrate instead of hand-coding each plan).

The grid is expressed as one or more :class:`GridAxes` (a union of cross
products; most scenarios need exactly one).  Axes are either static or a
function of the :class:`ScenarioContext` -- the run-time knobs (scale, seed,
CLI overrides) every ``repro scenario run`` invocation supplies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.spec import JobSpec
from repro.sim.config import ArchConfig

#: Strategy name meaning "let the runtime pick the lws" (``local_size=None``);
#: everything else resolves through :func:`repro.core.mapper.strategy_by_name`.
RUNTIME_STRATEGY = "runtime"


@dataclass(frozen=True)
class ScenarioContext:
    """Run-time parameters of one scenario execution.

    ``problems`` and ``sweep`` are CLI overrides (``--kernels``/``--sweep``);
    they are ``None`` unless the user asked to reshape the grid, and scenarios
    are free to ignore them (a cache-size sweep has no use for ``--sweep``).
    """

    scale: str = "bench"
    seed: int = 0
    exact_calls: bool = False
    problems: Optional[Tuple[str, ...]] = None
    sweep: Optional[str] = None

    def with_scale(self, scale: str) -> "ScenarioContext":
        return replace(self, scale=scale)


@dataclass(frozen=True)
class GridAxes:
    """One cross product of the scenario grid.

    Every combination of ``problems x configs x strategies x engines x seeds``
    becomes one :class:`~repro.campaign.spec.JobSpec`.  ``sizes`` (parallel to
    nothing -- it is an axis of its own) overrides the flattened global work
    size of sizeable problems; ``None`` keeps the scale's default.
    """

    problems: Tuple[str, ...]
    configs: Tuple[ArchConfig, ...]
    strategies: Tuple[str, ...] = ("ours",)
    engines: Tuple[Optional[str], ...] = (None,)
    seeds: Optional[Tuple[int, ...]] = None        # None -> (context.seed,)
    sizes: Tuple[Optional[int], ...] = (None,)
    scale: Optional[str] = None                    # None -> context.scale
    call_simulation_limit: Optional[int] = None
    collect_trace: bool = False
    #: Extra ``(key, value)`` pairs merged into every job's meta dict -- how a
    #: union-of-grids scenario tags which sub-grid a record came from (e.g.
    #: the ablation tags each overhead sweep with its overhead value).
    tags: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self):
        for name in ("problems", "configs", "strategies", "engines", "sizes"):
            if not getattr(self, name):
                raise ValueError(f"grid axis {name!r} must not be empty")


#: A scenario grid: axes, a union of axes, or a context-dependent factory.
GridSource = Union[
    GridAxes,
    Sequence[GridAxes],
    Callable[[ScenarioContext], Union[GridAxes, Sequence[GridAxes]]],
]


@dataclass(frozen=True)
class PlannedJob:
    """One expanded grid point: the spec plus the axis tags that named it."""

    spec: JobSpec
    engine: Optional[str] = None
    meta: Dict[str, object] = field(default_factory=dict)

    def key(self) -> str:
        """Execution/sink key: the content hash, engine-qualified if pinned.

        The content hash deliberately ignores the engine (the engines are
        bit-identical), so a scenario that compares engines must distinguish
        the two executions of one point here.  Memoised per instance, like
        the content hash: the planner asks for it several times per job.
        """
        key = self.__dict__.get("_key")
        if key is None:
            digest = self.spec.content_hash()
            key = digest if self.engine is None else f"{self.engine}:{digest}"
            object.__setattr__(self, "_key", key)
        return key


@dataclass(frozen=True)
class Scenario:
    """A named, registered experiment: a grid plus an analysis hook.

    ``analyze`` receives the completed run (a ``ScenarioRun``; see
    :mod:`repro.scenarios.planner`) and returns the rendered report.
    ``cacheable=False`` opts the scenario out of the campaign result cache --
    required whenever the *measurement* is wall-clock time (an engine
    comparison served from cache would time nothing).
    """

    name: str
    description: str
    grid: GridSource
    analyze: Callable[["ScenarioRun"], str]         # noqa: F821 - planner type
    default_scale: str = "bench"
    cacheable: bool = True

    def axes(self, context: ScenarioContext) -> List[GridAxes]:
        """The grid as a list of :class:`GridAxes` for ``context``."""
        source = self.grid
        if callable(source):
            source = source(context)
        if isinstance(source, GridAxes):
            return [source]
        axes = list(source)
        if not axes or not all(isinstance(a, GridAxes) for a in axes):
            raise TypeError(
                f"scenario {self.name!r}: grid must yield GridAxes, got {axes!r}")
        return axes
