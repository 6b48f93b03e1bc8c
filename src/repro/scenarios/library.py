"""The built-in scenario library.

Importing this module registers every built-in scenario in the process-wide
:data:`~repro.scenarios.registry.REGISTRY`:

* the four paper experiments -- ``figure1``, ``figure2``, ``ablation``,
  ``claims`` -- whose grid constants, record types and renderers live in
  :mod:`repro.experiments` (grid expansion is frozen by
  ``tests/golden/experiments_smoke.json``),
* ``lws-search``, which runs every candidate lws of each (kernel, machine)
  point and checks Eq. 1 against the best of them, and
* four sweeps the declarative layer makes cheap -- ``scaling`` (cores 1..32
  at fixed gws), ``scheduler-sweep`` (RR vs GTO across kernels),
  ``engine-compare`` (reference vs fast vs batch wall time on identical grids) and
  ``cache-sensitivity`` (L1/L2 capacity sweep).

Each scenario is a grid declaration plus an analysis function over sink
records; none of them owns runner wiring, persistence or CLI flags.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.optimizer import candidate_set, optimal_local_size
from repro.experiments.ablation import (
    BOUNDEDNESS_CONFIG,
    DEFAULT_OVERHEADS,
    OVERHEAD_BASE_CONFIG,
    boundedness_record_from_job,
    overhead_records,
)
from repro.experiments.configs import sweep_by_name
from repro.experiments.claims import evaluate_claims
from repro.experiments.figure1 import (
    FIGURE1_LWS_VALUES,
    FIGURE1_LENGTH,
    FIGURE1_SEED,
    summarize_figure1_launch,
)
from repro.experiments.figure2 import Figure2Result, sweep_record_from_job
from repro.experiments.report import (
    render_figure2_table,
    render_speedup_summary,
    render_table,
)
from repro.scenarios.registry import register
from repro.scenarios.spec import GridAxes, RUNTIME_STRATEGY, Scenario, ScenarioContext
from repro.sim.config import FIGURE1_CONFIG, ArchConfig
from repro.trace.render import render_issue_timeline, render_section_waveform
from repro.workloads.problems import problem_global_size

#: The default workload set of the sweep-style scenarios (the CLI's
#: ``--kernels`` default); the paper's five math kernels.
DEFAULT_SWEEP_PROBLEMS = ("vecadd", "relu", "saxpy", "sgemm", "knn")

#: Default number of kernel calls simulated exactly before extrapolating the
#: rest; keeps the lws=1 arm of the sweeps tractable (see launcher docs).
DEFAULT_CALL_SIMULATION_LIMIT = 3

#: Column width of the Figure-1 waveforms and issue timelines.
_FIGURE1_WIDTH = 96


def _call_limit(context: ScenarioContext) -> Optional[int]:
    return None if context.exact_calls else DEFAULT_CALL_SIMULATION_LIMIT


def figure2_result_from_run(run) -> Figure2Result:
    """Rebuild a :class:`Figure2Result` from a run's sink records."""
    return Figure2Result(records=[
        sweep_record_from_job(record.result, str(record.meta["strategy"]))
        for record in run.records
    ])


# ----------------------------------------------------------------------
# Ported paper experiments
# ----------------------------------------------------------------------
def _figure1_grid(context: ScenarioContext) -> GridAxes:
    # The Figure-1 study is scale-independent by construction: the paper pins
    # the machine, the 128-element vector and the four lws values.  It is a
    # trace study, so a fresh run keeps each launch's issue events.
    return GridAxes(
        problems=("vecadd",),
        configs=(FIGURE1_CONFIG,),
        strategies=tuple(f"lws={lws}" for lws in FIGURE1_LWS_VALUES),
        seeds=(FIGURE1_SEED,),
        sizes=(FIGURE1_LENGTH,),
        scale="bench",
        collect_trace=True,
    )


def _figure1_analyze(run) -> str:
    """Caption lines per lws; plus, when the records carry trace events (a
    fresh run -- sinks and the cache store summaries only), each launch's
    section waveform and issue timeline."""
    first = run.records[0].result
    traced = first.events is not None
    lines = [f"Figure 1 reproduction: vecadd, {first.global_size} "
             f"elements on {first.config_name}"]
    if not traced:
        lines.append("(numbers from sink records; `repro scenario run "
                     "figure1 --fresh` renders the timelines)")
    lines.append("")
    for record in run.records:
        job = record.result
        lines.append(summarize_figure1_launch(
            job.local_size, job.cycles, job.num_calls, job.num_workgroups,
            job.lane_utilization))
        if traced:
            lines.extend([
                render_section_waveform(job.events, width=_FIGURE1_WIDTH),
                render_issue_timeline(job.events, width=_FIGURE1_WIDTH,
                                      title=f"lws={job.local_size}"),
                "",
            ])
    if not traced:
        best = min(run.results(), key=lambda job: job.cycles)
        lines.extend(["", f"best lws: {best.local_size} ({best.cycles} cycles)"])
    return "\n".join(lines)


def _figure2_grid(context: ScenarioContext) -> GridAxes:
    return GridAxes(
        problems=context.problems if context.problems else DEFAULT_SWEEP_PROBLEMS,
        configs=tuple(sweep_by_name(context.sweep if context.sweep else "smoke")),
        strategies=("lws=1", "lws=32", "ours"),
        call_simulation_limit=_call_limit(context),
    )


def _figure2_analyze(run) -> str:
    result = figure2_result_from_run(run)
    return render_figure2_table(result) + "\n\n" + render_speedup_summary(result)


def _claims_analyze(run) -> str:
    return evaluate_claims(figure2_result_from_run(run)).render()


def _ablation_grid(context: ScenarioContext) -> List[GridAxes]:
    axes = [
        GridAxes(
            problems=("vecadd",),
            configs=(replace(OVERHEAD_BASE_CONFIG, kernel_launch_overhead=overhead),),
            strategies=("naive-lws1", "hardware-aware"),
            call_simulation_limit=DEFAULT_CALL_SIMULATION_LIMIT,
            tags=(("study", "overhead"), ("overhead", overhead)),
        )
        for overhead in DEFAULT_OVERHEADS
    ]
    axes.append(GridAxes(
        problems=context.problems if context.problems else DEFAULT_SWEEP_PROBLEMS,
        configs=(BOUNDEDNESS_CONFIG,),
        strategies=(RUNTIME_STRATEGY,),
        tags=(("study", "boundedness"),),
    ))
    return axes


def _ablation_analyze(run) -> str:
    by_study: Dict[str, list] = {"overhead": [], "boundedness": []}
    for record in run.records:
        by_study[str(record.meta["study"])].append(record)

    cycles: Dict[Tuple[int, str], int] = {}
    overheads: List[int] = []
    for record in by_study["overhead"]:
        overhead = int(record.meta["overhead"])
        if overhead not in overheads:
            overheads.append(overhead)
        cycles[(overhead, str(record.meta["strategy"]))] = record.result.cycles
    records = overhead_records(overheads, [
        (cycles[(o, "naive-lws1")], cycles[(o, "hardware-aware")])
        for o in overheads
    ])
    rows = [[str(r.launch_overhead), str(r.naive_cycles), str(r.ours_cycles),
             f"{r.ratio:.2f}"] for r in records]
    lines = [
        "A1 -- launch-overhead sensitivity (vecadd):",
        render_table(["overhead", "naive cycles", "ours cycles", "naive/ours"], rows),
        "",
        "A2 -- memory/compute boundedness:",
    ]
    bound_rows = []
    for record in by_study["boundedness"]:
        b = boundedness_record_from_job(record.result)
        bound_rows.append([b.problem, b.category, b.boundedness,
                           f"{b.memory_intensity:.2f}", f"{b.l1_hit_rate:.1%}",
                           str(b.cycles)])
    lines.append(render_table(
        ["kernel", "category", "bound", "mem intensity", "L1 hit", "cycles"],
        bound_rows))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The exhaustive lws search: Eq. 1 against every candidate
# ----------------------------------------------------------------------
def _lws_search_grid(context: ScenarioContext) -> List[GridAxes]:
    """One cross product per (problem, machine): every lws of its
    :func:`~repro.core.optimizer.candidate_set`, Eq. 1's value included."""
    axes = []
    for problem in context.problems if context.problems else DEFAULT_SWEEP_PROBLEMS:
        gws = problem_global_size(problem, scale=context.scale, seed=context.seed)
        for config in sweep_by_name(context.sweep if context.sweep else "smoke"):
            axes.append(GridAxes(
                problems=(problem,),
                configs=(config,),
                strategies=tuple(f"lws={lws}" for lws in candidate_set(gws, config)),
                call_simulation_limit=_call_limit(context),
            ))
    return axes


def _lws_search_analyze(run) -> str:
    points: Dict[Tuple[str, str], list] = {}
    for record in run.records:
        key = (str(record.meta["problem"]), str(record.meta["config"]))
        points.setdefault(key, []).append(record.result)
    rows = []
    behind = []
    for (problem, machine), jobs in points.items():
        # Jobs ascend in lws, so a tie makes the smaller lws the best
        # candidate and the larger one the worst.
        best = min(jobs, key=lambda job: job.cycles)
        worst = max(reversed(jobs), key=lambda job: job.cycles)
        eq1_lws = optimal_local_size(best.global_size, best.hardware_parallelism)
        eq1 = next(job for job in jobs if job.local_size == eq1_lws)
        gap = eq1.cycles / best.cycles
        if eq1.cycles > best.cycles:
            behind.append((gap, f"{problem} on {machine}"))
        rows.append([problem, machine, str(best.hardware_parallelism), str(len(jobs)),
                     str(best.local_size), str(best.cycles),
                     str(eq1.local_size), str(eq1.cycles), f"{gap:.3f}x",
                     str(worst.local_size), f"{worst.cycles / best.cycles:.1f}x"])
    verdict = (f"Eq. 1 picks the best candidate on {len(rows) - len(behind)} "
               f"of {len(rows)} point(s)")
    if behind:
        gap, point = max(behind)
        verdict += f"; largest gap {gap:.3f}x ({point})"
    return ("Exhaustive lws search: Eq. 1 against the best candidate lws\n"
            + render_table(["kernel", "machine", "hp", "candidates", "best lws",
                            "best cycles", "Eq.1 lws", "Eq.1 cycles", "gap",
                            "worst lws", "worst/best"], rows)
            + f"\n\n{verdict}")


# ----------------------------------------------------------------------
# New scenarios the declarative layer makes cheap
# ----------------------------------------------------------------------
#: Core counts of the ``scaling`` scenario (1 -> 32 at fixed gws).
SCALING_CORES = (1, 2, 4, 8, 16, 32)


def _scaling_grid(context: ScenarioContext) -> GridAxes:
    return GridAxes(
        problems=context.problems if context.problems else ("vecadd",),
        configs=tuple(ArchConfig(cores=c, warps_per_core=8, threads_per_warp=8)
                      for c in SCALING_CORES),
        strategies=("ours",),
        call_simulation_limit=_call_limit(context),
    )


def _scaling_analyze(run) -> str:
    blocks: List[str] = ["Core scaling at fixed gws (hardware-aware mapping):"]
    by_problem: Dict[str, list] = {}
    for record in run.records:
        by_problem.setdefault(str(record.meta["problem"]), []).append(record)
    for problem, records in by_problem.items():
        base = records[0].result.cycles
        rows = []
        for record in records:
            job = record.result
            cores = int(str(record.meta["config"]).split("c", 1)[0])
            speedup = base / job.cycles if job.cycles else 0.0
            rows.append([str(cores), str(job.hardware_parallelism),
                         str(job.local_size), str(job.cycles),
                         f"{speedup:.2f}x", f"{speedup / cores:.1%}"])
        blocks.append(f"\n{problem} (gws={records[0].result.global_size}):")
        blocks.append(render_table(
            ["cores", "hp", "lws", "cycles", "speedup", "efficiency"], rows))
    return "\n".join(blocks)


def _scheduler_grid(context: ScenarioContext) -> List[GridAxes]:
    problems = context.problems if context.problems else ("vecadd", "sgemm", "knn")
    base = ArchConfig(cores=4, warps_per_core=8, threads_per_warp=8)
    return [
        GridAxes(
            problems=problems,
            configs=(replace(base, warp_scheduler=policy),),
            strategies=("ours",),
            call_simulation_limit=_call_limit(context),
            tags=(("scheduler", policy),),
        )
        for policy in ("rr", "gto")
    ]


def _scheduler_analyze(run) -> str:
    cycles: Dict[Tuple[str, str], int] = {}
    problems: List[str] = []
    for record in run.records:
        problem = str(record.meta["problem"])
        if problem not in problems:
            problems.append(problem)
        cycles[(problem, str(record.meta["scheduler"]))] = record.result.cycles
    rows = []
    for problem in problems:
        rr, gto = cycles[(problem, "rr")], cycles[(problem, "gto")]
        rows.append([problem, str(rr), str(gto),
                     f"{rr / gto:.3f}" if gto else "-"])
    return ("Warp-scheduler comparison (round-robin vs greedy-then-oldest, "
            "4c8w8t, hardware-aware mapping):\n"
            + render_table(["kernel", "rr cycles", "gto cycles", "rr/gto"], rows))


def _engine_grid(context: ScenarioContext) -> GridAxes:
    return GridAxes(
        problems=context.problems if context.problems else ("vecadd", "sgemm"),
        configs=(ArchConfig(cores=4, warps_per_core=8, threads_per_warp=8),),
        strategies=("ours",),
        engines=("reference", "fast", "batch"),
        call_simulation_limit=_call_limit(context),
    )


def _engine_analyze(run) -> str:
    by_point: Dict[Tuple[str, str], Dict[str, object]] = {}
    order: List[Tuple[str, str]] = []
    for record in run.records:
        point = (str(record.meta["problem"]), str(record.meta["config"]))
        if point not in by_point:
            by_point[point] = {}
            order.append(point)
        by_point[point][str(record.meta["engine"])] = record.result
    # Column order follows the grid's engine tiers: reference first, then
    # each accelerated engine with its wall-time ratio over the reference.
    engines = [e for e in ("reference", "fast", "batch")
               if any(e in engines_at for engines_at in by_point.values())]
    accelerated = [e for e in engines if e != "reference"]
    rows = []
    mismatches = 0
    for point in order:
        ref = by_point[point]["reference"]
        identical = all(
            by_point[point][e].cycles == ref.cycles
            and by_point[point][e].counters == ref.counters
            for e in accelerated if e in by_point[point])
        mismatches += 0 if identical else 1
        row = [point[0], point[1], str(ref.cycles),
               "yes" if identical else "NO",
               f"{ref.elapsed_seconds:.2f}s"]
        for e in accelerated:
            result = by_point[point].get(e)
            if result is None:
                row.extend(["-", "-"])
                continue
            ratio = (ref.elapsed_seconds / result.elapsed_seconds
                     if result.elapsed_seconds else 0.0)
            row.extend([f"{result.elapsed_seconds:.2f}s", f"{ratio:.2f}x"])
        rows.append(row)
    verdict = ("bit-identical on every point"
               if mismatches == 0 else f"{mismatches} MISMATCHED point(s)")
    header = ["kernel", "machine", "cycles", "identical", "reference"]
    for e in accelerated:
        header.extend([e, f"{e} x"])
    return (f"Engine comparison ({' vs '.join(engines)}, identical grids, "
            "uncached wall time):\n"
            + render_table(header, rows)
            + f"\n\ncounters {verdict}")


#: (l1_size_words, l2_size_words) points of the ``cache-sensitivity`` sweep;
#: sizes respect the line*ways divisibility the config enforces.
CACHE_SWEEP_POINTS = (
    (1024, 32768),
    (4096, 32768),
    (16384, 32768),
    (4096, 8192),
    (4096, 131072),
)


def _cache_grid(context: ScenarioContext) -> List[GridAxes]:
    problems = context.problems if context.problems else ("sgemm", "knn")
    base = ArchConfig(cores=2, warps_per_core=4, threads_per_warp=8)
    return [
        GridAxes(
            problems=problems,
            configs=(replace(base, l1_size_words=l1, l2_size_words=l2),),
            strategies=("ours",),
            call_simulation_limit=_call_limit(context),
            tags=(("l1_words", l1), ("l2_words", l2)),
        )
        for l1, l2 in CACHE_SWEEP_POINTS
    ]


def _cache_analyze(run) -> str:
    rows = []
    for record in run.records:
        job = record.result
        counters = job.perf_counters()
        rows.append([
            str(record.meta["problem"]),
            str(record.meta["l1_words"]), str(record.meta["l2_words"]),
            str(job.cycles), f"{counters.l1_hit_rate:.1%}",
            f"{counters.l2_hit_rate:.1%}",
        ])
    return ("L1/L2 capacity sensitivity (2c4w8t, hardware-aware mapping):\n"
            + render_table(["kernel", "L1 words", "L2 words", "cycles",
                            "L1 hit", "L2 hit"], rows))


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
FIGURE1_SCENARIO = register(Scenario(
    name="figure1",
    description="the paper's Figure-1 trace study: vecadd on 1c2w4t, lws in {1,16,32,64}",
    grid=_figure1_grid,
    analyze=_figure1_analyze,
))

FIGURE2_SCENARIO = register(Scenario(
    name="figure2",
    description="the Figure-2 strategy sweep: kernels x machine grid x {lws=1, lws=32, ours}",
    grid=_figure2_grid,
    analyze=_figure2_analyze,
))

ABLATION_SCENARIO = register(Scenario(
    name="ablation",
    description="A1 launch-overhead sensitivity + A2 memory/compute boundedness",
    grid=_ablation_grid,
    analyze=_ablation_analyze,
))

CLAIMS_SCENARIO = register(Scenario(
    name="claims",
    description="the Section-3 claims (C1-C4) evaluated on the Figure-2 grid",
    grid=_figure2_grid,
    analyze=_claims_analyze,
))

LWS_SEARCH_SCENARIO = register(Scenario(
    name="lws-search",
    description="every candidate lws per (kernel, machine): Eq. 1 against the best",
    grid=_lws_search_grid,
    analyze=_lws_search_analyze,
))

SCALING_SCENARIO = register(Scenario(
    name="scaling",
    description="core scaling 1->32 at fixed gws (warps/threads pinned at 8w8t)",
    grid=_scaling_grid,
    analyze=_scaling_analyze,
))

SCHEDULER_SCENARIO = register(Scenario(
    name="scheduler-sweep",
    description="round-robin vs greedy-then-oldest warp scheduling across kernels",
    grid=_scheduler_grid,
    analyze=_scheduler_analyze,
))

ENGINE_COMPARE_SCENARIO = register(Scenario(
    name="engine-compare",
    description="reference vs fast vs batch engines: bit-identical counters, wall-time ratios",
    grid=_engine_grid,
    analyze=_engine_analyze,
    cacheable=False,
))

CACHE_SENSITIVITY_SCENARIO = register(Scenario(
    name="cache-sensitivity",
    description="L1/L2 capacity sweep on memory-heavy kernels",
    grid=_cache_grid,
    analyze=_cache_analyze,
))
