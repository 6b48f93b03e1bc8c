#!/usr/bin/env python
"""Validate Equation 1 against an exhaustive search.

The paper claims the runtime formula needs no search.  This example runs the
registered ``lws-search`` scenario -- every candidate lws of one kernel,
through the planner -- on four machine shapes of the paper sweep and shows
where the Eq.-1 choice lands in the ranking: it should be the best value or
within a few percent of it, at zero search cost.

Run with:  python examples/autotuning_oracle.py
"""

from dataclasses import replace

from repro.core.optimizer import optimal_local_size
from repro.scenarios import REGISTRY, Planner, ScenarioContext
from repro.workloads.problems import make_problem

MACHINES = ("1c2w4t", "2c4w8t", "4c8w8t", "16c8w16t")


def main() -> None:
    problem = make_problem("sgemm", scale="bench")
    print(problem.summary())
    print()

    # The scenario's grid holds one cross product per (kernel, machine);
    # keep the four machines of interest.  Exact calls, like a real launch.
    search = REGISTRY.get("lws-search")
    context = ScenarioContext(scale="bench", exact_calls=True,
                              problems=("sgemm",), sweep="paper")
    grid = [axes for axes in search.axes(context) if axes.configs[0].name in MACHINES]
    run = Planner().run(replace(search, grid=grid), context)

    for machine in MACHINES:
        jobs = [record.result for record in run.records
                if record.meta["config"] == machine]          # ascending lws
        best = min(jobs, key=lambda job: job.cycles)
        worst = max(reversed(jobs), key=lambda job: job.cycles)
        eq1_lws = optimal_local_size(best.global_size, best.hardware_parallelism)
        eq1 = next(job for job in jobs if job.local_size == eq1_lws)
        print(f"{machine:>9s}  (hp={best.hardware_parallelism:5d})  "
              f"oracle lws={best.local_size:<5d} {best.cycles:>8d} cycles   "
              f"Eq.1 lws={eq1.local_size:<5d} {eq1.cycles:>8d} cycles   "
              f"gap {eq1.cycles / best.cycles:.3f}x")
        print(f"            worst candidate: lws={worst.local_size} "
              f"({worst.cycles / best.cycles:.1f}x slower than the oracle)")
    print()
    print("Eq. 1 lands on (or within a few percent of) the oracle without any search;")
    print("a fixed, hardware-agnostic choice can be many times slower on large machines.")


if __name__ == "__main__":
    main()
