#!/usr/bin/env python
"""Figure-1 reproduction: execution traces of vecadd under four lws values.

The paper's Figure 1 traces a 128-element vector addition on a 1-core,
2-warp, 4-thread machine for lws in {1, 16, 32, 64} and shows when each
tagged code section issues from each warp.  This example reruns the study
with tracing enabled and renders the same information as ASCII timelines.

Run with:  python examples/trace_visualization.py
"""

from repro.experiments.figure1 import summarize_figure1_launch
from repro.scenarios import REGISTRY, Planner
from repro.trace.render import (
    render_issue_timeline,
    render_section_waveform,
    render_summary,
)


def main() -> None:
    # The registered figure1 scenario traces every launch: timelines need
    # the issue events, which only a fresh in-memory run carries.
    run = Planner().run(REGISTRY.get("figure1"))
    jobs = run.results()

    print(f"vecadd, {jobs[0].global_size} elements on {jobs[0].config_name} "
          f"(hardware parallelism 8)\n")
    for job in jobs:
        print("=" * 100)
        print(summarize_figure1_launch(job.local_size, job.cycles, job.num_calls,
                                       job.num_workgroups, job.lane_utilization))
        print("-" * 100)
        print(render_section_waveform(job.events, width=96))
        print()
        print(render_issue_timeline(job.events, width=96,
                                    title=f"lws={job.local_size}"))
        print()
        print(render_summary(job.events))
        print()

    best = min(jobs, key=lambda job: job.cycles).local_size
    print("=" * 100)
    print(f"fastest mapping: lws={best} "
          f"(the Eq.-1 value gws/hp = {jobs[0].global_size}//8 = 16)")
    print("lws=1  pays a launch overhead for each of its 16 sequential kernel calls;")
    print("lws=32/64 load every workgroup at once but leave half / three quarters of")
    print("the machine's lanes idle -- exactly the three regimes of the paper.")


if __name__ == "__main__":
    main()
