"""Figure 1: execution traces of ``vecadd`` under different lws values.

The paper's Figure 1 traces a 128-element vector addition on a
1-core / 2-warp / 4-thread machine (hardware parallelism 8) for
``lws in {1, 16, 32, 64}`` and shows, per warp, which tagged code section
issues at which time.  This module holds the study's constants and its
caption line; the registered ``figure1`` scenario declares the grid (with
tracing on) and renders the result: ``repro scenario run figure1 --fresh``.
"""

from __future__ import annotations

#: The lws values traced in the paper's Figure 1.
FIGURE1_LWS_VALUES = (1, 16, 32, 64)
#: The vector length used in the paper's Figure 1.
FIGURE1_LENGTH = 128
#: The data seed of the Figure-1 vectors (``a`` uses it, ``b`` uses seed+1).
FIGURE1_SEED = 11


def summarize_figure1_launch(local_size: int, cycles: int, num_calls: int,
                             num_workgroups: int, lane_utilization: float) -> str:
    """The per-plot caption line of the Figure-1 study."""
    return (f"lws={local_size:>3}: {cycles:>6} cycles, "
            f"{num_calls} kernel call(s), "
            f"{num_workgroups} workgroups, "
            f"lane utilisation {lane_utilization:.0%}")
