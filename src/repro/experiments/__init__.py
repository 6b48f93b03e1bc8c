"""The paper's experiments as data: constants, record types, statistics, renderers.

Nothing in this package runs a simulation.  The registered scenarios
(:mod:`repro.scenarios.library`) declare the grids and the planner executes
them; the modules here say what the paper's studies *are* and turn completed
results into the paper's tables:

* :mod:`~repro.experiments.configs` -- the 450-configuration hardware sweep
  (and reduced grids for CI-sized runs).
* :mod:`~repro.experiments.figure1` -- the Figure-1 trace study's constants
  (``vecadd`` on a 1-core/2-warp/4-thread machine under four lws values) and
  its caption line.
* :mod:`~repro.experiments.figure2` -- the Figure-2 sweep's record type and
  the violin statistics (average, worst case, fraction below 1) reported in
  the paper's data tables.
* :mod:`~repro.experiments.claims` -- the textual claims of Section 3
  (average 1.3x / 3.7x speed-ups, up to 20x worst case, Eq. 1 degenerating to
  lws=1 on very large machines), evaluated on a sweep result.
* :mod:`~repro.experiments.ablation` -- constants and record types of the
  launch-overhead sensitivity and memory/compute boundedness studies.
* :mod:`~repro.experiments.report` -- markdown rendering of all results.
"""

from repro.experiments.configs import (
    PAPER_SWEEP_SIZE,
    bench_sweep,
    paper_sweep,
    smoke_sweep,
    sweep_by_name,
)
from repro.experiments.figure1 import summarize_figure1_launch
from repro.experiments.figure2 import (
    Figure2Result,
    SweepRecord,
    sweep_record_from_job,
)
from repro.experiments.stats import RatioStats, ratio_stats
from repro.experiments.claims import ClaimResults, evaluate_claims
from repro.experiments.ablation import (
    BoundednessRecord,
    OverheadSensitivityRecord,
    boundedness_record_from_job,
    overhead_records,
)
from repro.experiments.report import render_figure2_table

__all__ = [
    "BoundednessRecord",
    "ClaimResults",
    "Figure2Result",
    "OverheadSensitivityRecord",
    "PAPER_SWEEP_SIZE",
    "RatioStats",
    "SweepRecord",
    "bench_sweep",
    "boundedness_record_from_job",
    "evaluate_claims",
    "overhead_records",
    "paper_sweep",
    "ratio_stats",
    "render_figure2_table",
    "smoke_sweep",
    "summarize_figure1_launch",
    "sweep_by_name",
    "sweep_record_from_job",
]
