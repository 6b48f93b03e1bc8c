"""The paper's contribution: runtime micro-architecture parameter analysis.

This package implements the hardware-aware, runtime mapping technique the
paper proposes, together with the baselines it is compared against:

* :func:`~repro.core.optimizer.optimal_local_size` -- Equation 1 of the paper,
  ``lws = gws / hp`` (with the integer/clamping details spelled out), computed
  at runtime from the device's micro-architecture parameters.
* :class:`~repro.core.mapper.HardwareAwareMapping` and the baseline
  :class:`~repro.core.mapper.NaiveMapping` (``lws = 1``) and
  :class:`~repro.core.mapper.FixedMapping` (``lws = 32``) strategies used in
  the paper's Figure 2.  The exhaustive lws search that checks Eq. 1 against
  the best candidate is the ``lws-search`` scenario.
* :class:`~repro.core.analysis.MappingAnalyzer` -- static analysis of a
  (kernel, machine, lws) triple: regime, number of kernel calls, utilisation.
* :class:`~repro.core.advisor.TuningAdvisor` -- combines the static analysis
  with trace/counter observations into an actionable tuning report.
"""

from repro.core.advisor import TuningAdvisor, TuningReport
from repro.core.analysis import MappingAnalysis, MappingAnalyzer
from repro.core.mapper import (
    FixedMapping,
    HardwareAwareMapping,
    NaiveMapping,
    PAPER_STRATEGIES,
    strategy_by_name,
)
from repro.core.optimizer import hardware_parallelism, optimal_local_size

__all__ = [
    "FixedMapping",
    "HardwareAwareMapping",
    "MappingAnalysis",
    "MappingAnalyzer",
    "NaiveMapping",
    "PAPER_STRATEGIES",
    "TuningAdvisor",
    "TuningReport",
    "hardware_parallelism",
    "optimal_local_size",
    "strategy_by_name",
]
