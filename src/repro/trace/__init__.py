"""Execution tracing and trace analysis.

The paper's methodology is built on execution traces: every instruction issue
is recorded with its timestamp, program counter, active thread mask and warp,
then annotated with the semantic code section it belongs to (Figure 1).  This
package provides the same capability for the simulator:

* :class:`~repro.trace.tracer.Tracer` -- collects
  :class:`~repro.trace.events.TraceEvent` records during simulation.
* :mod:`~repro.trace.analysis` -- wavefront extraction, occupancy/utilisation
  metrics and the memory-vs-compute boundedness classification used to
  annotate Figure 2.
* :mod:`~repro.trace.render` -- ASCII timelines reproducing the structure of
  the paper's Figure 1 in a terminal.
"""

from repro.trace.analysis import (
    TraceAnalysis,
    analyze_trace,
    classify_boundedness,
    occupancy_timeline,
    section_wavefronts,
)
from repro.trace.events import TraceEvent
from repro.trace.render import render_issue_timeline, render_section_waveform, render_summary
from repro.trace.tracer import Tracer

__all__ = [
    "TraceAnalysis",
    "TraceEvent",
    "Tracer",
    "analyze_trace",
    "classify_boundedness",
    "occupancy_timeline",
    "render_issue_timeline",
    "render_section_waveform",
    "render_summary",
    "section_wavefronts",
]
