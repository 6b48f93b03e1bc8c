"""Execution tracing and trace analysis.

The paper's methodology is built on execution traces: every instruction issue
is recorded with its timestamp, program counter, active thread mask and warp,
then annotated with the semantic code section it belongs to (Figure 1).  This
package provides the same capability for the simulator:

* :class:`~repro.trace.tracer.Tracer` -- collects
  :class:`~repro.trace.events.TraceEvent` records during simulation.
* :mod:`~repro.trace.analysis` -- wavefront extraction, utilisation metrics
  and the memory-vs-compute boundedness classification used to annotate
  Figure 2; :func:`~repro.trace.analysis.classify_boundedness` is the one
  boundedness rule, which the tuning advisor and the A2 ablation also use.
* :mod:`~repro.trace.render` -- ASCII timelines reproducing the structure of
  the paper's Figure 1 in a terminal.
"""

from repro.trace.analysis import (
    TraceAnalysis,
    analyze_trace,
    classify_boundedness,
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
    "render_issue_timeline",
    "render_section_waveform",
    "render_summary",
    "section_wavefronts",
]
