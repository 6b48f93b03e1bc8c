"""Tests for the trace layer: events, tracer, analysis, rendering."""

from repro.isa.opcodes import Opcode
from repro.runtime.device import Device
from repro.runtime.launcher import launch_kernel
from repro.sim.config import ArchConfig
from repro.sim.stats import PerfCounters
from repro.trace.analysis import (
    analyze_trace,
    classify_boundedness,
    section_wavefronts,
)
from repro.trace.events import TraceEvent
from repro.trace.render import render_issue_timeline, render_section_waveform, render_summary
from repro.trace.tracer import Tracer
from repro.workloads.problems import make_problem

CONFIG = ArchConfig(cores=1, warps_per_core=2, threads_per_warp=4)


def _traced_launch(local_size=None, problem_name="vecadd"):
    tracer = Tracer()
    device = Device(CONFIG, tracer=tracer)
    problem = make_problem(problem_name, scale="smoke")
    result = launch_kernel(device, problem.kernel, problem.arguments, problem.global_size,
                           local_size=local_size)
    return tracer, result


# ----------------------------------------------------------------------
# TraceEvent
# ----------------------------------------------------------------------
def test_event_round_trips_through_dict():
    event = TraceEvent(cycle=5, core=1, warp=2, pc=7, opcode=Opcode.FMA,
                       mask=0b1011, section="mac", call_index=3)
    restored = TraceEvent.from_dict(event.as_dict())
    assert restored == event
    assert restored.active_lanes == 3


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
def test_tracer_records_every_issue_of_a_launch():
    tracer, result = _traced_launch()
    assert len(tracer) == result.counters.warp_instructions
    assert not tracer.truncated


def test_tracer_event_cap_truncates_gracefully():
    tracer = Tracer(max_events=10)
    device = Device(CONFIG, tracer=tracer)
    problem = make_problem("vecadd", scale="smoke")
    launch_kernel(device, problem.kernel, problem.arguments, problem.global_size)
    assert len(tracer) == 10
    assert tracer.truncated
    assert tracer.dropped > 0


def test_tracer_warns_once_when_the_cap_is_hit(capsys):
    tracer = Tracer(max_events=5)
    device = Device(CONFIG, tracer=tracer)
    problem = make_problem("vecadd", scale="smoke")
    launch_kernel(device, problem.kernel, problem.arguments, problem.global_size)
    err = capsys.readouterr().err
    assert err.count("trace truncated") == 1         # once, not per event
    assert "max_events=5" in err


def test_tracer_filters_by_core_and_section():
    tracer = Tracer(sections=["store"])
    device = Device(CONFIG, tracer=tracer)
    problem = make_problem("vecadd", scale="smoke")
    launch_kernel(device, problem.kernel, problem.arguments, problem.global_size)
    assert len(tracer) > 0
    assert all(event.section == "store" for event in tracer.events)


def test_tracer_multi_call_launches_get_increasing_call_indices_and_offsets():
    tracer, result = _traced_launch(local_size=1)          # 64 items on hp=8 -> 8 calls
    assert result.num_calls == 8
    call_indices = {event.call_index for event in tracer.events}
    assert call_indices == set(range(8))
    # later calls appear later on the global timeline
    first_call_last = max(e.cycle for e in tracer.events if e.call_index == 0)
    second_call_first = min(e.cycle for e in tracer.events if e.call_index == 1)
    assert second_call_first > first_call_last


def test_tracer_clear_resets_state():
    tracer, _ = _traced_launch()
    tracer.clear()
    assert len(tracer) == 0
    assert tracer.cycle_offset == 0


def test_events_for_filtering():
    tracer, _ = _traced_launch()
    warp0 = tracer.events_for(core=0, warp=0)
    warp1 = tracer.events_for(core=0, warp=1)
    assert warp0 and warp1
    assert all(e.warp == 0 for e in warp0)
    assert len(warp0) + len(warp1) == len(tracer)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def test_section_wavefronts_cover_wrapper_sections():
    tracer, _ = _traced_launch()
    waves = section_wavefronts(tracer.events)
    for section in ("init", "loop", "store", "exit"):
        assert section in waves
    init = waves["init"]
    exit_ = waves["exit"]
    assert init.first_cycle <= exit_.first_cycle
    assert init.issues > 0 and init.span >= 1


def test_issue_gaps_appear_between_sequential_kernel_calls():
    # With lws=1 every kernel call boundary leaves the whole machine idle
    # for (at least half) the launch overhead: the gaps of Figure 1.
    tracer, result = _traced_launch(local_size=1)
    cycles = sorted({event.cycle for event in tracer.events})
    min_gap = CONFIG.kernel_launch_overhead // 2
    gaps = [(a, b) for a, b in zip(cycles, cycles[1:]) if b - a >= min_gap]
    assert len(gaps) >= result.num_calls - 1


def test_classify_boundedness_from_counters_and_events():
    memory_heavy = PerfCounters(warp_instructions=10, memory_instructions=5)
    compute_heavy = PerfCounters(warp_instructions=100, memory_instructions=5)
    assert classify_boundedness(memory_heavy) == "memory-bound"
    assert classify_boundedness(compute_heavy) == "compute-bound"
    assert classify_boundedness() == "unknown"

    tracer, _ = _traced_launch()
    assert classify_boundedness(events=tracer.events) in ("memory-bound", "compute-bound")


def test_analyze_trace_summary_fields():
    tracer, result = _traced_launch()
    analysis = analyze_trace(tracer.events, result.counters,
                             threads_per_warp=CONFIG.threads_per_warp)
    assert analysis.total_events == len(tracer)
    assert analysis.cores_seen == 1
    assert analysis.warps_seen == 2
    assert 0.0 < analysis.issue_utilization <= 1.0
    assert 0.0 < analysis.simt_efficiency <= 1.0
    assert analysis.span >= 1
    waves = section_wavefronts(tracer.events)
    assert min(waves.values(), key=lambda w: w.first_cycle).section == "init"
    assert analysis.call_boundaries == [analysis.first_cycle]


def test_analyze_trace_of_empty_event_list():
    analysis = analyze_trace([])
    assert analysis.total_events == 0
    assert analysis.span == 0


# ----------------------------------------------------------------------
# rendering and export
# ----------------------------------------------------------------------
def test_render_issue_timeline_contains_rows_and_legend():
    tracer, _ = _traced_launch()
    text = render_issue_timeline(tracer.events, width=60, title="demo")
    assert "demo" in text
    assert "core 0 warp 0" in text
    assert "core 0 warp 1" in text
    assert "legend:" in text
    assert render_issue_timeline([], width=60) == "(empty trace)"


def test_render_section_waveform_lists_sections_in_order():
    tracer, _ = _traced_launch()
    text = render_section_waveform(tracer.events, width=60)
    assert "init" in text and "store" in text
    assert text.index("init") < text.index("exit")


def test_render_summary_reports_key_metrics():
    tracer, result = _traced_launch()
    text = render_summary(tracer.events, result.counters, CONFIG.threads_per_warp)
    assert "issue utilisation" in text
    assert "boundedness" in text
    assert "TRUNCATED" not in text                   # complete trace says nothing


def test_render_summary_flags_a_truncated_trace():
    tracer, result = _traced_launch()
    text = render_summary(tracer.events, result.counters,
                          CONFIG.threads_per_warp, dropped=17)
    assert "TRUNCATED" in text
    assert "17 event(s) dropped" in text
    assert "partial trace" in text
