"""The run shape: set-up, one warm-up round, timed rounds, teardown.

One call of :func:`run_workload` is one workload in one process: set-up
(timed), one untimed warm-up round, a fixed number of timed rounds of
identical work (``spec.rounds_for``: as many as nominally fit in ``seconds``,
or exactly ``rounds``), teardown (timed).

``setup_s`` is the median time a fresh interpreter takes to start and import
the program and the harness (:func:`import_seconds`, sampled before set-up and
after each quarter of the timed rounds, so that one burst of interference
cannot sit on every sample) plus the median of the set-up samples.
``wall_s`` is the **fastest timed round**; ``jobs_per_s`` and ``sim_kwips``
divide a round's counts by it.  The issue asked for the
median round; it is reported next to it as ``wall_median_s``, but on the
reference box it is no ruler: interference only ever adds time, comes in
phases that last minutes, and moved the median of ten runs by 25% over twenty
minutes where the fastest round moved 7% (README, "Observed spread").
Latency percentiles pool the samples of all timed rounds.  The per-round
walls are kept in the output (``rounds_wall_s``; ``compare`` reads their
spread).

With ``trace`` one more round runs under the class-method wrappers after the
timed ones, followed by the workload's direct probes: per-layer numbers come
from that round, end-to-end numbers always from the untraced ones, and the
ratio of the two is the tracing overhead.

A fixed pure-Python + numpy spin (:func:`spin`) runs before and after the
rounds.  It moves no metric: ``host.calib_s`` / ``host.calib_spread_frac``
and the stamp say how fast and how steady the box was during the run.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

import numpy as np

from benchmarks.harness import layers as layer_metrics
from benchmarks.harness import spec
from benchmarks.harness.spans import SpanRecorder
from benchmarks.harness.workloads import WORKLOADS, Check, Workload


@dataclass
class RunResult:
    """Everything one run measured (the ``--out`` file)."""

    workload: str
    seed: int
    traced: bool
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, Optional[float]] = field(default_factory=dict)
    rounds_wall_s: List[float] = field(default_factory=list)      # the timed rounds
    warmup_wall_s: float = 0.0
    setup_samples_s: List[float] = field(default_factory=list)
    import_samples_s: List[float] = field(default_factory=list)
    samples: Dict[str, int] = field(default_factory=dict)
    stamp: Dict[str, object] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0


def spin() -> float:
    """Seconds one fixed piece of simulator-like work took just now.

    Pure Python and numpy, nothing of the program under test: an in-place
    streaming numpy pass, small-array ufunc dispatch and LRU-style dict
    delete/reinsert -- the three things the simulator's host time is made of.
    Under 1 MiB of memory, so that ``peak_rss_mb`` stays the program's.
    """
    data = np.empty(50_000)
    small = np.arange(32, dtype=np.float64)
    out = np.empty(32)
    entries = {key: 0 for key in range(2_000)}
    started = time.perf_counter()
    data[:] = 1.0
    for _ in range(80):
        np.multiply(data, 1.0001, out=data)
        np.add(data, 1.0, out=data)
        np.sqrt(data, out=data)
    for index in range(15_000):
        key = (index * 7919) % 2_000
        entries[key] = entries.pop(key) + 1
    for _ in range(3000):
        np.add(small, small, out=out)
    return time.perf_counter() - started


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to start and import the program and
    the harness (``run.bootstrap`` has put the program on ``PYTHONPATH``)."""
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import benchmarks.harness.measure"],
                   cwd=spec.REPO_ROOT, check=True)
    return time.perf_counter() - started


def peak_rss_mb(pids: List[int]) -> float:
    """``VmHWM`` summed over ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def stamp(spins: List[float]) -> Dict[str, object]:
    """Where and on what this run was made."""
    def git(*arguments: str) -> Optional[str]:
        try:
            return subprocess.run(["git", *arguments], cwd=spec.REPO_ROOT, check=True,
                                  capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            return None
    status = git("status", "--porcelain")
    return {
        "commit": git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "calibration": {"spins_s": spins, "fastest_s": min(spins),
                        "median_s": median(spins)},
    }


def _hermetic_environment(work: Path) -> None:
    """Point every store the program may touch into the run's scratch space."""
    for variable, leaf in (("REPRO_CACHE_DIR", "default-cache"),
                           ("REPRO_SCENARIO_DIR", "default-scenarios"),
                           ("REPRO_TELEMETRY_DIR", "default-telemetry"),
                           ("REPRO_SERVICE_DIR", "default-service")):
        os.environ[variable] = str(work / leaf)
    for variable in ("REPRO_TELEMETRY", "REPRO_ENGINE", "REPRO_WAREHOUSE_BACKEND",
                     "REPRO_WAREHOUSE_PATH"):
        os.environ.pop(variable, None)


def _one_round(workload: Workload, index: int, tracer: Optional[SpanRecorder] = None):
    """(seconds, verification) of one round."""
    if tracer is not None:
        layer_metrics.install(tracer)
    try:
        started = time.perf_counter()
        payload = workload.round(index, tracer)
        wall = time.perf_counter() - started
    finally:
        if tracer is not None:
            tracer.remove()
    return wall, workload.verify(payload)


def run_workload(name: str, seed: int, seconds: float, rounds: Optional[int] = None,
                 trace: bool = False, reduced: bool = False,
                 expected_dir: Optional[Path] = None, write_expected: bool = False,
                 spans_path: Optional[Path] = None) -> RunResult:
    """Run one workload in this process; see the module docstring."""
    spec.validate_engines()
    work = spec.WORK_DIR / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    _hermetic_environment(work)
    result = RunResult(workload=name, seed=seed, traced=trace,
                       import_samples_s=[import_seconds()])
    workload = WORKLOADS[name](seed, work, reduced=reduced, expected_dir=expected_dir)
    if write_expected:
        workload.expected = None
    spins = [spin() for _ in range(3)]
    try:
        for _ in range(workload.setup_samples):
            started = time.perf_counter()
            workload.setup()
            result.setup_samples_s.append(time.perf_counter() - started)

        result.warmup_wall_s, warmup = _one_round(workload, 0)
        checks: List[Check] = [warmup]          # every round
        timed: List[Check] = []                 # the timed rounds
        count = rounds if rounds is not None else spec.rounds_for(name, seconds)
        import_after = {count * quarter // 4 for quarter in (1, 2, 3, 4)}
        for _ in range(count):
            wall, check = _one_round(workload, len(checks))
            result.rounds_wall_s.append(wall)
            timed.append(check)
            checks.append(check)
            if len(timed) in import_after:
                result.import_samples_s.append(import_seconds())
        wall_s = min(result.rounds_wall_s)
        specific = workload.specific(wall_s, timed)
        rss = peak_rss_mb([os.getpid()] + workload.child_pids())

        if trace:
            tracer = SpanRecorder()
            traced_wall, traced = _one_round(workload, len(checks), tracer)
            checks.append(traced)
            result.per_layer = layer_metrics.from_spans(tracer, traced, traced_wall)
            result.per_layer.update(
                workload.layers(traced, traced_wall, result.rounds_wall_s))
            # One-sample rounds are set against the median round.
            typical = median(result.rounds_wall_s)
            result.per_layer["sim.first_round_penalty_s"] = result.warmup_wall_s - typical
            result.per_layer["harness.trace_overhead_frac"] = traced_wall / typical - 1.0
            if spans_path is not None:
                spans_path.write_text(json.dumps(
                    {"workload": name, "seed": seed, "spans": tracer.dump()}))
        spins += [spin() for _ in range(3)]

        started = time.perf_counter()
        workload.teardown()
        teardown_s = time.perf_counter() - started
    finally:
        workload.teardown()
        shutil.rmtree(work, ignore_errors=True)
        try:
            spec.WORK_DIR.rmdir()       # only when no other run is using it
        except OSError:
            pass

    for check in checks:
        result.attempted += check.attempted
        result.failed += check.failed
        result.notes.extend(check.notes)
    result.end_to_end = {
        "setup_s": median(result.import_samples_s) + median(result.setup_samples_s),
        "wall_s": wall_s,
        "wall_median_s": median(result.rounds_wall_s),
        "jobs_per_s": max(check.ops for check in timed) / wall_s,
        "peak_rss_mb": rss,
        "teardown_s": teardown_s,
        "failed_frac": result.failed / result.attempted,
        **specific,
    }
    result.samples = {"rounds": len(timed), "setup": len(result.setup_samples_s),
                      "imports": len(result.import_samples_s),
                      "operations": sum(check.ops for check in timed)}
    result.stamp = stamp(spins)
    if trace:
        result.per_layer.update({
            "host.calib_s": min(spins),
            "host.calib_spread_frac": max(spins) / min(spins) - 1.0,
            "host.cpus": os.cpu_count(),
        })
        if workload.setup_layer is not None:
            result.per_layer[workload.setup_layer] = median(result.setup_samples_s)
        if workload.teardown_layer is not None:
            result.per_layer[workload.teardown_layer] = teardown_s
        # The workload-specific end-to-end metrics ride in the per-layer list
        # (see spec.SPECIFIC); they come from the untraced rounds.
        result.per_layer.update({metric: result.end_to_end[metric]
                                 for metric in spec.SPECIFIC
                                 if metric in result.end_to_end})
    if write_expected:
        extra = {key: value for key, value in timed[-1].values.items()
                 if key.startswith("eq1_")}
        path = workload.write_expected(timed[-1], extra)
        print(f"wrote {path}", file=sys.stderr)
    return result
