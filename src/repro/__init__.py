"""repro: reproduction of "Optimising GPGPU Execution Through Runtime
Micro-Architecture Parameter Analysis" (IISWC 2023).

The package contains a Vortex-like SIMT GPGPU cycle-level simulator, a
mini-POCL host runtime, a kernel DSL with the paper's nine workloads, trace
tooling, the paper's hardware-aware runtime mapping technique (Equation 1)
with its baselines, and the experiment harness that regenerates the paper's
figures and claims.

Quick start::

    import repro

    device = repro.Device("4c8w8t")                 # 4 cores, 8 warps, 8 threads
    problem = repro.make_problem("vecadd", scale="bench")
    result = device.launch(problem.kernel, problem.arguments, problem.global_size)
    print(result.summary())                          # lws chosen at runtime (Eq. 1)
"""

from repro.campaign import (
    Campaign,
    CampaignOutcome,
    CampaignRunner,
    JobFailure,
    JobResult,
    JobSpec,
    ResultCache,
)
from repro.core import (
    FixedMapping,
    HardwareAwareMapping,
    MappingAnalyzer,
    NaiveMapping,
    TuningAdvisor,
    hardware_parallelism,
    optimal_local_size,
)
from repro.kernels import Kernel, KernelBuilder, get_kernel
from repro.runtime import CommandQueue, Context, Device, LaunchResult, NDRange, launch_kernel
from repro.sim import ArchConfig, Gpu, PerfCounters
from repro.trace import Tracer, analyze_trace, render_issue_timeline
from repro.workloads import Problem, available_problems, make_problem

__version__ = "1.0.0"

__all__ = [
    "ArchConfig",
    "Campaign",
    "CampaignOutcome",
    "CampaignRunner",
    "CommandQueue",
    "Context",
    "Device",
    "FixedMapping",
    "Gpu",
    "HardwareAwareMapping",
    "JobFailure",
    "JobResult",
    "JobSpec",
    "Kernel",
    "KernelBuilder",
    "LaunchResult",
    "ResultCache",
    "MappingAnalyzer",
    "NDRange",
    "NaiveMapping",
    "PerfCounters",
    "Problem",
    "Tracer",
    "TuningAdvisor",
    "__version__",
    "analyze_trace",
    "available_problems",
    "get_kernel",
    "hardware_parallelism",
    "launch_kernel",
    "make_problem",
    "optimal_local_size",
    "render_issue_timeline",
]
