"""Shared fixtures for the test suite.

Simulation-backed tests always use ``smoke``-scale problems and small machine
configurations so the whole suite stays fast; the benchmark harness (not the
tests) exercises the larger scales.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.sim.config import ArchConfig
from repro.runtime.device import Device
from repro.workloads.problems import make_problem

# Simulation-backed hypothesis tests routinely blow the default 200ms
# per-example deadline on slow CI runners (the first example of a process
# pays numpy warm-up, and a launch at an unlucky random geometry is legal
# but slow).  Deadline flakiness is not a property violation, so the whole
# suite runs under a no-deadline profile; shrinking and verbosity behave
# exactly as before.
settings.register_profile("repro", deadline=None)
settings.load_profile("repro")


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate the tests/golden/*.json performance-counter "
             "snapshots instead of comparing against them (commit the "
             "resulting diff together with the simulator change that "
             "moved the counters)",
    )


@pytest.fixture
def update_golden(request) -> bool:
    """True when the run should rewrite the golden fixtures."""
    return request.config.getoption("--update-golden")


@pytest.fixture
def fsynced(monkeypatch):
    """Inode of the file behind every ``os.fsync`` call, in call order."""
    inodes = []
    real_fsync = os.fsync

    def counting(fd):
        inodes.append(os.fstat(fd).st_ino)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return inodes


@pytest.fixture
def tiny_config() -> ArchConfig:
    """The paper's Figure-1 machine: 1 core, 2 warps, 4 threads."""
    return ArchConfig(cores=1, warps_per_core=2, threads_per_warp=4)


@pytest.fixture
def small_config() -> ArchConfig:
    """A slightly larger machine exercising multiple cores."""
    return ArchConfig(cores=2, warps_per_core=4, threads_per_warp=4)


@pytest.fixture
def tiny_device(tiny_config) -> Device:
    """Device wrapping :func:`tiny_config`."""
    return Device(tiny_config)


@pytest.fixture
def small_device(small_config) -> Device:
    """Device wrapping :func:`small_config`."""
    return Device(small_config)


@pytest.fixture
def vecadd_problem():
    """The vecadd workload at smoke scale (64 elements)."""
    return make_problem("vecadd", scale="smoke")


@pytest.fixture
def sgemm_problem():
    """The sgemm workload at smoke scale."""
    return make_problem("sgemm", scale="smoke")
