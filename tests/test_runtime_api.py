"""Tests for the OpenCL-flavoured host API (repro.runtime.api)."""

import numpy as np
import pytest

from repro.runtime.api import CommandQueue, Context
from repro.runtime.device import Device
from repro.sim.config import ArchConfig

CONFIG = ArchConfig(cores=2, warps_per_core=2, threads_per_warp=4)


def test_context_accepts_config_name_device_or_config():
    assert Context("1c2w4t").device.name == "1c2w4t"
    assert Context(CONFIG).device.name == CONFIG.name
    device = Device(CONFIG)
    assert Context(device).device is device


def test_enqueue_by_kernel_name_with_runtime_lws():
    context = Context(CONFIG)
    queue = context.queue()
    n = 32
    a, b = np.ones(n), np.full(n, 2.0)
    result = queue.enqueue_nd_range("vecadd", {"a": a, "b": b, "c": np.zeros(n)}, n)
    np.testing.assert_allclose(result.outputs["c"], 3.0)
    assert result.local_size == 2          # ceil(32 / 16) from Eq. 1
    assert queue.history == [result]


def test_enqueue_with_explicit_lws_matches_manual_choice():
    context = Context(CONFIG)
    queue = context.queue()
    n = 32
    args = {"a": np.ones(n), "b": np.ones(n), "c": np.zeros(n)}
    result = queue.enqueue_nd_range("vecadd", args, n, local_size=8)
    assert result.local_size == 8
    assert result.num_workgroups == 4


def test_context_buffer_helpers():
    context = Context(CONFIG)
    buffer = context.buffer(np.arange(8.0), name="data")
    assert buffer.size_words == 8


def test_queue_empty_history():
    queue = Context(CONFIG).queue()
    assert queue.history == []
