"""Tests for device buffers and the allocator (repro.runtime.buffers)."""

import numpy as np
import pytest

from repro.runtime.buffers import Buffer, BufferAllocator
from repro.runtime.errors import AllocationError
from repro.sim.memory.mainmem import MainMemory


def _allocator(size=1024, alignment=16):
    memory = MainMemory(size)
    return memory, BufferAllocator(memory, alignment_words=alignment)


def test_allocations_are_aligned_and_non_overlapping():
    _, allocator = _allocator()
    first = allocator.allocate(10, name="a")
    second = allocator.allocate(20, name="b")
    assert isinstance(first, Buffer) and first.name == "a"
    assert first.address % 16 == 0
    assert second.address % 16 == 0
    assert second.address >= first.end


def test_upload_download_roundtrip_preserves_values_and_shape():
    _, allocator = _allocator()
    data = np.arange(12, dtype=np.float64).reshape(3, 4)
    buffer = allocator.upload(data, name="matrix")
    flat = allocator.download(buffer)
    np.testing.assert_array_equal(flat, data.ravel())
    shaped = allocator.download(buffer, shape=(3, 4))
    np.testing.assert_array_equal(shaped, data)


def test_upload_of_empty_array_allocates_placeholder():
    _, allocator = _allocator()
    buffer = allocator.upload(np.zeros(0), name="empty")
    assert buffer.size_words == 1


def test_zero_clears_buffer_contents():
    memory, allocator = _allocator()
    buffer = allocator.upload(np.ones(8))
    allocator.zero(buffer)
    assert memory.read(buffer.address) == 0.0
    np.testing.assert_array_equal(allocator.download(buffer), np.zeros(8))


def test_exhaustion_raises_allocation_error():
    _, allocator = _allocator(size=64)
    allocator.allocate(48)
    with pytest.raises(AllocationError, match="exhausted"):
        allocator.allocate(32)


def test_invalid_sizes_rejected():
    _, allocator = _allocator()
    with pytest.raises(AllocationError):
        allocator.allocate(0)
    with pytest.raises(AllocationError):
        allocator.allocate(-5)


def test_reset_releases_space():
    _, allocator = _allocator(size=64)
    allocator.allocate(48)
    allocator.reset()
    assert allocator.allocated_words == 0
    allocator.allocate(48)            # fits again


def test_invalid_alignment_rejected():
    memory = MainMemory(64)
    with pytest.raises(ValueError):
        BufferAllocator(memory, alignment_words=0)
