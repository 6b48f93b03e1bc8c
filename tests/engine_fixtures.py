"""Shared engine-equivalence fixtures: stress kernels and a program fuzzer.

Two families of *unregistered* kernels back the differential and fuzz suites
(unregistered on purpose: the library registry stays at its nine paper
workloads, and ``test_grid_covers_all_library_kernels`` pins that):

* hand-written stress kernels -- an irregular nested-branch storm and a
  strided-gather kernel, built to defeat the batch engine's uniform-PC
  streaming so its per-warp fallback path is exercised hard, a barrier
  kernel, the only program under the oracle that issues ``BAR``, and a
  functional-unit contention kernel whose warps wait on a held SFU or LSU;
* :func:`make_fuzz_kernel`, a deterministic random-program generator.  A
  small JSON-able *spec* (seed, machine shape, launch geometry, program
  depth) fully determines the kernel, so every case can be replayed
  bit-for-bit from a corpus file or a hypothesis-shrunk example.

The generator only emits programs that are defined for every input: values
are clamped before integer conversion, gather indices are wrapped into
bounds with ``rem``, and no operation that can produce NaN/inf from finite
inputs (div, sqrt, log) is drawn.  Engines must agree on *results*, and a
program whose behaviour is an exception would test exception parity instead
(pinned separately in ``test_integer_ops_keep_exact_python_semantics``).
"""

from __future__ import annotations

import os
import random
from typing import Mapping, Optional

import numpy as np

from repro.kernels.builder import KernelBuilder
from repro.kernels.kernel import Kernel
from repro.kernels.signature import BufferParam
from repro.kernels.values import Value
from repro.runtime.device import Device
from repro.runtime.launcher import launch_kernel
from repro.sim.config import ArchConfig
from repro.sim.engine import ENGINE_ENV, ENGINES


def engine_under_test() -> str:
    """The engine a test that means "the oracle" runs on.

    ``$REPRO_ENGINE`` when it is set -- each leg of CI's engine-equivalence
    matrix checks its own engine against the same fixtures -- and the
    ``reference`` oracle otherwise, whatever the library's default is.
    """
    return os.environ.get(ENGINE_ENV) or "reference"


# ----------------------------------------------------------------------
# divergence-stress kernels (hand written, unregistered)
# ----------------------------------------------------------------------
def make_branch_storm_kernel() -> Kernel:
    """Irregular nested branching keyed off ``gid % 3`` and ``gid % 5``.

    Adjacent lanes take different sides of *nested* SPLIT/JOIN pairs and run
    data-dependent loop trip counts, so warps almost never sit at a uniform
    PC -- the batch engine must detect the divergence and fall back to the
    per-warp path without perturbing a single cycle.
    """

    def _body(b: KernelBuilder, gid: Value, args: Mapping[str, Value]) -> None:
        with b.section("setup"):
            x = b.load(args["a"], gid)
            r3 = b.rem(gid, b.const(3))
            r5 = b.rem(gid, b.const(5))
            acc = b.copy(b.to_float(gid))

        with b.section("storm"):
            def hot():
                def inner():
                    b.move(acc, b.fma(x, b.const(1.5), acc))

                def outer():
                    b.move(acc, b.sub(acc, x))

                b.if_then_else(b.cmp_eq(r5, b.const(0)), inner, outer)

            def cold():
                with b.for_range(b.rem(gid, b.const(4))) as i:
                    b.move(acc, b.add(acc, b.to_float(i)))

            b.if_then_else(b.lt(r3, b.const(1)), hot, cold)
            with b.if_(b.lt(x, acc)):
                b.move(acc, b.mul(acc, b.const(0.5)))

        with b.section("store"):
            b.store(acc, args["c"], gid)

    return Kernel(
        name="branch_storm",
        params=(BufferParam("a"), BufferParam("c", writable=True)),
        body=_body,
        description="nested irregular branches + data-dependent loops "
                    "(divergence stress fixture, not registered)",
        tags=("fixture", "divergence"),
    )


def make_strided_gather_kernel(size: int, stride: int = 7) -> Kernel:
    """Strided gather: each lane loads ``a[(gid * stride) % size]`` plus a
    second shifted index, then mixes them through a ``gid % 3`` loop.

    The scattered addresses span many cache lines per warp, producing
    multi-line memory rounds whose LSU holds space the issues apart -- the
    shape the batch engine never streams, so every such round must fall back
    to the per-warp handlers between streamed ones.
    """

    def _body(b: KernelBuilder, gid: Value, args: Mapping[str, Value]) -> None:
        with b.section("gather"):
            n = b.const(size)
            idx = b.rem(b.mul(gid, b.const(stride)), n)
            x = b.load(args["a"], idx)
            idx2 = b.rem(b.add(idx, b.const(stride // 2 + 1)), n)
            y = b.load(args["a"], idx2)

        with b.section("mix"):
            acc = b.copy(x)
            with b.for_range(b.rem(gid, b.const(3))) as i:
                b.move(acc, b.fma(y, b.const(0.25), b.add(acc, b.to_float(i))))

        with b.section("store"):
            b.store(acc, args["c"], gid)

    return Kernel(
        name=f"strided_gather_{size}x{stride}",
        params=(BufferParam("a"), BufferParam("c", writable=True)),
        body=_body,
        description="strided multi-line gather (memory-divergence stress "
                    "fixture, not registered)",
        tags=("fixture", "divergence", "memory"),
    )


def make_barrier_kernel() -> Kernel:
    """Per-lane loops of unequal length (``gid % 5`` trips), then two
    barriers back to back.

    The warps of a core reach the first barrier at different cycles, so the
    early ones park there and the last arrival releases them all; the second
    barrier releases them again at once.  With several work-items per lane
    the pattern repeats per item, and a warp that halts early shrinks the
    set of warps the others wait for.
    """

    def _body(b: KernelBuilder, gid: Value, args: Mapping[str, Value]) -> None:
        with b.section("skew"):
            acc = b.copy(b.load(args["a"], gid))
            with b.for_range(b.rem(gid, b.const(5))) as i:
                b.move(acc, b.fma(acc, b.const(0.5), b.to_float(i)))

        with b.section("sync"):
            b.barrier()
            b.barrier()

        with b.section("store"):
            b.store(acc, args["c"], gid)

    return Kernel(
        name="barrier_skew",
        params=(BufferParam("a"), BufferParam("c", writable=True)),
        body=_body,
        description="unequal per-lane loops then two barriers (barrier "
                    "fixture, not registered)",
        tags=("fixture", "barrier"),
    )


def make_fu_contention_kernel(size: int, stride: int = 17) -> Kernel:
    """Functional-unit contention: back-to-back SFU ops, then wide strided loads.

    Each warp issues four ``FSQRT`` / ``FDIV`` (the SFU accepts one every 12
    cycles) with only short ``FADD`` steps between them, some fed by an
    earlier SFU result.  So one warp's own readiness keeps landing while the
    SFU is held -- by its own last issue or another warp's -- and the unit's
    busy-until often moves past a bound a waiting warp cached a few cycles
    earlier.  Then two loads whose lanes lie ``stride`` words apart (one more
    than a 16-word line, so neighbouring lanes never share one) touch 8 or
    more lines on 8- and 16-lane warps, and the LSU stays held for that many
    cycles.  Operands are kept positive, so no operation can fault.
    """

    def _body(b: KernelBuilder, gid: Value, args: Mapping[str, Value]) -> None:
        with b.section("sfu"):
            x = b.abs(b.load(args["a"], gid))
            r0 = b.sqrt(x)
            r1 = b.div(x, b.add(r0, b.const(1.0)))
            r2 = b.sqrt(b.add(x, b.const(2.0)))
            r3 = b.div(r2, b.add(x, b.const(3.0)))

        with b.section("strided"):
            n = b.const(size)
            idx = b.rem(b.mul(gid, b.const(stride)), n)
            y = b.load(args["a"], idx)
            z = b.load(args["a"], b.rem(b.add(idx, b.const(stride // 2)), n))

        with b.section("store"):
            acc = b.add(b.add(r0, r1), b.add(r2, r3))
            b.store(b.fma(y, z, acc), args["c"], gid)

    return Kernel(
        name=f"fu_contention_{size}x{stride}",
        params=(BufferParam("a"), BufferParam("c", writable=True)),
        body=_body,
        description="back-to-back SFU ops and multi-line strided loads "
                    "(functional-unit contention fixture, not registered)",
        tags=("fixture", "contention", "memory"),
    )


def stress_arguments(size: int, seed: int = 0):
    """Deterministic input/output buffers for the stress kernels."""
    rng = np.random.default_rng(seed)
    return {
        "a": rng.uniform(-8.0, 8.0, size).astype(np.float64),
        "c": np.zeros(size, dtype=np.float64),
    }


# ----------------------------------------------------------------------
# the fuzz-program generator
# ----------------------------------------------------------------------
#: Bound applied before every integer conversion and between arithmetic
#: steps: keeps chained multiplies finite and F2I always defined.
_CLAMP = 1024.0


def make_fuzz_kernel(spec: Mapping[str, object]) -> Kernel:
    """Build the random kernel fully determined by ``spec``.

    ``spec["seed"]`` drives an isolated :class:`random.Random`, so the same
    spec always emits the identical instruction stream; ``spec["depth"]``
    is the number of random program steps; gather indices wrap at
    ``spec["gws"]`` (the buffer length).
    """
    seed = int(spec["seed"])
    depth = int(spec["depth"])
    size = int(spec["gws"])

    def _body(b: KernelBuilder, gid: Value, args: Mapping[str, Value]) -> None:
        rng = random.Random(seed)
        buf = args["a"]
        n = b.const(size)

        def clamp(v: Value) -> Value:
            return b.maximum(b.minimum(b.to_float(v), b.const(_CLAMP)),
                             b.const(-_CLAMP))

        vals = [b.to_float(gid), b.load(buf, gid)]

        def pick() -> Value:
            return vals[rng.randrange(len(vals))]

        for _ in range(depth):
            choice = rng.randrange(10)
            if choice <= 2:
                op = rng.choice((b.add, b.sub, b.mul, b.minimum, b.maximum))
                vals.append(clamp(op(pick(), pick())))
            elif choice == 3:
                vals.append(clamp(b.fma(pick(), pick(), pick())))
            elif choice == 4:
                vals.append(b.select(b.lt(pick(), pick()), pick(), pick()))
            elif choice == 5:
                # In-bounds gather: |clamp(v)| is finite, rem wraps into [0, n).
                idx = b.rem(b.abs(b.to_int(clamp(pick()))), n)
                vals.append(b.load(buf, idx))
            elif choice == 6:
                cond = b.lt(pick(), pick())
                acc = b.copy(clamp(pick()))
                t, f = pick(), pick()

                def then_fn():
                    b.move(acc, clamp(b.add(acc, t)))

                def else_fn():
                    b.move(acc, clamp(b.sub(acc, f)))

                b.if_then_else(cond, then_fn, else_fn)
                vals.append(acc)
            elif choice == 7:
                trips = b.rem(b.abs(b.to_int(clamp(pick()))), b.const(4))
                acc = b.copy(clamp(pick()))
                step = pick()
                with b.for_range(trips) as i:
                    b.move(acc, clamp(b.add(acc, b.add(b.to_float(i), step))))
                vals.append(acc)
            elif choice == 8:
                vals.append(b.to_float(
                    b.logical_and(b.le(pick(), pick()), b.lt(pick(), pick()))))
            else:
                unary = rng.choice((b.abs, b.neg))
                vals.append(unary(clamp(pick())))

        out = clamp(pick())
        for _ in range(2):
            out = clamp(b.add(out, pick()))
        b.store(out, args["out"], gid)

    return Kernel(
        name=f"fuzz_{seed}_{depth}",
        params=(BufferParam("a"), BufferParam("out", writable=True)),
        body=_body,
        description="randomly generated fuzz program (deterministic in its spec)",
        tags=("fixture", "fuzz"),
    )


def fuzz_config(spec: Mapping[str, object]) -> ArchConfig:
    """The machine shape a fuzz spec runs on."""
    return ArchConfig(cores=int(spec["cores"]),
                      warps_per_core=int(spec["warps"]),
                      threads_per_warp=int(spec["threads"]),
                      warp_scheduler=str(spec.get("scheduler", "rr")))


def fuzz_arguments(spec: Mapping[str, object]):
    """Deterministic input data for a fuzz spec (seeded off the program seed)."""
    size = int(spec["gws"])
    rng = np.random.default_rng(int(spec["seed"]) ^ 0x5EED)
    return {
        "a": rng.uniform(-8.0, 8.0, size).astype(np.float64),
        "out": np.zeros(size, dtype=np.float64),
    }


# ----------------------------------------------------------------------
# the cross-engine oracle
# ----------------------------------------------------------------------
def run_engines(kernel: Kernel, arguments, config: ArchConfig, global_size: int,
                local_size: Optional[int] = None, engines=ENGINES):
    """Launch ``kernel`` once per engine on fresh devices; return the results."""
    results = {}
    for engine in engines:
        device = Device(config, engine=engine)
        args = {name: value.copy() if isinstance(value, np.ndarray) else value
                for name, value in arguments.items()}
        results[engine] = launch_kernel(device, kernel, args, global_size,
                                        local_size=local_size)
    return results


def assert_engines_identical(results, label: str) -> None:
    """Every engine must match ``reference`` bit-for-bit: launch geometry,
    cycles, every PerfCounters field, per-call cycles and every output buffer."""
    reference = results["reference"]
    ref_counters = reference.counters.as_dict()
    for engine, result in results.items():
        if engine == "reference":
            continue
        assert result.cycles == reference.cycles, (
            f"{label}: {engine} cycles {result.cycles} != "
            f"reference {reference.cycles}")
        for field in ("sim_cycles", "overhead_cycles", "call_cycles",
                      "local_size", "num_calls"):
            assert getattr(result, field) == getattr(reference, field), (
                f"{label}: {engine} {field}")
        counters = result.counters.as_dict()
        for field, ref_value in ref_counters.items():
            assert counters[field] == ref_value, (
                f"{label}: {engine} counter {field!r} diverged "
                f"(reference={ref_value}, {engine}={counters[field]})")
        assert set(result.outputs) == set(reference.outputs)
        for name, ref_array in reference.outputs.items():
            assert np.array_equal(result.outputs[name], ref_array), (
                f"{label}: {engine} output buffer {name!r} diverged")


def fuzz_local_size(spec: Mapping[str, object]) -> Optional[int]:
    """The local size a fuzz spec launches with (``None``: the runtime's)."""
    if spec.get("active_lanes") is not None:
        # One lane runs one work-group, so this few work-groups leave every
        # warp launched with at most ``active_lanes`` of its lanes active.
        return -(-int(spec["gws"]) // int(spec["active_lanes"]))
    lws = spec.get("lws")
    return None if lws is None else int(lws)


def run_fuzz_case(spec: Mapping[str, object], engines=ENGINES) -> dict:
    """Build the spec's kernel, run it under ``engines``, assert identity when
    ``reference`` is among them; returns the results."""
    results = run_engines(make_fuzz_kernel(spec), fuzz_arguments(spec),
                          fuzz_config(spec), int(spec["gws"]),
                          local_size=fuzz_local_size(spec), engines=engines)
    if "reference" in results:
        assert_engines_identical(results, f"fuzz spec {dict(spec)!r}")
    return results
