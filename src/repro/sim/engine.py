"""Simulation-engine selection.

The simulator ships three engines that produce **bit-identical** results:

* ``"reference"`` -- the original, straight-line cycle model in
  :mod:`repro.sim.core`.  Easy to read, easy to audit, and the oracle the
  differential test layer checks the other engines against; tests that mean
  the oracle name it.
* ``"fast"`` -- the default: the optimised engine in
  :mod:`repro.sim.fastcore`.  It event-skips (a core whose every warp is
  stalled is not re-scanned until its ``next_event_hint`` cycle) and
  vectorises per-lane execution with numpy (ALU/FPU lanes, load/store
  address generation and coalescing are batched per warp instead of per
  lane).
* ``"batch"`` -- the trace-compiled engine in :mod:`repro.sim.batchcore` /
  :mod:`repro.sim.compile`.  A one-time compile pass per (program, config)
  classifies every PC and segments straight-line blocks; at run time whole
  *rounds* of warps execute each PC as a single 2-D numpy operation across
  all resident warps of a core (one gather/scatter per PC per core instead
  of per warp), with cross-warp masking for divergence.  It runs inside the
  ``fast`` engine's issue loop as a streaming hook: any cycle the compiler
  cannot prove schedule-exact is visited by that loop itself, so
  equivalence holds by construction.

Because the engines are equivalent by construction *and by test*
(``tests/test_engine_differential.py``, ``tests/test_engine_fuzz.py``), the
engine choice deliberately never enters a campaign job's content hash: a
result cached under one engine is valid under the others.

The engine is decided once -- by the caller, else ``$REPRO_ENGINE``, else
:data:`DEFAULT_ENGINE` -- and passed down as a value: a campaign runner
resolves it per run and every task it sends carries the name, so a job never
reads an engine another job chose.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

#: Engine names accepted everywhere an engine can be chosen.
ENGINES: Tuple[str, ...] = ("reference", "fast", "batch")

#: Engine used when none is requested (and the environment does not override).
DEFAULT_ENGINE = "fast"

#: Environment variable consulted when no engine is passed explicitly, so whole
#: test/benchmark runs can be flipped without touching call sites.
ENGINE_ENV = "REPRO_ENGINE"


class EngineError(ValueError):
    """Raised for unknown engine names."""


def resolve_engine(engine: Optional[str] = None) -> str:
    """Return a validated engine name.

    ``None`` falls back to ``$REPRO_ENGINE`` and then :data:`DEFAULT_ENGINE`.
    """
    if engine is None:
        engine = os.environ.get(ENGINE_ENV) or DEFAULT_ENGINE
    if engine not in ENGINES:
        raise EngineError(
            f"unknown simulation engine {engine!r}; expected one of {list(ENGINES)}"
        )
    return engine
