"""Random-program fuzzing across all three engines.

Every generated program is launched under ``reference``, ``fast`` and
``batch`` on the same machine shape and must produce bit-identical cycles,
every PerfCounters field and every output buffer (see
``tests/engine_fixtures.py`` for the generator and the oracle).

Three layers:

* a hypothesis sweep drawing specs at random (a quick always-on pass plus a
  ``slow``-marked deep pass; together they clear well over 200 distinct
  programs per run);
* a fixed corpus of specs under ``tests/fuzz_corpus/`` (20 general ones plus
  the narrow-warp ones, ``*_narrow.json``) replayed deterministically -- these are the CI smoke set and regression anchors
  (a spec that ever found a divergence gets frozen here);
* generator self-checks (same spec => same instruction stream) so corpus
  replays actually pin the program, not just the seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from engine_fixtures import make_fuzz_kernel, run_fuzz_case
from repro.sim.fastcore import FastSimtCore

CORPUS_DIR = Path(__file__).parent / "fuzz_corpus"
CORPUS_FILES = tuple(sorted(CORPUS_DIR.glob("*.json")))

#: The spec space: small machines and launches keep the reference engine
#: (the slow oracle) affordable while still covering multi-core dispatch,
#: partial warps, forced tiny lws (many sequential calls), both warp
#: schedulers, and the two ends of the warp-width range (1 and 32 lanes).
_base_specs = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**31 - 1),
    "cores": st.integers(min_value=1, max_value=2),
    "warps": st.integers(min_value=1, max_value=4),
    "threads": st.sampled_from([1, 2, 4, 8, 32]),
    "gws": st.integers(min_value=4, max_value=64),
    "lws": st.sampled_from([None, 1, 2, 3, 5]),
    "scheduler": st.sampled_from(["rr", "gto"]),
    "depth": st.integers(min_value=2, max_value=8),
})


@st.composite
def spec_strategy(draw):
    """A base spec, half the time launched with fewer work-groups than a warp
    has lanes (``active_lanes`` < ``threads``, which replaces ``lws``): the
    under-utilised regime of the paper's Figure 1, where every warp runs its
    whole program under a narrow prefix mask."""
    spec = draw(_base_specs)
    if spec["threads"] > 1 and draw(st.booleans()):
        spec["active_lanes"] = draw(st.integers(1, spec["threads"] - 1))
    return spec


# ----------------------------------------------------------------------
# hypothesis sweeps
# ----------------------------------------------------------------------
@settings(max_examples=60)
@given(spec=spec_strategy())
def test_fuzzed_programs_bit_identical(spec):
    """Always-on sweep: 60 random programs through all three engines."""
    run_fuzz_case(spec)


@pytest.mark.slow
@settings(max_examples=200)
@given(spec=spec_strategy())
def test_fuzzed_programs_bit_identical_deep(spec):
    """Deep sweep (>=200 programs); deselect with ``-m "not slow"``."""
    run_fuzz_case(spec)


# ----------------------------------------------------------------------
# deterministic corpus replay (the CI smoke set)
# ----------------------------------------------------------------------
def test_corpus_is_populated():
    assert len(CORPUS_FILES) >= 20, (
        "tests/fuzz_corpus/ must hold at least 20 frozen specs"
    )


def test_corpus_holds_narrow_warp_specs():
    """The frozen narrow cases cover both ends of the warp-width range."""
    narrow = [json.loads(path.read_text()) for path in CORPUS_FILES
              if path.stem.endswith("_narrow")]
    assert {spec["threads"] for spec in narrow} >= {1, 32}
    assert any(spec.get("active_lanes", spec["threads"]) < spec["threads"]
               for spec in narrow)


def _warp_representations(monkeypatch):
    """Corpus stem -> the set of ``warp.lists`` its ``fast`` run attached."""
    attached = []
    attach = FastSimtCore.add_warp

    def recording_attach(core, warp):
        attached.append(warp.lists)
        attach(core, warp)
    monkeypatch.setattr(FastSimtCore, "add_warp", recording_attach)
    representations = {}
    for path in CORPUS_FILES:
        attached.clear()
        run_fuzz_case(json.loads(path.read_text()), engines=("fast",))
        representations[path.stem] = set(attached)
    return representations


def test_corpus_covers_both_register_representations(monkeypatch):
    """Some frozen case runs only list warps under ``fast`` (launches of at
    most two lanes) and some runs only numpy warps, so a regenerated corpus
    cannot silently drop either representation."""
    representations = _warp_representations(monkeypatch)
    assert {True} in representations.values(), representations
    assert {False} in representations.values(), representations


@pytest.mark.parametrize("path", CORPUS_FILES, ids=lambda p: p.stem)
def test_corpus_case_bit_identical(path):
    spec = json.loads(path.read_text())
    run_fuzz_case(spec)


# ----------------------------------------------------------------------
# generator determinism: the corpus pins programs, not just seeds
# ----------------------------------------------------------------------
def test_same_spec_builds_identical_program():
    spec = {"seed": 1234, "cores": 1, "warps": 2, "threads": 4,
            "gws": 32, "lws": None, "scheduler": "rr", "depth": 8}
    from repro.kernels.wrapper import build_workgroup_program

    first = build_workgroup_program(make_fuzz_kernel(spec))
    second = build_workgroup_program(make_fuzz_kernel(spec))
    assert len(first.instructions) == len(second.instructions)
    for a, b in zip(first.instructions, second.instructions):
        assert (a.opcode, a.dst, a.srcs, a.imm, a.target, a.target2) == \
               (b.opcode, b.dst, b.srcs, b.imm, b.target, b.target2)


def test_different_seeds_build_different_programs():
    base = {"cores": 1, "warps": 2, "threads": 4, "gws": 32,
            "lws": None, "scheduler": "rr", "depth": 8}
    from repro.kernels.wrapper import build_workgroup_program

    programs = {}
    for seed in (1, 2, 3, 4):
        program = build_workgroup_program(make_fuzz_kernel({**base, "seed": seed}))
        signature = tuple((i.opcode, i.dst, i.srcs, i.imm)
                          for i in program.instructions)
        programs[seed] = signature
    # Not all four random programs should collapse to one shape.
    assert len(set(programs.values())) > 1
