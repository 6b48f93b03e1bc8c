"""The package imports nothing but the stdlib, numpy and itself.

An optional-dependency fork (an import-guarded second backend that no CI
job installs and no benchmark measures) starts with one ``import``; this
scan is where it gets noticed.  The same file pins two structural facts the
same way: ``repro.experiments`` describes experiments and never runs one,
and ``benchmarks/harness`` is the only benchmark code in the repository.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


def foreign_imports(root: Path, allowed) -> list:
    foreign = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign.update(
                f"{path.relative_to(root)}: {name}" for name in names
                if name.split(".")[0] not in allowed)
    return sorted(foreign)


def test_src_imports_only_stdlib_numpy_and_repro():
    assert not foreign_imports(SRC, ALLOWED)


def test_tests_and_examples_add_only_the_test_runner():
    """pytest and hypothesis, nothing else: a timing plugin is how a second
    benchmark system beside ``benchmarks/harness`` would come back."""
    tests = ROOT / "tests"
    helpers = {path.stem for path in tests.glob("*.py")} | {"tests"}
    assert not foreign_imports(tests, ALLOWED | {"pytest", "hypothesis"} | helpers)
    assert not foreign_imports(ROOT / "examples", ALLOWED)


def test_experiments_package_never_runs_a_simulation():
    """The planner is the one path from an experiment to simulations."""
    package = SRC / "repro" / "experiments"
    runners = sorted(str(source.relative_to(package))
                     for source in package.rglob("*.py")
                     if re.search(r"CampaignRunner|Campaign\(|JobSpec",
                                  source.read_text()))
    assert runners == []


def test_the_issue_loop_is_written_once_per_engine_family():
    """The loop's guards and its stall charge live in the reference loop
    (``core.py`` / ``gpu.py``) and in ``run_fast`` only: the batch engine
    runs inside ``run_fast`` instead of carrying a copy of its body."""
    sim = SRC / "repro" / "sim"
    for needle in ("simulation deadlock", "ran off the program",
                   "stall_cycles +="):
        owners = {path.name for path in sim.rglob("*.py")
                  if needle in path.read_text()}
        assert "fastcore.py" in owners, needle
        assert owners <= {"core.py", "gpu.py", "fastcore.py"}, (needle, owners)


def test_the_harness_is_the_only_benchmark_code():
    strays = sorted(str(path.relative_to(ROOT))
                    for path in ROOT.rglob("bench_*.py")
                    if "benchmarks/harness/" not in path.as_posix())
    assert strays == []
