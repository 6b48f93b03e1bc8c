"""The package imports nothing but the stdlib, numpy and itself.

An optional-dependency fork (an import-guarded second backend that no CI
job installs and no benchmark measures) starts with one ``import``; this
scan is where it gets noticed.  The same file pins structural facts the same
way: ``repro.experiments`` describes experiments and never runs one, the
issue loop is written once per engine family, each opcode's semantics are
written once in ``repro.isa``, the memory walk is written once in
``repro.sim.memory``, each journal is read through the rule its client
declares on the one ``repro.campaign.journal.Journal``, the campaign runner
is the one client of the result cache, every public name of ``repro`` and
``repro.core`` has a caller under ``src/``, and ``benchmarks/harness`` is the
only benchmark code in the repository.
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


def test_opcode_semantics_are_defined_once_in_the_isa():
    """``repro.isa.opcodes.OPS`` is the one per-opcode table: no module keeps
    an opcode table of its own, and the engines under ``sim/`` name no
    register-to-register opcode -- they build those handlers from the rows."""
    from repro.isa.opcodes import OPS

    tables = {"UNARY_OPS", "BINARY_OPS", "_BINARY_NP", "_UNARY_NP",
              "_BINARY_SCALAR", "_UNARY_SCALAR", "_EWISE_BINARY", "_EWISE_UNARY"}
    lane_ops = {opcode.name for opcode, spec in OPS.items() if spec.lane is not None}
    found = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        in_sim = path.relative_to(SRC / "repro").parts[0] == "sim"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
                if in_sim and node.attr in lane_ops:
                    found.append(f"{path.name}: {node.attr}")
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            else:
                continue
            found.extend(f"{path.name}: {name}" for name in names & tables)
    assert found == []


def test_the_memory_walk_is_written_once():
    """``MemoryHierarchy.load`` / ``store`` are the only walk entry points
    (the harness finds walks by that prefix), ``Cache`` keeps no lookup or
    fill of its own and ``DramModel`` no per-line access (both are inlined in
    the walk), and no module outside ``sim/memory/`` reaches into the cache
    or DRAM queue state the walk keeps."""
    memory = SRC / "repro" / "sim" / "memory"
    methods = {}
    for path in memory.glob("*.py"):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                methods[node.name] = {item.name for item in node.body
                                      if isinstance(item, ast.FunctionDef)}
    assert {name for name in methods["MemoryHierarchy"]
            if name.startswith(("load", "store"))} == {"load", "store"}
    assert not methods["Cache"] & {"access", "lookup", "fill"}
    assert "access" not in methods["DramModel"]
    reads = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        if memory in path.parents:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in ("_sets", "_next_free")
                    and not (isinstance(node.value, ast.Name) and node.value.id == "self")):
                reads.append(f"{path.name}:{node.lineno}: {node.attr}")
    assert reads == []


#: The journal readers the one ``Journal`` replaced.
_RETIRED_JOURNAL_NAMES = {
    "JournalWriter", "is_current_record", "is_current_telemetry_record",
    "iter_journal_lines", "iter_journal_entries", "terminate_partial_tail",
    "iter_entries", "iter_records", "_usable", "_journal_view",
    "_telemetry_view", "_telemetry_parity",
}


def _file_handles(tree) -> set:
    """Names a ``with ... open(...) as name`` binds in one module."""
    handles = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.With):
            for item in node.items:
                call = item.context_expr
                if (isinstance(call, ast.Call) and isinstance(item.optional_vars, ast.Name)
                        and getattr(call.func, "attr", getattr(call.func, "id", "")) == "open"):
                    handles.add(item.optional_vars.id)
    return handles


def test_each_journal_is_read_through_its_declared_rule():
    """``campaign/journal.py`` alone parses and iterates journal lines: the
    retired readers stay gone, no other journal client (cache, sink, queue,
    telemetry journal, warehouse) calls ``json.load(s)`` or loops over an
    open file, and the warehouse reads no version stamp off a record -- the
    key of the client's read rule carries them."""
    package = SRC / "repro"
    clients = {package / name for name in ("campaign/cache.py", "scenarios/sink.py",
                                           "service/queue.py", "telemetry/journal.py")}
    clients |= set((package / "warehouse").glob("*.py"))
    found = []
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        handles = _file_handles(tree) if path in clients else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = {node.value}
                if where.startswith("warehouse/") and node.value in ("simulator", "schema"):
                    found.append(f"{where}:{node.lineno}: reads {node.value!r}")
            else:
                names = set()
            found.extend(f"{where}: {name}" for name in names & _RETIRED_JOURNAL_NAMES)
            if path not in clients:
                continue
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                found.append(f"{where}:{node.lineno}: parses json")
            if (isinstance(node, ast.For) and isinstance(node.iter, ast.Name)
                    and node.iter.id in handles):
                found.append(f"{where}:{node.lineno}: iterates a file")
    assert found == []


def test_the_runner_is_the_only_cache_client():
    """``CampaignRunner`` resolves and journals every result: under ``src/``
    only ``campaign/runner.py`` calls ``.get_many(`` or ``.put(`` on a cache
    (a receiver whose name ends in ``cache``), and no module of the fleet
    (``campaign/dist/``) imports ``repro.campaign.cache``."""
    package = SRC / "repro"
    found = []
    for path in sorted(package.rglob("*.py")):
        where = path.relative_to(package).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if where.startswith("campaign/dist/"):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    modules = []
                found.extend(f"{where}:{node.lineno}: imports {module}"
                             for module in modules
                             if module.startswith("repro.campaign.cache"))
            if where == "campaign/runner.py" or not (
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            receiver = node.func.value
            name = getattr(receiver, "attr", getattr(receiver, "id", ""))
            if node.func.attr == "get_many" or (
                    node.func.attr == "put" and name.lower().endswith("cache")):
                found.append(f"{where}:{node.lineno}: {name}.{node.func.attr}")
    assert found == []


#: Public names nothing under ``src/`` spells out, because user code only
#: receives them from (or builds them through) the one place named here.
_UNSPELLED_PUBLIC_NAMES = {
    "CampaignOutcome",       # returned by CampaignRunner.run
    "CommandQueue",          # built by Context.queue
    "Context",               # the entry point of runtime/api.py (examples/gcn_inference.py)
    "Problem",               # returned by make_problem
    "TuningReport",          # returned by TuningAdvisor.advise
    "NaiveMapping",          # built into PAPER_STRATEGIES, returned by strategy_by_name
    "FixedMapping",          # built into PAPER_STRATEGIES, returned by strategy_by_name
    "HardwareAwareMapping",  # built into PAPER_STRATEGIES, returned by strategy_by_name
    "PAPER_STRATEGIES",      # read by strategy_by_name
}


def _module_names(path: Path):
    """(names defined at top level, names referenced anywhere) of a module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return defined, used


def test_every_public_name_has_a_caller_under_src():
    """A name exported from ``repro`` or ``repro.core`` is used by some other
    module under ``src/`` (the package ``__init__``s do not count): public API
    that only tests reach is deleted, or it gains a caller."""
    import repro
    import repro.core

    modules = {path: _module_names(path)
               for path in sorted((SRC / "repro").rglob("*.py"))}
    unused = []
    for package in (repro, repro.core):
        for name in package.__all__:
            if name in _UNSPELLED_PUBLIC_NAMES:
                continue
            if not any(name in used and name not in defined
                       and path.name != "__init__.py"
                       for path, (defined, used) in modules.items()):
                unused.append(f"{package.__name__}.{name}")
    assert unused == []


def test_the_harness_is_the_only_benchmark_code():
    strays = sorted(str(path.relative_to(ROOT))
                    for path in ROOT.rglob("bench_*.py")
                    if "benchmarks/harness/" not in path.as_posix())
    assert strays == []
