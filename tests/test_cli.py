"""Tests for the command-line interface (repro.cli)."""

import argparse
import ast
import itertools
import json
import multiprocessing
import re
import shlex
import socket
from dataclasses import replace
from pathlib import Path

import pytest

import repro.campaign.dist
import repro.cli
from repro.cli import build_parser, main
from repro.scenarios import REGISTRY, Planner, ScenarioContext
from repro.telemetry.recorder import RECORDER, TELEMETRY_ENV

from scenario_helpers import check_golden


def _verbs(parser: argparse.ArgumentParser) -> dict:
    """A parser's subcommands, by name."""
    (action,) = [action for action in parser._actions
                 if isinstance(action, argparse._SubParsersAction)]
    return action.choices


def test_parser_lists_all_subcommands():
    """One front door: grids run only through ``scenario``, and ``campaign``
    only inspects or clears the result cache."""
    verbs = _verbs(build_parser())
    assert set(verbs) == {"info", "run", "campaign", "scenario", "warehouse",
                          "telemetry", "serve", "worker"}
    assert set(_verbs(verbs["campaign"])) == {"status", "clear-cache"}


def test_grid_flags_are_shared_across_scenario_verbs(capsys):
    """One parent parser feeds scenario run, resume and report."""
    for argv in (["scenario", "run", "--help"],
                 ["scenario", "resume", "--help"],
                 ["scenario", "report", "--help"]):
        with pytest.raises(SystemExit):
            main(argv)
        text = capsys.readouterr().out
        for flag in ("--kernels", "--sweep", "--scale", "--seed", "--exact-calls"):
            assert flag in text, f"{flag} missing from {' '.join(argv)}"


def test_missing_subcommand_exits_with_error():
    with pytest.raises(SystemExit):
        main([])


def test_info_command_reports_machine_and_eq1(capsys):
    assert main(["info", "--config", "4c8w8t", "--gws", "4096"]) == 0
    out = capsys.readouterr().out
    assert "4c8w8t" in out
    assert "hp = 256" in out
    assert "lws = ceil(4096 / 256) = 16" in out


def test_info_without_gws_only_describes_the_machine(capsys):
    assert main(["info", "--config", "1c2w4t"]) == 0
    out = capsys.readouterr().out
    assert "1c2w4t" in out
    assert "Eq. 1" not in out


def test_run_command_executes_a_problem(capsys):
    assert main(["run", "vecadd", "--config", "2c2w4t", "--scale", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "vecadd" in out
    assert "lane utilisation" in out
    assert "cycles" in out


def test_run_command_with_explicit_lws_trace_and_advice(capsys):
    assert main(["run", "relu", "--config", "1c2w4t", "--scale", "smoke",
                 "--lws", "1", "--trace", "--advise"]) == 0
    out = capsys.readouterr().out
    assert "lws=1" in out
    assert "core 0 warp 0" in out                 # trace timeline
    assert "Tuning report" in out                 # advisor output
    assert "recommended lws" in out


def test_run_command_rejects_unknown_problem():
    with pytest.raises(SystemExit):
        main(["run", "not_a_kernel"])


def test_figure1_command(tmp_path, capsys, monkeypatch, update_golden):
    """A fresh ``scenario run figure1`` prints what the deleted trace-study
    driver (and later the ``figure1`` verb) printed, byte for byte."""
    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path / "runs"))
    argv = ["scenario", "run", "figure1", "--cache-dir", str(tmp_path / "cache")]
    assert main(argv + ["--fresh"]) == 0
    default = capsys.readouterr().out
    scenario = REGISTRY.get("figure1")
    (axes,) = scenario.axes(ScenarioContext())
    short = Planner().run(replace(scenario, grid=replace(
        axes, sizes=(64,), strategies=("lws=1", "lws=8")))).report() + "\n"
    assert "Figure 1 reproduction" in short
    assert short.count("core 0 warp 0") == 2           # one timeline per lws
    check_golden("figure1_stdout",
                 {"default": default, "length64_lws_1_8": short}, update_golden)

    # Resumed from the sink, the records carry no events: numbers only, and
    # the report says how to get the timelines back.
    assert main(argv) == 0
    resumed = capsys.readouterr().out
    assert "core 0 warp 0" not in resumed
    assert "`repro scenario run figure1 --fresh` renders the timelines" in resumed


def test_sweep_and_report_round_trip(tmp_path, capsys):
    """The figure2 sink is the one saved sweep: ``scenario report`` re-renders
    its tables, and the claims, from it without simulating."""
    cache = ["--cache-dir", str(tmp_path / "cache")]
    grid = ["--kernels", "vecadd", "--sweep", "smoke", "--scale", "smoke"]
    sink = ["--sink", str(tmp_path / "figure2.jsonl")]
    assert main(["scenario", "run", "figure2"] + grid + sink + cache) == 0
    first = capsys.readouterr().out
    assert "lws=1/ours avg" in first

    assert main(["scenario", "report", "figure2"] + grid + sink) == 0
    assert capsys.readouterr().out == first
    assert main(["scenario", "report", "claims"] + grid + sink) == 0
    claims = capsys.readouterr().out
    assert "C4" in claims

    # ... and equal to what a claims run of the same grid reports.
    assert main(["scenario", "run", "claims", "--sink",
                 str(tmp_path / "claims.jsonl")] + grid + cache) == 0
    assert capsys.readouterr().out == claims


def test_report_rejects_a_missing_file(tmp_path, capsys):
    assert main(["scenario", "report", "figure2", "--scale", "smoke",
                 "--sink", str(tmp_path / "missing.jsonl")]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "missing.jsonl covers 0 of" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_report_rejects_json_that_is_not_a_saved_sweep(tmp_path, capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text('"valid JSON, not sweep rows"')
    assert main(["scenario", "report", "figure2", "--scale", "smoke",
                 "--sink", str(bogus)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "bogus.json covers 0 of" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("content", ['"a string"', '{"problem": "vecadd"}',
                                     '[{"problem": "vecadd"}]', '[1, 2]',
                                     'not json'])
def test_scenario_report_rejects_a_file_that_is_not_a_sink(content, tmp_path,
                                                           capsys):
    bogus = tmp_path / "bogus.json"
    bogus.write_text(content + "\n")
    assert main(["scenario", "report", "figure2", "--scale", "smoke",
                 "--sink", str(bogus)]) == 1
    captured = capsys.readouterr()
    assert "error:" in captured.err and "bogus.json covers 0 of" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert bogus.read_text() == content + "\n"          # a report never writes


@pytest.mark.parametrize("command", [
    ["scenario", "report", "figure2"], ["scenario", "resume", "figure2"],
    ["scenario", "run", "scaling"]])
def test_grid_commands_reject_unknown_kernels(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path / "runs"))
    assert main(command + ["--kernels", "vecadd,nosuch", "--scale", "smoke"]) == 2
    captured = capsys.readouterr()
    assert "error: unknown kernel(s) nosuch" in captured.err
    assert "vecadd" in captured.err                  # the error lists what exists
    assert captured.out == ""
    assert not (tmp_path / "runs").exists()         # rejected before any set-up


#: Flags deleted from ``scenario run``/``resume``/``report`` and ``serve``.
REMOVED_FLAGS = ("--executor", "--dist-workers", "--source")


@pytest.mark.parametrize("argv", [
    ["info", "--gws", "0"],
    ["info", "--gws", "-5"],
    ["info", "--config", "banana"],
    ["info", "--config", "0c1w1t"],
    ["run", "vecadd", "--config", "banana"],
    ["run", "vecadd", "--lws", "0"],
    ["scenario", "run", "scaling", "--workers", "0"],
    ["scenario", "run", "scaling", "--workers", "-1"],
    ["scenario", "run", "scaling", "--wait-workers", "1"],
    ["scenario", "resume", "scaling", "--wait-workers", "1"],
    ["scenario", "run", "scaling", "--listen", "127.0.0.1:0",
     "--wait-workers", "-1"],
    ["scenario", "run", "figure2", "--seed", "-1"],
    ["scenario", "run", "scaling", "--executor", "dist", "--dist-workers", "2"],
    ["scenario", "report", "scaling", "--source", "journal"],
    ["serve", "--workers", "0"],
    ["serve", "--sim-workers", "0"],
    ["serve", "--burst", "0"],
    ["serve", "--port", "-1"],
    ["serve", "--executor", "dist", "--dist-workers", "2"],
    ["scenario", "run", "figure1", "--listen", "banana"],
    ["serve", "--listen", "banana"],
    ["worker", "--connect", "banana"],
    ["worker", "--connect", "127.0.0.1:65536"],
    ["worker", "--connect", "127.0.0.1:1", "--max-tasks", "0"],
], ids=lambda argv: " ".join(argv))
def test_bad_numbers_and_machine_names_are_usage_errors(argv, tmp_path, capsys,
                                                        monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path / "runs"))
    monkeypatch.setenv("REPRO_SERVICE_DIR", str(tmp_path / "service"))
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    removed = [index for index, token in enumerate(argv)
               if token in REMOVED_FLAGS]
    if removed:      # no aliases: the whole tail is what argparse refuses
        assert (f"error: unrecognized arguments: "
                f"{' '.join(argv[removed[0]:])}") in captured.err
    else:
        assert f"error: argument {argv[-2]}" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "cache").exists()        # rejected before any set-up
    assert not (tmp_path / "runs").exists()
    assert not (tmp_path / "service").exists()


def _cache_line(err: str) -> tuple:
    """(hits, misses, entries) from the ``cache <dir>: ...`` stderr line."""
    match = re.search(r"cache .*: (\d+) hit\(s\), (\d+) miss\(es\), "
                      r"(\d+) entries", err)
    assert match, err
    return tuple(map(int, match.groups()))


def test_campaign_run_status_and_clear_cache(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path / "runs"))
    cache_dir = str(tmp_path / "cache")
    grid = ["--kernels", "vecadd", "--sweep", "smoke", "--scale", "smoke",
            "--cache-dir", cache_dir]
    assert main(["scenario", "run", "figure2", "--workers", "2"] + grid) == 0
    cold = capsys.readouterr()
    assert "lws=1/ours avg" in cold.out
    hits, misses, entries = _cache_line(cold.err)   # stats are diagnostics
    assert hits == 0 and misses == entries > 0

    # the claims over the same grid: fully cache-served, zero misses
    assert main(["scenario", "run", "claims"] + grid) == 0
    claims = capsys.readouterr()
    assert "C1" in claims.out
    assert _cache_line(claims.err) == (entries, 0, entries)

    # a fresh rerun consults the cache for every point instead of the sink
    assert main(["scenario", "run", "figure2", "--fresh"] + grid) == 0
    assert _cache_line(capsys.readouterr().err) == (entries, 0, entries)

    assert main(["campaign", "status", "--cache-dir", cache_dir]) == 0
    status = capsys.readouterr().out
    assert f"usable entries  : {entries}" in status
    assert cache_dir in status

    assert main(["campaign", "clear-cache", "--cache-dir", cache_dir]) == 0
    assert "cleared" in capsys.readouterr().out
    assert main(["campaign", "status", "--cache-dir", cache_dir]) == 0
    assert "usable entries  : 0" in capsys.readouterr().out


def test_scenario_list_shows_all_registered_scenarios(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("figure1", "figure2", "ablation", "claims", "lws-search",
                 "scaling", "scheduler-sweep", "engine-compare",
                 "cache-sensitivity"):
        assert name in out
    import re
    count = int(re.search(r"(\d+) scenario\(s\) registered", out).group(1))
    assert count >= 8


def test_scenario_run_resume_report_cycle(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path / "sinks"))
    cache_dir = str(tmp_path / "cache")
    base = ["scenario", "run", "scaling", "--scale", "smoke",
            "--cache-dir", cache_dir]

    assert main(base) == 0
    first = capsys.readouterr()
    assert "6 unique job(s): 0 resumed from sink, 6 executed" in first.err
    assert "scaling-smoke.jsonl" in first.err
    assert "| cores |" in first.out       # the report itself stays on stdout

    assert main(["scenario", "resume", "scaling", "--scale", "smoke",
                 "--cache-dir", cache_dir]) == 0
    resumed = capsys.readouterr().err
    assert "6 resumed from sink, 0 executed" in resumed

    assert main(["scenario", "report", "scaling", "--scale", "smoke"]) == 0
    report = capsys.readouterr().out
    assert "| cores |" in report
    assert "executed" not in report          # report never simulates


def test_scenario_run_on_a_local_fleet_matches_the_local_run(tmp_path, capsys,
                                                              monkeypatch):
    # --listen with --workers 2 forks the fleet from this process: its sink
    # must hold the records an in-process run writes, wall-clock time aside.
    from repro.scenarios.sink import ResultSink

    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path / "sinks"))

    def records(name, executor_flags):
        sink = tmp_path / f"{name}.jsonl"
        assert main(["scenario", "run", "scaling", "--scale", "smoke",
                     "--cache-dir", str(tmp_path / f"{name}-cache"),
                     "--sink", str(sink)] + executor_flags) == 0
        loaded = {key: record.to_dict()
                  for key, record in ResultSink(sink).load().items()}
        for record in loaded.values():
            del record["result"]["elapsed_seconds"]
        return loaded

    local = records("local", [])
    fleet = records("fleet", ["--listen", "127.0.0.1:0", "--workers", "2"])
    assert len(local) == 6
    assert fleet == local
    assert "worker fleet ready" in capsys.readouterr().err


@pytest.mark.parametrize("listen", [[], ["--listen", "127.0.0.1:0"]],
                         ids=["forked", "listening"])
def test_a_run_leaves_no_fleet_worker_running(listen, tmp_path, capsys,
                                              monkeypatch):
    # The command that builds the executor closes it: no worker outlives
    # main(), whether or not the fleet listened for joins.
    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path / "sinks"))
    assert main(["scenario", "run", "scaling", "--scale", "smoke",
                 "--no-cache", "--workers", "2"] + listen) == 0
    assert "| cores |" in capsys.readouterr().out
    assert [child for child in multiprocessing.active_children()
            if child.name == "repro-fleet-worker"] == []


def test_serve_on_a_taken_port_is_one_error_line(tmp_path, capsys, monkeypatch):
    # The forked simulators start before the bind; a bind that fails still
    # stops them, and the command says why in one line instead of a traceback.
    monkeypatch.setenv(TELEMETRY_ENV, "0")      # restored: serve turns it on
    taken = socket.socket()
    try:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        code = main(["serve", "--port", str(port), "--listen", "127.0.0.1:0",
                     "--sim-workers", "2", "--queue-dir", str(tmp_path / "queue"),
                     "--cache-dir", str(tmp_path / "cache")])
    finally:
        taken.close()
        monkeypatch.undo()
        RECORDER.configure_from_env()
    err = capsys.readouterr().err
    assert code == 1
    assert f"repro: error: cannot listen on 127.0.0.1:{port}: " in err
    assert "Traceback" not in err
    assert [child for child in multiprocessing.active_children()
            if child.name == "repro-fleet-worker"] == []


def test_scenario_run_rejects_unknown_name(capsys):
    assert main(["scenario", "run", "not-a-scenario"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario" in err
    assert "figure2" in err                  # the error lists what exists


def test_scenario_resume_requires_an_existing_sink(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path / "empty"))
    assert main(["scenario", "resume", "scaling", "--scale", "smoke"]) == 1
    assert "no sink" in capsys.readouterr().err


def test_scenario_report_names_missing_jobs(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path / "empty"))
    assert main(["scenario", "report", "scaling", "--scale", "smoke"]) == 1
    err = capsys.readouterr().err
    assert "0 of 6" in err
    assert "scenario resume scaling" in err


def test_scenario_modules_env_imports_custom_registrations(tmp_path, capsys, monkeypatch):
    module = tmp_path / "my_custom_scenarios.py"
    module.write_text(
        "from repro.scenarios import GridAxes, Scenario, REGISTRY\n"
        "from repro.sim.config import ArchConfig\n"
        "if 'cli-test-custom' not in REGISTRY:\n"
        "    REGISTRY.register(Scenario(\n"
        "        name='cli-test-custom', description='registered via env hook',\n"
        "        grid=GridAxes(problems=('vecadd',),\n"
        "                      configs=(ArchConfig.from_name('1c2w2t'),)),\n"
        "        analyze=lambda run: 'custom-ok'))\n"
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    monkeypatch.setenv("REPRO_SCENARIO_MODULES", "my_custom_scenarios")
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    assert "cli-test-custom" in out
    assert "registered via env hook" in out


def test_campaign_help_documents_cache_override(capsys):
    with pytest.raises(SystemExit):
        main(["campaign", "--help"])
    text = capsys.readouterr().out
    assert "REPRO_CACHE_DIR" in text
    assert ".cache/repro" in text


def test_warehouse_cli_cycle(tmp_path, capsys, monkeypatch):
    """sync -> status -> report -> query -> rebuild, all against one run."""
    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path / "sinks"))
    db = str(tmp_path / "wh.sqlite")
    cache_dir = str(tmp_path / "cache")
    journals = ["--cache-dir", cache_dir,
                "--scenario-dir", str(tmp_path / "sinks")]
    assert main(["scenario", "run", "scaling", "--scale", "smoke",
                 "--cache-dir", cache_dir]) == 0
    capsys.readouterr()

    assert main(["warehouse", "sync", "--db", db] + journals) == 0
    synced = capsys.readouterr().out
    assert "ingested" in synced

    assert main(["warehouse", "status", "--db", db]) == 0
    status = capsys.readouterr().out
    assert "sqlite backend" in status
    assert "(synced)" in status

    assert main(["warehouse", "report", "--db", db]) == 0
    assert "best-lws" in capsys.readouterr().out     # no name lists canned

    assert main(["warehouse", "report", "scenarios", "--db", db]) == 0
    assert "scaling" in capsys.readouterr().out

    assert main(["warehouse", "query",
                 "SELECT COUNT(*) FROM scenario_runs", "--db", db]) == 0
    assert "6" in capsys.readouterr().out

    # `counters` is a view over the rows' JSON: same read-only connection
    assert main(["warehouse", "query", "SELECT COUNT(DISTINCT key) AS runs "
                 "FROM counters WHERE journal LIKE '%scaling-smoke.jsonl'",
                 "--db", db]) == 0
    assert "| 6 " in capsys.readouterr().out

    assert main(["warehouse", "rebuild", "--db", db] + journals) == 0
    assert "parity check passed" in capsys.readouterr().out


def test_warehouse_query_rejects_writes(tmp_path, capsys, monkeypatch):
    db = str(tmp_path / "wh.sqlite")
    cache_dir = str(tmp_path / "cache")
    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path / "sinks"))
    assert main(["scenario", "run", "figure2", "--kernels", "vecadd", "--sweep",
                 "smoke", "--scale", "smoke", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["warehouse", "sync", "--db", db, "--cache-dir", cache_dir,
                 "--scenario-dir", str(tmp_path / "sinks")]) == 0
    capsys.readouterr()
    assert main(["warehouse", "query", "DELETE FROM jobs", "--db", db]) == 1
    assert "SELECT or WITH" in capsys.readouterr().err
    # the row survived the attempt
    assert main(["warehouse", "query", "SELECT COUNT(*) FROM jobs",
                 "--db", db]) == 0
    assert "| 0 " not in capsys.readouterr().out


def test_warehouse_sync_before_any_journal_exists(tmp_path, capsys):
    assert main(["warehouse", "sync", "--db", str(tmp_path / "wh.sqlite"),
                 "--cache-dir", str(tmp_path / "none"),
                 "--scenario-dir", str(tmp_path / "none")]) == 0
    assert "0 row(s) ingested" in capsys.readouterr().out


def test_warehouse_status_text_and_json(tmp_path, capsys, monkeypatch):
    """``warehouse status`` is the one warehouse-status surface; ``--json``
    carries the same facts as the text."""
    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path / "sinks"))
    db = str(tmp_path / "wh.sqlite")
    cache_dir = str(tmp_path / "cache")
    assert main(["scenario", "run", "figure2", "--kernels", "vecadd", "--sweep",
                 "smoke", "--scale", "smoke", "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    assert main(["warehouse", "sync", "--db", db, "--cache-dir", cache_dir,
                 "--scenario-dir", str(tmp_path / "sinks")]) == 0
    capsys.readouterr()
    assert main(["warehouse", "status", "--db", db]) == 0
    text = capsys.readouterr().out
    assert "offset" in text

    assert main(["warehouse", "status", "--db", db, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["warehouse"] == db and payload["backend"] == "sqlite"
    assert payload["tables"]["jobs"] > 0
    for table, count in payload["tables"].items():
        assert f"{table:<16}: {count} row(s)" in text
    kinds = sorted(journal["kind"] for journal in payload["journals"])
    assert kinds == ["cache", "sink"]
    for journal in payload["journals"]:
        assert journal["synced"] and journal["bytes_behind"] == 0
        assert f"{journal['journal']} -- offset {journal['offset']}" in text

    with pytest.raises(SystemExit) as exit_info:   # the old second surface
        main(["campaign", "status", "--source", "warehouse", "--db", db])
    assert exit_info.value.code == 2


def test_scenario_report_reads_its_sink_and_creates_no_file(tmp_path, capsys,
                                                             monkeypatch):
    """A report reads its sink alone: it opens no warehouse (no
    ``warehouse.sqlite`` in the cache directory), writes nothing anywhere,
    and prints the same report whether or not a warehouse was synced."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("REPRO_WAREHOUSE_PATH", raising=False)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_SCENARIO_DIR", str(tmp_path / "sinks"))
    report = ["scenario", "report", "scaling", "--scale", "smoke"]
    assert main(["scenario", "run", "scaling", "--scale", "smoke"]) == 0
    ran = capsys.readouterr().out

    def files():
        return {path: path.stat().st_mtime_ns for path in tmp_path.rglob("*")}

    before = files()
    assert main(report) == 0
    assert capsys.readouterr().out == ran
    assert files() == before
    assert not (tmp_path / "cache" / "warehouse.sqlite").exists()

    db = str(tmp_path / "wh.sqlite")
    assert main(["warehouse", "sync", "--db", db]) == 0
    capsys.readouterr()
    before = files()
    assert main(report) == 0
    assert capsys.readouterr().out == ran
    assert files() == before


@pytest.mark.parametrize("command", ["serve", "warehouse"])
def test_help_offers_no_backend_selector(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = capsys.readouterr().out
    assert "--backend" not in text
    assert "REPRO_WAREHOUSE_BACKEND" not in text


def _documented_commands() -> list:
    """Every ``repro ...`` / ``python -m repro ...`` command shown in the
    README's ``bash`` blocks and in the docstrings of ``repro.cli`` and
    ``repro.campaign.dist``, as argv lists for the parser."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    texts = re.findall(r"```bash\n(.*?)```", readme, re.S)
    for module in (repro.cli, repro.campaign.dist):
        tree = ast.parse(Path(module.__file__).read_text())
        texts.extend(ast.get_docstring(node) or "" for node in ast.walk(tree)
                     if isinstance(node, (ast.Module, ast.FunctionDef, ast.ClassDef)))
    command_line = re.compile(r"(\w+=\S*\s+)*(python -m )?repro\s")
    commands = []
    for text in texts:
        for line in text.replace("\\\n", " ").splitlines():
            if not command_line.match(line.strip()):
                continue
            # One argv per shell command: split on separators, cut at a
            # redirect, drop leading VAR=value assignments.
            segments = [[]]
            for token in shlex.split(line, comments=True):
                if token in ("&&", "&"):
                    segments.append([])
                else:
                    segments[-1].append(token)
            for segment in segments:
                segment = list(itertools.takewhile(
                    lambda token: not token.startswith(">"), segment))
                while segment and re.fullmatch(r"\w+=\S*", segment[0]):
                    segment.pop(0)
                if segment[:3] == ["python", "-m", "repro"]:
                    commands.append(segment[3:])
                elif segment[:1] == ["repro"]:
                    commands.append(segment[1:])
    return commands


def test_documented_commands_parse(capsys):
    """Parse-only: nothing runs, a stale flag in the docs is an argparse
    error here instead of in a reader's shell."""
    commands = _documented_commands()
    assert ["worker", "--connect", "coordinator-host:7070"] in commands
    rejected = []
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            rejected.append(" ".join(argv))
    assert rejected == [], capsys.readouterr().err
