"""``python -m benchmarks.harness run | compare`` (from the repo root).

``run`` measures every workload (or ``--workload NAME``...), each in its own
child process -- ``run.py``, the same program ``BENCHMARK.json`` names -- for
``run_seconds`` (or exactly ``--rounds N`` rounds); with ``--traced`` the
child runs with ``--trace 1``, which adds the traced round and the probes
after the timed rounds.  It prints every metric as ``workload metric value
unit``, writes one stamped JSON document to ``--out`` and exits non-zero if
any operation failed.  ``compare A.json B.json`` checks B against A (see
``compare.py``).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

from benchmarks.harness.run import REPO_ROOT, bootstrap


def _child(workload: str, args, directory: Path):
    out = directory / f"{workload}.json"
    command = [sys.executable, str(Path(__file__).with_name("run.py")),
               "--workload", workload, "--seed", str(args.seed),
               "--trace", str(int(args.traced)), "--out", str(out)]
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    if args.reduced:
        command.append("--reduced")
    if args.expected_dir is not None:
        command += ["--expected-dir", str(args.expected_dir)]
    if args.traced:
        command += ["--spans", str(args.out.with_suffix(f".spans.{workload}.json"))]
    done = subprocess.run(command, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True)
    if not out.exists():
        sys.exit(f"{workload}: run.py exited {done.returncode} without a result")
    # The child's last line is the driver's JSON; the rest is the report.
    sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
    sys.stdout.flush()
    return json.loads(out.read_text())


def run(args) -> int:
    from benchmarks.harness import spec

    names = [entry["name"] for entry in spec.load_benchmark()["workloads"]]
    unknown = set(args.workload or ()) - set(names)
    if unknown:
        sys.exit(f"unknown workload(s) {sorted(unknown)}; expected {names}")
    document = {"seed": args.seed, "rounds": args.rounds, "reduced": args.reduced,
                "workloads": {}}
    with tempfile.TemporaryDirectory(dir=args.out.parent) as scratch:
        for workload in args.workload or names:
            result = _child(workload, args, Path(scratch))
            document.setdefault("stamp", result["stamp"])
            document["workloads"][workload] = result
    args.out.write_text(json.dumps(document, indent=1) + "\n")
    failed = {name: result["failed"] for name, result in document["workloads"].items()
              if result["failed"]}
    if failed:
        print(f"FAILED operations: {failed}", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.harness",
                                     description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="measure the workloads")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--out", type=Path, required=True)
    run_parser.add_argument("--workload", action="append",
                            help="only this workload (repeatable)")
    run_parser.add_argument("--rounds", type=int, default=None,
                            help="exactly this many rounds per workload "
                                 "(default: what fits in run_seconds)")
    run_parser.add_argument("--traced", action="store_true",
                            help="add the traced pass: per-layer metrics and span dumps")
    run_parser.add_argument("--reduced", action="store_true")
    run_parser.add_argument("--expected-dir", type=Path, default=None)
    compare_parser = commands.add_parser("compare", help="check run B against run A")
    compare_parser.add_argument("base", type=Path)
    compare_parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)

    bootstrap()
    if args.command == "run":
        args.out = args.out.resolve()
        return run(args)
    from benchmarks.harness import compare
    return compare.main(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
