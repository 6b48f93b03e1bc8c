"""One workload, one process, one JSON result line (the ``BENCHMARK.json`` command).

    python3 benchmarks/harness/run.py --workload NAME --seed N --seconds S --trace 0|1

Prints every metric as ``workload metric value unit`` and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: with ``--trace 0`` the ``end_to_end`` metrics of
``BENCHMARK.json``, with ``--trace 1`` its ``per_layer`` metrics (a metric
this workload does not exercise, or whose boundary is gone, reads ``0`` there
and is absent from the ``--out`` file).  Exits non-zero without a result when
the program under test is not there; once a result is printed the exit code is
0 and ``correct`` / ``failed`` say whether every operation succeeded
(``python -m benchmarks.harness run`` turns failures into a non-zero exit).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]


def bootstrap() -> None:
    """Make ``repro`` and this package importable here and in every child
    process."""
    source = REPO_ROOT / "src"
    if not (source / "repro").is_dir():
        sys.exit(f"benchmark: no program to measure: {source / 'repro'} is missing")
    for entry in (str(source), str(REPO_ROOT)):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(source) + (os.pathsep + inherited if inherited else "")
    import benchmarks.harness.measure  # noqa: F401 - fails here if repro does not import


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="as many rounds as nominally fit in this long "
                             "(default: run_seconds)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="exactly this many timed rounds instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="write the full result here")
    parser.add_argument("--spans", type=Path, default=None,
                        help="with --trace 1: write the span dump here")
    parser.add_argument("--reduced", action="store_true",
                        help="small inputs (the harness's own tests)")
    parser.add_argument("--expected-dir", type=Path, default=None)
    parser.add_argument("--write-expected", action="store_true",
                        help="store this run's digests as the expected answers")
    args = parser.parse_args(argv)

    bootstrap()
    from benchmarks.harness import spec
    from benchmarks.harness.measure import run_workload

    benchmark = spec.load_benchmark()
    names = [entry["name"] for entry in benchmark["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    seconds = args.seconds if args.seconds is not None else benchmark["run_seconds"]
    result = run_workload(
        args.workload, args.seed, seconds, rounds=args.rounds, trace=bool(args.trace),
        reduced=args.reduced, expected_dir=args.expected_dir,
        write_expected=args.write_expected, spans_path=args.spans)

    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    measured = result.per_layer if args.trace else result.end_to_end
    metrics = {}
    for entry in declared:
        value = measured.get(entry["name"])
        metrics[entry["name"]] = {"value": 0.0 if value is None else value,
                                  "unit": entry["unit"]}
    units = {entry["name"]: entry["unit"]
             for entry in benchmark["end_to_end"] + benchmark["per_layer"]}
    units["wall_median_s"] = "s"        # diagnostic, in neither list
    for name, value in {**result.end_to_end, **result.per_layer}.items():
        print(result.workload, name, "null" if value is None else f"{value:.6g}",
              units.get(name, ""))
    for note in result.notes:
        print("FAILED:", note, file=sys.stderr)
    if args.out is not None:
        args.out.write_text(json.dumps(dataclasses.asdict(result), indent=1) + "\n")
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
