"""Benchmark of the ``lgamble`` CLI, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload gamble-files --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload's commands end to end for ``--seconds``
(``endtoend.py``); ``--trace 1`` runs the traced in-process per-layer run
(``layers.py``), a fixed amount of work that is the same on every workload.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and the metrics BENCHMARK.json lists for that mode.  DESIGN.md
explains the workloads and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import json
import sys

import endtoend
from endtoend import ROOT, SRC


def check_program() -> None:
    if not (SRC / "likelihood_gambles" / "cli.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC}/likelihood_gambles; run from a checkout")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(endtoend.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    check_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if args.trace else "end_to_end"]
    endtoend.OUT.mkdir(exist_ok=True)

    if args.trace:
        import layers

        values, runner = layers.run(args.workload, args.seed)
    else:
        values, runner = endtoend.end_to_end(args.workload, args.seed, args.seconds)
    problems = runner.problems

    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing and not problems:
        sys.exit(f"perfbench: metrics not measured: {missing}")
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed if m["name"] in values
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
