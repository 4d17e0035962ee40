"""The end-to-end run: ``lgamble`` commands as a user runs them.

Every command runs in a fresh interpreter (``python -m likelihood_gambles.cli``
with ``PYTHONPATH=src``), one at a time: a single closed-loop client.  A
workload repeats passes over its heavy commands until the time is up; between
them it interleaves its light commands and bare imports of the CLI.  Every
output is checked.
"""

from __future__ import annotations

import itertools
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Each light command (and the bare import) takes this share of the heavy commands' time.
LIGHT_SHARE = 0.08
LIGHT_MIN_SAMPLES = 3
CONFORMANCE_ARGS = ["--max-depth", "5", "--max-branching", "3", "--premium=0.0", "-f", "json"]
TIMES = ("price_s", "reduce_s", "compare_s", "table_s", "conformance_s")


@dataclass(frozen=True)
class Plan:
    """The commands of one workload.

    Every workload runs all three kinds of command, so that every end-to-end
    metric exists on every workload.  The kind named by ``heavy`` runs at full
    size, once per pass.  The other two kinds run at a light size, where
    interpreter start-up dominates, and are spread over the whole run.
    """

    heavy: str  # "files", "tables" or "conformance"
    files: tuple[str, ...] = ("small",)
    tables: tuple[tuple[int, float, str], ...] = ((10, 0.0, "text"),)  # (m, premium, format)
    samples: int = 10


WORKLOADS = {
    "gamble-files": Plan("files", files=("wide", "tree")),
    "binomial-table": Plan(
        "tables",
        tables=((10, 0.0, "text"), (1000, -1.0, "csv"), (1000, 0.0, "csv"), (1000, 1.0, "csv"),
                (10000, 0.0, "csv")),
    ),
    "conformance-suite": Plan("conformance", samples=1000),
}


@dataclass
class Outcome:
    wall_s: float
    maxrss_mb: float
    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Op:
    """One CLI command, the time metric it counts towards, and its output check."""

    label: str
    metric: str
    argv: list[str]
    check: Callable[[Outcome], str | None]


def run_process(argv: list[str], label: str) -> Outcome:
    """Run one command to completion; wall time and its own max RSS (wait4 rusage)."""
    out_path, err_path = OUT / f"{label}.out", OUT / f"{label}.err"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        wall_s=wall,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def lgamble(*args: str) -> list[str]:
    return [sys.executable, "-m", "likelihood_gambles.cli", *args]


def fastest_half_mean(values: list[float]) -> float:
    """Mean of the faster half of the samples (of the fastest one when there are
    two or three).  On a shared host, contention only ever slows a command
    down, in bursts, so the faster half estimates the command's own cost; a
    median of the few samples a run affords still moves with every burst."""
    ordered = sorted(values)
    return statistics.fmean(ordered[:max(1, len(ordered) // 2)])


class Runner:
    """Runs CLI operations one after another, checks each, and keeps the counts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def run(self, op: Op) -> Outcome:
        outcome = run_process(op.argv, op.label)
        self.attempted += 1
        self.peak_rss_mb = max(self.peak_rss_mb, outcome.maxrss_mb)
        if outcome.code != 0:
            problem = f"exit {outcome.code}: {outcome.stderr.strip()[-200:]}"
        elif "Traceback" in outcome.stderr:
            problem = "traceback on stderr"
        else:
            problem = op.check(outcome)
        if problem:
            self.fail(f"{op.label}: {problem}")
        return outcome


def prepare_files(names, seed: int, premium: float) -> dict[str, tuple[Path, float]]:
    """Write each gamble file; return its path and the oracle's price."""
    prepared = {}
    for name in names:
        obj = inputs.make_gamble(name, seed)
        path = OUT / f"{name}.json"
        inputs.write_gamble(path, obj)
        prepared[name] = (path, inputs.oracle_price(obj, premium))
    return prepared


def file_ops(files, premium: float) -> list[Op]:
    c = f"--premium={premium!r}"
    ops = []
    for name, (path, want) in files.items():
        ops += [
            Op(f"price-{name}", "price_s", lgamble("price", c, "-f", "json", str(path)),
               lambda o, want=want: inputs.check_price(o.stdout, want)),
            Op(f"reduce-{name}", "reduce_s", lgamble("reduce", str(path)),
               lambda o, want=want: inputs.check_reduced(o.stdout, want, premium)),
            # Compares with the output of the reduce above, which always runs first.
            Op(f"compare-{name}", "compare_s",
               lgamble("compare", c, str(path), str(OUT / f"reduce-{name}.out")),
               lambda o: inputs.check_compare_equal(o.stdout)),
        ]
    return ops


def table_ops(tables, csv_prices: dict) -> list[Op]:
    """Text tables are checked against the published table; CSV rows row by row,
    keeping each table's prices in ``csv_prices`` for the symmetry check."""
    ops = []
    for m, premium, fmt in tables:

        def check(o: Outcome, m=m, premium=premium, fmt=fmt) -> str | None:
            if fmt == "text":
                return inputs.check_text_table(o.stdout)
            prices, problem = inputs.parse_csv_table(o.stdout, m)
            csv_prices.setdefault(m, {})[premium] = prices
            return problem

        ops.append(Op(f"table-m{m}-c{premium:g}-{fmt}", "table_s",
                      lgamble("demo-binomial", "-m", str(m), f"--premium={premium!r}", "-f", fmt),
                      check))
    return ops


def conformance_ops(samples: int, seed: int, laws: list[str]) -> list[Op]:
    argv = lgamble("conformance", "--samples", str(samples), "--seed", str(seed),
                   *CONFORMANCE_ARGS)
    return [Op("conformance", "conformance_s", argv,
               lambda o: inputs.check_conformance(o.stdout, laws, samples))]


IMPORT = Op("setup", "setup_s", [sys.executable, "-c", "import likelihood_gambles.cli"],
            lambda o: None)


def probe_chain(seed: int) -> tuple[int, list[str]]:
    """Run the chain file through price, reduce and compare; count the crashes.

    A command passes on exit 0 with the oracle's answer, or on exit 2 with a
    one-line 'lgamble: error:'.  Today each one crashes with a RecursionError
    traceback and exit 1: a known defect, counted here and reported by the
    traced run, but kept out of the timed workload.  A wrong answer is not
    that defect and is returned as a problem.
    """
    premium = inputs.file_premium(seed)
    crashes, problems = 0, []
    for op in file_ops(prepare_files(["chain"], seed, premium), premium):
        outcome = run_process(op.argv, op.label)
        lines = outcome.stderr.strip().splitlines()
        if outcome.code == 2 and len(lines) == 1 and lines[0].startswith("lgamble: error:"):
            continue
        if outcome.code == 0 and "Traceback" not in outcome.stderr:
            problem = op.check(outcome)
            if problem:
                problems.append(f"{op.label}: {problem}")
            continue
        crashes += 1
    return crashes, problems


def property_names() -> list[str]:
    sys.path.insert(0, str(SRC))
    from likelihood_gambles.conformance import property_names as names

    return names()


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, Runner]:
    """Heavy commands once per pass, the light ones interleaved, until ``seconds`` pass.

    A time metric sums, over the commands that count towards it, the mean of
    the faster half of each command's runs; ``setup_s`` is the median over
    the bare imports.
    """
    plan = WORKLOADS[workload]
    laws = property_names()
    premium = inputs.file_premium(seed)
    csv_prices: dict = {}
    kinds = {
        "files": file_ops(prepare_files(plan.files, seed, premium), premium),
        "tables": table_ops(plan.tables, csv_prices),
        "conformance": conformance_ops(plan.samples, seed, laws),
    }
    heavy = kinds.pop(plan.heavy)
    light = [IMPORT] + [op for ops in kinds.values() for op in ops]
    rotation = itertools.cycle(light)
    samples: dict[str, list[float]] = {op.label: [] for op in heavy + light}

    runner = Runner()
    runner.run(IMPORT)  # warm-up: the first import in a checkout compiles the bytecode
    passes = 0
    heavy_s = light_s = 0.0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        for op in heavy:
            wall = runner.run(op).wall_s
            samples[op.label].append(wall)
            heavy_s += wall
            while light_s < LIGHT_SHARE * len(light) * heavy_s:
                light_op = next(rotation)
                wall = runner.run(light_op).wall_s
                samples[light_op.label].append(wall)
                light_s += wall
        passes += 1
        for m, tables in csv_prices.items():
            problem = inputs.check_symmetry(m, tables)
            if problem:
                runner.fail(problem)
        csv_prices.clear()
    for op in light:
        while len(samples[op.label]) < LIGHT_MIN_SAMPLES:
            samples[op.label].append(runner.run(op).wall_s)

    times = {name: 0.0 for name in TIMES}
    for op in heavy + light[1:]:
        times[op.metric] += fastest_half_mean(samples[op.label])
    conformance_s = times.pop("conformance_s")
    metrics = {
        "setup_s": statistics.median(samples[IMPORT.label]),
        "peak_rss_mb": runner.peak_rss_mb,
        "ok_rate": (runner.attempted - runner.failed) / runner.attempted,
        **times,
        "instances_per_s": len(laws) * plan.samples / conformance_s,
    }

    crashes, problems = probe_chain(seed)
    runner.problems += problems
    if crashes:
        print(f"perfbench: known defect: {crashes} of 3 commands crash on the "
              f"{inputs.CHAIN_LEVELS}-level chain file", file=sys.stderr)
    print(f"perfbench: {passes} passes of {workload}; runs per command: "
          + ", ".join(f"{label} x{len(v)}" for label, v in samples.items()), file=sys.stderr)
    return metrics, runner
