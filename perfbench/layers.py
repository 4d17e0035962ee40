"""The traced per-layer run: in-process calls into each module's public functions.

The same suite runs twice in one interpreter, first with span recording off
and then on; the per-layer metrics come from the spans of the second pass and
the difference in wall time is the tracing overhead.  Spans are recorded
only here, around the benchmark's own calls into the program.  At the end the
spans (name, start, end, parent, operation id), each span name's self time
and the overhead are written to ``out/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import operator
import random
import statistics
import sys
import time

import endtoend
import inputs

sys.path.insert(0, str(endtoend.SRC))

from likelihood_gambles import binomial, cli, conformance, gambles, pricing  # noqa: E402

FILES = ("wide", "tree")
TABLE_TRIALS = 1000
RENDER_REPEATS = 5
VECTOR_CALLS, VECTOR_BATCHES = 20_000, 5
GENERATED_GAMBLES = 2000
LAW_SAMPLES = 300
MUTANT_SAMPLES = 200
CLI_SAMPLES = 200
SUITE = dict(max_depth=5, max_branching=3)


class Tracer:
    """Spans kept in memory; a disabled tracer only calls through."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    def call(self, name: str, op: str, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        record = {"id": len(self.spans), "name": name, "op": op,
                  "parent": self._open[-1] if self._open else None}
        self.spans.append(record)
        self._open.append(record["id"])
        record["start_ns"] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def durations(self, name: str, op: str | None = None) -> list[float]:
        return [(s["end_ns"] - s["start_ns"]) / 1e9 for s in self.spans
                if s["name"] == name and (op is None or s["op"] == op)]

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        own = {s["id"]: s["end_ns"] - s["start_ns"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end_ns"] - s["start_ns"]
        totals: dict[str, float] = {}
        for s in self.spans:
            totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]] / 1e9
        return totals


class Suite:
    """One pass over every layer. Checks run on both passes; only the traced one counts."""

    def __init__(self, tracer: Tracer, seed: int, files: dict, premium: float) -> None:
        self.t = tracer
        self.seed = seed
        self.files = files
        self.premium = premium
        self.counts: dict[str, int] = {}
        self.runner = endtoend.Runner()

    def check(self, label: str, problem: str | None) -> None:
        if self.t.enabled:
            self.runner.attempted += 1
            if problem:
                self.runner.fail(f"{label}: {problem}")

    def run(self) -> None:
        for name in FILES:
            self.t.call("file", name, self.gamble_layers, name)
        self.t.call("binomial", "binomial", self.binomial_layers)
        self.t.call("conformance", "conformance", self.conformance_layers)
        self.t.call("cli", "cli", self.cli_layers)

    def gamble_layers(self, name: str) -> None:
        path, want = self.files[name]
        c, call = self.premium, self.t.call
        g = call("gambles.load_gamble", name, gambles.load_gamble, str(path))
        with open(path, encoding="utf-8") as fh:
            obj = call("json.load", name, json.load, fh)
        g2 = call("gambles.gamble_from_json", name, gambles.gamble_from_json, obj)
        del obj
        flat = call("gambles.flatten", name, gambles.flatten, g)
        first = call("gambles.hash", name, hash, g)
        second = call("gambles.hash_repeat", name, hash, g)
        same = call("gambles.eq_flat", name, operator.eq, g, flat)
        text = call("gambles.dump_gamble", name, gambles.dump_gamble, flat)
        u = call("pricing.utility_of_gamble", name, pricing.utility_of_gamble, g, c)
        order = call("pricing.prefer", name, pricing.prefer, g, flat, c)

        self.check(f"{name} price", inputs.check_price(repr(pricing.price_from_vector(u, c)), want))
        self.check(f"{name} reduce", inputs.check_reduced(text, want, c))
        self.check(f"{name} prefer", None if order == "equal" else f"prefer gave {order}")
        nodes = _nodes(g)
        ok = same and first == second and _nodes(g2) == nodes
        self.check(f"{name} eq", None if ok else "g != flatten(g), unstable hash or parse mismatch")
        self.counts[f"gambles.nodes.{name}"] = nodes
        self.counts[f"gambles.flat_prospects.{name}"] = len(flat.prospects)
        self.counts[f"gambles.reduce_bytes.{name}"] = len(text) + 1  # print's newline

    def binomial_layers(self) -> None:
        rows = []
        for x in range(TABLE_TRIALS + 1):
            scenario = binomial.BinomialScenario(TABLE_TRIALS, x, 0.0)
            lik = self.t.call("binomial.likelihood_price", "binomial",
                              binomial.likelihood_price, scenario)
            rows.append(binomial.PricingRow(x, lik, *binomial.bayesian_prices(scenario)))
        for _ in range(RENDER_REPEATS):
            text = self.t.call("binomial.render_table_text", "binomial",
                               binomial.render_table_text, rows)
            csv = self.t.call("binomial.render_table_csv", "binomial",
                              binomial.render_table_csv, rows)
        prices, problem = inputs.parse_csv_table(csv, TABLE_TRIALS)
        self.check("binomial csv", problem or inputs.check_symmetry(TABLE_TRIALS, {0.0: prices}))
        self.check("binomial text", None if len(text.splitlines()) == TABLE_TRIALS + 2 else "rows")
        self.counts["binomial.rows"] = len(rows)

        rng = random.Random(f"{self.seed}:vectors")
        vectors = [pricing.canonical_of_value(rng.random(), 0.0) for _ in range(VECTOR_CALLS)]
        for _ in range(VECTOR_BATCHES):
            self.t.call("pricing.price_from_vector", "vectors", _price_all, vectors)

    def conformance_layers(self) -> None:
        rng = random.Random(f"{self.seed}:generate")
        configs = [conformance.GenConfig(**SUITE, seed=rng.getrandbits(63))
                   for _ in range(GENERATED_GAMBLES)]
        generated = self.t.call("conformance.generate_gamble", "generate",
                                lambda: [conformance.generate_gamble(k) for k in configs])
        self.counts["conformance.generated_nodes"] = sum(_nodes(g) for g in generated)

        config = conformance.GenConfig(**SUITE, seed=self.seed, samples=LAW_SAMPLES)
        for law in conformance.property_names():
            report = self.t.call(f"conformance.law.{law}", "laws", conformance.run_conformance,
                                 config, 0.0, properties=[law])
            failures = report.results[0].failures
            self.check(f"law {law}", f"{failures} failures" if failures else None)

        mutant_config = conformance.GenConfig(**SUITE, seed=self.seed, samples=MUTANT_SAMPLES)
        report = self.t.call("conformance.mutant", "mutant", conformance.run_conformance,
                             mutant_config, 0.0,
                             properties=["flatten_preserves_utility", "idempotence"],
                             utility_fn=summed_instead_of_maxed)
        caught = all(r.failures and r.counterexample is not None for r in report.results)
        self.check("mutant", None if caught else "the sum-based mutant was not caught")
        self.counts["conformance.mutant_failures"] = sum(r.failures for r in report.results)
        self.counts["conformance.counterexample_nodes"] = sum(
            _json_nodes(r.counterexample) for r in report.results)

    def cli_layers(self) -> None:
        c = f"--premium={self.premium!r}"
        for name in FILES:
            path, want = self.files[name]
            reduced = endtoend.OUT / f"{name}.reduced.json"
            out = self._main("price", name, ["price", c, "-f", "json", str(path)])
            self.check(f"cli price {name}", inputs.check_price(out, want))
            out = self._main("reduce", name, ["reduce", str(path)])
            self.check(f"cli reduce {name}", inputs.check_reduced(out, want, self.premium))
            reduced.write_text(out, encoding="utf-8")
            out = self._main("compare", name, ["compare", c, str(path), str(reduced)])
            self.check(f"cli compare {name}", inputs.check_compare_equal(out))
        out = self._main("demo-binomial", "binomial",
                         ["demo-binomial", "-m", str(TABLE_TRIALS), "--premium=0.0", "-f", "csv"])
        self.check("cli demo-binomial", inputs.parse_csv_table(out, TABLE_TRIALS)[1])
        out = self._main("conformance", "conformance",
                         ["conformance", "--samples", str(CLI_SAMPLES), "--seed", str(self.seed),
                          *endtoend.CONFORMANCE_ARGS])
        laws = conformance.property_names()
        self.check("cli conformance", inputs.check_conformance(out, laws, CLI_SAMPLES))

    def _main(self, command: str, op: str, argv: list[str]) -> str:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            code = self.t.call(f"cli.main.{command}", op, cli.main, argv)
        self.check(f"cli {command} {op} exit", None if code == 0 else f"exit {code}")
        return sink.getvalue()


def _price_all(vectors) -> None:
    for u in vectors:
        pricing.price_from_vector(u, 0.0)


def summed_instead_of_maxed(gamble, premium):
    """The sum-based mutant of demos/conformance_run.py: sums scaled vectors."""
    if gamble.is_constant:
        u = pricing.canonical_of_value(gamble.constant, premium)
        return u.alpha, u.beta
    alpha = beta = 0.0
    for p in gamble.prospects:
        a, b = summed_instead_of_maxed(p.reward, premium)
        alpha += p.likelihood * a
        beta += p.likelihood * b
    return alpha, beta


def _nodes(g) -> int:
    nodes, stack = 0, [g]
    while stack:
        item = stack.pop()
        nodes += 1
        stack.extend(p.reward for p in item.prospects)
    return nodes


def _json_nodes(obj) -> int:
    if isinstance(obj, list):
        return sum(_json_nodes(item) for item in obj)
    if isinstance(obj, dict) and ("constant" in obj or "prospects" in obj):
        return inputs.count_nodes(obj)
    return 0


def metrics(t: Tracer, counts: dict[str, int]) -> dict[str, float]:
    values: dict[str, float] = dict(counts)
    for name in FILES:
        for layer in ("gambles.load_gamble", "gambles.gamble_from_json", "gambles.flatten",
                      "gambles.hash", "gambles.hash_repeat", "gambles.eq_flat",
                      "gambles.dump_gamble", "pricing.utility_of_gamble", "pricing.prefer"):
            values[f"{layer}.{name}_s"] = sum(t.durations(layer, name))
    for command in ("price", "reduce", "compare", "demo-binomial", "conformance"):
        values[f"cli.main.{command}_s"] = sum(t.durations(f"cli.main.{command}"))
    rows_us = [d * 1e6 for d in t.durations("binomial.likelihood_price")]
    quantiles = statistics.quantiles(rows_us, n=100, method="inclusive")
    values["binomial.likelihood_price.row_p50_us"] = statistics.median(rows_us)
    values["binomial.likelihood_price.row_p99_us"] = quantiles[98]
    values["binomial.render_table_text_s"] = statistics.median(
        t.durations("binomial.render_table_text"))
    values["binomial.render_table_csv_s"] = statistics.median(
        t.durations("binomial.render_table_csv"))
    values["pricing.price_from_vector_us"] = statistics.median(
        t.durations("pricing.price_from_vector")) * 1e6 / VECTOR_CALLS
    values["conformance.generate_gamble_us"] = (
        sum(t.durations("conformance.generate_gamble")) * 1e6 / GENERATED_GAMBLES)
    for law in conformance.property_names():
        values[f"conformance.law.{law}_us"] = (
            sum(t.durations(f"conformance.law.{law}")) * 1e6 / LAW_SAMPLES)
    values["conformance.mutant_s"] = sum(t.durations("conformance.mutant"))
    return values


def run(workload: str, seed: int) -> tuple[dict[str, float], endtoend.Runner]:
    crashes, problems = endtoend.probe_chain(seed)
    premium = inputs.file_premium(seed)
    files = endtoend.prepare_files(FILES, seed, premium)
    walls = {}
    for enabled in (False, True):
        suite = Suite(Tracer(enabled), seed, files, premium)
        start = time.perf_counter()
        suite.run()
        walls[enabled] = time.perf_counter() - start
    tracer = suite.t
    values = metrics(tracer, suite.counts)
    values["trace.overhead_s"] = walls[True] - walls[False]
    values["cli.chain.failed_ops"] = crashes
    suite.runner.problems += problems
    report = {
        "workload": workload,
        "seed": seed,
        "untraced_s": walls[False],
        "traced_s": walls[True],
        "overhead_s": values["trace.overhead_s"],
        "self_time_s": tracer.self_times(),
        "metrics": values,
        "spans": tracer.spans,
    }
    path = endtoend.OUT / f"trace-{workload}-{seed}.json"
    path.write_text(json.dumps(report), encoding="utf-8")
    return values, suite.runner
