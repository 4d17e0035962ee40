"""Seeded benchmark inputs and the independent checks of the program's outputs.

Everything here uses the standard library only and never imports the
program: the gamble files are written from plain dicts, and their prices are
recomputed from those dicts by a separate evaluation of the paper's formula.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

LATTICE = [i / 10 for i in range(11)]

# Sizes of the generated gamble files (see DESIGN.md for why these shapes).
WIDE_PROSPECTS = 200_000
TREE_DEPTH, TREE_BRANCHING = 10, 3
SMALL_DEPTH, SMALL_BRANCHING = 6, 3
# 400 levels nest the JSON 1200 deep, past the 1000-frame recursion limit of
# the stdlib decoder, so today's CLI crashes on this file (a known defect).
CHAIN_LEVELS = 400

PRICE_TOL = 1e-9
REDUCE_TOL = 1e-12
SYMMETRY_TOL = 1e-9

# Published ten-toss table at a neutral premium, as pinned by the acceptance
# tests: x, likelihood, uniform, jeffreys, novick_hall, 4 decimals.
PUBLISHED_TABLE = [
    ("0", "0.0373", "0.0833", "0.0455", "0.0000"),
    ("1", "0.1476", "0.1667", "0.1364", "0.1000"),
    ("2", "0.2489", "0.2500", "0.2273", "0.2000"),
    ("3", "0.3494", "0.3333", "0.3182", "0.3000"),
    ("4", "0.4498", "0.4167", "0.4091", "0.4000"),
    ("5", "0.5000", "0.5000", "0.5000", "0.5000"),
    ("6", "0.5502", "0.5833", "0.5909", "0.6000"),
    ("7", "0.6506", "0.6667", "0.6818", "0.7000"),
    ("8", "0.7511", "0.7500", "0.7727", "0.8000"),
    ("9", "0.8524", "0.8333", "0.8636", "0.9000"),
    ("10", "0.9627", "0.9167", "0.9545", "1.0000"),
]


def _reward(rng: random.Random, on_lattice: bool) -> dict:
    return {"constant": rng.choice(LATTICE) if on_lattice else rng.random()}


def wide_gamble(rng: random.Random) -> dict:
    """One level; even rewards on the 0.1 lattice (merged by flatten), odd ones distinct.

    Likelihoods are skewed towards 0 so that few prospects decide the price.
    """
    return {
        "prospects": [
            {"likelihood": rng.random() ** 4, "reward": _reward(rng, i % 2 == 0)}
            for i in range(WIDE_PROSPECTS)
        ]
    }


def balanced_gamble(rng: random.Random, depth: int, branching: int) -> dict:
    """Full tree of the given depth; leaves are half lattice, half distinct constants."""
    if depth == 0:
        return _reward(rng, rng.random() < 0.5)
    return {
        "prospects": [
            {"likelihood": rng.random(), "reward": balanced_gamble(rng, depth - 1, branching)}
            for _ in range(branching)
        ]
    }


def chain_gamble(rng: random.Random) -> dict:
    """Each level holds one constant prospect and one nested level."""
    g = _reward(rng, False)
    for _ in range(CHAIN_LEVELS):
        g = {
            "prospects": [
                {"likelihood": rng.random(), "reward": g},
                {"likelihood": rng.random(), "reward": _reward(rng, False)},
            ]
        }
    return g


def make_gamble(name: str, seed: int) -> dict:
    rng = random.Random(f"{seed}:{name}")
    if name == "wide":
        return wide_gamble(rng)
    if name == "tree":
        return balanced_gamble(rng, TREE_DEPTH, TREE_BRANCHING)
    if name == "small":
        return balanced_gamble(rng, SMALL_DEPTH, SMALL_BRANCHING)
    if name == "chain":
        return chain_gamble(rng)
    raise ValueError(f"unknown gamble file {name!r}")


def file_premium(seed: int) -> float:
    """The ambiguity premium the gamble-file commands run at, drawn from the seed."""
    return round(random.Random(f"{seed}:premium").uniform(-1.5, 1.5), 6)


def dumps(obj: dict) -> str:
    """The program's wire format, written without recursion so any depth works."""
    out: list[str] = []
    stack: list = [obj]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif "constant" in item:
            out.append(f'{{"constant": {item["constant"]!r}}}')
        else:
            parts: list = ['{"prospects": [']
            for i, p in enumerate(item["prospects"]):
                parts.append(f'{", " if i else ""}{{"likelihood": {p["likelihood"]!r}, "reward": ')
                parts.append(p["reward"])
                parts.append("}")
            parts.append("]}")
            stack.extend(reversed(parts))
    return "".join(out)


def write_gamble(path: Path, obj: dict) -> None:
    path.write_text(dumps(obj), encoding="utf-8")


def count_nodes(obj: dict) -> int:
    nodes, stack = 0, [obj]
    while stack:
        item = stack.pop()
        nodes += 1
        if "prospects" in item:
            stack.extend(p["reward"] for p in item["prospects"])
    return nodes


# ---------------------------------------------------------------------------
# The oracle: the paper's price, evaluated on the dict form.
# ---------------------------------------------------------------------------


def _constant_pair(x: float, c: float) -> tuple[float, float]:
    if x <= 0.0:
        return 0.0, 1.0
    if x >= 1.0:
        return 1.0, 0.0
    t = math.log(x) - math.log1p(-x) - c
    return min(1.0, math.exp(t)), min(1.0, math.exp(-t))


def oracle_pair(obj: dict, c: float) -> tuple[float, float]:
    """<alpha, beta>: each level normalized to max likelihood 1, then the pointwise
    maximum of the likelihood-scaled reward vectors. Post-order with an explicit stack."""
    done: dict[int, tuple[float, float]] = {}
    stack = [(obj, False)]
    while stack:
        node, expanded = stack.pop()
        if "constant" in node:
            done[id(node)] = _constant_pair(float(node["constant"]), c)
        elif not expanded:
            stack.append((node, True))
            stack.extend((p["reward"], False) for p in node["prospects"])
        else:
            top = max(float(p["likelihood"]) for p in node["prospects"])
            alpha = beta = 0.0
            for p in node["prospects"]:
                a, b = done.pop(id(p["reward"]))
                lik = float(p["likelihood"]) / top
                alpha, beta = max(alpha, lik * a), max(beta, lik * b)
            done[id(node)] = (alpha, beta)
    return done[id(obj)]


def oracle_price(obj: dict, c: float) -> float:
    alpha, beta = oracle_pair(obj, c)
    if beta == 0.0:
        return 1.0
    if alpha == 0.0:
        return 0.0
    t = math.log(alpha / beta) + c
    return 1.0 / (1.0 + math.exp(-t)) if t >= 0 else math.exp(t) / (1.0 + math.exp(t))


# ---------------------------------------------------------------------------
# Output checks. Each returns None when the output is right, else the reason.
# ---------------------------------------------------------------------------


def check_price(stdout: str, want: float) -> str | None:
    try:
        got = float(stdout)
    except ValueError:
        return f"price output is not a number: {stdout[:80]!r}"
    if abs(got - want) > PRICE_TOL:
        return f"price {got!r} differs from the oracle's {want!r}"
    return None


def check_reduced(stdout: str, want: float, c: float) -> str | None:
    try:
        obj = json.loads(stdout)
        nested = any("prospects" in p["reward"] for p in obj.get("prospects", ()))
        got = oracle_price(obj, c)
    except (ValueError, RecursionError, KeyError, TypeError, AttributeError) as exc:
        return f"reduce output is not a gamble: {exc!r}"
    if nested:
        return "reduce output is nested"
    if abs(got - want) > REDUCE_TOL:
        return f"reduced gamble prices at {got!r}, the input at {want!r}"
    return None


def check_compare_equal(stdout: str) -> str | None:
    return None if stdout.strip() == "=" else f"compare printed {stdout.strip()[:20]!r}, not '='"


def check_text_table(stdout: str) -> str | None:
    rows = [tuple(line.split()) for line in stdout.strip().splitlines()[1:]]
    if rows != PUBLISHED_TABLE:
        return "the ten-toss table differs from the published values"
    return None


def parse_csv_table(stdout: str, m: int) -> tuple[dict[int, float], str | None]:
    """Likelihood price by x, after checking every row's Bayesian columns and range."""
    lines = stdout.strip().splitlines()
    if not lines or lines[0] != "x,likelihood,uniform,jeffreys,novick_hall" or len(lines) != m + 2:
        return {}, f"CSV table for m={m} has a wrong header or {len(lines) - 1} rows"
    prices: dict[int, float] = {}
    for line in lines[1:]:
        try:
            x_field, *values = line.split(",")
            x = int(x_field)
            lik, uniform, jeffreys, novick_hall = map(float, values)
        except ValueError:
            return {}, f"malformed CSV row {line[:80]!r}"
        if (uniform, jeffreys, novick_hall) != ((x + 1) / (m + 2), (x + 0.5) / (m + 1), x / m):
            return {}, f"Bayesian columns wrong at m={m}, x={x}"
        if not 0.0 <= lik <= 1.0:
            return {}, f"likelihood price {lik!r} outside [0, 1] at m={m}, x={x}"
        prices[x] = lik
    if sorted(prices) != list(range(m + 1)):
        return {}, f"CSV table for m={m} does not list x = 0..{m} once each"
    return prices, None


def check_symmetry(m: int, tables: dict[float, dict[int, float]]) -> str | None:
    """price(m, x, c) + price(m, m - x, -c) = 1 for every premium pair present."""
    for c, prices in tables.items():
        mirror = tables.get(-c)
        if not prices or not mirror:  # a table that failed its own check
            continue
        for x, p in prices.items():
            if abs(p + mirror[m - x] - 1.0) > SYMMETRY_TOL:
                return f"complement symmetry fails at m={m}, x={x}, c={c}"
    return None


def check_conformance(stdout: str, names: list[str], samples: int) -> str | None:
    try:
        got = {r["property"]: r for r in json.loads(stdout)}
    except (ValueError, TypeError, KeyError):
        return "conformance output is not a JSON list of per-law results"
    if sorted(got) != sorted(names):
        return f"conformance lists {sorted(got)}, expected {sorted(names)}"
    for name, r in got.items():
        if r.get("samples") != samples or r.get("failures") != 0:
            return f"law {name}: {r.get('failures')}/{r.get('samples')} failures"
    return None
