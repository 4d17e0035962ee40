"""The public surface: one declaration per module, and the README and demos use only it."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

import likelihood_gambles
from likelihood_gambles import Gamble, emit_table, render_table_text

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = ["gambles", "pricing", "binomial", "conformance"]

PUBLIC = [
    "BinomialScenario",
    "DegenerateEvidenceError",
    "Gamble",
    "GambleError",
    "GenConfig",
    "InfiniteLogitError",
    "InvalidModelError",
    "ModelSpec",
    "PricingRow",
    "Prospect",
    "UtilityVector",
    "bayesian_prices",
    "build_gamble",
    "canonical_equivalent",
    "canonical_of_value",
    "compare",
    "continuous_utility_vector",
    "depth",
    "dump_gamble",
    "emit_table",
    "expected_utility",
    "flatten",
    "format_price",
    "gamble_from_json",
    "gamble_to_json",
    "generate_gamble",
    "implied_prior",
    "inverse_logit",
    "likelihood_price",
    "load_gamble",
    "logit",
    "normalize_likelihoods",
    "normalized_binomial_likelihood",
    "prefer",
    "price",
    "price_from_vector",
    "render_table_csv",
    "render_table_text",
    "run_conformance",
    "utility_of_gamble",
]

# The parameters of every public callable: adding or removing an option shows here.
PARAMETERS = {
    "BinomialScenario": ["trials", "successes", "premium"],
    "Gamble": ["constant", "prospects"],
    "GenConfig": ["max_depth", "max_branching", "seed", "samples"],
    "ModelSpec": ["probabilities", "payoff"],
    "PricingRow": ["successes", "likelihood", "uniform", "jeffreys", "novick_hall"],
    "Prospect": ["likelihood", "reward"],
    "UtilityVector": ["alpha", "beta"],
    "bayesian_prices": ["scenario"],
    "build_gamble": ["models", "evidence_probabilities"],
    "canonical_equivalent": ["g", "c"],
    "canonical_of_value": ["x", "c"],
    "compare": ["u", "v"],
    "continuous_utility_vector": ["scenario"],
    "depth": ["g"],
    "dump_gamble": ["g"],
    "emit_table": ["m", "c"],
    "expected_utility": ["model"],
    "flatten": ["g"],
    "format_price": ["value"],
    "gamble_from_json": ["obj"],
    "gamble_to_json": ["g"],
    "generate_gamble": ["config"],
    "implied_prior": ["observed_fair_price"],
    "inverse_logit": ["t"],
    "likelihood_price": ["scenario"],
    "load_gamble": ["source"],
    "logit": ["z"],
    "normalize_likelihoods": ["raw"],
    "normalized_binomial_likelihood": ["p", "scenario"],
    "prefer": ["g1", "g2", "c"],
    "price": ["g", "c"],
    "price_from_vector": ["u", "c"],
    "render_table_csv": ["rows"],
    "render_table_text": ["rows"],
    "run_conformance": ["config", "c", "properties", "utility_fn"],
    "utility_of_gamble": ["g", "c"],
}


def python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README, re.DOTALL)


def commented_lines(block: str) -> dict[str, str]:
    """Each code line that carries a trailing comment, mapped to that comment."""
    notes = {}
    for line in block.splitlines():
        code, sep, comment = line.partition("#")
        if sep and code.strip():
            notes[code.strip()] = comment.strip()
    return notes


def test_package_exports_exactly_the_public_names():
    names = likelihood_gambles.__all__
    assert len(names) == len(set(names))
    assert sorted(names) == PUBLIC


def test_module_declarations_are_disjoint_and_resolve():
    seen: set[str] = set()
    for name in MODULES:
        module = importlib.import_module(f"likelihood_gambles.{name}")
        declared = set(module.__all__)
        assert not declared & seen, name
        seen |= declared
        for public in declared:
            assert getattr(likelihood_gambles, public) is getattr(module, public)
    assert seen == set(PUBLIC)


def test_public_parameters_are_pinned():
    objects = {name: getattr(likelihood_gambles, name) for name in PUBLIC}
    pinned = {
        name: list(inspect.signature(obj).parameters)
        for name, obj in objects.items()
        if not (isinstance(obj, type) and issubclass(obj, Exception))
    }
    assert len(pinned) == 36
    assert pinned == PARAMETERS


@pytest.mark.parametrize(
    "source",
    [*sorted((ROOT / "demos").glob("*.py")), "README"],
    ids=lambda source: getattr(source, "name", source),
)
def test_documented_imports_are_public(source):
    text = README if source == "README" else source.read_text(encoding="utf-8")
    blocks = python_blocks() if source == "README" else [text]
    imported = 0
    for block in blocks:
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("likelihood_gambles"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert alias.name in module.__all__, (node.module, alias.name)
                    imported += 1
    assert imported


def test_readme_quickstart_results_hold():
    quickstart, table = python_blocks()
    namespace: dict = {}
    exec(quickstart, namespace)
    notes = commented_lines(quickstart)

    def result(code):
        return eval(code, namespace)

    assert notes["g = build_gamble([fair, bias], [0.5, 0.4])"] == "{1.0/0.5, 0.8/0.4}"
    assert namespace["g"] == Gamble.from_prospects([(1.0, 0.5), (0.8, 0.4)])
    assert notes["price(g, 0.0)"].startswith("0.5 ")
    assert result("price(g, 0.0)") == pytest.approx(0.5, abs=1e-12)
    assert notes["canonical_equivalent(g, 0.0)"] == "{1.0/1, 1.0/0}"
    assert result("canonical_equivalent(g, 0.0)") == Gamble.from_prospects([(1.0, 1.0), (1.0, 0.0)])
    assert notes["prefer(g, flatten(g), 0.3)"].startswith('"equal" ')
    assert result("prefer(g, flatten(g), 0.3)") == "equal"

    assert "render_table_text(emit_table(10, 0.0))" in table
    printed = re.search(r"```\n(   x  likelihood.*?)```", README, re.DOTALL).group(1).splitlines()
    rendered = render_table_text(emit_table(10, 0.0)).splitlines()
    shown = [line for line in printed if line.strip() != "..."]
    assert len(shown) == 4
    assert all(line in rendered for line in shown)
    assert rendered[0] == printed[0] and rendered[-1] == printed[-1]
