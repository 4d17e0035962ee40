"""Core gamble model: construction, normalization, reduction, serialization."""

import dataclasses
import io
import json
import math
import random
from types import MappingProxyType

import pytest
from hypothesis import given
from hypothesis import strategies as st

from likelihood_gambles import (
    DegenerateEvidenceError,
    Gamble,
    GambleError,
    InvalidModelError,
    ModelSpec,
    Prospect,
    build_gamble,
    depth,
    dump_gamble,
    expected_utility,
    flatten,
    gamble_from_json,
    gamble_to_json,
    load_gamble,
    normalize_likelihoods,
)
from likelihood_gambles.conformance import GenConfig, generate_gamble
from likelihood_gambles.gambles import (
    _document_leaves,
    _leaf_likelihoods,
    _read_json,
)

FAIR_COIN = ModelSpec({"head": 0.5, "tail": 0.5}, {"head": 1.0, "tail": 0.0})
BIAS_COIN = ModelSpec({"head": 0.4, "tail": 0.6}, {"head": 1.0, "tail": 0.0})


def constants(g: Gamble) -> set[float]:
    return {p.reward.constant for p in g.prospects}


def as_pairs(g: Gamble) -> set[tuple[float, float]]:
    return {(p.likelihood, p.reward.constant) for p in g.prospects}


def generated(seeds=range(200)) -> list[Gamble]:
    return [generate_gamble(GenConfig(max_depth=5, max_branching=3, seed=s)) for s in seeds]


def reference_from_json(obj):
    """The loader's contract, read recursively: checks run depth first in
    document order, and each level is normalized after its rewards."""
    if not isinstance(obj, dict):
        raise GambleError(f"expected a JSON object, got {type(obj).__name__}")
    if "constant" in obj:
        if "prospects" in obj:
            raise GambleError("gamble object has both 'constant' and 'prospects' keys")
        return Gamble.from_value(obj["constant"])
    if "prospects" not in obj:
        raise GambleError("gamble object needs a 'constant' or 'prospects' key")
    entries = obj["prospects"]
    if not isinstance(entries, list) or not entries:
        raise GambleError("'prospects' must be a nonempty array")
    raw, rewards = [], []
    for entry in entries:
        if not isinstance(entry, dict) or "likelihood" not in entry or "reward" not in entry:
            raise GambleError("each prospect needs 'likelihood' and 'reward' keys")
        lik = entry["likelihood"]
        if not isinstance(lik, (int, float)) or isinstance(lik, bool):
            raise GambleError(f"likelihood must be a real number, got {lik!r}")
        raw.append(float(lik))
        rewards.append(reference_from_json(entry["reward"]))
    likelihoods = normalize_likelihoods(raw)
    return Gamble(prospects=tuple(Prospect(l, r) for l, r in zip(likelihoods, rewards)))


def reference_flatten(g):
    """``flatten`` read from its contract and built with the public constructors."""
    if g.is_constant:
        return Gamble.from_value(g.constant)
    # Constants key the map in the leaf walk's order, which decides whether
    # 0.0 or -0.0 stands for both: a level's constants, then its last
    # compound reward first.
    best = {}
    levels = [(1.0, g)]
    while levels:
        scale, node = levels.pop()
        for p in node.prospects:
            lik = scale * p.likelihood
            if p.reward.is_constant:
                best[p.reward.constant] = max(lik, best.get(p.reward.constant, -1.0))
            else:
                levels.append((lik, p.reward))
    top = max(best.values())
    pairs = sorted(((lik / top, value) for value, lik in best.items()), key=lambda x: (-x[0], x[1]))
    return Gamble.from_prospects(pairs)


def reference_repr(g):
    """The paper's notation, written recursively."""
    if g.is_constant:
        return f"Gamble({g.constant!r})"
    inner = ", ".join(f"{p.likelihood!r}/{reference_repr(p.reward)}" for p in g.prospects)
    return f"Gamble({{{inner}}})"


def assert_same_error(obj):
    """``gamble_from_json`` raises the reference's error type and message; returns that error."""
    with pytest.raises(GambleError) as want:
        reference_from_json(obj)
    with pytest.raises(GambleError) as got:
        gamble_from_json(obj)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    return got.value


def unnormalized(obj, scale=2.5):
    """The dict form with each level's likelihoods scaled by a level-specific factor."""
    if "constant" in obj:
        return dict(obj)
    return {
        "prospects": [
            {"likelihood": e["likelihood"] * scale, "reward": unnormalized(e["reward"], scale * 0.7)}
            for e in obj["prospects"]
        ]
    }


def levels(obj):
    """Every compound level of a dict-form gamble, in document order."""
    if "prospects" in obj:
        yield obj
        for entry in obj["prospects"]:
            yield from levels(entry["reward"])


def prospect_entry(likelihood, reward):
    return {"likelihood": likelihood, "reward": reward}


# Levels that mix constant and compound rewards, the compound ones first,
# last, alone and nested as the last entry of a level.
MIXED = [
    Gamble.from_prospects([(1.0, 0.5), (0.5, Gamble.from_prospects([(1.0, 0.2)])), (0.25, 0.3)]),
    Gamble.from_prospects([(1.0, Gamble.from_prospects([(0.3, 0.1), (1.0, 0.9)])), (0.75, 0.4)]),
    Gamble.from_prospects([(1.0, Gamble.from_prospects([(1.0, Gamble.from_prospects([(1.0, 1.0)]))]))]),
    Gamble.from_prospects(
        [(0.5, 0.0), (1.0, Gamble.from_prospects([(1.0, -0.0), (0.5, Gamble.from_prospects([(1.0, 0.7)]))]))]
    ),
    Gamble.from_prospects([(1.0, 0.6), (1.0, 0.2), (0.5, 0.9), (0.5, 0.1), (0.5, 0.6)]),
]


# Each fault edits one level of a valid dict-form gamble in place.
FAULTS = {
    "not-an-object": lambda level: level["prospects"][0].update(reward=[1]),
    "no-key": lambda level: level["prospects"][0].update(reward={"value": 0.5}),
    "both-keys": lambda level: level.update(constant=0.5),
    "empty-prospects": lambda level: level.update(prospects=[]),
    "string-prospects": lambda level: level.update(prospects="ab"),
    "entry-not-object": lambda level: level["prospects"].append(0.5),
    "entry-without-reward": lambda level: level["prospects"][-1].pop("reward"),
    "string-likelihood": lambda level: level["prospects"][-1].update(likelihood="0.5"),
    "bool-likelihood": lambda level: level["prospects"][0].update(likelihood=True),
    "negative-likelihood": lambda level: level["prospects"][-1].update(likelihood=-0.5),
    "nan-likelihood": lambda level: level["prospects"][0].update(likelihood=math.nan),
    "infinite-likelihood": lambda level: level["prospects"][-1].update(likelihood=math.inf),
    "all-zero": lambda level: [e.update(likelihood=0.0) for e in level["prospects"]],
    "constant-out-of-range": lambda level: level["prospects"][-1].update(reward={"constant": 1.5}),
    "constant-null": lambda level: level["prospects"][0].update(reward={"constant": None}),
    "constant-string": lambda level: level["prospects"][-1].update(reward={"constant": "x"}),
}


class TestConstruction:
    def test_constant_in_unit_interval(self):
        assert Gamble.from_value(0.3).constant == 0.3
        with pytest.raises(GambleError):
            Gamble.from_value(1.5)
        with pytest.raises(GambleError):
            Gamble.from_value(-0.1)
        with pytest.raises(GambleError):
            Gamble.from_value(float("nan"))

    def test_compound_requires_normalized_maximum(self):
        Gamble.from_prospects([(1.0, 0.5), (0.8, 0.4)])
        with pytest.raises(GambleError):
            Gamble.from_prospects([(0.9, 0.5), (0.8, 0.4)])

    def test_empty_prospects_rejected(self):
        with pytest.raises(GambleError):
            Gamble(prospects=())
        with pytest.raises(GambleError):
            Gamble()

    def test_likelihood_outside_unit_interval_rejected(self):
        with pytest.raises(GambleError):
            Prospect(1.2, Gamble.from_value(0.5))
        with pytest.raises(GambleError):
            Prospect(-0.2, Gamble.from_value(0.5))

    def test_zero_likelihood_prospects_are_kept(self):
        g = Gamble.from_prospects([(1.0, 1.0), (0.0, 0.0)])
        assert len(g.prospects) == 2

    def test_immutability(self):
        g = Gamble.from_value(0.5)
        with pytest.raises(Exception):
            g.constant = 0.7

    def test_integers_become_floats(self):
        g = Gamble.from_value(1)
        assert type(g.constant) is float
        assert type(Prospect(1, g).likelihood) is float

    def test_float_subclasses_become_floats(self):
        numpy = pytest.importorskip("numpy")
        assert type(Gamble.from_value(numpy.float64(0.5)).constant) is float
        assert type(Prospect(numpy.float64(0.5), Gamble.from_value(0.5)).likelihood) is float

    @pytest.mark.parametrize("bad", [True, math.nan, "0.5", None], ids=["bool", "nan", "str", "none"])
    def test_non_real_values_rejected(self, bad):
        with pytest.raises(GambleError):
            Prospect(bad, Gamble.from_value(0.5))
        with pytest.raises(GambleError):
            Gamble.from_value(bad)

    def test_prospects_are_stored_as_a_tuple(self):
        g = Gamble(prospects=[Prospect(1.0, Gamble.from_value(0.5))])
        assert type(g.prospects) is tuple

    @pytest.mark.parametrize("reward", [0.5, None, {"constant": 0.5}], ids=["float", "none", "dict"])
    def test_reward_must_be_a_gamble(self, reward):
        with pytest.raises(GambleError, match="reward must be a Gamble"):
            Prospect(1.0, reward)

    def test_repr_uses_the_paper_notation(self):
        inner = Gamble.from_prospects([(1.0, 0.25), (0.3, 1.0)])
        g = Gamble.from_prospects([(1.0, 0.5), (0.8, inner)])
        assert repr(g) == "Gamble({1.0/Gamble(0.5), 0.8/Gamble({1.0/Gamble(0.25), 0.3/Gamble(1.0)})})"
        assert repr(Gamble.from_value(0.5)) == "Gamble(0.5)"


class TestExpectedUtility:
    def test_fair_coin_bet_on_head(self):
        assert expected_utility(FAIR_COIN) == pytest.approx(0.5)

    def test_bias_coin_bet_on_head(self):
        assert expected_utility(BIAS_COIN) == pytest.approx(0.4)

    def test_constant_action(self):
        model = ModelSpec({"a": 0.2, "b": 0.8}, {"a": 0.3, "b": 0.3})
        assert expected_utility(model) == pytest.approx(0.3)

    def test_missing_payoff_for_possible_outcome(self):
        model = ModelSpec({"a": 0.2, "b": 0.8}, {"a": 1.0})
        with pytest.raises(InvalidModelError):
            expected_utility(model)

    def test_missing_payoff_for_impossible_outcome_is_fine(self):
        model = ModelSpec({"a": 1.0, "b": 0.0}, {"a": 1.0})
        assert expected_utility(model) == pytest.approx(1.0)

    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(InvalidModelError):
            ModelSpec({"a": 0.5, "b": 0.4}, {"a": 1.0, "b": 0.0})

    def test_payoffs_must_be_utilities(self):
        with pytest.raises(InvalidModelError, match=r"payoff\['a'\] must lie in \[0, 1\]"):
            ModelSpec({"a": 1.0}, {"a": 2.0})

    @pytest.mark.parametrize("bad", ["abc", None, "0.5", True], ids=["str", "null", "numeric-str", "bool"])
    def test_payoffs_must_be_real_numbers(self, bad):
        with pytest.raises(InvalidModelError, match=r"payoff\['head'\] must be a real number"):
            ModelSpec({"head": 0.5, "tail": 0.5}, {"head": bad, "tail": 0.0})

    @pytest.mark.parametrize("bad", ["abc", None, "0.5", True], ids=["str", "null", "numeric-str", "bool"])
    def test_probabilities_must_be_real_numbers(self, bad):
        with pytest.raises(InvalidModelError, match="probability of 'head'"):
            ModelSpec({"head": bad, "tail": 0.5}, {"head": 1.0, "tail": 0.0})

    def test_model_needs_an_outcome(self):
        with pytest.raises(InvalidModelError, match="at least one outcome"):
            ModelSpec({}, {})

    @pytest.mark.parametrize("bad", [-0.5, math.inf], ids=["negative", "inf"])
    def test_probabilities_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(InvalidModelError, match="must be finite and >= 0"):
            ModelSpec({"head": bad, "tail": 0.5}, {"head": 1.0, "tail": 0.0})


class TestNormalizeLikelihoods:
    def test_two_coins_observed_head(self):
        assert normalize_likelihoods([0.5, 0.4]) == [1.0, 0.8]

    def test_singleton(self):
        assert normalize_likelihoods([0.2]) == [1.0]

    def test_ties_at_maximum(self):
        assert normalize_likelihoods([0.3, 0.15, 0.3]) == [1.0, 0.5, 1.0]

    def test_all_zero_is_degenerate(self):
        with pytest.raises(DegenerateEvidenceError):
            normalize_likelihoods([0.0, 0.0])

    def test_empty_rejected(self):
        with pytest.raises(GambleError):
            normalize_likelihoods([])

    def test_negative_rejected(self):
        with pytest.raises(GambleError):
            normalize_likelihoods([0.5, -0.1])

    @pytest.mark.parametrize("raw", [["0.5", True], [0.5, True], [1.0, None]], ids=["str", "bool", "none"])
    def test_non_real_values_rejected(self, raw):
        with pytest.raises(GambleError, match="^likelihood must be a real number, got "):
            normalize_likelihoods(raw)

    def test_integers_become_floats(self):
        assert normalize_likelihoods([1, 2]) == [0.5, 1.0]
        with pytest.raises(GambleError, match="^likelihoods must be finite and >= 0, got -1$"):
            normalize_likelihoods([1, -1])

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1).filter(lambda v: max(v) > 0))
    def test_maximum_becomes_exactly_one(self, raw):
        assert max(normalize_likelihoods(raw)) == 1.0


class TestBuildGamble:
    def test_two_coin_experiment(self):
        g = build_gamble([FAIR_COIN, BIAS_COIN], [0.5, 0.4])
        assert as_pairs(g) == {(1.0, 0.5), (0.8, 0.4)}

    def test_single_model(self):
        g = build_gamble([BIAS_COIN], [0.123])
        assert as_pairs(g) == {(1.0, 0.4)}

    def test_exchangeable_experiments_build_identical_gambles(self):
        # A double-tail coin and a 2:8 coin, observed tail, betting half a
        # unit on tail, carry the same likelihoods and the same values as
        # the head experiment above.
        double_tail = ModelSpec({"head": 0.0, "tail": 1.0}, {"head": 0.0, "tail": 0.5})
        two_eight = ModelSpec({"head": 0.2, "tail": 0.8}, {"head": 0.0, "tail": 0.5})
        first = build_gamble([FAIR_COIN, BIAS_COIN], [0.5, 0.4])
        second = build_gamble([double_tail, two_eight], [1.0, 0.8])
        assert first == second

    def test_evidence_scale_invariance(self):
        base = build_gamble([FAIR_COIN, BIAS_COIN], [0.5, 0.4])
        scaled = build_gamble([FAIR_COIN, BIAS_COIN], [2.0, 1.6])
        assert base == scaled

    def test_length_mismatch(self):
        with pytest.raises(GambleError):
            build_gamble([FAIR_COIN], [0.5, 0.4])

    def test_zero_evidence_everywhere(self):
        with pytest.raises(DegenerateEvidenceError):
            build_gamble([FAIR_COIN, BIAS_COIN], [0.0, 0.0])


class TestDepth:
    def test_constant(self):
        assert depth(Gamble.from_value(0.3)) == 0

    def test_one_level(self):
        assert depth(Gamble.from_prospects([(1.0, 0.3)])) == 1

    def test_two_levels(self):
        inner = Gamble.from_prospects([(1.0, 0.2), (0.5, 0.7)])
        g = Gamble.from_prospects([(1.0, inner), (0.4, 0.1)])
        assert depth(g) == 2


class TestFlatten:
    def test_constant_passes_through(self):
        g = Gamble.from_value(0.42)
        assert flatten(g) is g

    def test_single_nesting_level(self):
        inner = Gamble.from_prospects([(0.8, 0.7), (1.0, 0.2)])
        g = Gamble.from_prospects([(1.0, inner), (0.3, 0.1)])
        assert as_pairs(flatten(g)) == {(0.8, 0.7), (1.0, 0.2), (0.3, 0.1)}

    def test_duplicate_rewards_merge_to_max_likelihood(self):
        g = Gamble.from_prospects([(1.0, 0.7), (0.4, 0.7)])
        assert as_pairs(flatten(g)) == {(1.0, 0.7)}

    def test_nested_with_merge(self):
        inner = Gamble.from_prospects([(1.0, 1.0), (0.5, 0.0)])
        g = Gamble.from_prospects([(1.0, inner), (0.2, 0.0)])
        assert as_pairs(flatten(g)) == {(1.0, 1.0), (0.5, 0.0)}

    def test_depth_at_most_one_and_idempotent(self):
        deep = Gamble.from_prospects(
            [
                (1.0, Gamble.from_prospects([(1.0, Gamble.from_prospects([(1.0, 0.9)]))])),
                (0.6, 0.1),
            ]
        )
        flat = flatten(deep)
        assert depth(flat) <= 1
        assert flatten(flat) == flat

    def test_likelihoods_multiply_down_paths(self):
        inner = Gamble.from_prospects([(1.0, 0.9), (0.5, 0.3)])
        g = Gamble.from_prospects([(1.0, 0.6), (0.4, inner)])
        assert as_pairs(flatten(g)) == {(1.0, 0.6), (0.4, 0.9), (0.2, 0.3)}


class TestEquality:
    def test_order_insensitive(self):
        a = Gamble.from_prospects([(1.0, 0.5), (0.8, 0.4)])
        b = Gamble.from_prospects([(0.8, 0.4), (1.0, 0.5)])
        assert a == b
        assert hash(a) == hash(b)

    def test_normal_form_identification(self):
        nested = Gamble.from_prospects([(1.0, Gamble.from_prospects([(1.0, 1.0), (0.5, 0.0)]))])
        flat = Gamble.from_prospects([(1.0, 1.0), (0.5, 0.0)])
        assert nested == flat

    def test_distinct_gambles_differ(self):
        a = Gamble.from_prospects([(1.0, 1.0), (0.5, 0.0)])
        b = Gamble.from_prospects([(1.0, 1.0), (0.8, 0.0)])
        assert a != b

    def test_constants_compare_by_value(self):
        assert Gamble.from_value(0.5) == Gamble.from_value(0.5)
        assert Gamble.from_value(0.5) != Gamble.from_value(0.6)

    def test_a_non_gamble_is_left_to_the_other_operand(self):
        class EqualToAnything:
            def __eq__(self, other):
                return True

        g = Gamble.from_value(0.5)
        assert g.__eq__(0.5) is NotImplemented
        assert g != 0.5 and g != "0.5" and g != None  # noqa: E711
        assert g == EqualToAnything()

    def test_maximum_within_tolerance_of_one_is_renormalized(self):
        g = Gamble.from_prospects([(1 - 5e-13, 0.3), (0.5, 0.7)])
        flat = flatten(g)
        assert flat.prospects[0].likelihood == 1.0
        assert g == flat
        assert hash(g) == hash(flat)


class TestJson:
    def test_constant_round_trip(self):
        g = Gamble.from_value(0.5)
        assert gamble_from_json(gamble_to_json(g)) == g

    def test_compound_round_trip(self):
        g = Gamble.from_prospects([(1.0, 0.5), (0.8, Gamble.from_prospects([(1.0, 0.2)]))])
        assert gamble_from_json(gamble_to_json(g)) == g

    def test_wire_format_shape(self):
        g = Gamble.from_prospects([(1.0, 0.5), (0.8, 0.4)])
        obj = gamble_to_json(g)
        assert obj == {
            "prospects": [
                {"likelihood": 1.0, "reward": {"constant": 0.5}},
                {"likelihood": 0.8, "reward": {"constant": 0.4}},
            ]
        }

    def test_unnormalized_input_is_normalized_on_load(self):
        obj = {
            "prospects": [
                {"likelihood": 0.5, "reward": {"constant": 1.0}},
                {"likelihood": 0.25, "reward": {"constant": 0.0}},
            ]
        }
        g = gamble_from_json(obj)
        assert as_pairs(g) == {(1.0, 1.0), (0.5, 0.0)}

    def test_malformed_objects(self):
        for bad in ({}, {"prospects": []}, {"prospects": [{"likelihood": 1.0}]}, [1, 2], 7):
            with pytest.raises(GambleError):
                gamble_from_json(bad)

    def test_dump_and_load_via_file(self, tmp_path):
        g = Gamble.from_prospects([(1.0, 0.5), (0.8, 0.4)])
        path = tmp_path / "g.json"
        path.write_text(dump_gamble(g), encoding="utf-8")
        assert load_gamble(str(path)) == g

    def test_load_from_stream(self):
        g = load_gamble(io.StringIO('{"constant": 0.25}'))
        assert g.constant == 0.25

    def test_model_wire_format(self):
        obj = {"probabilities": {"head": 0.5, "tail": 0.5}, "payoff": {"head": 1.0, "tail": 0.0}}
        assert expected_utility(ModelSpec(**obj)) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "obj, key",
        [
            ({"probabilities": [1], "payoff": {}}, "probabilities"),
            ({"probabilities": "ab", "payoff": {}}, "probabilities"),
            ({"probabilities": 3, "payoff": {}}, "probabilities"),
            ({"probabilities": [["h", 1.0]], "payoff": {"h": 1.0}}, "probabilities"),
            ({"probabilities": {"h": 1.0}, "payoff": [1]}, "payoff"),
            ({"probabilities": {"h": 1.0}, "payoff": None}, "payoff"),
            ({"probabilities": {"h": 1.0}, "payoff": 3}, "payoff"),
            ({"probabilities": {"h": 1.0}, "payoff": [("h", 0.5)]}, "payoff"),
            ({"probabilities": [("h", 1.0)], "payoff": [("h", 0.5)]}, "probabilities"),
        ],
        ids=[
            "list", "string", "number", "pair-list", "payoff-list", "payoff-null",
            "payoff-number", "payoff-pair-list", "both-pair-lists",
        ],
    )
    def test_model_fields_must_be_objects(self, obj, key):
        with pytest.raises(InvalidModelError, match=f"'{key}' must be a JSON object"):
            ModelSpec(**obj)

    def test_loader_rejects_other_mappings_and_sequences(self):
        # The loader reads what the JSON decoder makes: dicts and lists.
        constant = MappingProxyType({"constant": 0.5})
        good = {"likelihood": 1.0, "reward": {"constant": 0.5}}
        not_an_object = "^expected a JSON object, got mappingproxy$"
        for obj, message in [
            (constant, not_an_object),
            ({"prospects": [{"likelihood": 1.0, "reward": constant}]}, not_an_object),
            ({"prospects": (good,)}, "^'prospects' must be a nonempty array$"),
            ({"prospects": [MappingProxyType(good)]}, "^each prospect needs 'likelihood' and 'reward' keys$"),
        ]:
            with pytest.raises(GambleError, match=message):
                gamble_from_json(obj)

    @pytest.mark.parametrize(
        "entries", ["ab", b"ab", [], {}, (), MappingProxyType({}), 3],
        ids=["str", "bytes", "empty-list", "object", "empty-tuple", "mapping", "number"],
    )
    def test_prospects_must_be_a_nonempty_array(self, entries):
        with pytest.raises(GambleError, match="^'prospects' must be a nonempty array$"):
            gamble_from_json({"prospects": entries})

    @pytest.mark.parametrize(
        "entry",
        [0.5, "ab", None, [1.0, {"constant": 0.5}], MappingProxyType({"likelihood": 1.0})],
        ids=["number", "str", "null", "array", "mapping-without-reward"],
    )
    def test_prospect_entries_must_be_objects(self, entry):
        good = {"likelihood": 1.0, "reward": {"constant": 0.5}}
        with pytest.raises(GambleError, match="^each prospect needs 'likelihood' and 'reward' keys$"):
            gamble_from_json({"prospects": [good, entry]})

    def test_dump_matches_json_dumps(self):
        for seed, g in enumerate(generated() + MIXED):
            for form in (g, flatten(g), gamble_from_json(gamble_to_json(g))):
                assert dump_gamble(form) == json.dumps(gamble_to_json(form)), seed
                assert repr(form) == reference_repr(form), seed

    @pytest.mark.parametrize("normalized", [False, True])
    def test_loader_matches_recursive_reference(self, normalized):
        for seed, g in enumerate(generated()):
            obj = gamble_to_json(g) if normalized else unnormalized(gamble_to_json(g))
            want = gamble_to_json(reference_from_json(obj))
            assert gamble_to_json(gamble_from_json(obj)) == want, seed

    @pytest.mark.parametrize("normalized", [False, True])
    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_loader_reports_the_reference_error(self, fault, normalized):
        checked = 0
        for g in generated(range(40)):
            base = gamble_to_json(g) if normalized else unnormalized(gamble_to_json(g))
            for index in range(sum(1 for _ in levels(base))):
                obj = json.loads(json.dumps(base))
                FAULTS[fault](list(levels(obj))[index])
                assert_same_error(obj)
                checked += 1
        assert checked > 40

    def test_loader_reports_the_first_of_two_errors(self):
        rng = random.Random(0)
        checked = 0
        for g in generated(range(20)):
            base = unnormalized(gamble_to_json(g))
            if g.is_constant:
                continue
            for first in sorted(FAULTS):
                for second in sorted(FAULTS):
                    obj = json.loads(json.dumps(base))
                    targets = list(levels(obj))
                    FAULTS[first](rng.choice(targets))
                    try:
                        FAULTS[second](rng.choice(targets))
                    except (LookupError, AttributeError):
                        continue  # the first fault removed what the second edits
                    assert_same_error(obj)
                    checked += 1
        assert checked > 1000

    def test_dump_is_a_fixpoint_under_reload(self):
        g = Gamble.from_prospects([(1.0, 0.9), (1 / 3, 0.2)])
        text = dump_gamble(g)
        again = dump_gamble(load_gamble(io.StringIO(text)))
        assert text == again


class TestLoaderAndFlattenBuilds:
    """What the loader and ``flatten`` build through the constructors is
    indistinguishable from what the recursive reference builds, and as
    frozen."""

    def cases(self):
        for g in generated(range(60)) + MIXED:
            yield unnormalized(gamble_to_json(g))

    @staticmethod
    def assert_indistinguishable(got, want):
        assert got == want and want == got
        assert hash(got) == hash(want)
        assert repr(got) == repr(want) == reference_repr(want)
        assert dump_gamble(got) == dump_gamble(want)

    def test_loaded_gambles_match_the_reference(self):
        for obj in self.cases():
            want = reference_from_json(obj)
            self.assert_indistinguishable(gamble_from_json(obj), want)
            self.assert_indistinguishable(load_gamble(io.StringIO(json.dumps(obj))), want)

    def test_flattened_gambles_match_the_reference(self):
        for obj in self.cases():
            g = gamble_from_json(obj)
            self.assert_indistinguishable(flatten(g), reference_flatten(reference_from_json(obj)))

    def test_flatten_orders_ties_by_value(self):
        flat = flatten(MIXED[-1])
        assert [(p.likelihood, p.reward.constant) for p in flat.prospects] == [
            (1.0, 0.2), (1.0, 0.6), (0.5, 0.1), (0.5, 0.9)
        ]

    def test_loaded_and_flattened_gambles_are_frozen(self):
        for g in (gamble_from_json(gamble_to_json(MIXED[0])), flatten(MIXED[0])):
            prospect = g.prospects[0]
            for target, name, value in (
                (g, "constant", 0.5),
                (g, "prospects", ()),
                (prospect, "likelihood", 0.5),
                (prospect, "reward", g),
                (prospect.reward, "constant", 0.1),
            ):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(target, name, value)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(target, name)

    def test_a_bool_constant_beside_a_valid_one_is_rejected(self):
        obj = {"prospects": [
            prospect_entry(1.0, {"constant": 1.0}), prospect_entry(0.5, {"constant": True})
        ]}
        error = assert_same_error(obj)
        assert str(error) == "constant must be a real number, got True"

    def test_integers_become_floats(self):
        ones = [(1, 1), (1.0, 1.0), (0, 1)]
        obj = {"prospects": [prospect_entry(lik, {"constant": value}) for lik, value in ones]}
        g = gamble_from_json(obj)
        for p in g.prospects:
            assert type(p.likelihood) is float and type(p.reward.constant) is float
            assert p.reward.constant == 1.0
        self.assert_indistinguishable(g, reference_from_json(obj))

    def test_negative_zero_keeps_its_sign(self):
        zeros = [-0.0, 0.0, -0.0, 0.0, 0.5, -0.0]
        obj = {"prospects": [prospect_entry(1.0, {"constant": z}) for z in zeros]}
        text = json.dumps(obj)
        assert dump_gamble(gamble_from_json(obj)) == text
        assert dump_gamble(load_gamble(io.StringIO(text))) == text
        got = [math.copysign(1.0, p.reward.constant) for p in load_gamble(io.StringIO(text)).prospects]
        assert got == [math.copysign(1.0, z) for z in zeros]

    def test_dump_and_repr_of_mixed_levels(self):
        assert repr(MIXED[0]) == "Gamble({1.0/Gamble(0.5), 0.5/Gamble({1.0/Gamble(0.2)}), 0.25/Gamble(0.3)})"
        assert dump_gamble(MIXED[2]) == (
            '{"prospects": [{"likelihood": 1.0, "reward": {"prospects": [{"likelihood": 1.0, '
            '"reward": {"prospects": [{"likelihood": 1.0, "reward": {"constant": 1.0}}]}}]}}]}'
        )


def leaf_outcome(read, doc):
    """What ``read(doc)`` gives: its leaf map as ordered key and value reprs,
    which tell 0.0 from -0.0, or its error's type and message."""
    try:
        best = read(doc)
    except GambleError as exc:
        return type(exc), str(exc)
    return [(repr(value), repr(lik)) for value, lik in best.items()]


def loader_leaves(doc):
    return _leaf_likelihoods(gamble_from_json(doc))


def file_command_leaves(doc):
    """The file commands' read: the document walk, or the loader where it gives None."""
    best = _document_leaves(doc)
    return loader_leaves(doc) if best is None else best


def assert_same_leaves(doc):
    """The file commands read the loader's leaf map or raise its error.

    Returns the walk's result."""
    assert leaf_outcome(file_command_leaves, doc) == leaf_outcome(loader_leaves, doc)
    return _document_leaves(doc)


def json_level(*entries):
    return '{"prospects": [' + ", ".join(entries) + "]}"


def json_entry(likelihood, reward):
    return f'{{"likelihood": {likelihood}, "reward": {reward}}}'


def json_constant(value):
    return f'{{"constant": {value}}}'


def json_both(value, *entries):
    """An object with both keys."""
    return f'{{"constant": {value}, "prospects": [' + ", ".join(entries) + "]}"


# JSON texts whose values only a decoded file can hold, and whether the walk
# reads them (True) or leaves them to the loader (False).
JSON_ONLY = {
    "nan-likelihood": (json_level(json_entry("NaN", json_constant(0.5))), False),
    "infinite-likelihood": (
        json_level(json_entry(1.0, json_constant(0.5)), json_entry("Infinity", json_constant(0.2))),
        False,
    ),
    "minus-infinite-likelihood": (json_level(json_entry("-Infinity", json_constant(0.5))), False),
    "overflowing-likelihood": (json_level(json_entry("1e400", json_constant(0.5))), False),
    "nan-constant": (json_level(json_entry(1.0, json_constant("NaN"))), False),
    "negative-zero-likelihoods": (
        json_level(
            json_entry(2.0, json_constant(0.5)),
            json_entry(-0.0, json_constant(0.2)),
            json_entry(0.0, json_level(
                json_entry(-0.0, json_constant(0.2)), json_entry(3.0, json_constant(0.9))
            )),
        ),
        True,
    ),
    "negative-zero-level": (json_level(json_entry(-0.0, json_constant(0.5))), False),
    "all-zero-nested-level": (
        json_level(json_entry(1.0, json_level(
            json_entry(0.0, json_constant(0.5)), json_entry(0.0, json_constant(0.1))
        ))),
        False,
    ),
    "duplicate-keys": (
        '{"prospects": [{"likelihood": 0.5, "likelihood": 1.0, "reward": {"constant": 0.3}, '
        '"reward": {"constant": 0.4}}], "prospects": [{"likelihood": 0.25, "reward": '
        '{"constant": 0.7, "constant": 0.6}}]}',
        True,
    ),
    "duplicate-key-empty-last": (
        '{"prospects": [{"likelihood": 1.0, "reward": {"constant": 0.3}}], "prospects": []}',
        False,
    ),
    "extra-keys": (
        '{"note": "x", "prospects": [{"likelihood": 1.0, "id": 3, '
        '"reward": {"constant": 0.3, "unit": null}}]}',
        True,
    ),
    "integers": (json_level(json_entry(1, json_constant(0)), json_entry(2, json_constant(1))), True),
    "constant-root": (json_constant(0.25), False),
    "negative-zero-root": (json_constant(-0.0), False),
    "both-keys-at-root": (json_both(0.5, json_entry(1.0, json_constant(0.3))), False),
    "both-keys-in-a-reward": (
        json_level(json_entry(1.0, json_both(0.5, json_entry(1.0, json_constant(0.3))))), False
    ),
    "boolean-likelihood": (json_level(json_entry("true", json_constant(0.5))), False),
    "null-reward": (json_level(json_entry(1.0, "null")), False),
    "array-root": ("[1.0]", False),
    "number-root": ("0.5", False),
}


class TestDocumentLeaves:
    """The file commands read a decoded file's leaf map without building the
    gamble; they read the loader's map, or leave the file to the loader."""

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_documents_go_to_the_loader(self, fault):
        checked = 0
        for g in generated(range(40)):
            for base in (gamble_to_json(g), unnormalized(gamble_to_json(g))):
                for index in range(sum(1 for _ in levels(base))):
                    obj = json.loads(json.dumps(base))
                    FAULTS[fault](list(levels(obj))[index])
                    assert assert_same_leaves(obj) is None
                    checked += 1
        assert checked > 80

    def test_generated_documents_are_read_by_the_walk(self):
        for seed, g in enumerate(generated() + MIXED):
            for obj in (gamble_to_json(g), unnormalized(gamble_to_json(g))):
                best = assert_same_leaves(obj)
                assert (best is None) == g.is_constant, seed

    @pytest.mark.parametrize("name", sorted(JSON_ONLY))
    def test_json_only_values(self, name):
        text, walks = JSON_ONLY[name]
        doc = _read_json(io.StringIO(text))
        assert (assert_same_leaves(doc) is not None) == walks

    def test_the_first_of_two_zeros_keys_the_map(self):
        # The root level's constants come first, then its last compound reward.
        text = json_level(
            json_entry(1.0, json_level(json_entry(1.0, json_constant(0.0)))),
            json_entry(1.0, json_level(json_entry(1.0, json_constant(-0.0)))),
            json_entry(0.5, json_constant(0.3)),
        )
        best = _document_leaves(_read_json(io.StringIO(text)))
        assert [repr(value) for value in best] == ["0.3", "-0.0"]
        assert assert_same_leaves(_read_json(io.StringIO(text))) is not None
