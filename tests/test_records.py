"""The package's record classes behave as the frozen dataclasses they replace.

Every literal below (reprs, equalities, hashes and error messages) was read
off the frozen-dataclass versions of these classes, except where a test says
otherwise.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from likelihood_gambles import (
    BinomialScenario,
    Gamble,
    GambleError,
    GenConfig,
    InvalidModelError,
    ModelSpec,
    PricingRow,
    Prospect,
    UtilityVector,
)
from likelihood_gambles.conformance import ConformanceReport, PropertyResult

HALF = Gamble(constant=0.5)
BOUNDS = PropertyResult("bounds", 10, 0)

# Each record, its repr, and its fields in order.
RECORDS = {
    "Prospect": (
        Prospect(0.5, HALF),
        "Prospect(likelihood=0.5, reward=Gamble(0.5))",
        (0.5, HALF),
    ),
    "Prospect-coerced": (
        Prospect(1, Gamble(constant=1)),
        "Prospect(likelihood=1.0, reward=Gamble(1.0))",
        (1.0, Gamble(constant=1.0)),
    ),
    "ModelSpec": (
        ModelSpec({"h": 0.5, "t": 0.5}, {"h": 1, "t": 0.0}),
        "ModelSpec(probabilities={'h': 0.5, 't': 0.5}, payoff={'h': 1.0, 't': 0.0})",
        ({"h": 0.5, "t": 0.5}, {"h": 1.0, "t": 0.0}),
    ),
    "UtilityVector": (UtilityVector(1, 0.25), "UtilityVector(alpha=1.0, beta=0.25)", (1.0, 0.25)),
    "BinomialScenario": (
        BinomialScenario(10, 3, -2),
        "BinomialScenario(trials=10, successes=3, premium=-2.0)",
        (10, 3, -2.0),
    ),
    "PricingRow": (
        PricingRow(3, 0.25, 0.3, 0.31, 0.3),
        "PricingRow(successes=3, likelihood=0.25, uniform=0.3, jeffreys=0.31, novick_hall=0.3)",
        (3, 0.25, 0.3, 0.31, 0.3),
    ),
    "GenConfig": (
        GenConfig(max_depth=2, max_branching=3, seed=7, samples=5),
        "GenConfig(max_depth=2, max_branching=3, seed=7, samples=5)",
        (2, 3, 7, 5),
    ),
    "PropertyResult": (
        PropertyResult("x", 10, 2, 5, {"constant": 0.5}),
        "PropertyResult(name='x', samples=10, failures=2, seed=5, "
        "counterexample={'constant': 0.5})",
        ("x", 10, 2, 5, {"constant": 0.5}),
    ),
    "ConformanceReport": (
        ConformanceReport((BOUNDS,)),
        "ConformanceReport(results=(PropertyResult(name='bounds', samples=10, failures=0, "
        "seed=None, counterexample=None),))",
        ((BOUNDS,),),
    ),
}
CASES = list(RECORDS.values())
IDS = list(RECORDS)


@pytest.mark.parametrize("record, text, fields", CASES, ids=IDS)
def test_repr_names_every_field(record, text, fields):
    assert repr(record) == text
    assert tuple(getattr(record, name) for name in record.__slots__) == fields


def test_gamble_keeps_the_paper_notation():
    assert repr(Gamble(constant=0.25)) == "Gamble(0.25)"
    g = Gamble.from_prospects([(1.0, 0.5), (0.8, 0.4)])
    assert repr(g) == "Gamble({1.0/Gamble(0.5), 0.8/Gamble(0.4)})"


@pytest.mark.parametrize("record, text, fields", CASES, ids=IDS)
def test_equal_within_a_class_and_never_across(record, text, fields):
    twin = type(record)(*fields)
    assert twin == record and not (twin != record)
    assert twin is not record
    assert record.__eq__(fields) is NotImplemented
    assert record != fields
    for other, _, _ in CASES:
        if type(other) is not type(record):
            assert record != other


def test_records_differ_by_any_field():
    assert UtilityVector(1.0, 0.25) != UtilityVector(1.0, 0.5)
    assert BinomialScenario(10, 3) != BinomialScenario(10, 3, 0.5)
    assert Prospect(1.0, HALF) == Prospect(1, Gamble(constant=0.5))
    assert Prospect(1.0, HALF) != Prospect(1.0, Gamble(constant=0.25))
    # A utility vector and a table row with the same numbers are not equal.
    assert UtilityVector(1.0, 1.0) != PricingRow(1, 1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("record, text, fields", CASES, ids=IDS)
def test_hash_is_the_field_tuples(record, text, fields):
    try:
        expected = hash(fields)
    except TypeError as exc:  # a dict field: the record is unhashable too
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(record)
        assert "unhashable" in str(exc)
        return
    assert hash(record) == expected
    assert {record: 1}[type(record)(*fields)] == 1


def test_hashes_of_numeric_records_are_pinned():
    # Tuples of numbers hash the same in every process, so these are fixed.
    assert hash(UtilityVector(1, 0.25)) == 6032245427089873688
    assert hash(BinomialScenario(10, 3)) == -3347133913852591309
    assert hash(BinomialScenario(10, 3, -2)) == -563343257997525240
    assert hash(PricingRow(3, 0.25, 0.3, 0.31, 0.3)) == -3176181185491023319
    assert hash(GenConfig()) == -5188342333096944601
    assert hash(GenConfig(max_depth=2, max_branching=3, seed=7, samples=5)) == 112836297809038847


@pytest.mark.parametrize("record, text, fields", CASES, ids=IDS)
def test_fields_cannot_be_set_or_deleted(record, text, fields):
    name = record.__slots__[0]
    with pytest.raises(FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
        setattr(record, name, 1)
    with pytest.raises(FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
        delattr(record, name)
    # A new attribute is refused the same way.  The slotted dataclasses
    # (Prospect, Gamble) raised TypeError here on Python 3.10-3.13, from a
    # failing super() call in their __setattr__.
    with pytest.raises(FrozenInstanceError, match="^cannot assign to field 'extra'$"):
        record.extra = 1
    assert not hasattr(record, "__dict__")
    assert repr(record) == text


@pytest.mark.parametrize("record, text, fields", CASES, ids=IDS)
def test_copies_and_pickles_are_equal_records(record, text, fields):
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is type(record)
        assert repr(twin) == text


def test_defaults():
    assert Gamble(constant=0.5).prospects == ()
    assert Gamble.from_prospects([(1.0, 0.5)]).constant is None
    assert BinomialScenario(10, 3).premium == 0.0
    assert BinomialScenario(10, 3) == BinomialScenario(10, 3, 0)
    assert repr(GenConfig()) == "GenConfig(max_depth=4, max_branching=4, seed=0, samples=1000)"
    assert GenConfig() == GenConfig(4, 4, 0, 1000)
    assert repr(BOUNDS) == (
        "PropertyResult(name='bounds', samples=10, failures=0, seed=None, counterexample=None)"
    )


@pytest.mark.parametrize(
    "cls, args, missing",
    [
        (Prospect, (0.5,), "reward"),
        (ModelSpec, ({"h": 1.0},), "payoff"),
        (UtilityVector, (1.0,), "beta"),
        (BinomialScenario, (10,), "successes"),
        (PricingRow, (1, 0.1, 0.2, 0.3), "novick_hall"),
        (PropertyResult, ("x", 1), "failures"),
        (ConformanceReport, (), "results"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_a_missing_argument_is_a_type_error(cls, args, missing):
    with pytest.raises(TypeError) as info:
        cls(*args)
    expected = f"{cls.__name__}.__init__() missing 1 required positional argument: '{missing}'"
    assert str(info.value) == expected


NAN, INF = float("nan"), float("inf")
EITHER = "a gamble is either a constant or a nonempty set of prospects"
LEAVES = "max_branching ** max(max_depth, 1) must be <= 2**16 = 65536, got "
# Each constructor, arguments that fail one of its checks, and the message.
CHECKS = [
    (Prospect, ("x", HALF), "likelihood must be a real number, got 'x'"),
    (Prospect, (True, HALF), "likelihood must be a real number, got True"),
    (Prospect, (1.5, HALF), "likelihood must lie in [0, 1], got 1.5"),
    (Prospect, (0.5, 0.5), "reward must be a Gamble, got float"),
    (Gamble, (), EITHER),
    (Gamble, (0.5, (Prospect(1.0, HALF),)), EITHER),
    (Gamble, ("a",), "constant must be a real number, got 'a'"),
    (Gamble, (1.5,), "constant must lie in [0, 1], got 1.5"),
    (Gamble, (NAN,), "constant must lie in [0, 1], got nan"),
    (Gamble, (None, (Prospect(0.5, HALF),)), "maximum prospect likelihood must be 1, got 0.5"),
    (ModelSpec, ([1], {}), "'probabilities' must be a JSON object, got list"),
    (ModelSpec, ({}, [1]), "'payoff' must be a JSON object, got list"),
    (ModelSpec, ({"h": "x"}, {}), "probability of 'h' must be a real number, got 'x'"),
    (ModelSpec, ({"h": 1.0}, {"h": 2.0}), "payoff['h'] must lie in [0, 1], got 2.0"),
    (ModelSpec, ({}, {}), "a model needs at least one outcome"),
    (ModelSpec, ({"h": -1.0}, {}), "probability of 'h' must be finite and >= 0, got -1.0"),
    (ModelSpec, ({"h": INF}, {}), "probability of 'h' must be finite and >= 0, got inf"),
    (ModelSpec, ({"h": 0.5, "t": 0.4}, {}), "outcome probabilities sum to 0.9, expected 1"),
    (UtilityVector, ("a", 1.0), "utility vector alpha must be a real number, got 'a'"),
    (UtilityVector, (1.0, "b"), "utility vector beta must be a real number, got 'b'"),
    (UtilityVector, (1.5, 1.0), "utility vector components must lie in [0, 1], got <1.5, 1.0>"),
    (UtilityVector, (0.5, 0.5), "utility vector must satisfy max(alpha, beta) = 1, got <0.5, 0.5>"),
    (BinomialScenario, (0, 0), "trials must be a positive integer, got 0"),
    (BinomialScenario, (True, 0), "trials must be a positive integer, got True"),
    (BinomialScenario, (10, 11), "successes must be an integer in [0, 10], got 11"),
    (BinomialScenario, (10, 2.0), "successes must be an integer in [0, 10], got 2.0"),
    (BinomialScenario, (10, 2, "x"), "ambiguity premium must be a real number, got 'x'"),
    (BinomialScenario, (10, 2, 701), "ambiguity premium must satisfy |c| <= 700.0, got 701.0"),
    (GenConfig, (1.5,), "max_depth must be an integer, got 1.5"),
    (GenConfig, (4, 4, True), "seed must be an integer, got True"),
    (GenConfig, (7,), "max_depth must be in [0, 6], got 7"),
    (GenConfig, (4, 0), "max_branching must be >= 1, got 0"),
    (GenConfig, (6, 7), LEAVES + "7**6"),
    (GenConfig, (0, 70000), LEAVES + "70000**1"),
    (GenConfig, (4, 4, 0, -1), "samples must be >= 0, got -1"),
    (GenConfig, (4, 4, -1), "seed must be an unsigned 64-bit integer, got -1"),
    (GenConfig, (4, 4, 2**64), "seed must be an unsigned 64-bit integer, got 18446744073709551616"),
    (Gamble, (None, None), EITHER),
    # Not read off the dataclasses, which raised ValueError and AttributeError here.
    (Gamble, (None, iter([])), EITHER),
    (Gamble, (None, [(1.0, HALF)]), "prospects must be Prospect objects, got tuple"),
    (Gamble, (None, 5), "prospects must be an iterable, got int"),
]


@pytest.mark.parametrize("cls, args, message", CHECKS)
def test_each_check_raises_its_message(cls, args, message):
    with pytest.raises(GambleError) as info:
        cls(*args)
    assert type(info.value) is (InvalidModelError if cls is ModelSpec else GambleError)
    assert str(info.value) == message
