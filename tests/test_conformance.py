"""Generator determinism, the law suite on the real utility, and mutation tests."""

import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from likelihood_gambles import (
    DegenerateEvidenceError,
    Gamble,
    GambleError,
    GenConfig,
    Prospect,
    canonical_of_value,
    depth,
    dump_gamble,
    generate_gamble,
    run_conformance,
)
from likelihood_gambles import _fork, conformance
from likelihood_gambles.conformance import (
    _Ctx,
    _PROPERTIES,
    _instance_seed,
    _random_gamble,
    _shrink_candidates,
    property_names,
)
from likelihood_gambles.gambles import build_gamble, gamble_from_json, gamble_to_json
from likelihood_gambles.pricing import _utility_pair


def max_branching_of(g: Gamble) -> int:
    if g.is_constant:
        return 0
    return max([len(g.prospects)] + [max_branching_of(p.reward) for p in g.prospects])


def sum_pair(g: Gamble, c: float) -> tuple[float, float]:
    """Deliberately broken evaluator: adds scaled child vectors instead of maxing."""
    if g.is_constant:
        u = canonical_of_value(g.constant, c)
        return u.alpha, u.beta
    alpha = 0.0
    beta = 0.0
    for p in g.prospects:
        a, b = sum_pair(p.reward, c)
        alpha += p.likelihood * a
        beta += p.likelihood * b
    return alpha, beta


def swapped_pair(g: Gamble, c: float) -> tuple[float, float]:
    """Deliberately broken evaluator: alpha and beta trade places."""
    return _utility_pair(g, c)[::-1]


def zero_as_one_pair(g: Gamble, c: float) -> tuple[float, float]:
    """Deliberately broken evaluator: a prospect of likelihood 0 counts as likelihood 1."""
    if g.is_constant:
        u = canonical_of_value(g.constant, c)
        return u.alpha, u.beta
    alpha = 0.0
    beta = 0.0
    for p in g.prospects:
        a, b = zero_as_one_pair(p.reward, c)
        lik = p.likelihood or 1.0
        alpha = max(alpha, lik * a)
        beta = max(beta, lik * b)
    return alpha, beta


def law(name: str):
    return _PROPERTIES[name]


class TestGenerator:
    def test_deterministic_for_fixed_seed(self):
        config = GenConfig(seed=123, max_depth=4, max_branching=4)
        assert generate_gamble(config) == generate_gamble(config)

    def test_depth_zero_gives_constant(self):
        g = generate_gamble(GenConfig(seed=5, max_depth=0))
        assert g.is_constant
        assert 0.0 <= g.constant <= 1.0

    def test_structural_bounds(self):
        for seed in range(40):
            config = GenConfig(seed=seed, max_depth=3, max_branching=4)
            g = generate_gamble(config)
            assert depth(g) <= 3
            assert max_branching_of(g) <= 4

    def test_different_seeds_vary(self):
        gambles = {generate_gamble(GenConfig(seed=s, max_depth=3)) for s in range(30)}
        assert len(gambles) > 1

    def test_config_validation(self):
        with pytest.raises(GambleError):
            GenConfig(max_depth=7)
        with pytest.raises(GambleError):
            GenConfig(max_depth=-1)
        with pytest.raises(GambleError):
            GenConfig(max_branching=0)
        with pytest.raises(GambleError):
            GenConfig(samples=-1)
        with pytest.raises(GambleError):
            GenConfig(seed=2**64)
        # The generator's work grows as max_branching ** max_depth.
        with pytest.raises(GambleError, match=r"<= 2\*\*16"):
            GenConfig(max_depth=6, max_branching=7)
        with pytest.raises(GambleError, match=r"<= 2\*\*16"):
            GenConfig(max_depth=0, max_branching=2**16 + 1)
        GenConfig(max_depth=6, max_branching=6)
        GenConfig(max_depth=4, max_branching=16)
        GenConfig(max_depth=0, max_branching=2**16)
        # Each field is an int and not a bool, or the error names the field.
        for field, value in [("max_depth", 2.5), ("max_branching", 2.5), ("seed", 1.5),
                             ("samples", 2.5), ("samples", True), ("seed", False),
                             ("max_depth", "3"), ("samples", None)]:
            with pytest.raises(GambleError, match=f"{field} must be an integer"):
                GenConfig(**{field: value})


class TestGeneratorBuilder:
    """The generator fills the slots directly, past the constructors' checks,
    and builds exactly what the constructors would."""

    @pytest.mark.parametrize("shape", [(0, 5), (3, 1), (4, 2), (5, 3), (6, 2), (4, 4), (2, 16)],
                             ids=lambda shape: f"{shape[0]}x{shape[1]}")
    def test_gambles_match_their_constructor_built_twins(self, shape):
        max_depth, max_branching = shape
        for seed in range(500):
            g = generate_gamble(GenConfig(seed=seed, max_depth=max_depth, max_branching=max_branching))
            twin = gamble_from_json(gamble_to_json(g))
            assert dump_gamble(g) == dump_gamble(twin)
            assert g == twin and hash(g) == hash(twin)
            with pytest.raises(dataclasses.FrozenInstanceError):
                g.constant = 0.5
            with pytest.raises(dataclasses.FrozenInstanceError):
                g.prospects = ()
            if not g.is_constant:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    g.prospects[0].likelihood = 0.5
                with pytest.raises(dataclasses.FrozenInstanceError):
                    g.prospects[0].reward = twin

    def test_generation_calls_no_constructor(self, monkeypatch):
        calls = []
        for cls in (Prospect, Gamble):
            def counted(self, *args, _init=cls.__init__, **kwargs):
                calls.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        Gamble.from_prospects([(1.0, 0.5)])
        assert calls == ["Gamble", "Prospect", "Gamble"]
        calls.clear()
        for seed in range(200):
            generate_gamble(GenConfig(seed=seed, max_depth=5, max_branching=3))
        assert calls == []


def unchecked_gamble(*pairs) -> Gamble:
    """A compound gamble of (likelihood, reward) pairs built past the constructors' checks."""
    prospects = []
    for likelihood, reward in pairs:
        p = object.__new__(Prospect)
        object.__setattr__(p, "likelihood", likelihood)
        object.__setattr__(p, "reward", reward)
        prospects.append(p)
    g = object.__new__(Gamble)
    object.__setattr__(g, "constant", None)
    object.__setattr__(g, "prospects", tuple(prospects))
    return g


class TestNormalizationLaw:
    """The law re-checks what the generator's builder promises in place of the
    constructors' checks."""

    LOW, HIGH = Gamble.from_value(0.0), Gamble.from_value(1.0)

    @pytest.mark.parametrize("pairs", [
        [(0.5, LOW), (0.2, HIGH)],
        [(1.0, LOW), (1.5, HIGH)],
        [(1, LOW)],
        [(1.0, LOW), (math.nan, HIGH)],
        [(1.0, LOW), (0.3, unchecked_gamble((0.5, HIGH), (0.0, LOW)))],
        [(1.0, 0.5)],
    ], ids=["maximum-0.5", "likelihood-1.5", "int-1", "nan", "nested-maximum-0.5", "float-reward"])
    def test_a_builder_fault_fails_the_law(self, pairs):
        assert law("normalization").holds((unchecked_gamble(*pairs),), {}, None) is False

    def test_a_valid_gamble_passes(self):
        g = unchecked_gamble((1.0, self.LOW), (0.3, unchecked_gamble((1.0, self.HIGH), (0.0, self.LOW))))
        assert law("normalization").holds((g,), {}, None) is True
        assert law("normalization").holds((self.HIGH,), {}, None) is True


def reward_at(index: int):
    """A test evaluator that scores a compound gamble by the reward of its prospect at ``index``."""
    def pair(g: Gamble, c: float) -> tuple[float, float]:
        while not g.is_constant:
            g = g.prospects[index].reward
        u = canonical_of_value(g.constant, c)
        return u.alpha, u.beta

    return pair


class TestArchimedeanWitness:
    """f > g > h: a mixture of f and h beats g, and another loses to it."""

    # The key ln(alpha/beta) of f sits 3e-12 above g's (first case) or h's
    # 3e-12 below it (second case), so the mixture priced at index `tied`
    # ties g within the 2e-12 tolerance, and the next one halves the weight
    # of its prospect at index `shaded`.
    @pytest.mark.parametrize("values, tied, shaded", [
        ((1 / (1 + 0.3 / 0.7 * math.exp(-3e-12)), 0.7, 0.5), 0, 1),
        ((0.5, 0.3, 1 / (1 + 0.7 / 0.3 * math.exp(3e-12))), 1, 0),
    ], ids=["above-g", "below-g"])
    def test_a_tied_witness_is_halved(self, values, tied, shaded):
        mixtures = []

        def recording_pair(g: Gamble, c: float) -> tuple[float, float]:
            if not g.is_constant:
                mixtures.append([p.likelihood for p in g.prospects])
            return _utility_pair(g, c)

        ctx = _Ctx(premium=0.0, config=GenConfig(), pair=recording_pair)
        inputs = tuple(Gamble.from_value(x) for x in values)
        assert law("archimedean_witness").holds(inputs, {}, ctx) is True
        assert len(mixtures) == 3
        assert mixtures[tied + 1][shaded] == mixtures[tied][shaded] / 2

    # Scored by the last reward, no mixture beats g (h is last); scored by the
    # first, none loses to it (f is first).
    @pytest.mark.parametrize("index", [-1, 0], ids=["no-witness-above", "no-witness-below"])
    def test_no_witness_in_80_halvings_fails_the_law(self, index):
        ctx = _Ctx(premium=0.0, config=GenConfig(), pair=reward_at(index))
        inputs = tuple(Gamble.from_value(x) for x in (0.9, 0.6, 0.2))
        assert law("archimedean_witness").holds(inputs, {}, ctx) is False


class TestConstantsDraw:
    class StubRandom:
        def __init__(self, *values):
            self.values = list(values)

        def random(self):
            return self.values.pop(0)

    def test_a_gap_below_1e_11_is_widened(self):
        rng = self.StubRandom(0.9, 0.3 + 5e-12, 0.3)
        ctx = _Ctx(premium=0.0, config=GenConfig(), pair=_utility_pair)
        inputs, aux = law("numerical_order").draw(rng, ctx)
        x, y = (g.constant for g in inputs)
        assert (x, y) == (0.3 + 5e-12, 0.3 + 5e-12 - 0.01)
        assert law("numerical_order").holds(inputs, aux, ctx) is True


class TestShrinkingFaultyDraws:
    """A shrink candidate that fails a constructor's check is skipped, so a
    builder fault is reported, not raised."""

    @pytest.fixture
    def all_zero_levels(self, monkeypatch):
        """Make the generator leave every level of depth 2 or more all-zero."""
        real = conformance._random_gamble

        def zeroed(rng, depth_budget, max_branching):
            g = real(rng, depth_budget, max_branching)  # its rewards come from zeroed too
            if depth(g) < 2:
                return g
            return unchecked_gamble(*[(0.0, p.reward) for p in g.prospects])

        monkeypatch.setattr(conformance, "_random_gamble", zeroed)

    def test_the_run_reports_failures(self, all_zero_levels):
        config = GenConfig(seed=7, samples=300, max_depth=4, max_branching=3)
        (result,) = run_conformance(config, properties=["normalization"]).results
        assert 0 < result.failures < 300
        # Shrunk to an all-zero level whose rewards are valid: none of its
        # candidates fails the law, and the ones that break a check are skipped.
        entries = result.counterexample["prospects"]
        assert {entry["likelihood"] for entry in entries} == {0.0}
        for entry in entries:
            gamble_from_json(entry["reward"])

    def test_candidates_that_fail_a_check_are_left_out(self):
        inner = Gamble.from_prospects([(1.0, 0.2), (0.5, 0.7)])
        level = unchecked_gamble((0.0, inner), (0.0, Gamble.from_value(0.4)))
        # Only the two rewards: dropping a prospect leaves a maximum of 0, and
        # so does swapping a reward for one of its own candidates.
        assert list(_shrink_candidates(level)) == [inner, Gamble.from_value(0.4)]


def sha256_of_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


class TestInstanceStream:
    """The generated instances are pinned: a change to the draws shows here.

    Branching 1 pins that a one-way choice still consumes its random bits.
    """

    @pytest.mark.parametrize("shape, digest", [
        ((3, 1), "1e4173eca7edd5d0b84e43040c1b4fef15223891c96924ba308402349bc0ca50"),
        ((4, 2), "9bdc3566e3cd82b78feea0b9d5d096a911ed81f38d6760c82e2ffea0d6b56dba"),
        ((5, 3), "54482ac398c4e4d44ad9ec29899aabaeb780c9afe7d42705ebc231b7f1abf471"),
    ], ids=["3x1", "4x2", "5x3"])
    def test_generated_gambles(self, shape, digest):
        max_depth, max_branching = shape
        gambles = [
            generate_gamble(GenConfig(seed=seed, max_depth=max_depth, max_branching=max_branching))
            for seed in range(8)
        ]
        assert sha256_of_json([gamble_to_json(g) for g in gambles]) == digest

    def test_mutant_report(self):
        report = run_conformance(GenConfig(seed=77, samples=150, max_depth=4), utility_fn=sum_pair)
        assert [r.failures for r in report.results] == [
            0, 0, 83, 110, 0, 95, 148, 147, 0, 146, 0, 91, 0, 0, 115, 0, 129
        ]
        digest = "93b16b87c6d4d7e074dc7a1169b23839f81751358dd8d67387f0515827d1c20b"
        assert sha256_of_json(report.to_json()) == digest

    @pytest.mark.parametrize("mutant, failures, digest", [
        (swapped_pair, [0, 0, 0, 0, 0, 200, 0, 0, 190, 0, 200, 181, 200, 0, 0, 0, 0],
         "1ba1a3afb8f1622fb6d94fae34f2e6780b8f027dec695ebbe7951833b9756342"),
        (zero_as_one_pair, [0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 0, 14, 0, 132, 0, 0, 0],
         "c28370d95bb7d142aab4d274d9969070d73c2b05fa92184d824535e355db55cb"),
    ], ids=["swapped_pair", "zero_as_one_pair"])
    def test_counterexample_report(self, mutant, failures, digest):
        # Pins the counterexamples of numerical_order, price_roundtrip,
        # price_monotonicity and zero_prospect_inert, which sum_pair never fails.
        config = GenConfig(seed=7, samples=200, max_depth=4, max_branching=3)
        report = run_conformance(config, utility_fn=mutant)
        assert [r.failures for r in report.results] == failures
        assert sha256_of_json(report.to_json()) == digest


class TestSuiteOnRealUtility:
    def test_all_laws_pass(self):
        report = run_conformance(GenConfig(seed=11, samples=200, max_depth=4), c=0.0)
        assert report.all_passed, report.summary()

    def test_all_laws_pass_under_nonneutral_premiums(self):
        for c in (-700.0, -30.0, -1.0, 1.0, 30.0, 700.0):
            report = run_conformance(GenConfig(seed=12, samples=120, max_depth=4), c=c)
            assert report.all_passed, report.summary()

    def test_report_is_deterministic(self):
        config = GenConfig(seed=9, samples=60, max_depth=3)
        first = run_conformance(config, c=0.25)
        second = run_conformance(config, c=0.25)
        assert json.dumps(first.to_json()) == json.dumps(second.to_json())

    def test_zero_samples_runs_zero_checks(self):
        report = run_conformance(GenConfig(seed=1, samples=0), c=0.0)
        assert report.all_passed
        assert all(r.samples == 0 and r.failures == 0 for r in report.results)
        assert all(r.counterexample is None for r in report.results)

    def test_property_subset_selection(self):
        report = run_conformance(
            GenConfig(seed=2, samples=10), c=0.0, properties=["bounds", "transitivity"]
        )
        assert [r.name for r in report.results] == ["bounds", "transitivity"]

    def test_unknown_property_rejected(self):
        with pytest.raises(GambleError):
            run_conformance(GenConfig(samples=1), properties=["no_such_law"])

    def test_a_one_shot_iterable_is_read_once(self):
        report = run_conformance(GenConfig(samples=5), properties=iter(["bounds"]))
        assert [(r.name, r.samples) for r in report.results] == [("bounds", 5)]

    def test_an_unknown_name_in_a_generator_is_rejected(self):
        with pytest.raises(GambleError, match="nope"):
            run_conformance(GenConfig(samples=5), properties=(n for n in ["bounds", "nope"]))

    def test_a_string_of_names_is_rejected(self):
        # Read as an iterable, "bounds" would be six one-letter names.
        with pytest.raises(GambleError) as info:
            run_conformance(GenConfig(samples=5), properties="bounds")
        assert str(info.value) == "properties must be a collection of law names, got 'bounds'"

    def test_a_repeated_name_is_rejected(self):
        # Run twice, a law would also be reported twice.
        with pytest.raises(GambleError) as info:
            run_conformance(GenConfig(samples=5), properties=["bounds", "transitivity", "bounds"])
        assert str(info.value) == "repeated properties: ['bounds']"

    def test_report_json_schema(self):
        report = run_conformance(GenConfig(seed=3, samples=5), c=0.0)
        payload = report.to_json()
        assert isinstance(payload, list)
        for entry in payload:
            assert set(entry) == {"property", "samples", "failures", "seed", "counterexample"}

    def test_names_cover_the_advertised_laws(self):
        names = property_names()
        for expected in (
            "flatten_preserves_utility",
            "idempotence",
            "partition_substitution",
            "bounds",
            "weak_independence",
            "transitivity",
            "numerical_order",
            "archimedean_witness",
            "price_roundtrip",
            "evidence_scaling",
            "model_permutation",
        ):
            assert expected in names


class TestMutationDetection:
    """A wrong recursion must be caught, not silently accepted."""

    def test_sum_instead_of_max_breaks_flatten_law(self):
        report = run_conformance(
            GenConfig(seed=77, samples=150, max_depth=4),
            c=0.0,
            properties=["flatten_preserves_utility"],
            utility_fn=sum_pair,
        )
        (result,) = report.results
        assert result.failures > 0
        assert result.seed is not None
        assert result.counterexample is not None

    def test_sum_instead_of_max_breaks_idempotence(self):
        report = run_conformance(
            GenConfig(seed=77, samples=150, max_depth=3),
            c=0.0,
            properties=["idempotence"],
            utility_fn=sum_pair,
        )
        (result,) = report.results
        assert result.failures > 0

    def test_handcrafted_failing_instance(self):
        # {1/1, 1/0} flattens to itself but merging duplicates is the only
        # reduction; summing double-counts the nested copy below.
        nested = Gamble.from_prospects([(1.0, Gamble.from_prospects([(1.0, 1.0), (1.0, 0.0)]))])
        flat_pair = sum_pair(Gamble.from_prospects([(1.0, 1.0), (1.0, 0.0)]), 0.0)
        nested_pair = sum_pair(nested, 0.0)
        assert nested_pair == flat_pair  # sums are linear, so nesting alone is safe
        merged = Gamble.from_prospects([(1.0, 1.0), (1.0, 0.0), (0.5, 0.0)])
        assert sum_pair(merged, 0.0) != sum_pair(Gamble.from_prospects([(1.0, 1.0), (1.0, 0.0)]), 0.0)

    def test_counterexample_is_shrunk_to_minimal(self):
        report = run_conformance(
            GenConfig(seed=77, samples=150, max_depth=4),
            c=0.0,
            properties=["flatten_preserves_utility"],
            utility_fn=sum_pair,
        )
        (result,) = report.results
        counterexample = gamble_from_json(result.counterexample)
        prop = _PROPERTIES["flatten_preserves_utility"]
        ctx = _Ctx(premium=0.0, config=GenConfig(seed=77, samples=150, max_depth=4), pair=sum_pair)
        assert not prop.holds((counterexample,), {}, ctx)
        for candidate in _shrink_candidates(counterexample):
            assert prop.holds((candidate,), {}, ctx)

    @pytest.mark.parametrize("name", ["numerical_order", "price_roundtrip", "price_monotonicity"])
    def test_payload_counterexample_is_the_drawn_gambles(self, name):
        # The first two laws draw constants, which cannot shrink, so the report
        # shows them as drawn; price_monotonicity draws numbers, so the report
        # shows the gambles built from the first failing draw.
        config = GenConfig(seed=5, samples=50)
        (result,) = run_conformance(config, properties=[name], utility_fn=swapped_pair).results
        assert result.failures > 0
        ctx = _Ctx(premium=0.0, config=config, pair=swapped_pair)
        inputs, aux = law(name).draw(random.Random(result.seed), ctx)
        if name == "numerical_order":
            expected = [gamble_to_json(g) for g in inputs]
        elif name == "price_roundtrip":
            (g,) = inputs
            expected = gamble_to_json(g)
        else:
            canonical = [Gamble.from_prospects([(1.0, 1.0), (lik, 0.0)]) for lik in aux["pair"]]
            expected = [gamble_to_json(g) for g in canonical]
        assert result.counterexample == expected

    @pytest.mark.parametrize("name", ["evidence_scaling", "model_permutation"])
    def test_evidence_payload_is_the_built_gamble(self, name):
        prop = law(name)
        ctx = _Ctx(premium=0.0, config=GenConfig(), pair=_utility_pair)
        inputs, aux = prop.draw(random.Random(11), ctx)
        expected = gamble_to_json(build_gamble(aux["models"], aux["evidence"]))
        assert prop.payload(inputs, aux) == expected

    def test_a_payload_that_raises_leaves_no_counterexample(self, monkeypatch):
        # Both laws and their payloads build through build_gamble, so every
        # instance fails and the first one's payload raises too.
        def degenerate(models, evidence):
            raise DegenerateEvidenceError("evidence has probability 0 under every model")

        monkeypatch.setattr(conformance, "build_gamble", degenerate)
        config = GenConfig(seed=7, samples=5)
        names = ["evidence_scaling", "model_permutation"]
        report = run_conformance(config, properties=names)
        for name, result in zip(names, report.results, strict=True):
            assert result.failures == config.samples
            assert result.seed == _instance_seed(config.seed, name, 0)
            assert result.counterexample is None


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.fixture
def forced_workers(monkeypatch):
    """Force the worker count (at most 3) and record the pid of every fork."""
    forks = []
    real_fork = os.fork

    def recording_fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    def force(workers):
        assert 1 <= workers <= 3
        monkeypatch.setattr(conformance, "_worker_count", lambda instances: workers)
        monkeypatch.setattr(os, "fork", recording_fork)
        return forks

    return force


class TestWorkers:
    """Strides of each law run in forked children; the report does not change."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("mutant", [False, True], ids=["passing", "sum_pair"])
    def test_report_is_identical_for_any_worker_count(self, forced_workers, workers, mutant):
        config = GenConfig(seed=77, samples=40, max_depth=4)
        utility_fn = sum_pair if mutant else None
        forced_workers(1)
        expected = json.dumps(run_conformance(config, utility_fn=utility_fn).to_json())
        forks = forced_workers(workers)
        report = run_conformance(config, utility_fn=utility_fn)
        assert len(forks) == workers - 1
        assert json.dumps(report.to_json()) == expected
        if mutant:
            # Most laws first fail at index 0; evidence_scaling first fails at
            # index 1, in a child's stride.
            seeds = {r.seed for r in report.results if r.seed is not None}
            assert _instance_seed(config.seed, "evidence_scaling", 1) in seeds
        assert no_child_left()

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("index", [0, 1], ids=["parent", "child"])
    def test_a_raising_stride_raises_the_one_process_exception(
        self, forced_workers, workers, index
    ):
        config = GenConfig(seed=5, samples=6, max_depth=3)
        name = "flatten_preserves_utility"
        # Instance 0 falls in the parent's stride and instance 1 in a child's,
        # for two and three workers.
        rng = random.Random(_instance_seed(config.seed, name, index))
        target = _random_gamble(rng, config.max_depth, config.max_branching)

        def raising_pair(g, c):
            if g == target:
                raise RuntimeError(f"no utility for {gamble_to_json(g)}")
            return _utility_pair(g, c)

        forced_workers(1)
        with pytest.raises(RuntimeError) as one_process:
            run_conformance(config, properties=[name], utility_fn=raising_pair)
        forks = forced_workers(workers)
        with pytest.raises(RuntimeError) as forked:
            run_conformance(config, properties=[name], utility_fn=raising_pair)
        assert len(forks) == workers - 1
        assert str(forked.value) == str(one_process.value)
        assert no_child_left()

    def test_an_interrupt_kills_and_reaps_the_children(self, forced_workers):
        parent = os.getpid()

        def interrupted_pair(g, c):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return _utility_pair(g, c)

        forks = forced_workers(3)
        with pytest.raises(KeyboardInterrupt):
            run_conformance(GenConfig(seed=1, samples=300), utility_fn=interrupted_pair)
        assert len(forks) == 2
        assert no_child_left()

    def test_outcomes_larger_than_a_pipe_buffer(self):
        # A child blocks on its full pipe until the parent reads it.
        big = "x" * 300_000
        outcomes = _fork.run_forked([lambda k=k: [(k, (k, 0, big))] for k in range(3)])
        assert outcomes == [[(k, (k, 0, big))] for k in range(3)]
        assert no_child_left()

    def test_invalid_arguments_fork_nothing(self, forced_workers):
        forks = forced_workers(3)
        with pytest.raises(GambleError):
            run_conformance(GenConfig(samples=30), properties=["no_such_law"])
        with pytest.raises(GambleError):
            run_conformance(GenConfig(samples=30), c=701.0)
        assert forks == []
        assert no_child_left()

    def test_a_small_run_stays_in_one_process(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked for 170 instances")

        monkeypatch.setattr(os, "fork", no_fork)
        report = run_conformance(GenConfig(seed=3, samples=10))
        assert sum(r.samples for r in report.results) == 170
        assert report.all_passed

    def test_worker_count(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        per_worker = conformance._MIN_INSTANCES_PER_WORKER
        assert conformance._worker_count(0) == 1
        assert conformance._worker_count(170) == 1
        assert conformance._worker_count(2 * per_worker) == 2
        assert conformance._worker_count(100 * per_worker) == 8
        monkeypatch.setattr(threading, "active_count", lambda: 2)
        assert conformance._worker_count(100 * per_worker) == 1
        monkeypatch.undo()
        monkeypatch.delattr(os, "fork")
        assert conformance._worker_count(100 * per_worker) == 1

    def test_cli_prints_one_report(self):
        src = Path(conformance.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-m", "likelihood_gambles.cli", "conformance", "--samples", "200",
             "-f", "json"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        (line,) = result.stdout.splitlines()
        report = json.loads(line)
        assert [entry["property"] for entry in report] == property_names()
        assert all(entry["samples"] == 200 and entry["failures"] == 0 for entry in report)
