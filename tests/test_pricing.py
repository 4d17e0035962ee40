"""Utility representation, the order on B, and the logistic pricing formula."""

import io
import json
import math
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from likelihood_gambles import (
    BinomialScenario,
    Gamble,
    GambleError,
    InfiniteLogitError,
    UtilityVector,
    canonical_equivalent,
    canonical_of_value,
    compare,
    depth,
    dump_gamble,
    emit_table,
    flatten,
    gamble_from_json,
    gamble_to_json,
    implied_prior,
    inverse_logit,
    logit,
    prefer,
    price,
    price_from_vector,
    load_gamble,
    run_conformance,
    utility_of_gamble,
)
from likelihood_gambles.conformance import GenConfig, generate_gamble
from likelihood_gambles.pricing import MAX_PREMIUM

unit_open = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)
premiums = st.floats(min_value=-30.0, max_value=30.0)


def recursive_pair(g, c):
    """The paper's definition, read literally: a constant's canonical vector,
    or the pointwise maximum of the likelihood-scaled reward vectors."""
    if g.is_constant:
        u = canonical_of_value(g.constant, c)
        return u.alpha, u.beta
    alpha = beta = 0.0
    for p in g.prospects:
        a, b = recursive_pair(p.reward, c)
        alpha = max(alpha, p.likelihood * a)
        beta = max(beta, p.likelihood * b)
    return alpha, beta


def chain(levels):
    """A gamble nested ``levels`` deep, one constant prospect beside each level."""
    g = Gamble.from_value(0.3)
    for i in range(levels):
        if i % 2:
            g = Gamble.from_prospects([(0.999, g), (1.0, (i % 7) / 7)])
        else:
            g = Gamble.from_prospects([(1.0, g), (0.5, (i % 11) / 11)])
    return g


def chain_dict(levels):
    """The dict form of ``chain(levels)``, built level by level."""
    obj = {"constant": 0.3}
    for i in range(levels):
        if i % 2:
            pairs = [(0.999, obj), (1.0, {"constant": (i % 7) / 7})]
        else:
            pairs = [(1.0, obj), (0.5, {"constant": (i % 11) / 11})]
        obj = {"prospects": [{"likelihood": lik, "reward": reward} for lik, reward in pairs]}
    return obj


class TestLogit:
    def test_center(self):
        assert logit(0.5) == 0.0

    def test_three_quarters_is_log_three(self):
        assert logit(0.75) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_antisymmetry(self):
        assert logit(0.25) == pytest.approx(-math.log(3.0), abs=1e-12)

    def test_diverges_at_endpoints(self):
        for z in (0.0, 1.0):
            with pytest.raises(InfiniteLogitError):
                logit(z)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(GambleError):
            logit(1.5)

    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_odd_function(self, z):
        # Forming 1 - z costs up to half an ulp of 1.0, so the identity is
        # only clean away from the endpoints.
        assert logit(1.0 - z) == pytest.approx(-logit(z), abs=1e-9)


class TestInverseLogit:
    def test_zero_maps_to_half(self):
        assert inverse_logit(0.0) == 0.5

    def test_log_three_maps_to_three_quarters(self):
        assert inverse_logit(math.log(3.0)) == pytest.approx(0.75, abs=1e-12)

    def test_symmetry(self):
        for t in (0.3, 2.0, 40.0):
            assert inverse_logit(t) + inverse_logit(-t) == pytest.approx(1.0, abs=1e-12)

    def test_extreme_arguments_do_not_overflow(self):
        assert inverse_logit(1e4) == 1.0
        assert inverse_logit(-1e4) == 0.0

    @given(unit_open)
    def test_inverts_logit(self, z):
        assert inverse_logit(logit(z)) == pytest.approx(z, abs=1e-12)


class TestCanonicalOfValue:
    def test_neutral_center(self):
        u = canonical_of_value(0.5, 0.0)
        assert (u.alpha, u.beta) == (1.0, 1.0)

    def test_neutral_below_center(self):
        u = canonical_of_value(0.4, 0.0)
        assert u.alpha == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert u.beta == 1.0

    def test_premium_shifts_center(self):
        u = canonical_of_value(0.5, math.log(2.0))
        assert u.alpha == pytest.approx(0.5, abs=1e-12)
        assert u.beta == 1.0

    def test_endpoints_use_limits(self):
        for c in (-3.0, 0.0, 3.0):
            top = canonical_of_value(1.0, c)
            bottom = canonical_of_value(0.0, c)
            assert (top.alpha, top.beta) == (1.0, 0.0)
            assert (bottom.alpha, bottom.beta) == (0.0, 1.0)

    def test_domain_error(self):
        with pytest.raises(GambleError):
            canonical_of_value(1.5, 0.0)

    def test_infinite_premium_rejected(self):
        with pytest.raises(GambleError):
            canonical_of_value(0.5, float("inf"))

    @given(st.floats(min_value=0.0, max_value=1.0), premiums)
    def test_always_lands_on_border(self, x, c):
        u = canonical_of_value(x, c)
        assert max(u.alpha, u.beta) == pytest.approx(1.0, abs=1e-12)


class TestCompare:
    def test_membership_enforced(self):
        with pytest.raises(GambleError):
            UtilityVector(0.5, 0.5)
        with pytest.raises(GambleError):
            UtilityVector(1.0, 1.5)

    def test_components_must_be_real(self):
        for alpha, beta in (("0.5", 1.0), (1.0, "0.5"), (True, 0.3), (1.0, False), (None, 1.0)):
            with pytest.raises(GambleError, match="must be a real number"):
                UtilityVector(alpha, beta)
        u = UtilityVector(1, 0)
        assert (type(u.alpha), u.alpha, type(u.beta), u.beta) == (float, 1.0, float, 0.0)

    def test_lower_beta_wins_on_top_border(self):
        assert compare(UtilityVector(1.0, 0.2), UtilityVector(1.0, 0.5)) == "greater"

    def test_reflexive_equality(self):
        assert compare(UtilityVector(1.0, 1.0), UtilityVector(1.0, 1.0)) == "equal"

    def test_top_border_beats_right_border(self):
        assert compare(UtilityVector(1.0, 0.5), UtilityVector(0.8, 1.0)) == "greater"

    def test_antisymmetry(self):
        u, v = UtilityVector(1.0, 0.3), UtilityVector(0.7, 1.0)
        assert compare(u, v) == "greater"
        assert compare(v, u) == "less"

    def test_near_ties_collapse_to_equal(self):
        u = UtilityVector(1.0, 0.5)
        v = UtilityVector(1.0, 0.5 + 5e-13)
        assert compare(u, v) == "equal"

    def test_tiny_constants_stay_ordered(self):
        # Both vectors sit far down the right border, where alpha - beta
        # differs by less than 1e-12 but the log key by ln 2.
        assert prefer(Gamble.from_value(2e-13), Gamble.from_value(1e-13), 0.0) == "greater"

    @pytest.mark.parametrize("c", [-700.0, -30.0, 0.0, 30.0, 700.0])
    def test_order_is_the_order_of_prices(self, c):
        for seed in range(60):
            f = generate_gamble(GenConfig(max_depth=3, max_branching=3, seed=seed))
            g = generate_gamble(GenConfig(max_depth=3, max_branching=3, seed=seed + 1000))
            pf, pg = price(f, c), price(g, c)
            if pf != pg:
                assert prefer(f, g, c) == ("greater" if pf > pg else "less"), seed


class TestUtilityOfGamble:
    def test_canonical_gamble_neutral(self):
        g = Gamble.from_prospects([(1.0, 1.0), (0.5, 0.0)])
        u = utility_of_gamble(g, 0.0)
        assert (u.alpha, u.beta) == (1.0, 0.5)

    def test_matches_flattened_form(self):
        inner = Gamble.from_prospects([(1.0, 1.0), (0.5, 0.0)])
        nested = Gamble.from_prospects([(1.0, inner), (0.2, 0.0)])
        u = utility_of_gamble(nested, 0.0)
        v = utility_of_gamble(flatten(nested), 0.0)
        assert (u.alpha, u.beta) == (1.0, 0.5)
        assert u.alpha == pytest.approx(v.alpha, abs=1e-12)
        assert u.beta == pytest.approx(v.beta, abs=1e-12)

    def test_constant_delegates_to_canonical(self):
        u = utility_of_gamble(Gamble.from_value(0.5), 0.0)
        assert (u.alpha, u.beta) == (1.0, 1.0)

    def test_scaling_by_likelihoods(self):
        g = Gamble.from_prospects([(1.0, 0.5), (0.8, 0.4)])
        u = utility_of_gamble(g, 0.0)
        # 0.8 * <2/3, 1> never beats 1.0 * <1, 1> in either component.
        assert (u.alpha, u.beta) == (1.0, 1.0)

    @pytest.mark.parametrize("c", [-1.0, 0.0, 0.7])
    def test_matches_recursive_definition(self, c):
        for seed in range(250):
            g = generate_gamble(GenConfig(max_depth=5, max_branching=3, seed=seed))
            u = utility_of_gamble(g, c)
            alpha, beta = recursive_pair(g, c)
            assert u.alpha == pytest.approx(alpha, abs=1e-12), seed
            assert u.beta == pytest.approx(beta, abs=1e-12), seed

    def test_deep_chain(self):
        # Far past the interpreter's recursion limit: every operation walks
        # the gamble with an explicit stack.  A RecursionError is replaced by
        # a plain failure: its traceback holds a thousand frames whose deep
        # locals pytest compares, which takes minutes.
        g = chain(5000)
        cs = (-1.0, 0.0, 0.7)
        try:
            flat = flatten(g)
            same = g == flat and hash(g) == hash(flat)
            prices = [(price(g, c), price(flat, c)) for c in cs]
            orders = [prefer(g, flat, c) for c in cs]
        except RecursionError:
            raise AssertionError("a 5000-level gamble exhausted the recursion limit") from None
        assert len(flat.prospects) == 18  # 0.3, k/7 and k/11, with 0 shared
        assert same
        for deep, reduced in prices:
            assert deep == pytest.approx(reduced, abs=1e-12)
        assert orders == ["equal"] * len(cs)

    def test_deep_chain_loads_and_dumps(self):
        # The loader, both writers, repr and depth walk explicit stacks too;
        # only the stdlib JSON decoder bounds the depth of text read back in.
        levels = 5000
        g = chain(levels)
        try:
            loaded = gamble_from_json(chain_dict(levels))
            same = loaded == g
            levels_seen = depth(g), depth(loaded)
            text = dump_gamble(g)
            same_text = dump_gamble(loaded) == text
            round_trip = gamble_from_json(gamble_to_json(g)) == g
            shown = repr(g)
        except RecursionError:
            raise AssertionError("a 5000-level gamble exhausted the recursion limit") from None
        assert same and same_text and round_trip
        assert shown.startswith("Gamble({0.999/Gamble({1.0/Gamble({0.999/")
        assert shown.count("Gamble({") == levels
        assert levels_seen == (levels, levels)
        bound = f"about {sys.getrecursionlimit() // 3} levels"
        with pytest.raises(GambleError, match=bound):
            load_gamble(io.StringIO(text))
        assert json.loads(dump_gamble(chain(20))) == chain_dict(20)


class TestPrice:
    def test_fair_gamble_neutral_price(self):
        g = Gamble.from_prospects([(1.0, 1.0), (1.0, 0.0)])
        assert price(g, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_two_coin_gamble(self):
        g = Gamble.from_prospects([(1.0, 0.5), (0.8, 0.4)])
        assert price(g, 0.0) == pytest.approx(0.5, abs=1e-12)

    def test_constant_round_trip_across_premiums(self):
        for c in (-2.0, -0.5, 0.0, 0.5, 2.0):
            assert price(Gamble.from_value(0.7), c) == pytest.approx(0.7, abs=1e-9)

    @pytest.mark.parametrize("c", [-MAX_PREMIUM, MAX_PREMIUM])
    def test_constants_near_the_ends_at_the_bound(self, c):
        # At c = -700 the beta of a constant near 1 is below 1 / DBL_MAX, so
        # alpha / beta overflows; the key must still come out finite.
        for x in (1e-19, 1e-4, 0.3, 0.99999, 1.0 - 1e-15):
            assert price(Gamble.from_value(x), c) == pytest.approx(x, abs=1e-13)
        assert prefer(Gamble.from_value(0.99999), Gamble.from_value(0.9999), c) == "greater"

    def test_certainty_endpoints(self):
        for c in (-1.0, 0.0, 1.0):
            assert price(Gamble.from_value(1.0), c) == 1.0
            assert price(Gamble.from_value(0.0), c) == 0.0

    def test_seeking_pays_more_averse_less_for_fair_gamble(self):
        fair = Gamble.from_prospects([(1.0, 1.0), (1.0, 0.0)])
        assert price(fair, 1.0) > 0.5 > price(fair, -1.0)
        assert price(fair, 1.0) == pytest.approx(inverse_logit(1.0), abs=1e-12)

    @given(unit_open, premiums)
    def test_round_trip_property(self, x, c):
        assert price(Gamble.from_value(x), c) == pytest.approx(x, abs=1e-9)


class TestPrefer:
    def test_smaller_beta_preferred(self):
        a = Gamble.from_prospects([(1.0, 1.0), (0.5, 0.0)])
        b = Gamble.from_prospects([(1.0, 1.0), (0.8, 0.0)])
        assert prefer(a, b, 0.0) == "greater"

    def test_flatten_is_indifferent(self):
        inner = Gamble.from_prospects([(1.0, 0.9), (0.5, 0.3)])
        g = Gamble.from_prospects([(1.0, 0.6), (0.4, inner)])
        for c in (-1.0, 0.0, 1.0):
            assert prefer(g, flatten(g), c) == "equal"

    def test_evidence_for_the_prize_beats_evidence_against(self):
        a = Gamble.from_prospects([(1.0, 1.0), (0.1, 0.0)])
        b = Gamble.from_prospects([(0.1, 1.0), (1.0, 0.0)])
        assert prefer(a, b, 0.0) == "greater"

    def test_maximum_likelihood_just_below_one_is_comparable(self):
        # The second vector's alpha sits 5e-13 below 1, inside the tolerance
        # of B, while its beta is lower: neither vector dominates
        # componentwise, yet the order on B is total.
        a = Gamble.from_prospects([(1.0, 0.6)])
        b = Gamble.from_prospects([(1 - 5e-13, 0.7)])
        assert prefer(a, b) == "less"
        assert prefer(b, a) == "greater"


FAIR = Gamble.from_prospects([(1.0, 1.0), (1.0, 0.0)])

# Every public function that takes a premium, called with premium ``c``.
PREMIUM_ENTRY_POINTS = {
    "price": lambda c: price(FAIR, c),
    "prefer": lambda c: prefer(FAIR, FAIR, c),
    "utility_of_gamble": lambda c: utility_of_gamble(FAIR, c),
    "price_from_vector": lambda c: price_from_vector(UtilityVector(1.0, 0.5), c),
    "canonical_of_value": lambda c: canonical_of_value(0.5, c),
    "canonical_equivalent": lambda c: canonical_equivalent(FAIR, c),
    "run_conformance": lambda c: run_conformance(GenConfig(samples=1, max_depth=2), c),
    "BinomialScenario": lambda c: BinomialScenario(10, 3, c),
    "emit_table": lambda c: emit_table(2, c),
}
PAST_THE_BOUND = math.nextafter(MAX_PREMIUM, math.inf)


@pytest.mark.parametrize("c, accepted", [
    (MAX_PREMIUM, True), (-MAX_PREMIUM, True), (PAST_THE_BOUND, False),
    (-PAST_THE_BOUND, False), (math.inf, False), (math.nan, False),
], ids=["max", "-max", "past-max", "past-minus-max", "inf", "nan"])
@pytest.mark.parametrize("entry", sorted(PREMIUM_ENTRY_POINTS))
def test_premium_bound_holds_at_every_entry_point(entry, c, accepted):
    if accepted:
        PREMIUM_ENTRY_POINTS[entry](c)
    else:
        with pytest.raises(GambleError, match=re.escape(f"|c| <= {MAX_PREMIUM}")):
            PREMIUM_ENTRY_POINTS[entry](c)


@pytest.mark.parametrize("c", ["1.5", True, None], ids=["str", "bool", "none"])
@pytest.mark.parametrize("entry", sorted(PREMIUM_ENTRY_POINTS))
def test_premium_must_be_a_real_number_at_every_entry_point(entry, c):
    with pytest.raises(GambleError, match=f"^ambiguity premium must be a real number, got {c!r}$"):
        PREMIUM_ENTRY_POINTS[entry](c)


def test_integer_premium_is_a_float_premium():
    assert price(FAIR, 1) == price(FAIR, 1.0)
    assert canonical_of_value(0.5, -2) == canonical_of_value(0.5, -2.0)


@pytest.mark.parametrize("bad", ["0.25", True, None], ids=["str", "bool", "none"])
def test_logistic_functions_take_real_numbers_only(bad):
    for function, name in (
        (logit, "logit argument"),
        (inverse_logit, "inverse_logit argument"),
        (implied_prior, "observed fair price"),
    ):
        with pytest.raises(GambleError, match=f"^{name} must be a real number, got {bad!r}$"):
            function(bad)


def test_logistic_functions_take_integers():
    assert inverse_logit(0) == 0.5
    for function in (logit, implied_prior):
        with pytest.raises(InfiniteLogitError):
            function(1)


class TestImpliedPrior:
    def test_neutral(self):
        rho, kind = implied_prior(0.5)
        assert rho == 0.5
        assert kind == "neutral"

    def test_seeking(self):
        rho, kind = implied_prior(0.6)
        assert rho == 0.6
        assert kind == "seeking"
        assert logit(0.6) == pytest.approx(math.log(1.5), abs=1e-12)

    def test_averse(self):
        assert implied_prior(0.4) == (0.4, "averse")

    def test_extremes_rejected(self):
        for p in (0.0, 1.0):
            with pytest.raises(InfiniteLogitError):
                implied_prior(p)

    @pytest.mark.parametrize("p", [1.5, -0.25, math.nan])
    def test_out_of_range_names_the_price(self, p):
        with pytest.raises(GambleError) as info:
            implied_prior(p)
        assert str(info.value) == f"observed fair price must lie in [0, 1], got {p}"


class TestCanonicalEquivalent:
    def test_neutral_half(self):
        g = canonical_equivalent(Gamble.from_value(0.5), 0.0)
        assert {(p.likelihood, p.reward.constant) for p in g.prospects} == {(1.0, 1.0), (1.0, 0.0)}

    def test_two_coin_gamble(self):
        g = Gamble.from_prospects([(1.0, 0.5), (0.8, 0.4)])
        canonical = canonical_equivalent(g, 0.0)
        assert {(p.likelihood, p.reward.constant) for p in canonical.prospects} == {
            (1.0, 1.0),
            (1.0, 0.0),
        }

    def test_certain_unit(self):
        g = canonical_equivalent(Gamble.from_value(1.0), 0.7)
        assert {(p.likelihood, p.reward.constant) for p in g.prospects} == {(1.0, 1.0), (0.0, 0.0)}

    @given(premiums)
    def test_price_preserved(self, c):
        g = Gamble.from_prospects([(1.0, 0.8), (0.6, 0.2), (0.3, 0.5)])
        assert price(canonical_equivalent(g, c), c) == pytest.approx(price(g, c), abs=1e-12)
