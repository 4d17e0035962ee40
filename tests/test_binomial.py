"""Bet-on-next-toss pricing: likelihood method vs Bayesian baselines.

The optimizer is validated against a brute-force oracle that evaluates the
objective on a dense grid entirely in log space and never calls the library's
maximizer.  Dense-grid agreement at the full published scale lives in the
acceptance suite; here a coarser grid keeps the checks fast.
"""

import json
import math

import numpy as np
import pytest

from likelihood_gambles import (
    BinomialScenario,
    GambleError,
    UtilityVector,
    bayesian_prices,
    binomial,
    continuous_utility_vector,
    emit_table,
    format_price,
    inverse_logit,
    likelihood_price,
    normalized_binomial_likelihood,
    price_from_vector,
    render_table_csv,
    render_table_text,
)

# Published 4-decimal prices for ten observed tosses at a neutral premium.
TEN_TOSS_PRICES = [
    0.0373, 0.1476, 0.2489, 0.3494, 0.4498, 0.5000,
    0.5502, 0.6506, 0.7511, 0.8524, 0.9627,
]


def oracle_component(m: int, x: int, c: float, component: str, points: int) -> float:
    """Dense-grid maximum of l(p) * weight(p), computed independently.

    Works on log values and takes the max before exponentiating; endpoint
    contributions are added analytically.
    """
    p = np.linspace(0.0, 1.0, points)[1:-1]
    log_lik = np.zeros_like(p)
    if x:
        log_lik += x * np.log(p)
    if m - x:
        log_lik += (m - x) * np.log1p(-p)
    phat = x / m
    log_norm = 0.0
    if x:
        log_norm += x * math.log(phat)
    if m - x:
        log_norm += (m - x) * math.log1p(-phat)
    log_odds = np.log(p) - np.log1p(-p)
    if component == "alpha":
        log_weight = np.minimum(0.0, log_odds - c)
        at_zero, at_one = 0.0, (1.0 if x == m else 0.0)
    else:
        log_weight = np.minimum(0.0, c - log_odds)
        at_zero, at_one = (1.0 if x == 0 else 0.0), 0.0
    interior = float(np.exp(np.max(log_lik - log_norm + log_weight)))
    return max(min(1.0, interior), at_zero, at_one)


def oracle_price(m: int, x: int, c: float, points: int = 1_000_001) -> float:
    alpha = oracle_component(m, x, c, "alpha", points)
    beta = oracle_component(m, x, c, "beta", points)
    if beta == 0.0:
        return 1.0
    if alpha == 0.0:
        return 0.0
    t = math.log(alpha / beta) + c
    return 1.0 / (1.0 + math.exp(-t)) if t >= 0 else math.exp(t) / (1.0 + math.exp(t))


def kink_logs(c: float) -> tuple[float, float]:
    """log p* and log(1 - p*) at the kink p* = inverse_logit(c), taken from c:
    for c > 0 the float p* rounds to 1 from c = 36.7."""
    if c > 0.0:
        lk = -math.log1p(math.exp(-c))
        return lk, lk - c
    k = inverse_logit(c)
    return math.log(k), math.log1p(-k)


def per_component_max(m: int, x: int, c: float, sign: float) -> float:
    """One component (alpha for sign +1, beta for -1) at its own candidates only:
    the endpoints, the kink, x/m and (x + sign)/m, each solved separately.
    The log-likelihood is exactly 0 at x/m, where the likelihood peaks.  The
    kink is evaluated through its logs, never through its rounded float."""
    lognorm = 0.0
    if x:
        lognorm += x * math.log(x / m)
    if m - x:
        lognorm += (m - x) * math.log1p(-x / m)

    def objective(lp: float, l1p: float, at_mode: bool) -> float:
        if at_mode:
            ll = 0.0
        else:
            ll = -lognorm
            if x:
                ll += x * lp
            if m - x:
                ll += (m - x) * l1p
        t = sign * (lp - l1p - c)
        return min(1.0, math.exp(ll + min(0.0, t)))

    values = [(1.0 if x == 0 else 0.0) if sign < 0 else (1.0 if x == m else 0.0)]
    k = inverse_logit(c)
    values.append(objective(*kink_logs(c), at_mode=k == x / m < 1.0))
    for j in {x, x + int(sign)}:
        if 0 < j < m:
            p = j / m
            values.append(objective(math.log(p), math.log1p(-p), at_mode=j == x))
    return max(values)


class TestScenario:
    def test_validation(self):
        BinomialScenario(10, 0)
        BinomialScenario(10, 10, -1.5)
        with pytest.raises(GambleError):
            BinomialScenario(0, 0)
        with pytest.raises(GambleError):
            BinomialScenario(10, 11)
        with pytest.raises(GambleError):
            BinomialScenario(10, -1)
        with pytest.raises(GambleError):
            BinomialScenario(10, 5, float("inf"))


class TestNormalizedLikelihood:
    def test_one_at_maximum_likelihood_bias(self):
        for m, x in ((10, 5), (10, 0), (7, 7), (3, 1)):
            scenario = BinomialScenario(m, x)
            assert normalized_binomial_likelihood(x / m, scenario) == 1.0

    def test_exactly_one_at_every_maximum_likelihood_bias(self):
        for m in (100, 1000, 10_000):
            for x in range(m + 1):
                assert normalized_binomial_likelihood(x / m, BinomialScenario(m, x)) == 1.0, (m, x)

    def test_endpoint_zero_for_interior_counts(self):
        scenario = BinomialScenario(10, 5)
        assert normalized_binomial_likelihood(0.0, scenario) == 0.0
        assert normalized_binomial_likelihood(1.0, scenario) == 0.0
        assert normalized_binomial_likelihood(0.5, scenario) == 1.0

    def test_all_successes(self):
        scenario = BinomialScenario(10, 10)
        assert normalized_binomial_likelihood(0.9, scenario) == pytest.approx(0.9**10, rel=1e-12)

    def test_stays_in_unit_interval(self):
        scenario = BinomialScenario(12, 4)
        for p in np.linspace(0.0, 1.0, 101):
            value = normalized_binomial_likelihood(float(p), scenario)
            assert 0.0 <= value <= 1.0

    def test_no_underflow_at_large_trial_counts(self):
        scenario = BinomialScenario(10_000, 2_500)
        for p in (0.0, 1e-6, 0.1, 0.25, 0.9, 1.0 - 1e-6, 1.0):
            value = normalized_binomial_likelihood(p, scenario)
            assert math.isfinite(value)
            assert 0.0 <= value <= 1.0

    def test_domain(self):
        with pytest.raises(GambleError):
            normalized_binomial_likelihood(1.5, BinomialScenario(10, 5))

    @pytest.mark.parametrize("bias", ["0.3", True, None], ids=["str", "bool", "none"])
    def test_non_real_bias_rejected(self, bias):
        with pytest.raises(GambleError, match="^bias must be a real number"):
            normalized_binomial_likelihood(bias, BinomialScenario(10, 3))

    def test_integer_bias_is_converted(self):
        scenario = BinomialScenario(10, 0)
        assert normalized_binomial_likelihood(0, scenario) == 1.0
        assert normalized_binomial_likelihood(1, scenario) == 0.0


class TestInternalMaxima:
    def test_all_heads_neutral(self):
        u = continuous_utility_vector(BinomialScenario(10, 10, 0.0))
        assert u.alpha == 1.0
        assert u.beta == pytest.approx(0.9**9 * 0.1, abs=1e-12)

    def test_no_heads_neutral(self):
        u = continuous_utility_vector(BinomialScenario(10, 0, 0.0))
        assert u.beta == 1.0
        assert u.alpha == pytest.approx(0.9**9 * 0.1, abs=1e-12)

    def test_against_oracle_small_grid(self):
        # A 1e6-point grid can undershoot a kinked maximum by ~|slope| * h/2,
        # so the refined value may legitimately sit a few 1e-7 above it.
        for m, x, c in ((1, 0, 0.0), (1, 1, 0.0), (5, 2, 1.0), (10, 3, -1.0), (20, 19, 0.5)):
            u = continuous_utility_vector(BinomialScenario(m, x, c))
            assert u.alpha == pytest.approx(oracle_component(m, x, c, "alpha", 1_000_001), abs=2e-5)
            assert u.beta == pytest.approx(oracle_component(m, x, c, "beta", 1_000_001), abs=2e-5)

    @pytest.mark.parametrize("m", [100, 1000])
    def test_against_oracle_at_scale(self, m):
        for x in (0, 1, m // 4, m // 2, m - 1, m):
            for c in (-3.0, -1.0, 0.0, 1.0, 3.0):
                u = continuous_utility_vector(BinomialScenario(m, x, c))
                alpha = oracle_component(m, x, c, "alpha", 1_000_001)
                beta = oracle_component(m, x, c, "beta", 1_000_001)
                assert u.alpha == pytest.approx(alpha, abs=1e-6)
                assert u.beta == pytest.approx(beta, abs=1e-6)

    @pytest.mark.parametrize("trials", [range(1, 51), [1000]], ids=["m<=50", "m=1000"])
    def test_one_pass_equals_per_component_maxima(self, trials):
        # Evaluating a component at the other one's candidates cannot beat
        # its own maximum, so the shared pass returns the very same floats.
        for m in trials:
            for x in range(m + 1):
                for c in (-40.0, -3.0, -0.5, 0.0, 0.7, 3.0, 40.0):
                    u = continuous_utility_vector(BinomialScenario(m, x, c))
                    assert u.alpha == per_component_max(m, x, c, 1.0), (m, x, c)
                    assert u.beta == per_component_max(m, x, c, -1.0), (m, x, c)

    def test_kink_on_the_mode_equals_per_component_maxima(self):
        # Premiums a few ulps around logit(x/m) whose kink is exactly x/m:
        # log l is 0 there at the kink as well.
        m, checked = 1000, 0
        for x in range(1, m):
            base = math.log(x / m) - math.log1p(-x / m)
            for j in range(-8, 9):
                c = base + j * math.ulp(base)
                if inverse_logit(c) != x / m:
                    continue
                checked += 1
                u = continuous_utility_vector(BinomialScenario(m, x, c))
                assert u.alpha == per_component_max(m, x, c, 1.0), (m, x, c)
                assert u.beta == per_component_max(m, x, c, -1.0), (m, x, c)
        assert checked > m

    @pytest.mark.parametrize("trials", [range(2, 61), [999, 1000]], ids=["m<=60", "m=1000"])
    def test_kink_on_a_shifted_mode_equals_per_component_maxima(self, trials):
        # With the kink within an ulp of (x + 1)/m or (x - 1)/m the two
        # candidates tie up to rounding, and each row keeps the larger.
        checked = 0
        for m in trials:
            for j in range(1, m):
                base = math.log(j / m) - math.log1p(-j / m)
                for c in (math.nextafter(base, -math.inf), base, math.nextafter(base, math.inf)):
                    for x in (j - 1, j + 1):
                        checked += 1
                        u = continuous_utility_vector(BinomialScenario(m, x, c))
                        assert u.alpha == per_component_max(m, x, c, 1.0), (m, x, c)
                        assert u.beta == per_component_max(m, x, c, -1.0), (m, x, c)
        assert checked > 5000

    @pytest.mark.parametrize("c", [0.0, 0.7])
    def test_table_rows_equal_per_component_maxima(self, c):
        m = 10_000
        rows = emit_table(m, c)
        assert [r.successes for r in rows] == list(range(m + 1))
        for x, row in enumerate(rows):
            u = UtilityVector(per_component_max(m, x, c, 1.0), per_component_max(m, x, c, -1.0))
            assert row.likelihood == price_from_vector(u, c), (m, x, c)

    @pytest.mark.parametrize("c", [-1.0, 0.0, 1.0])
    def test_large_tables_lie_exactly_on_b(self, c):
        # log l(x/m) must be exactly 0: as -lognorm plus the same two terms it
        # can miss by an ulp of lognorm, which passes B's 1e-12 bound from
        # m = 23,000 at c = 0.
        m = 30_000
        assert len(emit_table(m, c)) == m + 1
        for x in range(m + 1):
            u = continuous_utility_vector(BinomialScenario(m, x, c))
            assert max(u.alpha, u.beta) == 1.0, (m, x, c)


class TestLikelihoodPrice:
    def test_balanced_observation(self):
        assert likelihood_price(BinomialScenario(10, 5, 0.0)) == pytest.approx(0.5, abs=1e-12)

    def test_all_heads(self):
        value = likelihood_price(BinomialScenario(10, 10, 0.0))
        assert value == pytest.approx(1.0 / (1.0 + 0.9**9 * 0.1), abs=1e-9)
        assert format_price(value) == "0.9627"

    def test_two_heads(self):
        assert format_price(likelihood_price(BinomialScenario(10, 2, 0.0))) == "0.2489"

    def test_complement_symmetry_neutral(self):
        for x in range(11):
            total = likelihood_price(BinomialScenario(10, x, 0.0)) + likelihood_price(
                BinomialScenario(10, 10 - x, 0.0)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_complement_symmetry_at_scale(self):
        m = 1000
        for c in (-1.0, 1.0):
            for x in range(m + 1):
                total = likelihood_price(BinomialScenario(m, x, c)) + likelihood_price(
                    BinomialScenario(m, m - x, -c)
                )
                assert total == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("m", [10, 1000])
    @pytest.mark.parametrize("c", [20.0, 30.0, 36.7, 36.8, 37.0, 100.0, 700.0])
    def test_complement_symmetry_at_large_premiums(self, m, c):
        # From c = 36.7 the float inverse_logit(c) is 1.0, so the kink must
        # be priced through logs taken from c, not from its float.
        for x in range(m + 1):
            total = likelihood_price(BinomialScenario(m, x, c)) + likelihood_price(
                BinomialScenario(m, m - x, -c)
            )
            assert total == pytest.approx(1.0, abs=1e-12), (x, total)

    def test_kink_past_the_rounding_of_its_float(self):
        # A 60-digit mpmath evaluation of the same candidates gives
        # 0.96270291653156159...; with the kink dropped the price was 0.9.
        value = likelihood_price(BinomialScenario(10, 9, 37.0))
        assert value == pytest.approx(0.9627029165315616, abs=1e-15)
        assert format_price(value) == "0.9627"

    def test_strictly_increasing_in_successes(self):
        for c in (-1.0, 0.0, 1.0):
            prices = [likelihood_price(BinomialScenario(10, x, c)) for x in range(11)]
            assert all(a < b for a, b in zip(prices, prices[1:]))

    def test_single_toss_against_hand_computation(self):
        # One toss, no head: alpha peaks at p = 1/2 giving 1/2, beta at p = 0
        # giving 1, so the price is (1/2) / (3/2).
        assert likelihood_price(BinomialScenario(1, 0, 0.0)) == pytest.approx(1.0 / 3.0, abs=1e-9)
        assert likelihood_price(BinomialScenario(1, 1, 0.0)) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_matches_oracle_price(self):
        for m, x, c in ((1, 1, 0.0), (5, 4, -1.0), (10, 7, 1.0), (20, 2, 0.0)):
            assert likelihood_price(BinomialScenario(m, x, c)) == pytest.approx(
                oracle_price(m, x, c), abs=1e-5
            )


class TestBayesianPrices:
    def test_no_successes(self):
        uniform, jeffreys, novick_hall = bayesian_prices(BinomialScenario(10, 0))
        assert format_price(uniform) == "0.0833"
        assert format_price(jeffreys) == "0.0455"
        assert format_price(novick_hall) == "0.0000"

    def test_balanced(self):
        assert bayesian_prices(BinomialScenario(10, 5)) == (0.5, 0.5, 0.5)

    def test_seven_successes(self):
        uniform, jeffreys, novick_hall = bayesian_prices(BinomialScenario(10, 7))
        assert format_price(uniform) == "0.6667"
        assert format_price(jeffreys) == "0.6818"
        assert novick_hall == pytest.approx(0.7)

    def test_closed_forms(self):
        for m in (1, 4, 9):
            for x in range(m + 1):
                uniform, jeffreys, novick_hall = bayesian_prices(BinomialScenario(m, x))
                assert uniform == pytest.approx((x + 1) / (m + 2))
                assert jeffreys == pytest.approx((x + 0.5) / (m + 1))
                assert novick_hall == pytest.approx(x / m)

    def test_baseline_ordering_around_center(self):
        for m in (4, 10, 13):
            for x in range(m + 1):
                uniform, jeffreys, novick_hall = bayesian_prices(BinomialScenario(m, x))
                if x * 2 < m:
                    assert novick_hall <= jeffreys <= uniform
                elif x * 2 > m:
                    assert uniform <= jeffreys <= novick_hall


class TestTable:
    def test_ten_toss_table_matches_published_values(self):
        rows = emit_table(10, 0.0)
        assert [r.successes for r in rows] == list(range(11))
        for row, expected in zip(rows, TEN_TOSS_PRICES):
            assert format_price(row.likelihood) == f"{expected:.4f}"
            assert abs(row.likelihood - expected) < 5e-5

    def test_row_one(self):
        row = emit_table(10, 0.0)[1]
        rendered = (
            format_price(row.likelihood),
            format_price(row.uniform),
            format_price(row.jeffreys),
            format_price(row.novick_hall),
        )
        assert rendered == ("0.1476", "0.1667", "0.1364", "0.1000")

    def test_row_nine_likelihood(self):
        assert format_price(emit_table(10, 0.0)[9].likelihood) == "0.8524"

    def test_general_premium_supported(self):
        rows = emit_table(3, 0.8)
        assert len(rows) == 4
        assert all(0.0 <= r.likelihood <= 1.0 for r in rows)

    def test_trial_count_validated(self):
        for m in (0, -3, True, 1.5, "5"):
            with pytest.raises(GambleError) as info:
                emit_table(m, 800.0)  # the trial count is checked before the premium
            assert str(info.value) == f"trials must be a positive integer, got {m!r}"
        with pytest.raises(GambleError) as info:
            emit_table(10, 800.0)
        assert str(info.value) == "ambiguity premium must satisfy |c| <= 700.0, got 800.0"

    def test_text_rendering(self):
        text = render_table_text(emit_table(10, 0.0))
        lines = text.splitlines()
        assert lines[0].split() == ["x", "likelihood", "uniform", "jeffreys", "novick_hall"]
        assert lines[1].split() == ["0", "0.0373", "0.0833", "0.0455", "0.0000"]
        assert len(lines) == 12

    def test_csv_rendering(self):
        csv_text = render_table_csv(emit_table(1, 0.0))
        lines = csv_text.splitlines()
        assert lines[0] == "x,likelihood,uniform,jeffreys,novick_hall"
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(1.0 / 3.0, abs=1e-9)


class TestStreamedRows:
    """Rows are priced through their vectors and rendered by one line generator per format."""

    @pytest.mark.parametrize("m", [1, 10, 1000])
    @pytest.mark.parametrize("c", [-700.0, -1.0, 0.0, 0.3, 37.0, 700.0])
    def test_rows_are_priced_like_price_from_vector(self, m, c):
        for row in emit_table(m, c):
            s = BinomialScenario(m, row.successes, c)
            assert row.likelihood == likelihood_price(s), (m, row.successes, c)
            assert (row.uniform, row.jeffreys, row.novick_hall) == bayesian_prices(s)

    def test_an_off_b_pair_is_the_vectors_error(self, monkeypatch):
        monkeypatch.setattr(binomial, "_pairs", lambda m, c, xs: iter([(0, 1.0, 1.5)]))
        with pytest.raises(GambleError) as info:
            emit_table(1, 0.0)
        assert str(info.value) == "utility vector components must lie in [0, 1], got <1.0, 1.5>"

    def test_renderers_read_any_iterable_of_rows(self):
        rows = emit_table(3, 0.2)
        header = "   x  likelihood   uniform  jeffreys  novick_hall"
        assert render_table_text([]) == header
        assert render_table_csv([]) == "x,likelihood,uniform,jeffreys,novick_hall"
        assert render_table_text(iter(rows)) == render_table_text(rows)
        assert render_table_csv(r for r in rows) == render_table_csv(rows)
        last = rows[-1]
        assert render_table_csv(rows).splitlines()[-1] == (
            f"3,{last.likelihood!r},0.8,0.875,1.0"
        )
        assert render_table_text(rows).splitlines()[-1] == (
            f"   3  {format_price(last.likelihood):>10}    0.8000    0.8750       1.0000"
        )

    def test_json_pieces_join_to_json_dumps(self):
        rows = emit_table(3, 0.2)
        pieces = binomial._json_lines(map(binomial.PricingRow._fields, rows))
        assert "".join(pieces) == json.dumps([r.to_json() for r in rows]) + "\n"
        assert "".join(binomial._json_lines([])) == "[]\n"


class TestFormatPrice:
    def test_rounds_half_away_from_zero(self):
        assert format_price(0.00005) == "0.0001"
        assert format_price(0.12345) == "0.1235"
        assert format_price(0.5) == "0.5000"

    def test_contrast_with_bankers_rounding(self):
        # repr(0.00025) is the exact decimal half '0.00025': half-even would
        # print 0.0002, half-away prints 0.0003.
        from decimal import ROUND_HALF_EVEN, Decimal

        half_even = str(Decimal(repr(0.00025)).quantize(Decimal("0.0001"), ROUND_HALF_EVEN))
        assert half_even == "0.0002"
        assert format_price(0.00025) == "0.0003"
