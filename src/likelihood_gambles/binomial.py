"""Pricing a bet on the next toss of a coin with unknown bias.

After observing ``x`` heads in ``m`` tosses, the bet paying 1 on the next
head is a gamble over the continuum of biases p in [0, 1].  Its utility
vector has components

    alpha = max_p  l(p) * min(1, exp(logit(p) - c))
    beta  = max_p  l(p) * min(1, exp(c - logit(p)))

where l(p) = p^x (1-p)^(m-x) normalized to 1 at the maximum-likelihood bias
x/m (the binomial coefficient cancels), and the price follows from the
logistic pricing formula.  Likelihoods are evaluated in log space so large
``m`` cannot underflow intermediate products.

In log space each objective is min(A, B) with A = log l(p) and
B = A + s (logit(p) - c), s = +1 for alpha and -1 for beta, and B
collapses to (x+s) log p + (m-x-s) log(1-p) plus a constant.  On each side
of the kink p* = inverse_logit(c) the smaller piece is either concave,
peaking at x/m or (x+s)/m, or monotone toward the kink (x = 0 and x = m
are the monotone cases).  So each component has one maximizer.  The
component whose weight is 1 at x/m is exactly 1 there (at x = 0 beta, and
at x = m alpha, is 1 at the endpoint).  The other one peaks at its shifted
mode (x+s)/m when that lies on the same side of p* as x/m, and at p* when
it does not.  A row therefore evaluates one point besides x/m.  Where the
shifted mode lies within ``_NEAR_TIE`` (1e-6) of p*, rounding can order the
two values either way, so both are evaluated and the larger is kept.

The kink's logs are taken from c, not from the float p*: for c > 0,
log p* = -log1p(exp(-c)) and log(1 - p*) = log p* - c.  The float p*
rounds to 1 from c = 36.7, and log1p(-p*) loses bits well before that.

A table is solved in one pass over its rows: the kink and its logs do not
depend on x, so they are taken once per table.  A single row
(``continuous_utility_vector``) is the same pass over one x.  At p = x/m,
log l is taken as exactly 0, not as the rounded difference of two equal
sums, so every row lies exactly on B (max(alpha, beta) = 1) at any ``m``.
Each row is then priced through its ``UtilityVector``, and the table is
written through one line generator per format, which ``demo-binomial``
streams in batches and the renderers join.

For comparison, three default-prior Bayesian prices of the same bet have
closed forms: the posterior-mean success probabilities (x+1)/(m+2) for a
uniform prior, (x+0.5)/(m+1) for the Jeffreys/reference prior, and x/m for
the Novick-Hall prior.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator

from .gambles import GambleError, _Record, _require_unit, _set
from .pricing import (
    UtilityVector,
    _require_premium,
    format_price,
    inverse_logit,
    price_from_vector,
)

__all__ = [
    "BinomialScenario",
    "PricingRow",
    "normalized_binomial_likelihood",
    "continuous_utility_vector",
    "likelihood_price",
    "bayesian_prices",
    "emit_table",
    "render_table_text",
    "render_table_csv",
]

# The table's column names, in the order of PricingRow's fields.
_COLUMNS = ("x", "likelihood", "uniform", "jeffreys", "novick_hall")


class BinomialScenario(_Record):
    """``trials`` observed tosses with ``successes`` heads, priced at ``premium``."""

    __slots__ = ("trials", "successes", "premium")

    def __init__(self, trials: int, successes: int, premium: float = 0.0) -> None:
        if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
            raise GambleError(f"trials must be a positive integer, got {trials!r}")
        ok = isinstance(successes, int) and not isinstance(successes, bool)
        if not ok or not (0 <= successes <= trials):
            raise GambleError(f"successes must be an integer in [0, {trials}], got {successes!r}")
        _set(self, "trials", trials)
        _set(self, "successes", successes)
        _set(self, "premium", _require_premium(premium))


class PricingRow(_Record):
    """One table row: the likelihood price next to the three Bayesian baselines."""

    __slots__ = ("successes", "likelihood", "uniform", "jeffreys", "novick_hall")

    def __init__(
        self, successes: int, likelihood: float, uniform: float, jeffreys: float, novick_hall: float
    ) -> None:
        _set(self, "successes", successes)
        _set(self, "likelihood", likelihood)
        _set(self, "uniform", uniform)
        _set(self, "jeffreys", jeffreys)
        _set(self, "novick_hall", novick_hall)

    def to_json(self) -> dict[str, float]:
        return dict(zip(_COLUMNS, self._fields()))


def normalized_binomial_likelihood(p: float, scenario: BinomialScenario) -> float:
    """l(p) = p^x (1-p)^(m-x) scaled so the maximum over [0, 1] is 1.

    Endpoints follow the 0^0 = 1 convention; the value is 1 exactly at
    p = x/m and lies in [0, 1] everywhere.
    """
    p = _require_unit(p, "bias")
    m, x = scenario.trials, scenario.successes
    q, n = x / m, m - x
    if p == q:  # exactly, not as the rounded difference of two logs
        return 1.0
    if p == 0.0 or p == 1.0:  # p is now inside (0, 1): only q's logs need the 0^0 = 1 guard
        return 0.0
    lognorm = (x * math.log(q) if x else 0.0) + (n * math.log1p(-q) if n else 0.0)
    return min(1.0, math.exp(-lognorm + x * math.log(p) + n * math.log1p(-p)))


# Where the shifted mode lies this close to the kink, both are evaluated: the
# two values are then equal up to rounding, and either can be the larger.
_NEAR_TIE = 1e-6


def _pairs(m: int, c: float, xs: range) -> Iterator[tuple[int, float, float]]:
    """``(x, alpha, beta)`` of the bet after x heads in m tosses, for each x in ``xs``.

    The kink's logs are taken once for all rows, and each row evaluates its
    one candidate (two near a tie) in line: a call would cost more than its logs.
    """
    log, log1p, exp = math.log, math.log1p, math.exp
    k = inverse_logit(c)
    if c > 0.0:  # k rounds to 1 from c = 36.7, and log1p(-k) loses bits before that
        lk = -log1p(exp(-c))
        l1k = lk - c
    else:
        lk, l1k = log(k), log1p(-k)
    tk = lk - l1k - c
    for x in xs:
        n = m - x
        q = x / m
        lq = log(q) if x else 0.0
        l1q = log1p(-q) if n else 0.0
        # log(q^x (1-q)^n), with 0^0 = 1: the normalizing constant.
        lognorm = x * lq + n * l1q
        # Endpoints: only alpha is positive at p = 1, only beta at p = 0.
        alpha = 0.0 if n else 1.0
        beta = 0.0 if x else 1.0
        # A point p scores exp(ll + min(0, s t)) for component s, clipped to 1,
        # with ll = log l(p) and t = logit(p) - c.  At p = x/m, ll is exactly 0:
        # -lognorm plus the same two terms can miss 0 by an ulp of lognorm, and
        # so miss B.
        if x and n:  # p = x/m: the weight-1 side scores exactly 1
            t = lq - l1q - c
            if t < 0.0:
                beta = 1.0
                alpha = exp(t)
            else:
                alpha = 1.0
                beta = exp(-t)
        # At most one component is below 1, and its maximum is at its shifted
        # mode j/m when d > 0, at the kink when d < 0, and at the larger of the
        # two near a tie.
        if alpha < 1.0:
            s, v, j = 1.0, alpha, x + 1
        elif beta < 1.0:
            s, v, j = -1.0, beta, x - 1
        else:
            yield x, alpha, beta
            continue
        p = j / m
        d = s * (k - p)
        if d > -_NEAR_TIE and 0 < j < m:
            lp, l1p = log(p), log1p(-p)
            ll = -lognorm + x * lp + n * l1p
            u = s * (lp - l1p - c)
            e = exp(ll + u) if u < 0.0 else exp(ll)
            if e > v:
                v = e if e < 1.0 else 1.0
        if d < _NEAR_TIE:
            ll = 0.0 if k == q < 1.0 else -lognorm + x * lk + n * l1k
            u = s * tk
            e = exp(ll + u) if u < 0.0 else exp(ll)
            if e > v:
                v = e if e < 1.0 else 1.0
        yield (x, v, beta) if s > 0.0 else (x, alpha, v)


def continuous_utility_vector(scenario: BinomialScenario) -> UtilityVector:
    """Utility vector of the bet over the full bias continuum."""
    x = scenario.successes
    _, alpha, beta = next(_pairs(scenario.trials, scenario.premium, range(x, x + 1)))
    return UtilityVector(alpha, beta)


def likelihood_price(scenario: BinomialScenario) -> float:
    """Price of the bet-on-next-toss gamble under the scenario's premium."""
    return price_from_vector(continuous_utility_vector(scenario), scenario.premium)


def bayesian_prices(scenario: BinomialScenario) -> tuple[float, float, float]:
    """Posterior-mean prices under the uniform, Jeffreys, and Novick-Hall priors."""
    m, x = scenario.trials, scenario.successes
    return (x + 1) / (m + 2), (x + 0.5) / (m + 1), x / m


def _values(m: int, c: float, xs: range) -> Iterator[tuple[int, float, float, float, float]]:
    """A table row's fields for each x in ``xs``: the likelihood price, then the Bayesian ones."""
    for x, alpha, beta in _pairs(m, c, xs):
        price = price_from_vector(UtilityVector(alpha, beta), c)
        # bayesian_prices in line, so that a row builds no scenario.
        yield x, price, (x + 1) / (m + 2), (x + 0.5) / (m + 1), x / m


def emit_table(m: int, c: float = 0.0) -> list[PricingRow]:
    """All rows x = 0..m comparing the likelihood price with the Bayesian ones."""
    c = BinomialScenario(m, 0, c).premium  # checks the trial count, then the premium
    return [PricingRow(*row) for row in _values(m, c, range(m + 1))]


# One generator per output format turns row fields into the format's pieces,
# each ending in its own separator.  Joined, they are what demo-binomial
# prints; the renderers return that without its last newline.


def _text_lines(rows: Iterable[tuple]) -> Iterator[str]:
    yield f"{'x':>4}  {'likelihood':>10}  {'uniform':>8}  {'jeffreys':>8}  {'novick_hall':>11}\n"
    for x, lik, uniform, jeffreys, novick_hall in rows:
        yield (
            f"{x:>4}  {format_price(lik):>10}  {format_price(uniform):>8}  "
            f"{format_price(jeffreys):>8}  {format_price(novick_hall):>11}\n"
        )


def _csv_lines(rows: Iterable[tuple]) -> Iterator[str]:
    yield ",".join(_COLUMNS) + "\n"
    for x, lik, uniform, jeffreys, novick_hall in rows:
        yield f"{x},{lik!r},{uniform!r},{jeffreys!r},{novick_hall!r}\n"


def _json_lines(rows: Iterable[tuple]) -> Iterator[str]:
    """``json.dumps`` of the rows' ``to_json`` dicts, one row per piece, and a newline."""
    yield "["
    sep = ""
    for row in rows:
        yield sep + json.dumps(dict(zip(_COLUMNS, row)))
        sep = ", "
    yield "]\n"


_LINES = {"text": _text_lines, "csv": _csv_lines, "json": _json_lines}


def render_table_text(rows: Iterable[PricingRow]) -> str:
    """Aligned plain-text table with 4-decimal entries."""
    return "".join(_text_lines(map(PricingRow._fields, rows)))[:-1]


def render_table_csv(rows: Iterable[PricingRow]) -> str:
    """CSV with full-precision values."""
    return "".join(_csv_lines(map(PricingRow._fields, rows)))[:-1]
