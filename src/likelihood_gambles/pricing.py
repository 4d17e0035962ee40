"""Two-dimensional utility and pricing of likelihood gambles.

Every gamble maps to a point <alpha, beta> on the top and right borders of
the unit square (the set B: max(alpha, beta) = 1).  The point is the unique
canonical gamble {alpha/1, beta/0} the holder finds interchangeable with the
original, so preference between gambles reduces to the componentwise order
on B: <a1, b1> beats <a2, b2> iff a1 >= a2 and b1 <= b2.  On B that order is
total, and it is the order of the scalar key ln(alpha / beta), which runs
from -inf at <0, 1> to +inf at <1, 0>.

The map itself is driven by a single taste parameter, the ambiguity premium
c: the log-odds of the price the decision maker quotes for the fair gamble
{1/1, 1/0}.  c = 0 is ambiguity neutral, c > 0 seeking, c < 0 averse.  For a
constant utility x in (0, 1),

    alpha = min(1, exp(logit(x) - c)),   beta = min(1, exp(c - logit(x))),

with the limiting vectors <0, 1> at x = 0 and <1, 0> at x = 1.  A compound
gamble's vector is the pointwise maximum of its likelihood-scaled reward
vectors; unrolled, alpha = max over root-to-constant paths of L * alpha(x),
with L the product of the likelihoods along the path and x the constant it
ends at, and likewise beta.  The price comes back through the logistic:

    price = inverse_logit(ln(alpha / beta) + c)

so the price is an increasing function of the same key that orders B, and
the ends of B price at 1 and 0.  Premiums are accepted for |c| <=
``MAX_PREMIUM``.  Within that bound pricing a constant returns it up to
rounding, except where exp underflows: at c = 700, constants below about
e^-45 price 0.
"""

from __future__ import annotations

import math
from typing import Literal

from .gambles import (
    MAX_LIKELIHOOD_TOL,
    Gamble,
    GambleError,
    InfiniteLogitError,
    _leaf_likelihoods,
    _Record,
    _require_real,
    _require_unit,
)

__all__ = [
    "UtilityVector",
    "logit",
    "inverse_logit",
    "canonical_of_value",
    "compare",
    "utility_of_gamble",
    "price",
    "price_from_vector",
    "prefer",
    "implied_prior",
    "canonical_equivalent",
    "format_price",
]

# Vector equality and membership in B are decided at this tolerance, the gambles'
# own: _canonical_gamble must accept every vector that UtilityVector accepts.
VECTOR_TOL = MAX_LIKELIHOOD_TOL

# The largest accepted |c|.  Past about 745 the canonical pair of a constant
# near 1/2 underflows to 0, and pricing a constant no longer returns it.
MAX_PREMIUM = 700.0

Ordering = Literal["greater", "equal", "less"]


class UtilityVector(_Record):
    """A point <alpha, beta> on B, the top/right border of the unit square."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float) -> None:
        a, b = alpha, beta
        # Every utility pair builds a vector, so exact floats skip the type check.
        if type(a) is not float:
            a = _require_real(a, "utility vector alpha")
        if type(b) is not float:
            b = _require_real(b, "utility vector beta")
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            raise GambleError(f"utility vector components must lie in [0, 1], got <{a}, {b}>")
        if abs((a if a > b else b) - 1.0) > VECTOR_TOL:  # max(a, b) without its call
            raise GambleError(f"utility vector must satisfy max(alpha, beta) = 1, got <{a}, {b}>")
        _set_alpha(self, a)
        _set_beta(self, b)


_set_alpha, _set_beta = UtilityVector.alpha.__set__, UtilityVector.beta.__set__


def _require_premium(c: float) -> float:
    """The premium as a float; rejects non-numbers, NaN and |c| > ``MAX_PREMIUM``."""
    if type(c) is not float:
        c = _require_real(c, "ambiguity premium")
    if not abs(c) <= MAX_PREMIUM:
        raise GambleError(f"ambiguity premium must satisfy |c| <= {MAX_PREMIUM}, got {c}")
    return c


def logit(z: float) -> float:
    """ln(z / (1 - z)) for z strictly inside (0, 1)."""
    z = _require_unit(z, "logit argument")
    if z == 0.0 or z == 1.0:
        raise InfiniteLogitError(f"logit diverges at {z}")
    return math.log(z / (1.0 - z))


def inverse_logit(t: float) -> float:
    """The logistic function 1 / (1 + exp(-t)), computed without overflow."""
    if type(t) is not float:
        t = _require_real(t, "inverse_logit argument")
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    z = math.exp(t)
    return z / (1.0 + z)


def _canonical_pair(x: float, c: float) -> tuple[float, float]:
    """Raw (alpha, beta) for a constant x; exp is only ever taken of t <= 0."""
    if x == 0.0:
        return 0.0, 1.0
    if x == 1.0:
        return 1.0, 0.0
    t = math.log(x / (1.0 - x)) - c  # logit(x): callers have already checked x and c
    alpha = 1.0 if t >= 0.0 else math.exp(t)
    beta = 1.0 if t <= 0.0 else math.exp(-t)
    return alpha, beta


def canonical_of_value(x: float, c: float = 0.0) -> UtilityVector:
    """Vector in B equivalent to holding the constant utility ``x`` outright.

    The endpoints use the continuous limits <0, 1> and <1, 0>.  The value is
    recoverable: pricing {alpha/1, beta/0} at the same premium returns ``x``.
    """
    alpha, beta = _canonical_pair(_require_unit(x, "value"), _require_premium(c))
    return UtilityVector(alpha, beta)


def _key(u: UtilityVector) -> float:
    """ln(alpha / beta): +inf at <1, 0>, -inf at <0, 1>."""
    if u.beta == 0.0:
        return math.inf
    if u.alpha == 0.0:
        return -math.inf
    ratio = u.alpha / u.beta
    # The ratio overflows once beta < alpha / DBL_MAX (about e^-708); the
    # logs of the components do not.
    if ratio == math.inf:
        return math.log(u.alpha) - math.log(u.beta)
    return math.log(ratio)


def compare(u: UtilityVector, v: UtilityVector) -> Ordering:
    """Total order on B: higher alpha and lower beta is better.

    Along B the key ln(alpha / beta) rises monotonically from -inf at
    <0, 1> to +inf at <1, 0>, and the price is increasing in it, so this is
    the order of prices.  Keys within 2 * ``VECTOR_TOL`` of each other are
    ``equal``: a beta 5e-13 off 0.5 moves the key by just over 1e-12.
    """
    ku, kv = _key(u), _key(v)
    # Equal keys first: inf - inf is NaN.
    if ku == kv or abs(ku - kv) <= 2 * VECTOR_TOL:
        return "equal"
    return "greater" if ku > kv else "less"


def _leaf_pair(best: dict[float, float], c: float) -> tuple[float, float]:
    """Raw (alpha, beta) of a leaf map: the largest likelihood-scaled constant pair."""
    alpha = beta = 0.0
    for value, lik in best.items():
        a, b = _canonical_pair(value, c)
        a, b = lik * a, lik * b
        alpha = a if a > alpha else alpha
        beta = b if b > beta else beta
    return alpha, beta


def _utility_pair(g: Gamble, c: float) -> tuple[float, float]:
    """Raw (alpha, beta) of a gamble, from its leaf map."""
    return _leaf_pair(_leaf_likelihoods(g), c)


def _leaf_vector(best: dict[float, float], c: float) -> UtilityVector:
    """The point in B of a gamble with leaf map ``best``, under premium ``c``."""
    alpha, beta = _leaf_pair(best, _require_premium(c))
    return UtilityVector(alpha, beta)


def utility_of_gamble(g: Gamble, c: float = 0.0) -> UtilityVector:
    """The gamble's point in B under ambiguity premium ``c``.

    Constants map through :func:`canonical_of_value`; a compound gamble maps
    to the pointwise maximum of its likelihood-scaled reward vectors.
    """
    return _leaf_vector(_leaf_likelihoods(g), c)


def price_from_vector(u: UtilityVector, c: float = 0.0) -> float:
    """Invert a utility vector to the constant the holder would trade it for."""
    return inverse_logit(_key(u) + _require_premium(c))


def price(g: Gamble, c: float = 0.0) -> float:
    """Fair price in [0, 1] of a gamble under ambiguity premium ``c``."""
    return price_from_vector(utility_of_gamble(g, c), c)


def prefer(g1: Gamble, g2: Gamble, c: float = 0.0) -> Ordering:
    """Order two gambles by comparing their utility vectors."""
    return compare(utility_of_gamble(g1, c), utility_of_gamble(g2, c))


def implied_prior(observed_fair_price: float) -> tuple[float, str]:
    """Back out the prior a Bayesian would need to quote this fair-gamble price.

    For the fair gamble (evidence supporting both payoffs equally) the
    implicit prior equals the quoted price itself, and its log-odds is the
    ambiguity premium.  Returns ``(rho, classification)`` with classification
    one of ``"seeking"``, ``"neutral"``, ``"averse"``.
    """
    p = _require_unit(observed_fair_price, "observed fair price")
    if p == 0.0 or p == 1.0:
        raise InfiniteLogitError(f"price {p} implies an infinite ambiguity premium")
    c = logit(p)
    if abs(c) <= VECTOR_TOL:
        classification = "neutral"
    elif c > 0.0:
        classification = "seeking"
    else:
        classification = "averse"
    return p, classification


def canonical_equivalent(g: Gamble, c: float = 0.0) -> Gamble:
    """The canonical gamble {alpha/1, beta/0} interchangeable with ``g``.

    Its price equals the price of ``g`` at the same premium.
    """
    return _canonical_gamble(utility_of_gamble(g, c))


def _canonical_gamble(u: UtilityVector) -> Gamble:
    """The gamble {alpha/1, beta/0} of a utility vector."""
    return Gamble.from_prospects([(u.alpha, 1.0), (u.beta, 0.0)])


# Only text output rounds, so decimal loads on the first call, once per
# process, instead of at start-up; each later call pays one test of the quantum.
_PRICE_QUANTUM = None


def format_price(value: float) -> str:
    """Fixed-point string with 4 decimals, rounded half away from zero."""
    global _PRICE_QUANTUM, Decimal, ROUND_HALF_UP
    if _PRICE_QUANTUM is None:
        from decimal import ROUND_HALF_UP, Decimal

        _PRICE_QUANTUM = Decimal("0.0001")
    return str(Decimal(repr(float(value))).quantize(_PRICE_QUANTUM, rounding=ROUND_HALF_UP))
