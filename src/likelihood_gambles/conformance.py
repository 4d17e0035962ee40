"""Random gambles and an executable conformance suite for the preference laws.

The utility representation promises a bundle of algebraic laws: the order it
induces is complete and transitive, mixing respects preference, collapsing a
nested gamble or merging duplicated prospects never changes value, every
gamble sits between the constants 0 and 1, and pricing inverts the utility
of constants.  Each law is replayed here on deterministically generated
random instances; a law that cannot fail in exact arithmetic can still
betray an implementation bug or floating-point hazard, which is the point.

The harness is deterministic: instance seeds derive from the configured
seed, the property name, and the instance index, so identical configurations
yield identical reports regardless of property order.  Counterexamples are
shrunk greedily (drop a prospect, promote a nested reward) until no smaller
failing instance exists, then serialized.

``run_conformance`` accepts an alternative utility evaluator, which exists
for mutation testing: hand it a deliberately wrong recursion and the
corresponding law reports failures instead of raising.
"""

from __future__ import annotations

import collections
import hashlib
import math
import random
from typing import Any, Callable, Iterable, Sequence

from .gambles import (
    MAX_LIKELIHOOD_TOL,
    Gamble,
    GambleError,
    ModelSpec,
    Prospect,
    _compound_nodes,
    _Record,
    _set,
    _set_constant,
    _set_likelihood,
    _set_prospects,
    _set_reward,
    build_gamble,
    depth,
    flatten,
    gamble_to_json,
)
from .pricing import (
    VECTOR_TOL,
    Ordering,
    UtilityVector,
    _canonical_gamble,
    _require_premium,
    _utility_pair,
    compare,
    price_from_vector,
)

__all__ = [
    "GenConfig",
    "generate_gamble",
    "run_conformance",
]

ROUNDTRIP_TOL = 1e-9

# Constants are drawn from this lattice so duplicate-merge paths get exercised.
_LATTICE = [i / 10 for i in range(11)]
# A Gamble is immutable, so every drawn constant can share one object.
_LATTICE_GAMBLES = [Gamble(constant=x) for x in _LATTICE]

PairFn = Callable[[Gamble, float], tuple[float, float]]


class GenConfig(_Record):
    """Shape and determinism knobs for the random-gamble generator."""

    __slots__ = ("max_depth", "max_branching", "seed", "samples")

    def __init__(
        self, max_depth: int = 4, max_branching: int = 4, seed: int = 0, samples: int = 1000
    ) -> None:
        values = (max_depth, max_branching, seed, samples)
        for name, value in zip(self.__slots__, values):
            if not isinstance(value, int) or isinstance(value, bool):
                raise GambleError(f"{name} must be an integer, got {value!r}")
        if not (0 <= max_depth <= 6):
            raise GambleError(f"max_depth must be in [0, 6], got {max_depth}")
        if max_branching < 1:
            raise GambleError(f"max_branching must be >= 1, got {max_branching}")
        # A gamble has up to max_branching ** max_depth leaves; idempotence
        # draws up to max_branching likelihoods even at depth 0.
        exponent = max(max_depth, 1)
        if max_branching**exponent > 2**16:
            raise GambleError(
                "max_branching ** max(max_depth, 1) must be <= 2**16 = 65536, "
                f"got {max_branching}**{exponent}"
            )
        if samples < 0:
            raise GambleError(f"samples must be >= 0, got {samples}")
        if not (0 <= seed < 2**64):
            raise GambleError(f"seed must be an unsigned 64-bit integer, got {seed}")
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)


def _below(rng: random.Random, n: int) -> int:
    """A uniform int in [0, n), consuming the same bits as ``Random._randbelow``.

    ``choice``, ``randint`` and ``randrange`` all draw through
    ``_randbelow``: ``getrandbits(n.bit_length())``, redrawn while it is
    >= n.  Calling ``getrandbits`` directly keeps the instance stream and
    skips two or three Python frames per draw.
    """
    bits = n.bit_length()
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


def _random_likelihood(rng: random.Random) -> float:
    # Lattice draws make exact ties and zero likelihoods reachable.
    if rng.random() < 0.25:
        return _LATTICE[_below(rng, len(_LATTICE))]
    return rng.random()


# The generator's builder fills the frozen slots through their descriptors and
# skips the constructors' checks, which are about half of the draws' time.  Each
# likelihood it sets is lik / top, a float in [0, 1] whose level maximum is
# exactly 1.0, and each reward is a gamble; the normalization law re-checks both.
_new = object.__new__


def _random_gamble(rng: random.Random, depth_budget: int, max_branching: int) -> Gamble:
    if depth_budget == 0 or rng.random() < 0.3:
        return _LATTICE_GAMBLES[_below(rng, len(_LATTICE))]
    k = 1 + _below(rng, max_branching)
    # All likelihoods are drawn before any reward: the draw order is the stream.
    likelihoods = [_random_likelihood(rng) for _ in range(k)]
    top = max(likelihoods)
    if top == 0.0:
        likelihoods[_below(rng, k)] = 1.0
        top = 1.0
    depth_budget -= 1
    prospects = []
    for lik in likelihoods:
        p = _new(Prospect)
        _set_likelihood(p, lik / top)
        _set_reward(p, _random_gamble(rng, depth_budget, max_branching))
        prospects.append(p)
    g = _new(Gamble)
    _set_constant(g, None)
    _set_prospects(g, tuple(prospects))
    return g


def generate_gamble(config: GenConfig) -> Gamble:
    """A random gamble within the configured depth and branching bounds.

    Deterministic: the same config always yields the same gamble.
    """
    rng = random.Random(config.seed)
    return _random_gamble(rng, config.max_depth, config.max_branching)


def _instance_seed(seed: int, name: str, index: int) -> int:
    digest = hashlib.blake2b(
        f"{name}:{index}".encode(), digest_size=8, key=seed.to_bytes(8, "big")
    ).digest()
    return int.from_bytes(digest, "big")


# ---------------------------------------------------------------------------
# Property checks
#
# A property draws from a seeded RNG, then evaluates a pure predicate.
# `inputs` are the gambles the law checks: a failure shrinks them and reports
# them.  `aux` holds the fixed non-gamble parameters.  A law that draws no
# gamble reports its payload, the gambles built from its draw, instead.
# ---------------------------------------------------------------------------


class _Ctx(collections.namedtuple("_Ctx", ("premium", "config", "pair"))):
    """A run's premium, generator config and (alpha, beta) evaluator."""

    __slots__ = ()

    def gamble(self, rng: random.Random) -> Gamble:
        return _random_gamble(rng, self.config.max_depth, self.config.max_branching)

    def vector(self, g: Gamble) -> UtilityVector:
        a, b = self.pair(g, self.premium)
        return UtilityVector(a, b)

    def price(self, g: Gamble) -> float:
        return price_from_vector(self.vector(g), self.premium)

    def prefer(self, g1: Gamble, g2: Gamble) -> Ordering:
        return compare(self.vector(g1), self.vector(g2))


def _payload_gambles(inputs: tuple, aux: dict) -> Any:
    gambles = [gamble_to_json(g) for g in inputs]
    return gambles[0] if len(gambles) == 1 else gambles


# draw(rng, ctx) -> (inputs, aux); holds(inputs, aux, ctx) -> bool; payload(inputs, aux).
_Law = collections.namedtuple("_Law", ("draw", "holds", "payload"), defaults=(_payload_gambles,))


def _close(p: tuple[float, float], q: tuple[float, float]) -> bool:
    return abs(p[0] - q[0]) <= VECTOR_TOL and abs(p[1] - q[1]) <= VECTOR_TOL


def _draw(count: int) -> Callable[[random.Random, _Ctx], tuple[tuple, dict]]:
    """The draw of ``count`` gambles, one after another from the same RNG."""
    def draw(rng: random.Random, ctx: _Ctx) -> tuple[tuple, dict]:
        return tuple([ctx.gamble(rng) for _ in range(count)]), {}

    return draw


def _check_normalization(inputs: tuple, aux: dict, ctx: _Ctx) -> bool:
    # What the generator's builder promises in place of the constructors'
    # checks.  A node's rewards are checked before the walk resumes, because
    # resuming reads each reward's constant.
    for _, node in _compound_nodes(inputs[0]):
        likelihoods = [p.likelihood for p in node.prospects]
        if not (
            all(type(lik) is float and 0.0 <= lik <= 1.0 for lik in likelihoods)
            and abs(max(likelihoods) - 1.0) <= MAX_LIKELIHOOD_TOL
            and all(isinstance(p.reward, Gamble) for p in node.prospects)
        ):
            return False
    return True


def _check_flatten_soundness(inputs: tuple, aux: dict, ctx: _Ctx) -> bool:
    flat = flatten(inputs[0])
    return depth(flat) <= 1 and flatten(flat) == flat


def _check_flatten_utility(inputs: tuple, aux: dict, ctx: _Ctx) -> bool:
    (g,) = inputs
    return _close(ctx.pair(g, ctx.premium), ctx.pair(flatten(g), ctx.premium))


def _draw_idempotence(rng: random.Random, ctx: _Ctx) -> tuple[tuple, dict]:
    reward = ctx.gamble(rng)
    count = 1 + _below(rng, ctx.config.max_branching)
    likelihoods = [_random_likelihood(rng) for _ in range(count)]
    likelihoods[_below(rng, count)] = 1.0
    return (reward,), {"likelihoods": likelihoods}


def _check_idempotence(inputs: tuple, aux: dict, ctx: _Ctx) -> bool:
    (reward,) = inputs
    duplicated = Gamble.from_prospects((lik, reward) for lik in aux["likelihoods"])
    return ctx.pair(duplicated, ctx.premium) == ctx.pair(reward, ctx.premium)


def _draw_partition(rng: random.Random, ctx: _Ctx) -> tuple[tuple, dict]:
    g = ctx.gamble(rng)
    for _ in range(8):
        if not g.is_constant and len(g.prospects) >= 2:
            break
        g = ctx.gamble(rng)
    return (g,), {"selector": rng.getrandbits(60)}


def _check_partition(inputs: tuple, aux: dict, ctx: _Ctx) -> bool:
    (g,) = inputs
    if g.is_constant or len(g.prospects) < 2:
        return True
    n = len(g.prospects)
    chosen = [i for i in range(n) if (aux["selector"] >> (i % 60)) & 1]
    if not chosen:
        chosen = [0]
    if len(chosen) == n:
        chosen.pop()
    group = [g.prospects[i] for i in chosen]
    grouped = set(chosen)
    rest = [g.prospects[i] for i in range(n) if i not in grouped]
    group_top = max(p.likelihood for p in group)
    if group_top == 0.0:
        return True
    inner = Gamble(
        prospects=tuple(Prospect(p.likelihood / group_top, p.reward) for p in group)
    )
    regrouped = Gamble(prospects=(Prospect(group_top, inner), *rest))
    return _close(ctx.pair(g, ctx.premium), ctx.pair(regrouped, ctx.premium))


def _check_bounds(inputs: tuple, aux: dict, ctx: _Ctx) -> bool:
    (g,) = inputs
    top = ctx.vector(_LATTICE_GAMBLES[-1])
    bottom = ctx.vector(_LATTICE_GAMBLES[0])
    u = ctx.vector(g)
    if compare(top, u) == "less" or compare(u, bottom) == "less":
        return False
    return 0.0 <= price_from_vector(u, ctx.premium) <= 1.0


def _draw_independence(rng: random.Random, ctx: _Ctx) -> tuple[tuple, dict]:
    inputs = (ctx.gamble(rng), ctx.gamble(rng), ctx.gamble(rng))
    mix = [_random_likelihood(rng), _random_likelihood(rng)]
    mix[_below(rng, 2)] = 1.0
    return inputs, {"mix": tuple(mix)}


def _check_independence(inputs: tuple, aux: dict, ctx: _Ctx) -> bool:
    f, g, h = inputs
    if ctx.prefer(f, g) == "less":
        f, g = g, f
    a1, a2 = aux["mix"]
    mixed_f = Gamble.from_prospects([(a1, f), (a2, h)])
    mixed_g = Gamble.from_prospects([(a1, g), (a2, h)])
    return ctx.prefer(mixed_f, mixed_g) != "less"


_RANK = {"greater": 1, "equal": 0, "less": -1}


def _check_transitivity(inputs: tuple, aux: dict, ctx: _Ctx) -> bool:
    f, g, h = inputs
    uf, ug, uh = ctx.vector(f), ctx.vector(g), ctx.vector(h)
    ofg, ogh, ofh = compare(uf, ug), compare(ug, uh), compare(uf, uh)
    if _RANK[ofg] != -_RANK[compare(ug, uf)]:
        return False
    if _RANK[ofg] >= 0 and _RANK[ogh] >= 0 and _RANK[ofh] < 0:
        return False
    if _RANK[ofg] <= 0 and _RANK[ogh] <= 0 and _RANK[ofh] > 0:
        return False
    return True


def _draw_constants(rng: random.Random, ctx: _Ctx) -> tuple[tuple, dict]:
    if rng.random() < 0.5:
        x, y = _LATTICE[_below(rng, len(_LATTICE))], _LATTICE[_below(rng, len(_LATTICE))]
    else:
        x, y = rng.random(), rng.random()
    if x < y:
        x, y = y, x
    if x != y and x - y < 1e-11:
        # logit's slope is at least 4, so constants d apart are at least 4d
        # apart in the order key, past its 2e-12 tie tolerance once d > 5e-13.
        # Widening gaps below 1e-11 leaves a margin for rounding in the
        # canonical pair, whose small component is subnormal near |c| = 700.
        y = max(0.0, x - 0.01)
    return (Gamble.from_value(x), Gamble.from_value(y)), {}


def _check_numerical_order(inputs: tuple, aux: dict, ctx: _Ctx) -> bool:
    gx, gy = inputs
    outcome = ctx.prefer(gx, gy)
    if gx.constant == gy.constant:
        return outcome == "equal"
    return outcome == "greater"


def _check_archimedean(inputs: tuple, aux: dict, ctx: _Ctx) -> bool:
    f, g, h = inputs
    uf, ug, uh = ctx.vector(f), ctx.vector(g), ctx.vector(h)
    if compare(uf, ug) == "less":
        f, g, uf, ug = g, f, ug, uf
    if compare(ug, uh) == "less":
        g, h, ug, uh = h, g, uh, ug
        if compare(uf, ug) == "less":
            f, g, uf, ug = g, f, ug, uf
    if compare(uf, ug) != "greater" or compare(ug, uh) != "greater":
        return True
    # Witness above g: keep f at weight 1 and shade h until the mixture wins.
    if uh.beta > 0.0 and ug.beta > uf.beta:
        a2 = min(1.0, 0.5 * (uf.beta + ug.beta) / uh.beta)
    else:
        a2 = 1.0
    for _ in range(80):
        mixture = Gamble.from_prospects([(1.0, f), (a2, h)])
        if compare(ctx.vector(mixture), ug) == "greater":
            break
        a2 /= 2.0
    else:
        return False
    # Witness below g: keep h at weight 1 and shade f.
    if uf.alpha > 0.0 and ug.alpha > uh.alpha:
        b1 = min(1.0, 0.5 * (ug.alpha + uh.alpha) / uf.alpha)
    else:
        b1 = 1.0
    for _ in range(80):
        mixture = Gamble.from_prospects([(b1, f), (1.0, h)])
        if compare(ctx.vector(mixture), ug) == "less":
            return True
        b1 /= 2.0
    return False


def _draw_roundtrip(rng: random.Random, ctx: _Ctx) -> tuple[tuple, dict]:
    return (Gamble.from_value(rng.random()),), {}


def _check_roundtrip(inputs: tuple, aux: dict, ctx: _Ctx) -> bool:
    (g,) = inputs
    return abs(ctx.price(g) - g.constant) <= ROUNDTRIP_TOL


def _check_canonical_price(inputs: tuple, aux: dict, ctx: _Ctx) -> bool:
    (g,) = inputs
    u = ctx.vector(g)
    return abs(ctx.price(_canonical_gamble(u)) - price_from_vector(u, ctx.premium)) <= VECTOR_TOL


def _draw_monotonicity(rng: random.Random, ctx: _Ctx) -> tuple[tuple, dict]:
    return (), {"pair": tuple(sorted((rng.random(), rng.random())))}


def _check_price_monotonicity(inputs: tuple, aux: dict, ctx: _Ctx) -> bool:
    low, high = aux["pair"]

    def canonical_price(alpha: float, beta: float) -> float:
        return ctx.price(_canonical_gamble(UtilityVector(alpha, beta)))

    # Lower beta cannot hurt, higher alpha cannot hurt, and the top border
    # always weakly beats the right border.
    top_low = canonical_price(1.0, low)
    if top_low < canonical_price(1.0, high):
        return False
    if canonical_price(high, 1.0) < canonical_price(low, 1.0):
        return False
    return top_low >= canonical_price(low, 1.0)


def _payload_monotonicity(inputs: tuple, aux: dict) -> Any:
    return [gamble_to_json(_canonical_gamble(UtilityVector(1.0, lik))) for lik in aux["pair"]]


def _check_zero_prospect(inputs: tuple, aux: dict, ctx: _Ctx) -> bool:
    g, extra = inputs
    if g.is_constant:
        g = Gamble.from_prospects([(1.0, g)])
    padded = Gamble(prospects=(*g.prospects, Prospect(0.0, extra)))
    return ctx.pair(padded, ctx.premium) == ctx.pair(g, ctx.premium)


def _random_models(rng: random.Random) -> tuple[list[ModelSpec], list[float]]:
    count = 1 + _below(rng, 4)
    outcomes = [f"o{i}" for i in range(2 + _below(rng, 3))]
    models = []
    for _ in range(count):
        weights = [rng.random() + 1e-9 for _ in outcomes]
        total = math.fsum(weights)
        models.append(
            ModelSpec(
                probabilities={o: w / total for o, w in zip(outcomes, weights)},
                payoff={o: _LATTICE[_below(rng, len(_LATTICE))] for o in outcomes},
            )
        )
    evidence = [rng.random() for _ in range(count)]
    evidence[_below(rng, count)] = max(max(evidence), 0.5)
    return models, evidence


def _draw_evidence_scaling(rng: random.Random, ctx: _Ctx) -> tuple[tuple, dict]:
    models, evidence = _random_models(rng)
    return (), {
        "models": models,
        "evidence": evidence,
        "pow2": 2.0 ** (_below(rng, 33) - 16),
        "factor": rng.uniform(0.01, 100.0),
    }


def _check_evidence_scaling(inputs: tuple, aux: dict, ctx: _Ctx) -> bool:
    models, evidence = aux["models"], aux["evidence"]
    base = build_gamble(models, evidence)
    # Power-of-two scaling is exactly representable, so equality is structural.
    exact = build_gamble(models, [aux["pow2"] * e for e in evidence])
    if exact != base:
        return False
    # An arbitrary factor can wiggle each likelihood by one ulp; the priced
    # value and the induced preference must still agree at tolerance.
    scaled = build_gamble(models, [aux["factor"] * e for e in evidence])
    us, ub = ctx.vector(scaled), ctx.vector(base)
    if abs(price_from_vector(us, ctx.premium) - price_from_vector(ub, ctx.premium)) > VECTOR_TOL:
        return False
    return compare(us, ub) == "equal"


def _payload_evidence(inputs: tuple, aux: dict) -> Any:
    return gamble_to_json(build_gamble(aux["models"], aux["evidence"]))


def _draw_model_permutation(rng: random.Random, ctx: _Ctx) -> tuple[tuple, dict]:
    models, evidence = _random_models(rng)
    order = list(range(len(models)))
    rng.shuffle(order)
    return (), {"models": models, "evidence": evidence, "order": order}


def _check_model_permutation(inputs: tuple, aux: dict, ctx: _Ctx) -> bool:
    models, evidence, order = aux["models"], aux["evidence"], aux["order"]
    base = build_gamble(models, evidence)
    permuted = build_gamble([models[i] for i in order], [evidence[i] for i in order])
    return permuted == base


def _check_totality(inputs: tuple, aux: dict, ctx: _Ctx) -> bool:
    g1, g2 = inputs
    u, v = ctx.vector(g1), ctx.vector(g2)
    if _RANK[compare(u, v)] != -_RANK[compare(v, u)]:
        return False
    return compare(u, u) == "equal"


_PROPERTIES: dict[str, _Law] = {
    "normalization": _Law(_draw(1), _check_normalization),
    "flatten_soundness": _Law(_draw(1), _check_flatten_soundness),
    "flatten_preserves_utility": _Law(_draw(1), _check_flatten_utility),
    "idempotence": _Law(_draw_idempotence, _check_idempotence),
    "partition_substitution": _Law(_draw_partition, _check_partition),
    "bounds": _Law(_draw(1), _check_bounds),
    "weak_independence": _Law(_draw_independence, _check_independence),
    "transitivity": _Law(_draw(3), _check_transitivity),
    "numerical_order": _Law(_draw_constants, _check_numerical_order),
    "archimedean_witness": _Law(_draw(3), _check_archimedean),
    "price_roundtrip": _Law(_draw_roundtrip, _check_roundtrip),
    "canonical_price_equality": _Law(_draw(1), _check_canonical_price),
    "price_monotonicity": _Law(_draw_monotonicity, _check_price_monotonicity, _payload_monotonicity),
    "zero_prospect_inert": _Law(_draw(2), _check_zero_prospect),
    "evidence_scaling": _Law(_draw_evidence_scaling, _check_evidence_scaling, _payload_evidence),
    "model_permutation": _Law(_draw_model_permutation, _check_model_permutation, _payload_evidence),
    "compare_totality": _Law(_draw(2), _check_totality),
}


def property_names() -> list[str]:
    """Names of every law the suite can check, in execution order."""
    return list(_PROPERTIES)


# ---------------------------------------------------------------------------
# Shrinking and reporting
# ---------------------------------------------------------------------------


def _built(prospects: Iterable[Prospect]) -> list[Gamble]:
    """``[Gamble(prospects=tuple(prospects))]``, or ``[]`` when a constructor's check fails.

    The generator's builder skips those checks, so a shrink of a faulty
    drawn level can fail one; that candidate is skipped, not raised.
    """
    try:
        return [Gamble(prospects=tuple(prospects))]
    except GambleError:
        return []


def _shrink_candidates(g: Gamble) -> Iterable[Gamble]:
    if g.is_constant:
        return
    prospects = g.prospects
    for p in prospects:
        yield p.reward
    if len(prospects) > 1:
        for i in range(len(prospects)):
            rest = prospects[:i] + prospects[i + 1 :]
            top = max(p.likelihood for p in rest)
            if top == 0.0:
                continue
            yield from _built(Prospect(p.likelihood / top, p.reward) for p in rest)
    for i, p in enumerate(prospects):
        for candidate in _shrink_candidates(p.reward):
            yield from _built(
                Prospect(q.likelihood, candidate) if j == i else q for j, q in enumerate(prospects)
            )


def _trials(inputs: tuple) -> Iterable[tuple]:
    """``inputs`` with one gamble swapped for each of its shrink candidates, in order."""
    for i, g in enumerate(inputs):
        for candidate in _shrink_candidates(g):
            yield inputs[:i] + (candidate,) + inputs[i + 1 :]


def _shrink(inputs: tuple, aux: dict, prop: _Law, ctx: _Ctx) -> tuple:
    while True:
        for trial in _trials(inputs):
            try:
                still_failing = not prop.holds(trial, aux, ctx)
            except GambleError:
                still_failing = True
            if still_failing:
                inputs = trial
                break
        else:
            return inputs


class PropertyResult(_Record):
    """Outcome of one law over all sampled instances."""

    __slots__ = ("name", "samples", "failures", "seed", "counterexample")

    def __init__(
        self,
        name: str,
        samples: int,
        failures: int,
        seed: int | None = None,
        counterexample: Any | None = None,
    ) -> None:
        _set(self, "name", name)
        _set(self, "samples", samples)
        _set(self, "failures", failures)
        _set(self, "seed", seed)
        _set(self, "counterexample", counterexample)

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json(self) -> dict[str, Any]:
        return {
            "property": self.name,
            "samples": self.samples,
            "failures": self.failures,
            "seed": self.seed,
            "counterexample": self.counterexample,
        }


class ConformanceReport(_Record):
    __slots__ = ("results",)

    def __init__(self, results: tuple[PropertyResult, ...]) -> None:
        _set(self, "results", results)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> list[dict[str, Any]]:
        return [r.to_json() for r in self.results]

    def summary(self) -> str:
        lines = []
        for r in self.results:
            status = "pass" if r.passed else "FAIL"
            lines.append(f"{status}  {r.name}: {r.failures}/{r.samples} failures")
        return "\n".join(lines)


# Each law's instances run in W interleaved strides (index = k mod W).  Stride
# 0 runs in the caller; strides 1..W-1 run in forked children (``_fork``),
# which inherit the laws, the evaluator and the config.  An instance at depth
# 4-5 and branching 3-4 took 60-96 us on a 2-vCPU VM, and one forked worker's
# fork, pipe and join 2-3 ms at the median and up to 7 ms, so 1,000 instances
# are about ten times the slowest fork overhead: 10 * 7 ms / 60-96 us is
# 730-1,170 instances.
_MIN_INSTANCES_PER_WORKER = 1000

# Per law: the failure count and (index, seed, counterexample) of the
# stride's first failure, or None.  Plain data, so a child sends it by marshal.
_StrideOutcome = list[tuple[int, tuple[int, int, Any] | None]]


def _run_stride(selected: Sequence[str], ctx: _Ctx, start: int, step: int) -> _StrideOutcome:
    """Replay instances start, start + step, ... of every selected law."""
    outcome = []
    for name in selected:
        prop = _PROPERTIES[name]
        failures = 0
        first = None
        for index in range(start, ctx.config.samples, step):
            seed = _instance_seed(ctx.config.seed, name, index)
            rng = random.Random(seed)
            inputs: tuple = ()
            aux: dict = {}
            try:
                inputs, aux = prop.draw(rng, ctx)
                ok = prop.holds(inputs, aux, ctx)
            except GambleError:
                ok = False
            if not ok:
                failures += 1
                if first is None:
                    shrunk = _shrink(inputs, aux, prop, ctx)
                    try:
                        counterexample = prop.payload(shrunk, aux)
                    except GambleError:
                        counterexample = None
                    first = (index, seed, counterexample)
        outcome.append((failures, first))
    return outcome


def _worker_count(instances: int) -> int:
    """How many processes replay ``instances`` instances: one per usable CPU, within limits."""
    if instances < 2 * _MIN_INSTANCES_PER_WORKER:
        return 1  # too few for a second worker, so the fork helper is not even loaded
    from . import _fork

    return min(_fork.usable_cpus(), instances // _MIN_INSTANCES_PER_WORKER)


def run_conformance(
    config: GenConfig,
    c: float = 0.0,
    properties: Iterable[str] | None = None,
    utility_fn: PairFn | None = None,
) -> ConformanceReport:
    """Replay the preference laws on random instances and report per-law results.

    ``properties`` restricts the run to a subset of :func:`property_names`,
    each named once (a string is rejected, not read as letters);
    ``utility_fn`` substitutes the raw (alpha, beta) evaluator, which lets a
    test prove the suite catches a broken implementation.  Failures are
    report content, not exceptions.  A large run replays its instances in one
    process per usable CPU; the report is the same for any number.
    """
    c = _require_premium(c)
    if isinstance(properties, str):
        raise GambleError(f"properties must be a collection of law names, got {properties!r}")
    selected = list(_PROPERTIES if properties is None else properties)
    unknown = [name for name in selected if name not in _PROPERTIES]
    if unknown:
        raise GambleError(f"unknown properties: {unknown}")
    repeated = sorted({name for name in selected if selected.count(name) > 1})
    if repeated:
        raise GambleError(f"repeated properties: {repeated}")
    ctx = _Ctx(premium=c, config=config, pair=utility_fn or _utility_pair)
    workers = _worker_count(config.samples * len(selected))
    outcomes = None
    if workers > 1:
        from . import _fork

        calls = [lambda k=k: _run_stride(selected, ctx, k, workers) for k in range(workers)]
        try:
            outcomes = _fork.run_forked(calls)
        except Exception:
            pass
    if outcomes is None or None in outcomes:
        # The one-process run, and the rerun that raises what a stride raised.
        outcomes = [_run_stride(selected, ctx, 0, 1)]
    results = []
    for i, name in enumerate(selected):
        failures = sum(outcome[i][0] for outcome in outcomes)
        firsts = [outcome[i][1] for outcome in outcomes if outcome[i][1] is not None]
        # Indices differ across strides: the smallest is the one-process first failure.
        _, seed, counterexample = min(firsts, key=lambda first: first[0], default=(None,) * 3)
        results.append(PropertyResult(name, config.samples, failures, seed, counterexample))
    return ConformanceReport(tuple(results))
