"""Recursive likelihood gambles.

A gamble is either a constant utility in [0, 1] or a finite, nonempty set of
prospects.  A prospect pairs a normalized likelihood with a reward, and the
reward may itself be a gamble, nested to any finite depth.  Likelihoods inside
a compound gamble are normalized so that the largest one equals 1: dividing a
likelihood function by its maximum loses no information, because proportional
likelihood functions carry identical evidence about the competing models.

Gambles arise from a concrete decision problem: given a finite set of
candidate probability models, an action scored in utility, and observed data,
each model contributes one prospect (its normalized likelihood of the data,
its expected utility of the action).  ``build_gamble`` performs exactly that
construction from :class:`ModelSpec` values and raw evidence probabilities.

Structural reductions live here too.  ``flatten`` rewrites any gamble into an
equivalent one of depth <= 1 by multiplying likelihoods down each path and
merging duplicate constant rewards under the maximum likelihood; the utility
layer (:mod:`likelihood_gambles.pricing`) is invariant under this rewrite.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Iterable, Iterator, Mapping, Sequence
from typing import IO, Any

__all__ = [
    "GambleError",
    "DegenerateEvidenceError",
    "InvalidModelError",
    "InfiniteLogitError",
    "Prospect",
    "Gamble",
    "ModelSpec",
    "expected_utility",
    "normalize_likelihoods",
    "build_gamble",
    "depth",
    "flatten",
    "gamble_to_json",
    "gamble_from_json",
    "dump_gamble",
    "load_gamble",
]

# Compound gambles must have max prospect likelihood equal to 1 within this.
MAX_LIKELIHOOD_TOL = 1e-12
# Model outcome probabilities must sum to 1 within this.
PROB_SUM_TOL = 1e-9


class GambleError(ValueError):
    """Base error for invalid gambles, models, or evidence."""


class DegenerateEvidenceError(GambleError):
    """The observed data has probability zero under every candidate model."""


class InvalidModelError(GambleError):
    """A model specification violates its contract."""


class InfiniteLogitError(GambleError):
    """logit() was requested at 0 or 1, where it diverges."""


def _require_real(value: Any, name: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise GambleError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _require_unit(value: Any, name: str) -> float:
    x = _require_real(value, name)
    if not (0.0 <= x <= 1.0):  # also rejects NaN
        raise GambleError(f"{name} must lie in [0, 1], got {x}")
    return x


class _Record:
    """Base of the package's immutable records, whose fields are the class's ``__slots__``.

    It acts as a class that ``dataclasses`` makes with ``frozen=True`` does,
    without loading that module at start-up.  Setting or deleting an
    attribute raises ``FrozenInstanceError``.  Records of one class are equal
    when their fields are, the hash is the field tuple's, and the repr is
    ``Name(field=value, ...)``.  Each record writes its own ``__init__``,
    which checks its arguments and sets the slots past ``__setattr__``.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: Any) -> None:
        from dataclasses import FrozenInstanceError  # loaded only to raise

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return type(self), self._fields()


# Sets a record's slot past its __setattr__.
_set = object.__setattr__


class Prospect(_Record):
    """One (likelihood, reward) pair: a model in the context of data and an action."""

    __slots__ = ("likelihood", "reward")

    def __init__(self, likelihood: float, reward: Gamble) -> None:
        # An in-range float needs no conversion; anything else is checked,
        # coerced or rejected by _require_unit.
        if not (type(likelihood) is float and 0.0 <= likelihood <= 1.0):
            likelihood = _require_unit(likelihood, "likelihood")
        if not isinstance(reward, Gamble):
            raise GambleError(f"reward must be a Gamble, got {type(reward).__name__}")
        _set_likelihood(self, likelihood)
        _set_reward(self, reward)


class Gamble(_Record):
    """A constant utility in [0, 1] or a nonempty tuple of prospects.

    Exactly one of ``constant`` / ``prospects`` is populated.  Compound
    gambles require their maximum prospect likelihood to equal 1 within
    ``MAX_LIKELIHOOD_TOL``.  Instances are immutable and safe to share.

    Equality is structural on the flattened, duplicate-merged,
    likelihood-sorted form, which is a decidable stand-in for preference
    equivalence: two gambles that reduce to the same normal form are
    interchangeable in every context.
    """

    __slots__ = ("constant", "prospects")

    def __init__(
        self, constant: float | None = None, prospects: tuple[Prospect, ...] = ()
    ) -> None:
        if prospects and type(prospects) is not tuple:
            try:
                items = iter(prospects)
            except TypeError:
                kind = type(prospects).__name__
                raise GambleError(f"prospects must be an iterable, got {kind}") from None
            prospects = tuple(items)
        if (constant is None) == (not prospects):
            raise GambleError("a gamble is either a constant or a nonempty set of prospects")
        if constant is not None:
            if not (type(constant) is float and 0.0 <= constant <= 1.0):
                constant = _require_unit(constant, "constant")
        else:
            try:
                top = max([p.likelihood for p in prospects])
            except AttributeError:
                kind = next(type(p).__name__ for p in prospects if not isinstance(p, Prospect))
                raise GambleError(f"prospects must be Prospect objects, got {kind}") from None
            if abs(top - 1.0) > MAX_LIKELIHOOD_TOL:
                raise GambleError(f"maximum prospect likelihood must be 1, got {top}")
        _set_constant(self, constant)
        _set_prospects(self, prospects)

    @classmethod
    def from_value(cls, value: float) -> "Gamble":
        """Constant gamble worth ``value`` utility."""
        return cls(constant=value)

    @classmethod
    def from_prospects(cls, pairs: Iterable[tuple[float, Gamble | float | int]]) -> "Gamble":
        """Compound gamble from (likelihood, reward) pairs; bare numbers become constants."""
        prospects = tuple(
            Prospect(lik, reward if isinstance(reward, Gamble) else Gamble(constant=reward))
            for lik, reward in pairs
        )
        return cls(prospects=prospects)

    @property
    def is_constant(self) -> bool:
        return self.constant is not None

    def _normal_key(self) -> tuple:
        """The constant, or the (likelihood, constant) pairs of the flattened form."""
        if self.is_constant:
            return ("constant", self.constant)
        return ("prospects", tuple(zip(*_normal_columns(_leaf_likelihoods(self)))))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gamble):
            return NotImplemented
        return self._normal_key() == other._normal_key()

    def __hash__(self) -> int:
        return hash(self._normal_key())

    def __repr__(self) -> str:
        """The paper's notation, e.g. ``Gamble({1.0/Gamble(0.5), 0.8/Gamble(0.4)})``."""
        return _write(self, _REPR_TOKENS)


# The slot descriptors' setters: the cheapest way to fill the two records
# that are built most, here and by the conformance generator's builder.
_set_likelihood, _set_reward = Prospect.likelihood.__set__, Prospect.reward.__set__
_set_constant, _set_prospects = Gamble.constant.__set__, Gamble.prospects.__set__


class ModelSpec(_Record):
    """A probability model over outcome labels plus an action's payoff table.

    ``probabilities`` must be nonnegative and sum to 1 within
    ``PROB_SUM_TOL``; ``payoff`` values are utilities in [0, 1].  A payoff is
    required for every outcome that has positive probability.
    """

    __slots__ = ("probabilities", "payoff")

    def __init__(self, probabilities: Mapping[str, float], payoff: Mapping[str, float]) -> None:
        for key, table in (("probabilities", probabilities), ("payoff", payoff)):
            if not isinstance(table, Mapping):
                kind = type(table).__name__
                raise InvalidModelError(f"{key!r} must be a JSON object, got {kind}")
        try:
            probs = {
                str(k): _require_real(v, f"probability of {k!r}") for k, v in probabilities.items()
            }
            pays = {str(k): _require_unit(v, f"payoff[{k!r}]") for k, v in payoff.items()}
        except GambleError as exc:
            raise InvalidModelError(str(exc)) from None
        if not probs:
            raise InvalidModelError("a model needs at least one outcome")
        for k, v in probs.items():
            if not (v >= 0.0) or math.isinf(v):
                raise InvalidModelError(f"probability of {k!r} must be finite and >= 0, got {v}")
        total = math.fsum(probs.values())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise InvalidModelError(f"outcome probabilities sum to {total}, expected 1")
        _set(self, "probabilities", probs)
        _set(self, "payoff", pays)


def expected_utility(model: ModelSpec) -> float:
    """Probability-weighted payoff of the action under one model.

    Raises :class:`InvalidModelError` if an outcome with positive probability
    has no payoff entry.
    """
    total = 0.0
    for outcome, prob in model.probabilities.items():
        if prob == 0.0:
            continue
        if outcome not in model.payoff:
            raise InvalidModelError(f"no payoff for outcome {outcome!r} with probability {prob}")
        total += prob * model.payoff[outcome]
    return min(1.0, max(0.0, total))


def normalize_likelihoods(raw: Sequence[float]) -> list[float]:
    """Divide raw likelihoods by their maximum so the largest becomes exactly 1.

    Raises :class:`DegenerateEvidenceError` when every entry is zero (the data
    is impossible under every model) and :class:`GambleError` on negative or
    non-finite entries.
    """
    values = []
    for v in raw:
        x = v if type(v) is float else _require_real(v, "likelihood")
        if not (0.0 <= x < math.inf):  # also rejects NaN
            raise GambleError(f"likelihoods must be finite and >= 0, got {v}")
        values.append(x)
    if not values:
        raise GambleError("need at least one likelihood")
    top = max(values)
    if top == 0.0:
        raise DegenerateEvidenceError("evidence has probability 0 under every model")
    return [x / top for x in values]


def build_gamble(models: Sequence[ModelSpec], evidence_probabilities: Sequence[float]) -> Gamble:
    """Encode an action over several models, given data, as a likelihood gamble.

    Each model contributes the prospect (its likelihood of the evidence
    normalized across models, a constant reward equal to its expected
    utility).  Scaling all evidence probabilities by a positive factor leaves
    the result unchanged.
    """
    if len(models) != len(evidence_probabilities) or not models:
        raise GambleError("models and evidence probabilities must have equal nonzero length")
    likelihoods = normalize_likelihoods(evidence_probabilities)
    return Gamble.from_prospects(
        (lik, expected_utility(model)) for lik, model in zip(likelihoods, models)
    )


def _compound_nodes(g: Gamble) -> Iterator[tuple[int, Gamble]]:
    """(level, node) for each compound node in ``g``, the root at level 1, off a stack."""
    stack = [] if g.constant is not None else [(1, g)]
    while stack:
        level, node = stack.pop()
        yield level, node
        stack.extend((level + 1, p.reward) for p in node.prospects if p.reward.constant is None)


def depth(g: Gamble) -> int:
    """Nesting depth: 0 for constants, 1 + deepest reward otherwise."""
    return max((level for level, _ in _compound_nodes(g)), default=0)


def _leaf_likelihoods(g: Gamble) -> dict[float, float]:
    """Each constant reachable from ``g`` mapped to its largest path likelihood.

    A path's likelihood is the product of the likelihoods from the root down
    to the constant.  Flattening, equality and utility all read this map, and
    utility loses nothing by it: scaling by a nonnegative likelihood is
    monotone, so the maximum distributes over paths and only the likeliest
    path to each constant can attain it.  Compound rewards wait on an
    explicit stack, so depth is bounded by memory, not by recursion.
    """
    if g.is_constant:
        return {g.constant: 1.0}
    best: dict[float, float] = {}
    stack: list[tuple[float, Gamble]] = [(1.0, g)]
    while stack:
        scale, node = stack.pop()
        for p in node.prospects:
            lik = scale * p.likelihood
            reward = p.reward
            if reward.constant is None:
                stack.append((lik, reward))
            elif lik > best.get(reward.constant, -1.0):
                best[reward.constant] = lik
    return best


def _document_leaves(doc: Any) -> dict[float, float] | None:
    """``_leaf_likelihoods(gamble_from_json(doc))`` for a compound ``doc``
    read straight from the decoded document, or None.

    It walks the levels in the leaf walk's last-in-first-out order, so the
    keys come out in the same order, and it uses the loader's arithmetic:
    each level divided by its maximum, then scaled by its path.  It accepts
    only exact dicts, lists and in-range floats, and returns None on
    anything else, on a level whose maximum is 0 and on a constant root: the
    caller then runs the loader, which raises the first error in document
    order, or builds what this walk does not read.
    """
    if type(doc) is not dict or "constant" in doc:
        return None
    best: dict[float, float] = {}
    stack: list[tuple[float, dict]] = [(1.0, doc)]
    while stack:
        scale, node = stack.pop()
        entries = node.get("prospects")
        if type(entries) is not list or not entries:
            return None
        raw = []
        for entry in entries:
            if type(entry) is not dict:
                return None
            lik = entry.get("likelihood")
            if type(lik) is not float or not 0.0 <= lik < math.inf:  # also rejects NaN
                return None
            raw.append(lik)
        top = max(raw)
        if top == 0.0:
            return None
        for lik, entry in zip(raw, entries):
            lik = scale * (lik / top)
            reward = entry.get("reward")
            if type(reward) is not dict:
                return None
            if "constant" not in reward:
                stack.append((lik, reward))
                continue
            value = reward["constant"]
            if type(value) is not float or not 0.0 <= value <= 1.0 or "prospects" in reward:
                return None
            if lik > best.get(value, -1.0):
                best[value] = lik
    return best


def _normal_columns(best: dict[float, float]) -> tuple[list[float], list[float]]:
    """Likelihoods and constants of the flattened form of a leaf map.

    Ordered by likelihood (descending), then value: two stable sorts on
    float keys, the second reversed, which keeps the first's order on ties.
    """
    top = max(best.values())
    if top != 1.0:
        # Tolerated drift from within-tolerance inputs; restore exactness.
        best = {value: lik / top for value, lik in best.items()}
    values = sorted(best)
    values.sort(key=best.__getitem__, reverse=True)
    return list(map(best.__getitem__, values)), values


def flatten(g: Gamble) -> Gamble:
    """Equivalent gamble of depth <= 1.

    Each reachable constant becomes one prospect carrying its largest path
    likelihood, ordered by likelihood (descending), then value.  Constants
    pass through unchanged; the reduction preserves utility for every
    ambiguity premium.
    """
    if g.is_constant:
        return g
    likelihoods, values = _normal_columns(_leaf_likelihoods(g))
    return Gamble(prospects=tuple(map(Prospect, likelihoods, map(Gamble.from_value, values))))


# ---------------------------------------------------------------------------
# JSON wire formats
#
# Gamble:  {"constant": 0.5}
#          {"prospects": [{"likelihood": 1.0, "reward": {"constant": 0.5}}, ...]}
# ---------------------------------------------------------------------------


def gamble_to_json(g: Gamble) -> dict[str, Any]:
    """Plain-dict form of a gamble, mirroring the JSON file format.

    Compound rewards wait on an explicit stack beside the dict each fills.
    """
    if g.constant is not None:
        return {"constant": g.constant}
    root: dict[str, Any] = {}
    stack = [(g, root)]
    while stack:
        node, out = stack.pop()
        entries = out["prospects"] = []
        for p in node.prospects:
            reward = p.reward
            if reward.constant is None:
                filled: dict[str, Any] = {}
                stack.append((reward, filled))
            else:
                filled = {"constant": reward.constant}
            entries.append({"likelihood": p.likelihood, "reward": filled})
    return root


def _entries(node: Any) -> list | None:
    """The prospect list of a decoded gamble node, or None for a constant node."""
    if not isinstance(node, dict):
        raise GambleError(f"expected a JSON object, got {type(node).__name__}")
    if "constant" in node:
        if "prospects" in node:
            raise GambleError("gamble object has both 'constant' and 'prospects' keys")
        return None
    if "prospects" not in node:
        raise GambleError("gamble object needs a 'constant' or 'prospects' key")
    entries = node["prospects"]
    if not isinstance(entries, list) or not entries:
        raise GambleError("'prospects' must be a nonempty array")
    return entries


def gamble_from_json(obj: Any) -> Gamble:
    """Parse the decoded-JSON form of a gamble: dicts, lists and numbers.

    Un-normalized likelihoods are accepted and divided by their maximum at
    each level.  Other mappings and sequences raise the errors of a wrong
    type.  Checks run depth first in document order: an entry's keys and
    likelihood before its reward, and a level's normalization once all of
    its rewards are built.  Open levels wait on an explicit stack, so depth
    is bounded by memory, not by recursion.  Every gamble and prospect is
    built by its constructor, which converts an integer constant or raises
    its own error on a bad one.
    """
    entries = _entries(obj)
    if entries is None:
        return Gamble(constant=obj["constant"])
    # One frame per open level: its entries not yet read, and the raw
    # likelihoods and built rewards of the entries read so far.
    stack: list[tuple[Iterator, list[float], list[Gamble]]] = [(iter(entries), [], [])]
    while True:
        rest, raw, rewards = stack[-1]
        for entry in rest:
            if not isinstance(entry, dict) or "likelihood" not in entry or "reward" not in entry:
                raise GambleError("each prospect needs 'likelihood' and 'reward' keys")
            lik = entry["likelihood"]
            raw.append(lik if type(lik) is float else _require_real(lik, "likelihood"))
            node = entry["reward"]
            # A constant in a dict, the common node, needs no _entries check.
            if type(node) is not dict or "constant" not in node or "prospects" in node:
                entries = _entries(node)
                if entries is not None:
                    stack.append((iter(entries), [], []))
                    break
            rewards.append(Gamble(constant=node["constant"]))
        else:
            stack.pop()
            built = Gamble(prospects=tuple(map(Prospect, normalize_likelihoods(raw), rewards)))
            if not stack:
                return built
            stack[-1][2].append(built)  # the reward of the entry that opened it


# The text around a constant, around a prospect list, before and after a
# likelihood, and after a reward: JSON, and the paper's ``l/x`` notation.
_JSON_TOKENS = ('{"constant": ', "}", '{"prospects": [', "]}", '{"likelihood": ', ', "reward": ', "}")
_REPR_TOKENS = ("Gamble(", ")", "Gamble({", "})", "", "/", "")


def _write(g: Gamble, tokens: tuple[str, ...]) -> str:
    """Text of ``g`` in a token set above, from a stack of the levels being written."""
    const_open, const_close, open_, close, lik_open, lik_close, reward_close = tokens
    if g.constant is not None:
        return f"{const_open}{g.constant!r}{const_close}"
    lik_next = ", " + lik_open
    to_constant, after_constant = lik_close + const_open, const_close + reward_close
    to_level = lik_close + open_
    parts = [open_]
    sep = lik_open
    # Each open level's prospects not yet written.
    stack = [iter(g.prospects)]
    while stack:
        for p in stack[-1]:
            reward = p.reward
            if reward.constant is None:
                parts.append(f"{sep}{p.likelihood!r}{to_level}")
                stack.append(iter(reward.prospects))
                sep = lik_open
                break
            parts.append(f"{sep}{p.likelihood!r}{to_constant}{reward.constant!r}{after_constant}")
            sep = lik_next
        else:
            stack.pop()
            parts.append(close + reward_close if stack else close)
            sep = lik_next
    return "".join(parts)


def dump_gamble(g: Gamble) -> str:
    """The JSON text of a gamble.

    The text equals ``json.dumps(gamble_to_json(g))`` and is written without
    recursion, so any depth that fits in memory serializes.
    """
    return _write(g, _JSON_TOKENS)


def _dump_flat(best: dict[float, float], fp: IO[str]) -> None:
    """Write ``dump_gamble(flatten(g))`` to ``fp`` for a compound ``g`` whose
    leaf map is ``best``, straight from the flat form's columns.

    No gamble is built, and each prospect's text is written as it is made,
    so the text of the whole gamble is never held at once.
    """
    const_open, const_close, open_, close, lik_open, lik_close, reward_close = _JSON_TOKENS
    to_constant, after_constant = lik_close + const_open, const_close + reward_close
    sep, lik_next = open_ + lik_open, ", " + lik_open
    for lik, value in zip(*_normal_columns(best)):
        fp.write(f"{sep}{lik!r}{to_constant}{value!r}{after_constant}")
        sep = lik_next
    fp.write(close)


def _read_json(source: str | IO[str]) -> Any:
    """Decode JSON from a file path or open text stream.

    The stdlib decoder spends three levels of the recursion limit per gamble
    level; deeper input raises :class:`GambleError`, not RecursionError.
    Integers parse as floats, so one past the float range reads as inf,
    which validation rejects, instead of overflowing on conversion.
    """
    try:
        if isinstance(source, str):
            with open(source, "r", encoding="utf-8") as fh:
                return json.load(fh, parse_int=float)
        return json.load(source, parse_int=float)
    except UnicodeDecodeError as exc:
        raise GambleError(f"input is not UTF-8 text: {exc}") from None
    except RecursionError:
        raise GambleError(
            "input nests too deeply: the JSON decoder reads gambles to about "
            f"{sys.getrecursionlimit() // 3} levels"
        ) from None


def load_gamble(source: str | IO[str]) -> Gamble:
    """Read a gamble from a file path or open text stream."""
    return gamble_from_json(_read_json(source))
