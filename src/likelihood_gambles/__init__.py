"""Decision making under model ambiguity with likelihood gambles.

The package represents actions over competing probability models as
recursive likelihood gambles, reduces them to a canonical two-component
utility, and prices them with a logistic formula governed by a single
ambiguity-premium parameter.  A binomial showcase prices the bet on the
next toss of a coin of unknown bias against three default-prior Bayesian
baselines, and a conformance harness replays the algebraic laws of the
preference order on randomly generated gambles.
"""

from .gambles import (
    DegenerateEvidenceError,
    Gamble,
    GambleError,
    InfiniteLogitError,
    InvalidModelError,
    ModelSpec,
    Prospect,
    as_gamble,
    build_gamble,
    compound_likelihood,
    depth,
    dump_gamble,
    expected_utility,
    flatten,
    gamble_from_json,
    gamble_to_json,
    load_gamble,
    load_model,
    model_from_json,
    normalize_likelihoods,
)
from .pricing import (
    UtilityVector,
    canonical_equivalent,
    canonical_of_value,
    compare,
    implied_prior,
    inverse_logit,
    logit,
    prefer,
    price,
    price_from_vector,
    utility_of_gamble,
)
from .binomial import (
    BinomialScenario,
    PricingRow,
    bayesian_prices,
    continuous_utility_vector,
    emit_table,
    format_price,
    likelihood_price,
    normalized_binomial_likelihood,
    render_table_csv,
    render_table_text,
)
from .conformance import GenConfig, generate_gamble, run_conformance

__all__ = [
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
    "as_gamble",
    "bayesian_prices",
    "build_gamble",
    "canonical_equivalent",
    "canonical_of_value",
    "compare",
    "compound_likelihood",
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
    "load_model",
    "logit",
    "model_from_json",
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

__version__ = "0.1.0"
