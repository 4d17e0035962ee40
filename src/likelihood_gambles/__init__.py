"""Decision making under model ambiguity with likelihood gambles.

The package represents actions over competing probability models as
recursive likelihood gambles, reduces them to a canonical two-component
utility, and prices them with a logistic formula governed by a single
ambiguity-premium parameter.  A binomial showcase prices the bet on the
next toss of a coin of unknown bias against three default-prior Bayesian
baselines, and a conformance harness replays the algebraic laws of the
preference order on randomly generated gambles.

``gambles`` and ``pricing`` load with the package; ``binomial`` and
``conformance`` load on first use of the module or of one of its names.
"""

import importlib

from . import gambles, pricing
from .gambles import *
from .pricing import *

__version__ = "0.1.0"

# These two, with the hashlib that conformance loads, are over half of the package's import time.
_ON_FIRST_USE = ("binomial", "conformance")


def __getattr__(name: str) -> object:
    if name in _ON_FIRST_USE:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":  # each module's __all__ is the one declaration of its names
        modules = [gambles, pricing, *map(__getattr__, _ON_FIRST_USE)]
        return [public for module in modules for public in module.__all__]
    if not name.startswith("_"):
        for module in map(__getattr__, _ON_FIRST_USE):
            if name in module.__all__:
                return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
