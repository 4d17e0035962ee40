"""Decision making under model ambiguity with likelihood gambles.

The package represents actions over competing probability models as
recursive likelihood gambles, reduces them to a canonical two-component
utility, and prices them with a logistic formula governed by a single
ambiguity-premium parameter.  A binomial showcase prices the bet on the
next toss of a coin of unknown bias against three default-prior Bayesian
baselines, and a conformance harness replays the algebraic laws of the
preference order on randomly generated gambles.
"""

from . import binomial, conformance, gambles, pricing
from .gambles import *
from .pricing import *
from .binomial import *
from .conformance import *

# Each module's __all__ is the one declaration of its public names.
__all__ = [*gambles.__all__, *pricing.__all__, *binomial.__all__, *conformance.__all__]

__version__ = "0.1.0"
