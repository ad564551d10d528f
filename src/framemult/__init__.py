"""framemult: a numerical laboratory for frame multipliers on C^d.

Build multipliers from a symbol and two frames, decide when the
reciprocal-symbol dual multiplier inverts them, decompose inverses against
arbitrary dual frames, and construct perturbation companions that leave the
realized operator unchanged. Everything is seeded and reproducible.
"""

from .errors import *
from .frames import *
from .generators import *
from .linalg import *
from .multiplier import *
from .perturbation import *
from .representations import *
from .serialize import *
from .suites import *
from .symbols import *

__version__ = "0.1.0"

# Importing a submodule binds it in this namespace too, so `linalg` etc. are defined here.
__all__ = [
    *errors.__all__,
    *frames.__all__,
    *generators.__all__,
    *linalg.__all__,
    *multiplier.__all__,
    *perturbation.__all__,
    *representations.__all__,
    *serialize.__all__,
    *suites.__all__,
    *symbols.__all__,
]
