"""Z2 cycle filling in the n-cube.

Chain algebra on cube cells, constructive filling algorithms with
certified weight bounds, an exact minimum-weight search, and the
alternating-block cycle family whose fillings make those bounds tight.

Each module's ``__all__`` is its public API; the package re-exports them all.
"""

from . import chainfile, chains, constants, faces, filling, minimizers
from .chainfile import *
from .chains import *
from .constants import *
from .faces import *
from .filling import *
from .minimizers import *

__version__ = "0.1.0"

__all__ = [
    *chainfile.__all__,
    *chains.__all__,
    *constants.__all__,
    *faces.__all__,
    *filling.__all__,
    *minimizers.__all__,
]
