"""Cover pebbling toolkit.

A pebbling move removes two pebbles from a vertex and places one on a
neighbor.  A configuration covers a graph when some move sequence
leaves at least one pebble on every target vertex simultaneously; the
cover pebbling number of a graph is the least size at which every
configuration of that size can do so.

The package provides the graph families the closed forms apply to,
an exhaustive solver that decides single configurations and computes
exact cover pebbling numbers, the closed-form values and bounds, and
constructive solvers that output replayable move certificates.
"""

from . import constructive, errors, exact, formulas, graphs, pebbles
from .constructive import *
from .errors import *
from .exact import *
from .formulas import *
from .graphs import *
from .pebbles import *

# each module lists its own exports, once
__all__: list[str] = []
__all__ += constructive.__all__
__all__ += errors.__all__
__all__ += exact.__all__
__all__ += formulas.__all__
__all__ += graphs.__all__
__all__ += pebbles.__all__

__version__ = "0.1.0"
