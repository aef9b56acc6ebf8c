"""Poisson geometry of su(n) multiplicity spaces and rational flat connections.

The library realizes, over SU(n)/SL(n,C): the classical r-matrices of the
(t, u) family, the twisted Iwasawa machinery with its dual-group maps and
dressing action, coadjoint/dressing orbit moment solvers, a holonomy engine
for rational flat connections on the three-holed sphere, vertex-ordered
graph brackets, and the two structure-matching maps between the orbit
picture, the connection picture, and the dual-group picture.
"""

# the public names are each layer's __all__
from .lie_core import *  # noqa: F401,F403
from .decompositions import *  # noqa: F401,F403
from .orbits import *  # noqa: F401,F403
from .holonomy import *  # noqa: F401,F403
from .graph_poisson import *  # noqa: F401,F403
from . import errors

__version__ = "0.1.0"
