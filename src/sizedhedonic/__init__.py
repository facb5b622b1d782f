"""Stability in additively separable hedonic games with coalition-size bounds.

A library and CLI for building, verifying, exhaustively auditing, and
constructively solving size-bounded coalition formation: eight single-agent
stability concepts, four polynomial-time algorithms, welfare dynamics,
counterexample families, and NP-hardness reduction generators with
certificate-derived witness partitions.
"""

from .algorithms import *
from .exact import *
from .instances import *
from .model import *
from .prefs import *
from .reductions import *
from .stability import *

__all__ = (
    algorithms.__all__
    + exact.__all__
    + instances.__all__
    + model.__all__
    + prefs.__all__
    + reductions.__all__
    + stability.__all__
)
