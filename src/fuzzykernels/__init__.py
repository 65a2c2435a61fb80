"""Kernels on fuzzy sets.

Discrete and Gaussian fuzzy sets, each callable as its membership function;
the cross product, intersection, non-singleton and distance-based kernel
families on them; Gram-matrix tooling (PSD verification, normalization); a
dual-form kernel ridge classifier and an MMD permutation two-sample test.
"""

from . import dataset, errors, gram, kernels, learn, sets, tnorms
from .errors import *
from .sets import *
from .tnorms import *
from .kernels import *
from .gram import *
from .learn import *
from .dataset import *

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names
__all__: list[str] = []
__all__ += errors.__all__
__all__ += sets.__all__
__all__ += tnorms.__all__
__all__ += kernels.__all__
__all__ += gram.__all__
__all__ += learn.__all__
__all__ += dataset.__all__
