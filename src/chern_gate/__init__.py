"""Exact replay of the rationally-elliptic-fourfold case eliminations.

The package walks the whole chain with rational arithmetic only: Hodge
diamonds to Riemann-Roch targets, lattice enumeration of candidate
Chern data, characteristic-number tables, and no-positive-integer-root
certificates for the resulting embedding obstruction polynomials.
Every elimination carries a machine-checkable certificate, and shipped
baselines pin the printed values a run must reproduce.

Each module's __all__ is the one list of its public names; the package
re-exports exactly their union.
"""

from .exact import *
from .obstruction import *
from .pipeline import *
from .report import *
from .riemann_roch import *
from .ring import *
from .scenario import *
from .search import *
from .verify import *
from .version import __version__

__all__ = [
    "__version__",
    *exact.__all__,
    *ring.__all__,
    *riemann_roch.__all__,
    *search.__all__,
    *verify.__all__,
    *obstruction.__all__,
    *report.__all__,
    *scenario.__all__,
    *pipeline.__all__,
]
