"""Constructive solver for the inhomogeneous Cauchy equation.

Given a continuous F(x, y) of the form g(x+y) - g(x) - g(y), the solvers
here rebuild a continuous f with F(x, y) = f(x+y) - f(x) - f(y), first on
rationals by exact lattice recursion and then on reals by a controlled
limit.  A separate route handles smooth kernels through a directional
derivative and quadrature, and verification helpers measure residuals
and modulus-of-continuity bounds.
"""

from __future__ import annotations

from . import continuous, expressions, rational, smooth, verify
from .continuous import *  # noqa: F403
from .expressions import *  # noqa: F403
from .rational import *  # noqa: F403
from .smooth import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

# each module's __all__ lists its public names once
__all__ = [
    "__version__",
    *rational.__all__,
    *expressions.__all__,
    *continuous.__all__,
    *smooth.__all__,
    *verify.__all__,
]
