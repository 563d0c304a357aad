"""Numerical solver and growth-bound certification for nonlinear
Volterra integral equations of the second kind,

    u(t) = f(t) + int_0^t a(t, s, u(s)) ds,   t >= 0.

The package solves the equation by product-trapezoidal time stepping
with blow-up detection, validates exponential decay envelopes on f and
the kernel, and searches for weight functions certifying a global bound
|u(t)| < exp(rate*t)/coefficient (or its power-law analogue).
"""

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names; the package
# re-exports the same objects under the same names.
from . import certificate, comparison, expr, model, solver
from .certificate import *
from .comparison import *
from .expr import *
from .model import *
from .solver import *

__all__ = ["__version__", *expr.__all__, *model.__all__, *solver.__all__,
           *certificate.__all__, *comparison.__all__]
