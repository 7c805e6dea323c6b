"""Driven n-level quantum systems built on the clock and shift algebra.

The package constructs generalized Pauli (clock/shift) matrices, decomposes
level energies into clock-power coefficients, assembles periodically driven
Hamiltonians, and propagates state vectors with a midpoint-exponential
integrator.  See the ``nlevel`` command line tool for the file-based
interface.  Each module's ``__all__`` lists its public names, and the
package exports all of them.
"""

from . import algebra, hamiltonian, propagator
from .algebra import *
from .hamiltonian import *
from .propagator import *

__version__ = "0.1.0"

__all__ = algebra.__all__ + hamiltonian.__all__ + propagator.__all__
