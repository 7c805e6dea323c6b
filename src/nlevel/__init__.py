"""Driven n-level quantum systems built on the clock and shift algebra.

The package constructs generalized Pauli (clock/shift) matrices, decomposes
level energies into clock-power coefficients, assembles periodically driven
Hamiltonians, and propagates state vectors with a midpoint-exponential
integrator.  See the ``nlevel`` command line tool for the file-based
interface.
"""

from .algebra import (
    adjoint,
    build_clock,
    build_fourier,
    build_shift,
    mat_mul,
    mat_pow,
    primitive_root,
    similarity_diagonalize_shift,
)
from .hamiltonian import (
    DRIVE_MODELS,
    SystemSpec,
    build_drift,
    build_full_hamiltonian,
    build_interaction,
    deltas_to_energies,
    drive_coefficient,
    energies_to_deltas,
    hamiltonian_at,
    interaction_diagonal,
)
from .propagator import (
    EigenConvergenceError,
    EvolutionConfig,
    Trajectory,
    evolve,
    exp_step,
    hermitian_eig,
)

__version__ = "0.1.0"

__all__ = [
    "DRIVE_MODELS",
    "EigenConvergenceError",
    "EvolutionConfig",
    "SystemSpec",
    "Trajectory",
    "adjoint",
    "build_clock",
    "build_drift",
    "build_fourier",
    "build_full_hamiltonian",
    "build_interaction",
    "build_shift",
    "deltas_to_energies",
    "drive_coefficient",
    "energies_to_deltas",
    "evolve",
    "exp_step",
    "hamiltonian_at",
    "hermitian_eig",
    "interaction_diagonal",
    "mat_mul",
    "mat_pow",
    "primitive_root",
    "similarity_diagonalize_shift",
]
