"""Hamiltonian assembly for a periodically driven n-level system (hbar = 1).

The static part is the paper's sum_j Delta_j clock^j over the Fourier
coefficients of the level energies, which is exactly diag(energies); the
drift is built in that real closed form.  One helper, _drift_levels, gives
its levels E - Delta_0 as Python floats: build_drift puts them on a
diagonal, and the propagator reads them as they are.  The drive couples
the levels cyclically through the shift matrix.  _at_phase alone forms
H(t), from the drift's levels, the drive coefficient and the drive phase
factor e^{i w t}: hamiltonian_at passes it the times' factors (see
_phase_factors), the propagator the factors of its steps and of its phase
table.
Supported drive models:

* ``"none"``         static Hamiltonian only
* ``"generalized"``  (g/2) (e^{i w t} S + e^{-i w t} S^dagger) with S the
                     shift matrix, any n
* ``"cosine2"``      g cos(w t) sigma_x, two levels only (identical to
                     "generalized" at n = 2)
* ``"rwa2"``         rotating-wave coupling for two levels; exactly resonant
                     at w = E0 - E1
"""

import math
from dataclasses import dataclass

import numpy as np

from .algebra import _check_dim, build_shift, root_power

__all__ = [
    "DRIVE_MODELS",
    "SystemSpec",
    "energies_to_deltas",
    "deltas_to_energies",
    "build_drift",
    "build_interaction",
    "interaction_diagonal",
    "drive_coefficient",
    "build_full_hamiltonian",
    "hamiltonian_at",
]

DRIVE_MODELS = ("none", "generalized", "cosine2", "rwa2")

_TWO_LEVEL_MODELS = ("cosine2", "rwa2")


def _as_real(value, what: str) -> float:
    if isinstance(value, bool) or isinstance(value, (complex, np.complexfloating)):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    if not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError as exc:
        raise ValueError(f"{what} is too large for float64") from exc
    if not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    return value


def _adjoint(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m.conj(), -1, -2)


@dataclass(frozen=True)
class SystemSpec:
    """Physical description of a driven n-level system.

    ``energies`` are the bare level energies E_0 .. E_{n-1}.  ``g`` is the
    drive amplitude and ``omega`` the drive angular frequency.  With
    ``include_delta0`` the mean-energy identity term stays in the static
    Hamiltonian; it only rotates the global phase of a trajectory.
    """

    n: int
    energies: tuple
    g: float = 0.0
    omega: float = 0.0
    drive_model: str = "none"
    include_delta0: bool = False

    def __post_init__(self):
        n = _check_dim(self.n)
        object.__setattr__(self, "n", n)
        if isinstance(self.energies, (str, bytes)) or not np.iterable(self.energies):
            raise ValueError("energies must be a sequence of real numbers")
        energies = tuple(_as_real(e, "energy") for e in self.energies)
        if len(energies) != n:
            raise ValueError(
                f"expected {n} energies, got {len(energies)}"
            )
        object.__setattr__(self, "energies", energies)
        g = _as_real(self.g, "g")
        if g < 0:
            raise ValueError(f"g must be non-negative, got {g}")
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "omega", _as_real(self.omega, "omega"))
        if self.drive_model not in DRIVE_MODELS:
            raise ValueError(
                f"drive_model must be one of {DRIVE_MODELS}, got {self.drive_model!r}"
            )
        if self.drive_model in _TWO_LEVEL_MODELS and n != 2:
            raise ValueError(f"drive_model {self.drive_model!r} requires n = 2, got n = {n}")
        if not isinstance(self.include_delta0, bool):
            raise ValueError("include_delta0 must be a bool")


def _clock_sums(x, sign: int):
    """(s, p) with s_j = 2^-p sum_k sigma^(sign j k) x_k for j = 0..n-1.

    p is the binary exponent of the largest real or imaginary part of x.
    Scaling x by 2^-p is exact and keeps every sum below n sqrt(2) in size at
    any finite x; the caller scales back by 2^p (see _ldexp) where it fits.
    """
    x = np.ascontiguousarray(x, dtype=np.complex128)
    p = int(np.frexp(np.max(np.abs(x.view(np.float64))))[1])
    k = np.arange(len(x))
    return root_power(len(x), sign * np.outer(k, k)) @ _ldexp(x, -p), p


def _ldexp(z: np.ndarray, p: int) -> np.ndarray:
    """z 2^p for a complex array, exact unless a part leaves the float64 range."""
    return np.ldexp(z.view(np.float64), p).view(np.complex128)


def energies_to_deltas(energies) -> np.ndarray:
    """Fourier coefficients Delta_j = (1/n) sum_k sigma^((n-j)k mod n) E_k.

    For real energies the coefficients pair up as Delta_{n-j} == conj(Delta_j)
    and Delta_0 is the mean energy.  The sum runs on the energies scaled by
    2^-p, p the binary exponent of max|E| (see _clock_sums), so it cannot
    overflow at any finite energies; the result is scaled back by 2^p.
    Energies that do not fit in float64 raise ValueError.
    """
    arr = np.asarray(energies)
    if np.iscomplexobj(arr):
        raise ValueError("energies must be real")
    try:
        e = arr.astype(np.float64)
    except OverflowError as exc:
        raise ValueError("energies are too large for float64") from exc
    if e.ndim != 1 or e.shape[0] < 2:
        raise ValueError("energies must be a 1-d sequence of length >= 2")
    if not np.all(np.isfinite(e)):
        raise ValueError("energies must be finite")
    sums, p = _clock_sums(e, -1)
    return _ldexp(sums / e.shape[0], p)


def deltas_to_energies(deltas, imag_tol: float = 1e-10) -> np.ndarray:
    """Invert the coefficient map: E_m = sum_j sigma^(m j) Delta_j.

    The sum runs on the deltas scaled as in energies_to_deltas, so it cannot
    overflow; energies that do not fit in float64 raise ValueError.  The
    reconstruction must come out real; an imaginary residue larger than
    ``imag_tol`` times max(1, max|E|) raises ValueError, smaller ones are
    discarded, so the test means the same at any energy scale above 1.
    """
    d = np.asarray(deltas, dtype=np.complex128)
    if d.ndim != 1 or d.shape[0] < 2:
        raise ValueError("deltas must be a 1-d sequence of length >= 2")
    if not np.all(np.isfinite(d)):
        raise ValueError("deltas must be finite")
    sums, p = _clock_sums(d, 1)
    with np.errstate(over="ignore"):
        e = _ldexp(sums, p)
    if not np.all(np.isfinite(e)):
        raise ValueError("reconstructed energies are too large for float64")
    residue = float(np.max(np.abs(e.imag)))
    if residue > imag_tol * max(1.0, float(np.max(np.abs(e.real)))):
        raise ValueError(
            f"reconstructed energies are not real (max imaginary part {residue:.3e})"
        )
    return np.ascontiguousarray(e.real)


def _drift_levels(spec: SystemSpec) -> list:
    """The drift's diagonal as floats: E - Delta_0, or E with include_delta0.

    Delta_0 = fsum(E) / n, from the correctly rounded sum, so the levels do
    not depend on the order of the energies nor on the Python version.  A
    sum beyond float64 takes a non-finite mean, so the levels come out
    non-finite, without a warning, and evolve refuses them.
    """
    if spec.include_delta0:
        return list(spec.energies)
    try:
        mean = math.fsum(spec.energies) / spec.n
    except OverflowError:
        mean = math.inf
    return [e - mean for e in spec.energies]


def build_drift(spec: SystemSpec) -> np.ndarray:
    """Static Hamiltonian sum_{j>=1} Delta_j clock^j, plus Delta_0 I if kept.

    The full sum is diag(energies) and Delta_0 is the mean energy, so this
    is the real matrix diag(E - Delta_0), traceless, or diag(E) with
    include_delta0 (see _drift_levels).  No root of unity enters, so it is
    exactly hermitian.
    """
    return np.diag(_drift_levels(spec))


def build_interaction(n: int, g, omega, t) -> np.ndarray:
    """Cyclic drive (g/2)(e^{i w t} S + e^{-i w t} S^dagger) at time t.

    The Hamiltonian of a "generalized" drive on zero energies, so g must be
    non-negative.  Hermitian by construction; at n = 2 it reduces to
    g cos(w t) sigma_x.
    """
    spec = SystemSpec(n=n, energies=(0.0,) * _check_dim(n), g=g, omega=omega,
                      drive_model="generalized")
    return build_full_hamiltonian(spec, t)


def interaction_diagonal(n: int, omega, t) -> np.ndarray:
    """Drive in the Fourier frame: diag(cos(w t + 2 pi k / n)), k = 0..n-1.

    Satisfies (1/2)(e^{i w t} S + e^{-i w t} S^dagger) = W @ D @ W^dagger.
    """
    n = _check_dim(n)
    omega = _as_real(omega, "omega")
    t = _as_real(t, "t")
    k = np.arange(n)
    return np.diag(np.cos(omega * t + 2.0 * np.pi * k / n)).astype(np.complex128)


def drive_coefficient(spec: SystemSpec) -> np.ndarray:
    """Constant matrix A such that the drive equals e^{i w t} A + h.c.

    "none" gives zeros, "generalized" and "cosine2" give (g/2) S, and "rwa2"
    gives (g/2) sigma_minus, which pairs e^{-i w t} with sigma_plus and makes
    w = E0 - E1 the exact resonance.
    """
    n = spec.n
    if spec.drive_model == "none":
        return np.zeros((n, n), dtype=np.complex128)
    if spec.drive_model in ("generalized", "cosine2"):
        return 0.5 * spec.g * build_shift(n)
    # rwa2
    sigma_minus = np.zeros((2, 2), dtype=np.complex128)
    sigma_minus[1, 0] = 1.0
    return 0.5 * spec.g * sigma_minus


def hamiltonian_at(spec: SystemSpec, times) -> np.ndarray:
    """H(t) = drift + (e^{i w t} A + h.c.) at every entry of ``times``.

    Returns an array of shape ``np.shape(times) + (n, n)``: one matrix for a
    scalar time, a stack for an array of times.  A is drive_coefficient(spec).
    The drift is real and diagonal and the bracket is hermitian to the bit,
    so H(t) is exactly hermitian at every t, which the propagator relies on
    without a check.  A static spec (no drive, g = 0 or w = 0) takes the
    phase factor 1, so its H(t) is finite at any t; a driven spec whose
    drive phase w t is not finite raises ValueError naming the time.
    """
    t = np.asarray(times)
    if t.dtype.kind not in "iuf" or not np.all(np.isfinite(t)):
        raise ValueError("times must be finite real numbers")
    if not _is_static(spec):
        with np.errstate(over="ignore"):
            finite = np.isfinite(spec.omega * t)
        if not finite.all():
            raise ValueError(f"drive phase w t is not finite at t = {float(t[~finite][0])!r}")
    return _at_phase(_drift_levels(spec), drive_coefficient(spec), _phase_factors(spec, t))


def _is_static(spec: SystemSpec) -> bool:
    """True when H(t) does not depend on t: no drive, g = 0 or w = 0."""
    return spec.drive_model == "none" or spec.g == 0.0 or spec.omega == 0.0


def _phase_factors(spec: SystemSpec, t) -> np.ndarray:
    """e^{i w t} at every entry of t, or 1 for a static spec.

    H(t) of a static spec does not depend on the phase, so w t, which may
    overflow at a large |w t|, is not formed for it.
    """
    if _is_static(spec):
        return np.ones(np.shape(t), dtype=np.complex128)
    return np.exp(1j * spec.omega * t)


def _at_phase(levels, a: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """diag(levels) + (phase a + h.c.) for every entry of an array of phase factors e^{i theta}.

    ``levels`` and ``a`` are _drift_levels and drive_coefficient of one spec.
    """
    m = phase[..., None, None] * a
    return np.diag(levels) + (m + _adjoint(m))


def build_full_hamiltonian(spec: SystemSpec, t) -> np.ndarray:
    """Hamiltonian at time t for the spec's drive model."""
    return hamiltonian_at(spec, _as_real(t, "t"))
