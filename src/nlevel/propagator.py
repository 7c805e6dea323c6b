"""Midpoint-exponential propagation of driven n-level systems.

Each step applies exp(-i dt H(t + dt/2)) to the state, with the matrix
exponential evaluated through a full hermitian eigendecomposition (LAPACK,
through numpy.linalg.eigh, in one kernel, _unitaries) or, for full-length
steps of long runs, summed from a phase table built from such
decompositions.  Step k is exactly dt long and centred at
t_start + (k + 1/2) dt on every path, so the table and eigh see the same
phase and length for it; when the grid does not end on t_end, a last step
from t_start + K dt to t_end, K the number of full steps, follows as a
one-step pass of its own.  H(t) does not depend on the state, so evolve
forms the step unitaries of many steps at once, in chunks.  H(t) is
hermitian by construction (see hamiltonian_at), so nothing checks that at
run time; before any step, evolve checks that the drift and a bound on every
step's eigenphases are finite, so that no step can overflow.  The chain of
states through a chunk is a blocked prefix product (Blelloch, CMU-CS-90-190,
1990), one algorithm for every n (_chain): the N unitaries are cut into
blocks of at most 8, each block's running products are formed for all
blocks at once, the state is carried from block to block by the same chain
over the block products, and one more product over all blocks gives every
state.  Only the storage and the product depend on n.  Up to _SCAN_MAX_N the
blocks are stored block index innermost, so each product is one elementwise
multiply and sum over all blocks; a BLAS call per 3 x 3 product would cost
more than its arithmetic.  Above it each product is one batched BLAS call.
The scheme is second order in dt and unitary to solver precision, so norm
drift shows rounding only, not the discretization error: the resonant
two-level drive of configs/rabi_two_level.json, run for 5,000 steps of T/100,
strays up to 1.17e-3 from the closed form sin^2(g t / 2) while its norm
errors stay below 1.3e-12.

Phase table.  H = drift + e^{i theta} A + h.c. depends on t only through the
drive phase theta = w t, so the unitary U(theta) = exp(-i dt H(theta)) of a
step of length dt is a smooth 2 pi-periodic function of one angle.  Its
Fourier coefficients fall off like (dt g/2)^|m| / |m|! (Shirley, Phys. Rev.
138, B979, 1965), so the orders |m| <= M (see _table_order) give U to about
eps.  The paper's clock Z and shift S obey Z S Z^dagger = sigma S, sigma =
e^{2 pi i / n} (Weyl), every drive model's A obeys Z A Z^dagger = sigma A, and
the drift is diagonal, so U(theta + 2 pi / n) = Z U(theta) Z^dagger: entry
(a, b) of U carries only the orders m = a - b mod n.  So U(theta) is a fixed
phase pattern e^{i m*(a, b) theta}, m* the representative of a - b nearest 0,
times a function of period 2 pi / n, and the phases in [0, 2 pi / n) fix it.
evolve diagonalizes U at Q = 2S + 1 such phases in one batched eigh, once per
run, S = (M + n/2) // n, and keeps the table by cyclic diagonals (see
_phase_table); every full-length step then costs one column of n products
(n, Q) @ (Q, N), one per diagonal, of the table with the powers
e^{i (m* + n s) theta}, and a gather back to matrix order.  At
n >= 2M + 1, and for a static spec, S = 0: one eigh, of U(0), serves every
full-length step of the run.  The steps that need a unitary are the K of a
period that reuse repeats (below) and the fresh full-length steps; a last
step shortened to land on t_end is not one of them.  The table serves them
all when there are at least Q of them and Q matrices fit in a chunk; other
runs, such as a one-step run or a period of K < Q steps all reused,
diagonalize every step.

Period reuse.  The drive e^{i w t} A + h.c. repeats after T = 2 pi / |w|, so
when K steps of dt make up T the midpoint Hamiltonians repeat every K steps
(Floquet periodicity).  evolve then forms only those K unitaries, from the
phase table or one batched eigh, and _sample_propagators multiplies them
into the G = lcm(K, sample_every) / sample_every propagators from one sample
to the next: sample interval j starts at step j sample_every, whose residue
mod K depends on j mod G alone.  The samples are chained through those
propagators with the same blocked product.  This applies when K |w| dt
equals 2 pi within 4 ulps (a static H counts as K = 1) and
lcm(K, sample_every) steps fit both in one CHUNK_BYTES chunk and in the
run's full-length steps, and then covers every whole sample interval.  The
fewer than sample_every full-length steps after the last of them follow as
fresh steps, and the shortened last step after them, in the same loop: each
pass chains one stack, reused, fresh or the last step, and records the
states that end on a multiple of sample_every or on the last step.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import root_power
from .hamiltonian import (
    SystemSpec,
    _adjoint,
    _as_real,
    _at_phase,
    _is_static,
    _ldexp,
    _phase_factors,
    build_drift,
    drive_coefficient,
)

__all__ = [
    "EigenConvergenceError",
    "EvolutionConfig",
    "Trajectory",
    "hermitian_eig",
    "exp_step",
    "evolve",
    "HERMITIAN_RTOL",
    "MAX_SAMPLE_BYTES",
    "MAX_STEPS",
]

MAX_STEPS = 10**8
# anti-hermitian residue allowed, relative to the largest entry of the matrix
HERMITIAN_RTOL = 1e-10
# byte size of one chunk's Hamiltonian stack; evolve holds a few arrays of this
# size at once (stack, eigenvectors, step unitaries, block products, phase
# table), whatever the run length.  Measured on the phase-table path at n = 3
# and n = 8 (20,000 and 4,000 steps of dt = 0.005, off the period grid, every
# step sampled) on one pinned CPU of a 2-vCPU x86 VM (OpenBLAS): evolve took
# 0.82, 0.62, 0.50, 0.53 and 0.53 us/step at n = 3 and 3.21, 2.24, 1.99, 2.02
# and 2.49 us/step at n = 8 for 64 KiB, 128 KiB, 256 KiB, 512 KiB and 1 MiB
# chunks (median of 3 runs of 9 calls each); a repeat put 512 KiB ahead at
# n = 8 (1.84 against 2.23), so 256 KiB and 512 KiB are within run-to-run
# spread of each other.
CHUNK_BYTES = 2**18
# largest n whose blocks _chain stores block index innermost and multiplies
# elementwise, in place of one BLAS call per matrix: numpy's @ on a (B, n, n)
# stack calls zgemm once per matrix, about 0.37 us each at n = 3.  Measured on
# the same CPU (median over 3 runs of the medians of 101 interleaved calls),
# the elementwise products made _chain take 0.95, 1.00, 1.13, 1.23, 1.44,
# 1.58 and 1.91 times as long as batched BLAS at n = 2..8 for N = 50
# unitaries, and 0.21, 0.37, 0.69, 0.83, 1.35, 1.62 and 2.10 times for one
# chunk (N = 4096, 1820, 1024, 655, 455, 334 and 256).
_SCAN_MAX_N = 4
# block length of _chain, and the longest stack it chains one product at a
# time; block lengths 4 to 12 measured within noise of each other at n = 2..4
# (16 was up to 25% slower at N = 300), and 4 to 16 within 7% of each other
# at n = 5..16 for N = 50 and one chunk
_SCAN_BLOCK = 8
# cap on the sampled times, populations and norm errors a run may hold
MAX_SAMPLE_BYTES = 2**30
# K |w| dt may miss 2 pi by this much, relative, for the grid to count as one
# drive period of K steps; about the rounding of the phase w t that every step
# takes at its midpoint (see _phase_factors)
_PERIOD_RTOL = 4 * np.finfo(np.float64).eps
# truncation error allowed in the phase table's Fourier sum (see _table_order)
_EPS = np.finfo(np.float64).eps


class EigenConvergenceError(RuntimeError):
    """The LAPACK hermitian eigensolver failed to converge."""


def hermitian_eig(h):
    """Eigenvalues (ascending) and eigenvector columns of a hermitian matrix.

    The input is symmetrized as (H + H^dagger)/2 before decomposition; an
    anti-hermitian residue above HERMITIAN_RTOL times the largest entry
    raises ValueError, and a LAPACK convergence failure raises
    EigenConvergenceError.  The eigenvectors of a repeated eigenvalue are
    the orthonormal basis of its eigenspace that LAPACK returns.
    """
    a = np.asarray(h, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    # halves first: a + a^dagger and a - a^dagger overflow near the float64 limit
    half, half_adjoint = 0.5 * a, 0.5 * _adjoint(a)
    if np.max(np.abs(half - half_adjoint)) > HERMITIAN_RTOL * np.max(np.abs(a)):
        raise ValueError(
            "matrix is not hermitian (anti-hermitian residue above "
            f"{HERMITIAN_RTOL:g} of its largest entry)"
        )
    try:
        return np.linalg.eigh(half + half_adjoint)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigensolver failed to converge: {exc}") from exc


def exp_step(h_mid, dt, psi):
    """Apply exp(-i dt h_mid) to psi through the eigendecomposition of h_mid."""
    dt = _as_real(dt, "dt")
    w, v = hermitian_eig(h_mid)
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (w.shape[0],):
        raise ValueError(
            f"state length {psi.shape} does not match matrix dimension {w.shape[0]}"
        )
    return v @ ((v.conj().T @ psi) * np.exp(-1j * w * dt))


@dataclass(frozen=True)
class EvolutionConfig:
    """Time grid and initial state for a propagation run.

    ``initial_state`` is either a basis index or an explicit amplitude
    sequence (normalized on intake).  Every ``sample_every``-th step is
    recorded; the initial and final instants are always included, and the
    last step is shortened so the run ends exactly at ``t_end``.
    """

    t_start: float
    t_end: float
    dt: float
    initial_state: object = 0
    sample_every: int = 1

    def __post_init__(self):
        object.__setattr__(self, "t_start", _as_real(self.t_start, "t_start"))
        object.__setattr__(self, "t_end", _as_real(self.t_end, "t_end"))
        object.__setattr__(self, "dt", _as_real(self.dt, "dt"))
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end <= self.t_start:
            raise ValueError(
                f"t_end must exceed t_start, got [{self.t_start}, {self.t_end}]"
            )
        if isinstance(self.sample_every, bool) or not isinstance(
            self.sample_every, (int, np.integer)
        ):
            raise ValueError(f"sample_every must be an integer, got {self.sample_every!r}")
        if self.sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {self.sample_every}")
        object.__setattr__(self, "sample_every", int(self.sample_every))
        if (self.t_end - self.t_start) / self.dt > MAX_STEPS:
            raise ValueError(
                f"time grid exceeds {MAX_STEPS} steps; increase dt or shorten the span"
            )


@dataclass(frozen=True)
class Trajectory:
    """Sampled populations of a propagation run.

    ``times[k]`` is the sample instant, ``populations[k, i]`` is |psi_i|^2,
    and ``norm_errors[k]`` is | ||psi|| - 1 |, a unitarity diagnostic.
    ``final_state`` is the state vector at t_end.
    """

    times: np.ndarray
    populations: np.ndarray
    norm_errors: np.ndarray
    final_state: np.ndarray

    @property
    def n(self) -> int:
        return self.populations.shape[1]


def _initial_vector(n: int, initial_state) -> np.ndarray:
    if isinstance(initial_state, bool):
        raise ValueError("initial_state must be a basis index or amplitude sequence")
    if isinstance(initial_state, (int, np.integer)):
        idx = int(initial_state)
        if not 0 <= idx < n:
            raise ValueError(f"initial state index {idx} outside [0, {n})")
        psi = np.zeros(n, dtype=np.complex128)
        psi[idx] = 1.0
        return psi
    arr = np.asarray(initial_state, dtype=np.complex128)
    if arr.shape != (n,):
        raise ValueError(f"initial state must have {n} amplitudes, got shape {arr.shape}")
    arr = np.ascontiguousarray(arr)
    values = arr.view(np.float64).tolist()
    if not all(map(math.isfinite, values)):
        raise ValueError("initial state amplitudes must be finite")
    big = max(map(abs, values))
    if big == 0.0:
        raise ValueError("initial state must not be the zero vector")
    # scaled exactly by 2^-p, p the binary exponent of the largest real or
    # imaginary part (as _clock_sums does), the sum of squares neither
    # overflows nor underflows to 0 at any finite amplitudes
    p = math.frexp(big)[1]
    return _ldexp(arr, -p) / math.sqrt(sum(math.ldexp(x, -p) ** 2 for x in values))


def _step_count(span: float, dt: float) -> int:
    # back off by one ulp-scale factor so span/dt == integer N stays N steps
    n_steps = int(math.ceil((span / dt) * (1.0 - 1e-12)))
    return max(n_steps, 1)


def _unitaries(parts: tuple, z: np.ndarray, dt: float, where: str) -> np.ndarray:
    """exp(-i dt H) for H = _at_phase(*parts, z) at every phase factor of z, as a stack.

    ``parts`` are the run's drift and drive coefficient.  The one batched eigh
    of the propagator's steps; ``where`` names the phases in the
    EigenConvergenceError a solver failure raises.
    """
    # eigh reads the lower triangle and the real diagonal, which is all of H,
    # hermitian by construction (see hamiltonian_at)
    try:
        w, v = np.linalg.eigh(_at_phase(*parts, z))
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigensolver failed to converge {where}") from exc
    return (v * np.exp(-1j * (w * dt))[..., None, :]) @ _adjoint(v)


def _step_unitaries(
    spec: SystemSpec, parts: tuple, mids: np.ndarray, dt: float, table: np.ndarray = None
) -> np.ndarray:
    """exp(-i dt H(t)) at every step midpoint t of ``mids``, as a stack.

    Every step is dt long, and ``parts`` are the run's drift and drive
    coefficient.  With ``table``, the phase table built for steps of that
    length (see _phase_table), the unitaries are summed from its
    coefficients, one product per cyclic diagonal; without it they come from
    one batched eigh.
    """
    z = _phase_factors(spec, mids)
    if table is None:
        span = f"[{float(mids[0])!r}, {float(mids[-1])!r}]"
        return _unitaries(parts, z, dt, f"at some t in {span}")
    n = spec.n
    u = table @ _diagonal_powers(z, n, table.shape[-1] // 2)
    # back from diagonals to entries; the stack is a view, step index last
    to_entries, _ = _diagonal_order(n)
    return np.take(u.reshape(n * n, -1), to_entries, axis=0).T.reshape(len(mids), n, n)


def _table_width(n: int, order: int) -> int:
    """S = (M + n/2) // n, n/2 rounded down: Q = 2 S + 1 phases resolve orders up to M.

    Entry (a, b) of a step unitary carries the Fourier orders m* + n s (see
    _phase_table), m* in [-n/2, n - 1 - n/2]; |s| <= S holds every such
    order up to M, and the first left out, |s| = S + 1, lies beyond M.
    """
    return (order + n // 2) // n


def _table_order(spec: SystemSpec, dt: float, limit: int):
    """Fourier order M of the step unitary's phase table, or None when Q > limit.

    M is the smallest order with 2 x^(M+1) / (M+1)! <= eps for x = dt g / 2,
    and the table samples Q = 2 S + 1 phases, S from _table_width.  g / 2 is
    the spectral norm of drive_coefficient for every drive model (0 for
    "none", a bound then).  The Fourier coefficient of order m of U(theta)
    collects terms of order |m| and above in dt A, so its size falls off like
    x^|m| / |m|! (Shirley, Phys. Rev. 138, B979, 1965): the orders left out
    and those the Q-point transform folds onto the kept ones, |m| > M, stay
    at about eps.  A static spec takes every step at phase factor 1 (see
    _phase_factors), where the S = 0 table is exact, so its x is 0.
    """
    n = spec.n
    x = 0.0 if _is_static(spec) else 0.5 * spec.g * dt
    order, term = 0, 2.0 * x  # term = 2 x^(order+1) / (order+1)!
    while term > _EPS and 2 * _table_width(n, order) + 1 <= limit:
        order += 1
        term *= x / (order + 1)
    return order if 2 * _table_width(n, order) + 1 <= limit else None


def _phase_table(parts: tuple, dt: float, order: int) -> np.ndarray:
    """Coefficients of the full step's unitary along its cyclic diagonals, as (n, n, Q).

    U(theta) = exp(-i dt H(theta)), with H(theta) = drift + e^{i theta} A + h.c.
    the Hamiltonian at drive phase theta = w t and ``parts`` = (drift, A).
    The clock Z obeys Z A Z^dagger = sigma A, sigma = e^{2 pi i / n} (Weyl),
    and commutes with the drift, so U(theta + 2 pi / n) = Z U(theta) Z^dagger:
    entry (a, b) of U carries only the Fourier orders m*(a, b) + n s, m* the
    representative of a - b in [-n/2, n - 1 - n/2], which is the same along
    each cyclic diagonal (see _diagonal_order).  So
    U(theta)[a, b] = sum_s T_s[a, b] e^{i (m*(a, b) + n s) theta}, a phase
    pattern e^{i m* theta} times a function of period 2 pi / n, and |s| <= S
    holds every order up to M (see _table_width).  U is diagonalized at the
    Q = 2 S + 1 phases theta_j = 2 pi j / (n Q) in one batched eigh, and
    T_s = (1/Q) sum_j U(theta_j) e^{-i (m* + n s) theta_j}, the Q-point DFT
    of U with its phase pattern removed, so that U is exact to about eps (see
    _table_order).  Entry [r, a, S + s] holds T_s at row a of diagonal r.  At
    n >= 2M + 1, S = 0 and the table is U(0) itself.
    """
    n = len(parts[0])
    width = _table_width(n, order)
    q = 2 * width + 1
    z = root_power(n * q, np.arange(q))
    u = _unitaries(parts, z, dt, f"on the drive-phase table for dt = {dt!r}").reshape(q, -1)
    _, to_diagonals = _diagonal_order(n)
    u = np.take(u, to_diagonals, axis=1).reshape(q, n, n).transpose(1, 2, 0)
    if not width:
        # the one phase is theta = 0, where the pattern is 1 and the DFT the identity
        return u
    return u @ _diagonal_powers(z.conj(), n, width).transpose(0, 2, 1) / q


def _diagonal_powers(z: np.ndarray, n: int, width: int) -> np.ndarray:
    """z^(m* + n s), m* = r - n/2, for every diagonal r and s = -S..S, as (n, Q, len(z)).

    Row r + n (s + S) of z^m for |m| <= n S + n/2 (see _phase_powers), viewed
    without a copy.
    """
    q = 2 * width + 1
    powers = _phase_powers(z, n * width + n // 2)
    return powers[: n * q].reshape(q, n, len(z)).transpose(1, 0, 2)


@functools.lru_cache(maxsize=1)
def _diagonal_order(n: int):
    """Index arrays from the n x n entries to their cyclic diagonals and back.

    Position r n + a of the diagonal order holds entry (a, b) with
    r = (a - b + n/2) mod n, so that r - n/2 = m*(a, b), a - b reduced to
    [-n/2, n - 1 - n/2], is constant along diagonal r.  Returns
    (to_entries, to_diagonals): to_entries[a n + b] = r n + a, and its
    inverse.  Kept, read-only, for the last n, as the table and every chunk
    of a run need them.
    """
    k = np.arange(n)
    # entry (a, b) lies on diagonal r = (a - b + n/2) mod n, where b = (a - r + n/2) mod n
    to_entries = (((k[:, None] - k + n // 2) % n) * n + k[:, None]).ravel()
    to_diagonals = (k * n + (k - k[:, None] + n // 2) % n).ravel()
    to_entries.flags.writeable = False
    to_diagonals.flags.writeable = False
    return to_entries, to_diagonals


def _phase_powers(z: np.ndarray, order: int) -> np.ndarray:
    """z^m for m = -order..order as rows, by repeated multiplication.

    The negative powers are the conjugates of the positive ones, exact for
    |z| = 1.
    """
    powers = np.empty((2 * order + 1, len(z)), dtype=np.complex128)
    powers[order] = 1.0
    for m in range(order + 1, 2 * order + 1):
        np.multiply(powers[m - 1], z, out=powers[m])
    np.conjugate(powers[:order:-1], out=powers[:order])
    return powers


def _chain(u: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """States u[0] psi, u[1] u[0] psi, ... for a stack of N unitaries, as (N, n).

    Up to _SCAN_BLOCK unitaries are applied one by one.  A longer stack is
    cut into B blocks of L = min(_SCAN_BLOCK, isqrt(N)), and L - 1 products
    form the running products of every block at once.  psi is carried to the
    start of each block by _chain over the B - 1 block products, and one more
    product applies each block's running products to its start.  Up to
    n = _SCAN_MAX_N the blocks are stored block index innermost and each
    product is one elementwise multiply and sum over all blocks; above it
    each matrix is stored whole and each product is one batched BLAS call.
    The input stack is left unchanged.
    """
    count, n = u.shape[0], u.shape[-1]
    if count <= _SCAN_BLOCK:
        states = np.empty((count, n), dtype=np.complex128)
        states[0] = u[0] @ psi
        for j in range(1, count):
            states[j] = u[j] @ states[j - 1]
        return states
    size = min(_SCAN_BLOCK, math.isqrt(count))
    blocks, rest = -(-count // size), count % size
    small = n <= _SCAN_MAX_N
    # prefix[i] holds u[b L + i] ... u[b L + 1] u[b L] for every block b, as
    # (n, n, B) up to _SCAN_MAX_N, else as (B, n, n); grouped views it as
    # (B, L, n, n), and starts[b], the state at the start of block b, keeps
    # the block index innermost.  Zeros pad the last block, whose products
    # only reach the states cut off at the end
    prefix = np.empty((size, n, n, blocks) if small else (size, blocks, n, n), np.complex128)
    grouped = prefix.transpose((3, 0, 1, 2) if small else (1, 0, 2, 3))
    grouped[: count // size] = u[: count - rest].reshape(-1, size, n, n)
    if rest:
        grouped[-1, :rest] = u[count - rest :]
        grouped[-1, rest:] = 0.0
    for i in range(1, size):
        if small:
            prefix[i] = (prefix[i][:, :, None] * prefix[i - 1][None]).sum(1)
        else:
            prefix[i] = prefix[i] @ prefix[i - 1]
    starts = np.empty((n, blocks), dtype=np.complex128).T
    starts[0] = psi
    starts[1:] = _chain(grouped[:-1, -1], psi)
    if small:
        grouped *= starts[:, None, None]
        states = grouped.sum(3)
    else:
        states = grouped @ starts[:, None, :, None]
    return states.reshape(blocks * size, n)[:count]


def _period_steps(spec: SystemSpec, dt: float):
    """Steps per drive period K when dt divides the period, else None.

    The step-midpoint Hamiltonians then repeat every K steps.  A constant
    Hamiltonian (no drive, g = 0 or w = 0) repeats every step, K = 1.
    """
    if _is_static(spec):
        return 1
    turn = abs(spec.omega) * dt
    if turn * MAX_STEPS < 2.0 * math.pi:
        return None  # a period longer than any run
    k = round(2.0 * math.pi / turn)
    if k >= 1 and abs(k * turn - 2.0 * math.pi) <= _PERIOD_RTOL * 2.0 * math.pi:
        return k
    return None


def _sample_propagators(u: np.ndarray, every: int) -> np.ndarray:
    """Products of every consecutive step unitaries of a period over lcm(K, every) steps.

    ``u`` holds the K step unitaries of one period of a grid whose steps
    repeat them.  Entry j of the result maps the state at step j * every to
    the state at step (j + 1) * every, for j below lcm(K, every) / every.
    """
    period, n = len(u), u.shape[-1]
    block = math.lcm(period, every)
    u = u[np.arange(block) % period].reshape(block // every, every, n, n)
    # halve the number of factors per propagator until one is left; the
    # later step multiplies from the left, an odd last factor waits a round
    while u.shape[1] > 1:
        pairs = u.shape[1] // 2
        paired = u[:, 1 : 2 * pairs : 2] @ u[:, 0 : 2 * pairs : 2]
        u = np.concatenate((paired, u[:, 2 * pairs :]), axis=1)
    return u[:, 0]


def evolve(spec: SystemSpec, config: EvolutionConfig) -> Trajectory:
    """Propagate the spec's initial value problem over the config's time grid.

    The drive phase is taken at every step midpoint, so it is exact.  Steps
    are processed in chunks of at most CHUNK_BYTES of matrices.  On a grid
    of K steps per drive period only one period's unitaries are formed and
    each whole sample interval costs one propagator in the chain; only the
    full-length steps after the last whole interval and a shortened last
    step are fresh.  When the full-length steps that need a unitary, the
    reused period's and the fresh ones, are at least Q (Q = 2S + 1 phases
    in [0, 2 pi / n), from M and dt g / 2; see _table_order), their
    unitaries are summed from a Fourier table over the drive phase that one
    batched eigh of Q matrices builds once per run; otherwise they are
    diagonalized in one batched eigh call per chunk.  All kinds of chunk
    share one loop (see the module docstring).  Raises ValueError when the
    drive phase w t is not finite at t_start or t_end (the time is
    reported), when the drift diag(E - Delta_0) or the bound
    2 (max|drift| + g) dt on a step's eigenphases is too large for float64,
    or when the samples would need more than MAX_SAMPLE_BYTES, and
    EigenConvergenceError when the eigensolver fails.
    """
    n = spec.n
    psi = _initial_vector(n, config.initial_state)
    t_start, t_end, dt = config.t_start, config.t_end, config.dt
    n_steps = _step_count(t_end - t_start, dt)
    every = config.sample_every
    # the initial instant, every every-th step, and the last step
    n_samples = n_steps // every + 1 + (n_steps % every != 0)
    need = n_samples * (n + 2) * 8
    if need > MAX_SAMPLE_BYTES:
        raise ValueError(
            f"{n_samples} samples of {n} levels need {need} bytes, over the "
            f"{MAX_SAMPLE_BYTES}-byte budget; raise sample_every or shorten the run"
        )
    # w t is largest in size at an end of the run; a static spec never forms it
    # (see _phase_factors)
    for t in (t_start, t_end):
        if not (_is_static(spec) or math.isfinite(spec.omega * t)):
            raise ValueError(f"drive phase w t is not finite at t = {t!r}")
    # ||H(t)|| <= max|drift| + g, since the drive's A has norm g / 2 (see
    # _table_order), so every eigenphase of a step stays below that bound
    # times dt; the factor 2 leaves room for rounding and for a last step
    # slightly longer than dt (see _step_count)
    with np.errstate(over="ignore", invalid="ignore"):
        drift = build_drift(spec)
    levels = drift.diagonal().tolist()
    if not all(map(math.isfinite, levels)):
        raise ValueError("drift diag(E - Delta_0) is too large for float64")
    if not math.isfinite(2.0 * ((max(map(abs, levels)) + spec.g) * dt)):
        raise ValueError("step phase bound 2 (max|drift| + g) dt is too large for float64")
    # every H of the run is assembled from this drift and one drive coefficient
    parts = drift, drive_coefficient(spec)
    # sample k follows step min(k every, n_steps); the ends are set as given,
    # since t_start + 0 dt would turn a t_start of -0.0 into 0.0
    marks = np.minimum(np.arange(n_samples) * every, n_steps)
    times = t_start + marks * dt
    times[0], times[-1] = t_start, t_end
    populations = np.empty((n_samples, n), dtype=np.float64)
    populations[0] = psi.real**2 + psi.imag**2

    chunk = max(1, CHUNK_BYTES // (16 * n * n))
    # a last step shortened to land on t_end is neither the period's nor the
    # phase table's
    whole = n_steps if t_start + n_steps * dt == t_end else n_steps - 1
    # period reuse takes every whole sample interval, up to step done, when
    # lcm(K, every) steps fit a chunk and the run: sample j starts at residue
    # j every mod K, which repeats with j mod lcm(K, every) / every
    period = _period_steps(spec, dt)
    reuse = period is not None and math.lcm(period, every) <= min(chunk, whole)
    done = whole - whole % every if reuse else 0
    # the full-length steps that need a unitary, the reused period's K and the
    # fresh ones (fewer than every under reuse), are summed from a phase table
    # when its Q phases fit a chunk and cost no more eigh work than those
    # steps; this is decided before any eigh, and the table is built once,
    # only for such runs
    order = _table_order(spec, dt, min((period if reuse else 0) + whole - done, chunk))
    table = None if order is None else _phase_table(parts, dt, order)
    if reuse:
        mids = t_start + (np.arange(period) + 0.5) * dt
        props = _sample_propagators(_step_unitaries(spec, parts, mids, dt, table), every)

    # each pass chains a stack u of unitaries, u[i] ending at step ends[i]:
    # reused sample propagators up to step done, fresh full-length steps up to
    # step whole, then a last step shortened to land on t_end
    pos, k = 0, 1
    while pos < n_steps:
        if pos < done:
            j = np.arange(pos // every, min(pos // every + chunk, done // every))
            u, ends = props[j % len(props)], (j + 1) * every
        elif pos < whole:
            ends = np.arange(pos + 1, min(pos + chunk, whole) + 1)
            u = _step_unitaries(spec, parts, t_start + (ends - 0.5) * dt, dt, table)
        else:
            t0 = t_start + whole * dt
            mid = np.array([t0 + 0.5 * (t_end - t0)])
            u = _step_unitaries(spec, parts, mid, t_end - t0)
            ends = np.array([n_steps])
        chain = _chain(u, psi)
        psi = chain[-1]
        sampled = chain[(ends % every == 0) | (ends == n_steps)]
        populations[k : k + len(sampled)] = sampled.real**2 + sampled.imag**2
        pos, k = int(ends[-1]), k + len(sampled)

    return Trajectory(
        times=times,
        populations=populations,
        norm_errors=np.abs(np.sqrt(populations.sum(axis=1)) - 1.0),
        final_state=psi.copy(),
    )
