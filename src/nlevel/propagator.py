"""Midpoint-exponential propagation of driven n-level systems.

Each step applies exp(-i dt H(t + dt/2)) to the state, with the matrix
exponential evaluated through a full hermitian eigendecomposition (LAPACK,
through numpy.linalg.eigh, in one kernel, _unitaries), or, for full-length
steps, taken in a rotating frame from one such decomposition (rwa2 and
static specs) or summed from a phase table built from such decompositions
(long runs of the other drives), whose products over a sample interval a
jump table gives.  Step k is exactly dt long and centred at
t_start + (k + 1/2) dt on every path, so the frame, the table and eigh see
the same phase and length for it; when the grid does not end on t_end, a
last step from t_start + K dt to t_end, K the number of full steps, follows
in the lab frame, diagonalized on its own.  H(t) does not depend on the
state, so evolve forms the step unitaries of many steps at once, in chunks.
H(t) is hermitian by construction (see hamiltonian_at), so nothing checks
that at run time; before any step, evolve checks that the drift and a bound
on every step's eigenphases are finite, so that no step can overflow.  The
chain of states through a chunk is a blocked prefix product (Blelloch,
CMU-CS-90-190, 1990), one algorithm for every n (_chain): the N unitaries
are cut into blocks of at most 8, each block's running products are formed
for all blocks at once, the state is carried from block to block by the
same chain over the block products, and one more product over all blocks
gives every state.  Only the storage and the product depend on n.  Up to _SCAN_MAX_N the
blocks are stored block index innermost, so each product is one elementwise
multiply and sum over all blocks; a BLAS call per 3 x 3 product would cost
more than its arithmetic.  Above it each product is one batched BLAS call.
The scheme is second order in dt and unitary to solver precision, so norm
drift shows rounding only, not the discretization error: the resonant
two-level drive of configs/rabi_two_level.json, run for 5,000 steps of T/100,
strays up to 1.17e-3 from the closed form sin^2(g t / 2) while its norm
errors stay below 1.3e-12.

Rotating frame.  The rwa2 drive couples level 1 to level 0 through
e^{i theta} alone, so with R(theta) = diag(e^{i k theta}), k = 0..n-1,
H(theta) = R(theta) H(0) R(theta)^dagger; for a static spec (no drive,
g = 0 or w = 0) every step takes theta = 0 and R = I.  A step starting at
drive phase a is then R(a) U(w dt / 2) R(a)^dagger, and k steps multiply to
R(a_k) W^k R(a_0)^dagger, a_k the phase at step edge k and
W = R(-w dt / 2) U(0) R(-w dt / 2): the frame in which the RWA Hamiltonian
does not depend on time (Shirley, Phys. Rev. 138, B979, 1965), applied to
the stepper's own product.  evolve diagonalizes U(0) once, forms
M = W^sample_every by binary powers, and chains the frame states of the
sample instants, M^j R(a_0)^dagger psi, one CHUNK_BYTES chunk at a time,
each chunk in about log2 of its length products (see _power_states).  R is
diagonal, so the frame states' populations are the lab frame's; only the
final state is rotated back.  The fewer than sample_every full-length steps
after the last sample instant are W^r.  No phase table, jump table or step
unitary is formed.

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
n >= 2M + 1, S = 0: one eigh, of U(0), serves every full-length step of the
run.  The table serves the fresh full-length steps, those no jump covers (a
last step shortened to land on t_end is not one of them), when there are at
least Q of them and the table fits: Q matrices fit in a chunk, and so do the
powers of the Q phase factors that its DFT takes, about n Q^2 entries.
Other runs, such as a one-step run or dt g / 2 beyond about 20 at n = 2,
diagonalize every step.  The powers take about n Q rows per step, so a
chunk's steps go through in slices whose powers fit CHUNK_BYTES.

Jump tables.  The product of L = sample_every steps,
V_L(theta) = U(theta + (L - 1) delta) ... U(theta), delta = w dt and theta
the drive phase at the first step's midpoint, is a 2 pi-periodic function
of theta on any grid, with U's clock symmetry and Fourier orders that fall
off like (L dt g/2)^|m| / |m|! (Shirley, 1965).  So it is kept as a table
of the step's kind, which _jump_table composes from the phase table by
binary powers, V_{a+b}(theta) = V_b(theta + a delta) V_a(theta), each
composition a sum, a product and a DFT over the Q phases of its table.
Every whole sample interval then costs one table sum at its start phase
and one link in the chain, as a step does.  evolve composes when the jump
table fits as the phase table must and when its compositions, each forming
about 3 Q matrices, form fewer than the steps the jumps replace; so a
one-step run, sample_every = 1 and a run of two steps at n = 32 take fresh
steps only.  The fewer than sample_every full-length steps after the last
whole interval are fresh steps, in the same loop: each pass chains one
stack, of jumps or of steps, and records the states that end on a multiple
of sample_every.
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
# and jump tables), whatever the run length.  Measured on the phase-table path
# at n = 3 and n = 8 (20,000 and 4,000 steps of dt = 0.005, off the period
# grid, every step sampled) on one pinned CPU of a 2-vCPU x86 VM (OpenBLAS): evolve took
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
    coefficients (see _table_sum); without it they come from one batched
    eigh.  With a jump table (see _jump_table) in its place, they are the
    propagators over the table's steps whose first step is centred at each
    midpoint.
    """
    z = _phase_factors(spec, mids)
    if table is None:
        span = f"[{float(mids[0])!r}, {float(mids[-1])!r}]"
        return _unitaries(parts, z, dt, f"at some t in {span}")
    # the steps go through in slices whose powers of z fit CHUNK_BYTES
    rows = _power_rows(spec.n, table.shape[-1] // 2)
    size = max(1, CHUNK_BYTES // (16 * rows))
    u = [_table_sum(table, _phase_powers(z[i : i + size], rows // 2))
         for i in range(0, len(z), size)]
    return u[0] if len(u) == 1 else np.concatenate(u)


def _table_sum(table: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The matrices of a table at N phase factors z, as an (N, n, n) stack.

    ``powers`` holds z^m as rows (see _phase_powers), up to an order of at
    least n S + n/2.  Entry (a, b) on diagonal r is
    sum_s T_s[a, b] z^(m* + n s) (see _phase_table), one product
    (n, Q) @ (Q, N) per diagonal, gathered back to matrix order.  The stack
    is a view, step index last.
    """
    n, width = table.shape[0], table.shape[-1] // 2
    u = table @ _diagonal_powers(powers, n, width)
    # powers passed in as a temporary are freed before the gather allocates
    # as much again: in a fresh process, holding them took about 50 more
    # minor page faults per 1,500 steps at n = 3
    del powers
    return np.take(u.reshape(n * n, -1), _diagonal_order(n)[0], axis=0).T.reshape(-1, n, n)


def _table_width(n: int, order: int) -> int:
    """S = (M + n/2) // n, n/2 rounded down: Q = 2 S + 1 phases resolve orders up to M.

    Entry (a, b) of a step unitary carries the Fourier orders m* + n s (see
    _phase_table), m* in [-n/2, n - 1 - n/2]; |s| <= S holds every such
    order up to M, and the first left out, |s| = S + 1, lies beyond M.
    """
    return (order + n // 2) // n


def _power_rows(n: int, width: int) -> int:
    """Rows 2 (n S + n/2) + 1 of the powers of one phase factor (see _diagonal_powers)."""
    return 2 * (n * width + n // 2) + 1


def _table_order(spec: SystemSpec, dt: float, limit: int):
    """Fourier order M of the step unitary's phase table, or None when it does not fit.

    M is the smallest order with 2 x^(M+1) / (M+1)! <= eps for x = dt g / 2,
    and the table samples Q = 2 S + 1 phases, S from _table_width.  It fits
    when Q <= limit and the powers of its Q phase factors, which its DFT
    multiplies by, fit CHUNK_BYTES.  Up to that bound the table is about as
    fast as eigh or faster (4,096 steps at n = 2 and Q = 83: 7.4 ms against
    7.2 ms; 1,820 steps at n = 3 and Q = 71: 4.7 against 8.3 ms), beyond it
    slower (n = 2, Q = 1,121: 62 against 7.2 ms).  g / 2 is
    the spectral norm of drive_coefficient for every drive model (0 for
    "none", a bound then).  The Fourier coefficient of order m of U(theta)
    collects terms of order |m| and above in dt A, so its size falls off like
    x^|m| / |m|! (Shirley, Phys. Rev. 138, B979, 1965): the orders left out
    and those the Q-point transform folds onto the kept ones, |m| > M, stay
    at about eps.
    """
    n, x = spec.n, 0.5 * spec.g * dt
    # term = 2 x^(order+1) / (order+1)!; from order n on, the Q > 2 order / n
    # - 1 phases and at least 2 order rows of the powers take more than
    # 32 order^2 / n entries, so no order beyond fits, which bounds the loop
    order, term = 0, 2.0 * x
    while term > _EPS and (order < n or 32 * order**2 <= CHUNK_BYTES * n):
        order += 1
        term *= x / (order + 1)
    phases = 2 * _table_width(n, order) + 1
    fits = phases <= limit and 16 * phases * _power_rows(n, phases // 2) <= CHUNK_BYTES
    return order if fits else None


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
    q = 2 * _table_width(n, order) + 1
    z = root_power(n * q, np.arange(q))
    u = _unitaries(parts, z, dt, f"on the drive-phase table for dt = {dt!r}")
    # at Q = 1 the one phase is theta = 0, where the pattern is 1 and the DFT
    # the identity
    powers = _phase_powers(z.conj(), _power_rows(n, q // 2) // 2) if q > 1 else None
    return _transform(u, powers)


def _transform(u: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Table (n, n, Q) of Q samples u, as (Q, n, n), at the phases theta_j = 2 pi j / (n Q).

    The Q-point DFT of the samples with their phase pattern removed, kept by
    cyclic diagonal: T_s = (1/Q) sum_j u_j e^{-i (m* + n s) theta_j} for
    s = -S..S, Q = 2 S + 1 (see _phase_table).  ``powers`` holds
    e^{-i m theta_j} as rows (see _table_sum); None takes the samples as the
    table, which they are at Q = 1.
    """
    q, n = u.shape[0], u.shape[-1]
    _, to_diagonals = _diagonal_order(n)
    u = np.take(u.reshape(q, -1), to_diagonals, axis=1).reshape(q, n, n).transpose(1, 2, 0)
    if powers is None:
        return u
    return u @ _diagonal_powers(powers, n, q // 2).transpose(0, 2, 1) / q


def _diagonal_powers(powers: np.ndarray, n: int, width: int) -> np.ndarray:
    """z^(m* + n s), m* = r - n/2, for every diagonal r and s = -S..S, as (n, Q, N).

    Row r + n (s + S) - n S - n/2 of the rows z^m of _phase_powers, whose
    order is at least n S + n/2, viewed without a copy.
    """
    q = 2 * width + 1
    start = len(powers) // 2 - (n * width + n // 2)
    return powers[start : start + n * q].reshape(q, n, -1).transpose(1, 0, 2)


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


def _jump_table(spec: SystemSpec, table: np.ndarray, dt: float, every: int) -> np.ndarray:
    """Table of V_every, the propagator over every steps, by binary composition.

    V_L(theta) is the product of L steps, the first at drive phase theta and
    each next one delta = w dt later, so V_{a+b}(theta) =
    V_b(theta + a delta) V_a(theta).  V_L has the symmetry of a step,
    V(theta + 2 pi / n) = Z V(theta) Z^dagger, and its Fourier orders fall
    off like x^|m| / |m|!, x = L dt g / 2, so it is kept as a table of the
    step's kind, with the order _table_order gives for steps of L dt.
    Starting from the step's phase table, it reads the binary digits of
    every after the leading one: each doubles V_L, and each digit 1 adds one
    step, so every.bit_length() + every.bit_count() - 2 compositions.  Each
    sums both factors at the Q phases theta_j = 2 pi j / (n Q) of V_{a+b}'s
    table, the second with its coefficients of order m times
    e^{i m a delta}, multiplies them and transforms the products (see
    _transform).  The shift e^{i a delta} is formed as (e^{i a w dt / 2})^2:
    a dt is at most the run's span and w t is finite at both of its ends,
    so w a dt / 2 is finite where w a dt may not be.
    """
    n = spec.n

    def compose(first, a, second, b):
        q = 2 * _table_width(n, _table_order(spec, (a + b) * dt, math.inf)) + 1
        top = _power_rows(n, q // 2) // 2
        m = np.arange(-top, top + 1)[:, None]
        # z_j^m at the Q phases, which are roots of unity of order n Q
        powers = root_power(n * q, np.arange(n * q))[m * np.arange(q) % (n * q)]
        shift = _phase_factors(spec, 0.5 * (a * dt)) ** 2
        return _transform(_table_sum(second, powers * shift**m) @ _table_sum(first, powers),
                          powers.conj())

    jump, length = table, 1
    for digit in bin(every)[3:]:
        jump, length = compose(jump, length, jump, length), 2 * length
        if digit == "1":
            jump, length = compose(jump, length, table, 1), length + 1
    return jump


def _lab_steps(spec, parts, psi, t_start, dt, whole, every, populations):
    """Full-length steps 1..whole from eigh, the phase table and a jump table.

    Records the states that end a sample interval in ``populations`` from
    row 1 on and returns the state after step ``whole`` and the next row.
    """
    chunk = max(1, CHUNK_BYTES // (16 * spec.n**2))
    count = whole // every
    # each whole sample interval takes one jump when the jump table fits (see
    # _table_order) and composing it forms fewer matrices than the jumps
    # save: each composition forms Q samples of both factors and their Q
    # products (see _jump_table), so 3 Q compositions + count must stay below
    # count every, which bounds Q
    compositions = every.bit_length() + every.bit_count() - 2
    pays = (count * (every - 1) - 1) // (3 * compositions) if compositions else 0
    done = count * every if _table_order(spec, every * dt, min(chunk, pays)) is not None else 0
    # the fresh full-length steps are summed from the phase table when it fits
    # a chunk and they are at least Q (see _table_order), and so is the jump
    # table's first factor; this is decided before any eigh, and the tables
    # are built once, only for such runs
    order = _table_order(spec, dt, chunk if done else min(whole, chunk))
    table = None if order is None else _phase_table(parts, dt, order)
    jump = _jump_table(spec, table, dt, every) if done else None

    # each pass chains a stack of unitaries over unit steps each, from step
    # start on: jumps up to step done, then fresh full-length steps; the
    # states that end on a multiple of every are sampled
    k = 1
    for begin, stop, unit, tab in ((0, done, every, jump), (done, whole, 1, table)):
        for start in range(begin, stop, chunk * unit):
            starts = np.arange(start, min(start + chunk * unit, stop), unit)
            u = _step_unitaries(spec, parts, t_start + (starts + 0.5) * dt, dt, tab)
            chain = _chain(u, psi)
            psi = chain[-1]
            sampled = chain[-(start + unit) % every // unit :: every // unit]
            populations[k : k + len(sampled)] = sampled.real**2 + sampled.imag**2
            k += len(sampled)
    return psi, k


def _in_frame(spec: SystemSpec) -> bool:
    """True when H(theta) = R(theta) H(0) R(theta)^dagger, R(theta) = diag(e^{i k theta}).

    So for rwa2, whose drive couples level 1 to level 0 through e^{i theta},
    and for a static spec, whose steps all take theta = 0 (see
    _phase_factors), where R = I.
    """
    return spec.drive_model == "rwa2" or _is_static(spec)


def _frame_steps(spec, parts, psi, t_start, dt, whole, every, populations):
    """Full-length steps 1..whole in the rotating frame, for a spec that is _in_frame.

    With R(theta) = diag(e^{i k theta}), the step at drive phase
    theta = a + w dt / 2, a the phase at its start, is
    R(a) U(w dt / 2) R(a)^dagger, so k steps from t_start multiply to
    R(a_k) W^k R(a_0)^dagger, a_k the phase at step edge k and
    W = R(-w dt / 2) U(0) R(-w dt / 2).  One eigh, of U(0), serves the run.
    The frame states W^(j every) R(a_0)^dagger psi of the sample intervals
    are chained one chunk at a time from M = W^every (see _power_states);
    R is diagonal, so their populations are the lab frame's.  Of the drive
    phases only w t_start, w t at step edge whole and w dt / 2 are formed:
    the first two lie between the ends' w t, which evolve checks are
    finite, and dt <= t_end - t_start bounds the third by half their
    difference, where w dt itself may overflow.  Records the states that
    end a sample interval in ``populations`` from row 1 on and returns the
    state after step ``whole``, back in the lab frame, and the next row.
    """
    if not whole:
        return psi, 1
    n = spec.n
    levels = np.arange(n)
    u0 = _unitaries(parts, np.ones(1, dtype=np.complex128), dt,
                    f"in the rotating frame for dt = {dt!r}")[0]
    half = _phase_factors(spec, 0.5 * dt).conj() ** levels
    w = half[:, None] * u0 * half
    edges = _phase_factors(spec, t_start + np.array([0, whole]) * dt)
    phi = psi * edges[0].conj() ** levels
    power = np.linalg.matrix_power(w, every)
    count, size, k = whole // every, max(1, CHUNK_BYTES // (16 * n)), 1
    for start in range(0, count, size):
        states = _power_states(power, phi, min(size, count - start))
        populations[k : k + len(states)] = states.real**2 + states.imag**2
        phi, k = states[-1], k + len(states)
    if whole % every:
        phi = np.linalg.matrix_power(w, whole % every) @ phi
    return phi * edges[1] ** levels, k


def _power_states(m: np.ndarray, phi: np.ndarray, count: int) -> np.ndarray:
    """m phi, m^2 phi, ..., m^count phi as the rows of a (count, n) array.

    Each round applies m^p to the p states already formed, as one product
    (p, n) @ (n, n) with the transpose of m^p, and squares m^p, so count
    states take about log2(count) products.
    """
    states = np.empty((count, len(phi)), dtype=np.complex128)
    states[0] = m @ phi
    m, done = m.T, 1
    while done < count:
        take = min(done, count - done)
        states[done : done + take] = states[:take] @ m
        done += take
        m = m @ m
    return states


def evolve(spec: SystemSpec, config: EvolutionConfig) -> Trajectory:
    """Propagate the spec's initial value problem over the config's time grid.

    The drive phase is taken at every step midpoint, so it is exact.  An
    rwa2 or static spec takes its full-length steps in the rotating frame,
    from one eigh of U(0) (see _frame_steps).  The other drives process
    their steps in chunks of at most CHUNK_BYTES of matrices.  When a jump
    table over sample_every steps fits and composing it forms fewer
    matrices than the steps it replaces, each whole sample interval costs
    one propagator, summed from that table, in the chain; only the
    full-length steps after the last whole interval are fresh.  When the
    fresh full-length steps are at least Q (Q = 2S + 1 phases in
    [0, 2 pi / n), from M and dt g / 2; see _table_order), or a jump table
    is composed, their unitaries are summed from a Fourier table over the
    drive phase that one batched eigh of Q matrices builds once per run;
    otherwise they are diagonalized in one batched eigh call per chunk.
    Jumps and fresh steps share one loop (see the module docstring).  On
    every path a last step shortened to land on t_end is
    diagonalized on its own, in the lab frame.  Raises ValueError when the
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

    # a last step shortened to land on t_end is neither the frame's, a jump
    # table's nor the phase table's; it runs in the lab frame after the
    # full-length steps
    whole = n_steps if t_start + n_steps * dt == t_end else n_steps - 1
    steps = _frame_steps if _in_frame(spec) else _lab_steps
    psi, k = steps(spec, parts, psi, t_start, dt, whole, every, populations)
    if whole < n_steps:
        t0 = t_start + whole * dt
        mid = np.array([t0 + 0.5 * (t_end - t0)])
        psi = _step_unitaries(spec, parts, mid, t_end - t0)[0] @ psi
    # the last sample is the final state, unless it closed a sample interval
    if k < n_samples:
        populations[k] = psi.real**2 + psi.imag**2

    return Trajectory(
        times=times,
        populations=populations,
        norm_errors=np.abs(np.sqrt(populations @ np.ones(n)) - 1.0),
        final_state=psi.copy(),
    )
