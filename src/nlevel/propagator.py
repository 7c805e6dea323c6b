"""Midpoint-exponential propagation of driven n-level systems.

Each step applies exp(-i dt H(t + dt/2)) to the state, with the matrix
exponential evaluated through a full hermitian eigendecomposition (LAPACK,
through numpy.linalg.eigh, in one kernel, _spectrum; in real arithmetic
where H is real, see below), or taken in a rotating frame as powers of one
step (rwa2 and static specs), or, for full-length steps of the other
drives, summed in the drive's frame from a phase table built from such
decompositions (long runs), whose products over a sample interval a jump
table gives, or, for
the lab steps of short runs, applied to the state as its Taylor series
(see below).  Step k is exactly dt long and centred at
t_start + (k + 1/2) dt on every path, so the frame, the table, Taylor and
eigh see the same phase and length for it.  One function, _grid, decides
the grid of every path: K full steps, and the length h of a last step from
t_start + K dt to t_end, which follows on the same path only when h is
nonzero: in the frame, or on its own, by Taylor or eigh.  So no run takes
a zero-length step.  Each path takes every step of its run and writes the
sample of full step s, s a multiple of sample_every, to row
s // sample_every; evolve only dispatches, and writes the final state into
the last row when a last step of length h or a part interval ends the run.
One function, _route, decides the lab path's route from the grid alone,
before any array is formed or eigh made: the steps jumps cover, the phase
table's Q, the Taylor order of the fresh full-length steps and that of the
last step, or eigh; _lab_steps carries it out.
H(t) does not depend on the state, so evolve forms the step unitaries, or
the H of Taylor steps, of many steps at once, in chunks.
H(t) is hermitian by construction (see hamiltonian_at), so nothing checks
that at run time.  Before any step, evolve checks that the drift's levels,
the Python floats of the one helper build_drift also reads, and a bound on
every step's eigenphases are finite, so that no step can overflow; the
levels enter only the diagonal of an assembled H (see _at_phase).  The
chain of states through a chunk (_chain) applies one matrix-vector product
per step to a stack of at most 8 unitaries, and to any stack from
n = _LOOP_MIN_N on, where that n^2 work per step costs less than the n^3
of a blocked product.  Below it a longer stack is chained as a blocked
prefix product (Blelloch, CMU-CS-90-190, 1990): the N unitaries are cut
into blocks of at most 8, each block's running products are formed for all
blocks at once, the state is carried from block to block by the same chain
over the block products, and one more product over all blocks gives every
state.  Up to _SCAN_MAX_N the blocks are stored block index innermost, so
each product is one elementwise multiply and sum over all blocks; a BLAS
call per 3 x 3 product would cost more than its arithmetic.  Above it each
product is one batched BLAS call.
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
the stepper's own product.  At n = 2, which every rwa2 spec has, W is a
phase times an SU(2) rotation whose entries follow in closed form from the
three numbers of H(0) (Rabi, Phys. Rev. 51, 652, 1937), read from the
drift's levels and the drive coefficient without forming H(0), and W^k is
the rotation by k times its angle: scalar arithmetic, no eigh and no other
numpy.linalg call.  A static spec above n = 2 has W = U(0), and
W^k = X diag(e^{i k theta_j}) X^dagger from one eigh of H(0), which is
real symmetric, so X is real (see _frame_powers).  The frame forms
M = W^sample_every and chains the frame states of the sample instants,
M^j R(a_0)^dagger psi, one CHUNK_BYTES chunk at a time, each chunk in about
log2 of its length products (see _power_states).  R is diagonal, so the
frame states' populations are the lab frame's; only the final state is
rotated back.  The fewer than sample_every full-length steps after the
last sample instant are W^r, and a last step of length h is the frame's
step at that length, W_h, from the same closed form or the same eigh.  No
phase table, jump table or step unitary is formed.

Phase table.  H = drift + e^{i theta} A + h.c. depends on t only through the
drive phase theta = w t, so the unitary U(theta) = exp(-i dt H(theta)) of a
step of length dt is a smooth 2 pi-periodic function of one angle.  Its
Fourier coefficients fall off like (dt g/2)^|m| / |m|! (Shirley, Phys. Rev.
138, B979, 1965), so the orders |m| <= M (see _table_phases) give U to about
eps.  The paper's clock Z and shift S obey Z S Z^dagger = sigma S, sigma =
e^{2 pi i / n} (Weyl), every drive model's A obeys Z A Z^dagger = sigma A, and
the drift is diagonal, so U(theta + 2 pi / n) = Z U(theta) Z^dagger: entry
(a, b) of U carries only the orders m = a - b mod n.  So
U(theta) = R(theta) G(theta) R(theta)^dagger, R as in the rotating frame,
with G of period 2 pi / n, a short series sum_j y^j C_j in y = e^{i n theta}
whose Q + 2 coefficients are fixed matrices, and the phases in
[0, 2 pi / n) fix it.  evolve diagonalizes U at Q such phases (see
_table_phases) in one batched eigh, once per run, and keeps the frame's
coefficients R(-w dt / 2) C_j R(-w dt / 2) in matrix order (see
_phase_table).  The passes the table serves carry the state in the drive's
frame, phi = R(a)^dagger psi, a the drive phase at the step edge, as the
rotating frame does, so each full-length step is
phi <- sum_j y^j R(-w dt / 2) C_j R(-w dt / 2) phi, at y of its midpoint:
one product (N, Q + 2) @ (Q + 2, n^2) for a chunk's steps, and the state
rotates back once, by the frame's own phase.  At n >= 2M + 1, Q = 1: one
eigh, of H(0), serves every full-length step of the run.  The drift is real
and diagonal and every drive model's A is real (the paper's shift S, or
sigma_minus), so H(0) = drift + A + A^T is real symmetric, and the parts
every H is assembled from hold A real (see hamiltonian._parts): that eigh,
like the frame's, runs in real arithmetic (LAPACK dsyevd, 0.67-0.77 of
zheevd's time at n = 32), and only the phase factors of other phases make H
complex.  The table serves the fresh full-length steps,
those no jump covers (a last step shortened to land on t_end is not one of
them), when there are at least Q of them and the table fits (see
_table_phases).  Other runs, such as a one-step run or dt g / 2 beyond
about 22.4 at n = 2, take Taylor steps or diagonalize every step, and runs
whose Taylor steps cost less than the table's eigh take no table (see
Taylor steps).  A chunk's steps go through in slices whose Q + 2 powers of
y fit CHUNK_BYTES.

Jump tables.  The product of L = sample_every steps,
V_L(theta) = U(theta + (L - 1) delta) ... U(theta), delta = w dt and theta
the drive phase at the first step's midpoint, is a 2 pi-periodic function
of theta on any grid, with U's clock symmetry and Fourier orders that fall
off like (L dt g/2)^|m| / |m|! (Shirley, 1965).  So its frame propagator,
G~_L(theta) = R(a + L delta)^dagger V_L(theta) R(a), a = theta - w dt / 2,
is kept as a table of the step's kind, which _jump_table composes from the
phase table by binary powers, G~_{a+b}(theta) = G~_b(theta + a delta)
G~_a(theta), each composition a sum, a product and a DFT over the Q phases
of its table.  Every whole sample interval then costs one table sum at its
start phase and one link in the chain, as a step does.  evolve composes
when the jump table fits as the phase table must and when its
compositions, each forming about 3 Q matrices, form fewer than the steps
the jumps replace; so a one-step run, sample_every = 1 and a run of two
steps at n = 32 take fresh steps only.  The fewer than sample_every
full-length steps after the last whole interval are fresh steps from the
phase table, in the same loop and the same frame: each pass chains one
stack, of jumps or of steps, and records the states that end on a multiple
of sample_every.

Taylor steps.  H(t) is hermitian with ||H|| <= max|E - Delta_0| + g, so a
step of length h with x = h (max|E - Delta_0| + g) < 1 is, to eps, the sum
psi <- sum_{k <= K} (-i h H)^k psi / k!, K from the remainder bound
e^x x^(K+1) / (K+1)! <= eps (Al-Mohy and Higham, SIAM J. Sci. Comput. 33,
488, 2011): K matrix-vector products and no eigh (see _taylor_order).
Costs are counted in such products, and the choice is made before any
eigh.  count Taylor steps cost count K, and the eigh route about 1.5 n per
matrix it diagonalizes (_EIGH_PRODUCTS, measured): Q for a phase table,
one per step without it.  So when no jump table is composed, the fresh
full-length steps are Taylor steps when they cost less than that, and the
phase table is built only when its Q eighs cost less than they would; a
shortened last step is one Taylor step when its K costs less than its
eigh.  dense32's two steps at n = 32, K = 8, take 16 products in place of
the eigh of a one-phase table, about 48; a last step at n = 3 stays with
eigh unless x < 0.0019, where K = 4.  Steps with x >= 1 keep eigh.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import _as_int, root_power
from .hamiltonian import (
    SystemSpec,
    _as_real,
    _at_phase,
    _is_static,
    _ldexp,
    _parts,
    _phase_factors,
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
# smallest n whose stacks _chain applies one matrix-vector product at a time
# at every length: the blocked chain does n^3 work per step, the loop n^2.
# Measured on the same CPU (median of 101 alternated calls), the loop took
# 1.06, 0.91, 0.84 and 0.75 times the blocked chain's time at n = 12..15 for
# N = 50 unitaries, and 1.19, 1.01, 0.91 and 0.87 times for one chunk (N =
# 113, 96, 83 and 72); 0.39-0.42 times at n = 32
_LOOP_MIN_N = 13
# matrix-vector products that one eigh costs, per level (see _taylor_order):
# the order K at which a Taylor step (H assembled, K products H @ term, each
# scaled and added) costs as much as the eigh route's step (H assembled,
# diagonalized, exp(-i h H) formed and applied), over n.  Measured on the same
# CPU for one step (median of 301 alternated calls, 41 from n = 256, two
# processes): 3.7-3.8, 2.8-3.3, 2.25, 1.70, 1.57-1.58, 1.60, 1.63, 1.90-1.93,
# 2.9-3.1, 1.90, 3.1-3.4, 4.3-4.5, 4.2-4.6 and 2.5-2.6 at n = 2, 3, 4, 6, 8,
# 10, 13, 16, 24, 32, 64, 128, 256 and 512; below the least of them, so that
# a Taylor step is taken only where it costs less at every n measured
_EIGH_PRODUCTS = 1.5
# cap on the sampled times, populations and norm errors a run may hold
MAX_SAMPLE_BYTES = 2**30
# truncation error allowed in the phase table's Fourier sum and in a Taylor
# step (see _series_order)
_EPS = np.finfo(np.float64).eps


class EigenConvergenceError(RuntimeError):
    """The LAPACK hermitian eigensolver failed to converge."""


def hermitian_eig(h):
    """Eigenvalues (ascending) and eigenvector columns of a hermitian matrix.

    The input is symmetrized as (H + H^dagger)/2 before decomposition; an
    anti-hermitian residue above HERMITIAN_RTOL times the largest entry
    raises ValueError, as does an empty or non-square matrix, and a LAPACK
    convergence failure raises EigenConvergenceError.  The eigenvectors of a
    repeated eigenvalue are the orthonormal basis of its eigenspace that
    LAPACK returns.
    """
    a = np.asarray(h, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        raise ValueError("expected a matrix of at least one row, got shape (0, 0)")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    # halves first: a + a^dagger and a - a^dagger overflow near the float64 limit
    half, half_adjoint = 0.5 * a, 0.5 * _adjoint(a)
    if np.max(np.abs(half - half_adjoint)) > HERMITIAN_RTOL * np.max(np.abs(a)):
        raise ValueError(
            "matrix is not hermitian (anti-hermitian residue above "
            f"{HERMITIAN_RTOL:g} of its largest entry)"
        )
    return _spectrum(half + half_adjoint, "in hermitian_eig")


def exp_step(h_mid, dt, psi):
    """Apply exp(-i dt h_mid) to psi through the eigendecomposition of h_mid.

    Raises ValueError when a step phase w dt, w an eigenvalue, is too large
    for float64, as evolve does for its steps.
    """
    dt = _as_real(dt, "dt")
    w, v = hermitian_eig(h_mid)
    psi = np.asarray(psi, dtype=np.complex128)
    if psi.shape != (w.shape[0],):
        raise ValueError(
            f"state length {psi.shape} does not match matrix dimension {w.shape[0]}"
        )
    # in Python floats, which overflow to inf without a warning
    if not math.isfinite(float(max(-w[0], w[-1])) * dt):
        raise ValueError("step phase max|eigenvalue| dt is too large for float64")
    return v @ ((v.conj().T @ psi) * np.exp(-1j * w * dt))


@dataclass(frozen=True)
class EvolutionConfig:
    """Time grid and initial state for a propagation run.

    ``initial_state`` is either a basis index or an explicit amplitude
    sequence, kept as given; evolve normalizes the amplitudes (see
    _initial_vector) before the first step.  Every ``sample_every``-th step is
    recorded; the initial and final instants are always included, and the
    last step is shortened so the run ends exactly at ``t_end``.  A grid of
    more than MAX_STEPS steps, counted as _grid counts them, is refused.
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
        object.__setattr__(self, "sample_every", _as_int(self.sample_every, "sample_every", 1))
        # the cap bounds _grid's step count; span / dt past twice the cap,
        # inf among them, is refused first, since _grid cannot round inf
        ratio = (self.t_end - self.t_start) / self.dt
        if ratio > 2 * MAX_STEPS or _grid(self.t_start, self.t_end, self.dt)[0] > MAX_STEPS:
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
    try:
        arr = np.ascontiguousarray(initial_state, dtype=np.complex128)
    except OverflowError as exc:
        raise ValueError("initial state amplitudes are too large for float64") from exc
    if arr.shape != (n,):
        raise ValueError(f"initial state must have {n} amplitudes, got shape {arr.shape}")
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


def _adjoint(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m.conj(), -1, -2)


def _grid(t_start: float, t_end: float, dt: float):
    """The run's steps as (n_steps, whole, h): steps 1..whole are dt long, then one of h, if h.

    The count is span / dt times 1 - 1e-12, rounded up, so that a span of
    N dt within rounding counts N; whole is that count when its edge lands
    on t_end and one less otherwise.  h = t_end - (t_start + whole dt) is
    the length of a last step to t_end, 0.0 when edge whole lands on it, so
    n_steps = whole + (h != 0) counts only steps of nonzero length.  The
    back-off keeps edge whole below t_end otherwise, so h >= 0; h may exceed
    dt by 1e-12 of the span and the rounding of the edge.
    """
    count = max(1, math.ceil((t_end - t_start) / dt * (1.0 - 1e-12)))
    whole = count if t_start + count * dt == t_end else count - 1
    h = t_end - (t_start + whole * dt)
    return whole + (h != 0.0), whole, h


def _spectrum(h: np.ndarray, where: str):
    """Eigenvalues and eigenvectors of a hermitian matrix, or of each matrix of a stack.

    The package's one eigh, and its one handler of LAPACK failures: ``where``
    names the matrices in the EigenConvergenceError a failure raises.
    """
    # eigh reads the lower triangle and the real diagonal, which is all of a
    # hermitian h: the symmetrized input of hermitian_eig, or an H assembled
    # by _at_phase, hermitian by construction (see hamiltonian_at)
    try:
        return np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigensolver failed to converge {where}") from exc


def _unitaries(parts: tuple, z: np.ndarray, dt: float, where: str) -> np.ndarray:
    """exp(-i dt H) for H = _at_phase(*parts, z) at every phase factor of z, as a stack."""
    w, v = _spectrum(_at_phase(*parts, z), where)
    return (v * np.exp(-1j * (w * dt))[..., None, :]) @ _adjoint(v)


def _steps(spec, parts, mids, h, psi, table, order):
    """A group of steps of length h centred at ``mids``: their stack and the states after each.

    ``parts`` are the run's _parts: drift levels, drive coefficient and its
    transpose.  With ``order``, the stack is the steps' H, applied to the
    state as Taylor steps of that order (see _taylor_states).  Otherwise it
    holds exp(-i h H(t)) at every midpoint t, from one batched eigh without
    ``table``, and _chain applies it.  With ``table``, the phase table built
    for steps of that length (see _phase_table), each is the step in the
    drive's frame, R(-w h / 2) G(theta) R(-w h / 2), summed from the table's
    coefficients at y = e^{i n theta} (see _table_sum).  With a jump table
    (see _jump_table) in its place, they are the frame's propagators over
    the table's steps whose first step is centred at each midpoint.
    """
    z = _phase_factors(spec, mids)
    if order is not None:
        u = _at_phase(*parts, z)
        return u, _taylor_states(u, h, psi, order)
    if table is None:
        u = _unitaries(parts, z, h, f"at some t in [{float(mids[0])!r}, {float(mids[-1])!r}]")
    else:
        # the steps go through in slices whose powers of y = z^n fit CHUNK_BYTES
        y = z**spec.n
        size = max(1, CHUNK_BYTES // (16 * len(table)))
        u = [_table_sum(table, _phase_powers(y[i : i + size], len(table) // 2))
             for i in range(0, len(y), size)]
        u = u[0] if len(u) == 1 else np.concatenate(u)
    return u, _chain(u, psi)


def _table_sum(table: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """The matrices sum_j y^j C_j of a (J, n, n) table at N values y, as an (N, n, n) stack.

    ``powers`` holds y^j as rows (see _phase_powers), for j = -J/2..J/2 or
    for more orders around them, of which the J at its centre are taken:
    one product (N, J) @ (J, n^2), in matrix order.
    """
    j, n = table.shape[0], table.shape[-1]
    cut = (len(powers) - j) // 2
    return (powers[cut : len(powers) - cut].T @ table.reshape(j, n * n)).reshape(-1, n, n)


def _table_phases(spec: SystemSpec, dt: float):
    """Phases Q of the table of a step of length dt, or None when the table does not fit.

    M is the smallest Fourier order with 2 x^(M+1) / (M+1)! <= eps (see
    _series_order) for x = dt g / 2, g / 2 the spectral norm of
    drive_coefficient for every drive model.  The Fourier coefficient of order m of U(theta) collects
    terms of order |m| and above in dt A, so its size falls off like
    x^|m| / |m|! (Shirley, Phys. Rev. 138, B979, 1965): the orders left out
    and those the Q-point transform folds onto the kept ones, |m| > M, stay
    at about eps.  Entry (a, b) of U carries the orders m* + n s (see
    _phase_table), m* in [-n/2, n - 1 - n/2], so with S = (M + n/2) // n,
    n/2 rounded down, |s| <= S holds every such order up to M, and the first
    left out, |s| = S + 1, lies beyond M: the table samples Q = 2 S + 1
    phases.  It fits when Q matrices fit a chunk of CHUNK_BYTES, and when
    16 n Q^2 bytes do too.  That second bound limits the table's cost, Q
    eighs to build it and Q + 2 coefficients summed per step, not its
    memory: it stops Q at 89 at n = 2 and 73 at
    n = 3, where the table still beats eigh (4,096 steps at n = 2 and Q = 83,
    table built and summed: 1.6 ms against 3.9 ms; 1,820 steps at n = 3 and
    Q = 73: 1.0 against 4.6 ms), well before it loses (n = 2, Q = 1,121:
    138 against 3.5 ms).
    """
    n = spec.n
    # S >= (order + n/2 - n + 1) / n, so Q > 2 order / n and the second
    # bound's 16 n Q^2 bytes exceed 64 order^2 / n, which fit a chunk only
    # while 64 order^2 <= CHUNK_BYTES n: no order past the limit fits, which
    # bounds the loop
    limit = math.isqrt(CHUNK_BYTES * n // 64)
    order = _series_order(0.5 * spec.g * dt, 2.0, limit)
    q = 2 * ((order + n // 2) // n) + 1
    # Q matrices fit a chunk, which holds at least one (see _lab_steps)
    fits = q <= max(1, CHUNK_BYTES // (16 * n * n))
    return q if fits and 16 * n * q * q <= CHUNK_BYTES else None


def _series_order(x: float, scale: float, limit: float = math.inf) -> int:
    """Smallest order M with scale x^(M+1) / (M+1)! <= eps, or limit + 1 if it exceeds limit.

    The tail of both series the propagator truncates: the Fourier orders of
    a step's unitary (see _table_phases), with scale 2, and the Taylor
    series of exp(-i h H) (see _taylor_order), with scale e^x.
    """
    order, term = 0, scale * x
    while term > _EPS and order <= limit:
        order += 1
        term *= x / (order + 1)
    return order


def _taylor_order(spec: SystemSpec, levels: list, h: float, count: int, eighs: int):
    """Order K of count Taylor steps of length h, or None when eighs eigh's cost less.

    H(t) is hermitian with ||H|| <= max|drift| + g (see evolve), so x =
    h (max|drift| + g) bounds ||h H||, and the terms of exp(-i h H) past
    order K sum to at most e^x x^(K+1) / (K+1)! in norm (Al-Mohy and Higham,
    SIAM J. Sci. Comput. 33, 488, 2011): K = _series_order(x, e^x) keeps
    them within eps.  The steps cost count K matrix-vector products, and
    each eigh _EIGH_PRODUCTS n of them; steps with x >= 1, whose K grows
    and whose terms cancel, are left to eigh.  K >= 1 wherever x exceeds
    eps, so count steps cost at least count products, and a run of as many
    steps as the eigh's cost is left to them before K is formed.
    """
    budget = _EIGH_PRODUCTS * spec.n * eighs
    x = h * (max(map(abs, levels)) + spec.g)
    if x >= 1.0 or count >= budget:
        return None
    order = _series_order(x, math.exp(x))
    return order if count * order < budget else None


def _taylor_states(h: np.ndarray, dt: float, psi: np.ndarray, order: int) -> np.ndarray:
    """States after each step of length dt under the stack h, from psi, as (N, n).

    Each step applies sum_{k <= order} (-i dt H)^k / k! to the state: order
    matrix-vector products, no eigh and no unitary.
    """
    states = np.empty((len(h), len(psi)), dtype=np.complex128)
    factors = [-1j * dt / k for k in range(1, order + 1)]
    for j, matrix in enumerate(h):
        term = psi
        for factor in factors:
            term = (matrix @ term) * factor
            psi = psi + term
        states[j] = psi
    return states


def _phase_table(spec: SystemSpec, parts: tuple, dt: float, q: int) -> np.ndarray:
    """Frame coefficients of the full step's unitary, as (Q + 2, n, n) in matrix order.

    U(theta) = exp(-i dt H(theta)), with H(theta) = drift + e^{i theta} A + h.c.
    the Hamiltonian at drive phase theta = w t and ``parts`` = (levels, A, A^T).
    The clock Z obeys Z A Z^dagger = sigma A, sigma = e^{2 pi i / n} (Weyl),
    and commutes with the drift, so U(theta + 2 pi / n) = Z U(theta) Z^dagger,
    and U(theta) = R(theta) G(theta) R(theta)^dagger, R(theta) =
    diag(e^{i k theta}), with G of period 2 pi / n: a series in y = e^{i n theta}
    (Shirley, Phys. Rev. 138, B979, 1965).  Entry (a, b) of U carries only the
    Fourier orders m* + n s, m* the representative of a - b in
    [-n/2, n - 1 - n/2], and |s| <= S holds every order up to M (see
    _table_phases), so entry (a, b) of G carries only y^j with |j - w| <= S,
    w = (m* - (a - b)) / n in {-1, 0, 1}: G = sum_j y^j C_j, j = -S-1..S+1.
    U is diagonalized at the Q = 2 S + 1 phases theta_l = 2 pi l / (n Q) in one
    batched eigh, and C_j is the Q-point DFT of G(theta_l) = R(theta_l)^dagger
    U(theta_l) R(theta_l), kept in that window (see _transform), so that U is
    exact to about eps.  Entry j + S + 1 holds
    R(-w dt / 2) C_j R(-w dt / 2), the coefficient of the step in the drive's
    frame (see _lab_steps).  At n >= 2M + 1, Q = 1 and G(0) = U(0) is
    diagonalized at the real phase factor 1: A is real (see _parts), so
    H(0) is real symmetric and eigh runs in real arithmetic,
    U(0) = X e^{-i dt L} X^T.
    """
    n = len(parts[0])
    theta = 2.0 * math.pi / (n * q) * np.arange(q)
    z = np.exp(1j * theta) if q > 1 else np.ones(1)
    u = _unitaries(parts, z, dt, f"on the drive-phase table for dt = {dt!r}")
    # G~(theta_l) = R(theta_l + w dt / 2)^dagger U(theta_l) R(theta_l - w dt / 2)
    half = cmath.phase(_phase_factors(spec, 0.5 * dt))
    left, right = _rotation(np.add.outer((half, -half), theta), n)
    return _transform(left.conj()[:, :, None] * u * right[:, None, :])


def _transform(samples: np.ndarray) -> np.ndarray:
    """Table (J, n, n) of Q frame samples, as (Q, n, n), at the phases theta_l = 2 pi l / (n Q).

    The Q-point DFT C_j = (1/Q) sum_l G(theta_l) y_l^-j, y_l = e^{i n theta_l},
    for j = -S-1..S+1, Q = 2 S + 1, kept where |j - w(a, b)| <= S (see
    _phase_table and _window): each entry's Q orders, with the two of the
    other window that the DFT folds onto them cleared.
    """
    q, n = samples.shape[0], samples.shape[-1]
    _, powers, keep = _window(n, q)
    return (powers.conj() @ samples.reshape(q, n * n) / q).reshape(-1, n, n) * keep


@functools.lru_cache(maxsize=32)
def _window(n: int, q: int):
    """The orders j, the powers y_l^j and the window |j - w(a, b)| <= S of a table of Q phases.

    j = -S-1..S+1, S = Q // 2, as a (Q + 2, 1) column, y_l = e^{2 pi i l / Q}
    at the Q phases of the table, with y_l^j as (Q + 2, Q) rows, and the
    window as a (Q + 2, n, n) mask (see _phase_table).  They depend on n and
    Q alone, so they are kept, read-only, for later tables and compositions.
    """
    orders, k = np.arange(-(q // 2) - 1, q // 2 + 2)[:, None], np.arange(n)
    powers = root_power(q, orders * np.arange(q))
    # w(a, b) = (m* - (a - b)) / n = -((a - b + n/2) // n), n/2 rounded down
    keep = abs(orders[:, :, None] + np.subtract.outer(k + n // 2, k) // n) <= q // 2
    orders.flags.writeable = powers.flags.writeable = keep.flags.writeable = False
    return orders, powers, keep


def _rotation(angle, n: int) -> np.ndarray:
    """The diagonal e^{i k a}, k = 0..n-1, of R(a), at an angle a or at each of an array of them.

    Every entry has modulus 1 within rounding.  Callers pass the angles of
    phase factors, in (-pi, pi], or sums of few of them, so k a stays finite
    where w t, whose phase factor they come from, may not be.
    """
    return np.exp(1j * np.multiply.outer(angle, np.arange(n)))


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

    Up to _SCAN_BLOCK unitaries, and a stack of any length from
    n = _LOOP_MIN_N on, are applied one by one, one matrix-vector product
    each: there a blocked product's n^3 work per step costs more than the
    loop.  A longer stack of smaller matrices is cut into B blocks of
    L = min(_SCAN_BLOCK, isqrt(N)), and L - 1 products form the running
    products of every block at once.  psi is carried to the start of each
    block by _chain over the B - 1 block products, and one more product
    applies each block's running products to its start.  Up to
    n = _SCAN_MAX_N the blocks are stored block index innermost and each
    product is one elementwise multiply and sum over all blocks; above it
    each matrix is stored whole and each product is one batched BLAS call.
    The input stack is left unchanged.
    """
    count, n = u.shape[0], u.shape[-1]
    if count <= _SCAN_BLOCK or n >= _LOOP_MIN_N:
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
    # the block index innermost.  Zeros pad the last block: its padded
    # products only reach the states cut off at the end, but whatever
    # np.empty left there could overflow in them
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
    """Frame table of V_every, the propagator over every steps, by binary composition.

    V_L(theta) is the product of L steps, the first at drive phase theta and
    each next one delta = w dt later.  In the drive's frame (see
    _phase_table) it is G~_L(theta) = G~(theta + (L - 1) delta) ... G~(theta),
    G~ the frame's step, so G~_{a+b}(theta) = G~_b(theta + a delta)
    G~_a(theta).  V_L has the symmetry of a step, V(theta + 2 pi / n) =
    Z V(theta) Z^dagger, and its Fourier orders fall off like x^|m| / |m|!,
    x = L dt g / 2, so G~_L is kept as a table of the step's kind, with the Q
    that _table_phases gives for steps of L dt.  Starting from the step's
    phase table, it reads the binary digits of every after the leading one:
    each doubles L, and each digit 1 adds one step, so
    every.bit_length() + every.bit_count() - 2 compositions.  Each sums both
    factors at the Q values y_l = e^{2 pi i l / Q} of G~_{a+b}'s table, the
    second with its coefficient of y^j times e^{i j n a delta}, multiplies
    them and transforms the products (see _transform).  All three tables
    take their powers from the one (Q + 2, Q) table of y_l^j.  The shift
    e^{i n a delta} is formed from the angle of e^{i a w dt / 2}, times 2 n:
    a dt is at most the run's span and w t is finite at both of its ends, so
    w a dt / 2 is finite where w a dt may not be.
    """
    n = spec.n

    def compose(first, a, second, b):
        q = _table_phases(spec, (a + b) * dt)
        orders, powers, _ = _window(n, q)
        shift = np.exp(2j * n * cmath.phase(_phase_factors(spec, 0.5 * (a * dt))) * orders)
        return _transform(_table_sum(second, powers * shift) @ _table_sum(first, powers))

    jump, length = table, 1
    for digit in bin(every)[3:]:
        jump, length = compose(jump, length, jump, length), 2 * length
        if digit == "1":
            jump, length = compose(jump, length, table, 1), length + 1
    return jump


def _route(spec, levels, dt, whole, h, every):
    """The lab path's route, as (done, step_q, order, last): no array is formed and no eigh made.

    ``levels`` are the drift's levels (see _parts), whole and h the grid's
    (see _grid) and every the sample interval, as evolve forms them.  Steps
    1..done are jumps over whole sample intervals (0 for none), from a jump
    table composed from the phase table.  step_q is the Q of the phase table
    to build (see _table_phases), or None for none.  order is the Taylor
    order K of the fresh full-length steps (see _taylor_order), or None
    when they come from the table or eigh.  last is the Taylor order of the
    last step, of length h, or None for eigh; at h = 0 it is 0, the order
    of the identity, and _lab_steps takes no last step.
    """
    count = whole // every
    # each whole sample interval takes one jump when the jump table fits (its
    # Q, at least 1, is true, and None is not; see _table_phases) and
    # composing it forms fewer matrices than the jumps save: each composition
    # forms Q samples of both factors and their Q products (see _jump_table),
    # so 3 Q compositions + count must stay below count every
    compositions = every.bit_length() + every.bit_count() - 2
    jump_q = _table_phases(spec, every * dt)
    done = count * every if jump_q and 3 * jump_q * compositions < count * (every - 1) else 0
    # the fresh full-length steps are summed from the phase table when it fits
    # and they are at least Q, and so is the jump table's first factor;
    # without a jump table they are Taylor steps when those cost less than
    # the table's Q eighs, or than an eigh per step.  The last step is one
    # Taylor step when its K costs less than its own eigh
    step_q = _table_phases(spec, dt)
    tabled = step_q and (done or step_q <= whole)
    order = None if done else _taylor_order(spec, levels, dt, whole, step_q if tabled else whole)
    last = _taylor_order(spec, levels, h, 1, 1)
    return done, step_q if tabled and order is None else None, order, last


def _lab_steps(spec, parts, psi, t_start, dt, whole, h, every, populations):
    """Every step of the run, on the route _route decides: jumps, the phase table, eigh or Taylor.

    _lab_steps carries the route out: it builds the tables the route names,
    once per run, takes steps 1..done as jumps and the fresh full-length
    steps after them from the phase table, as Taylor steps or by eigh, and
    the last step, of length h (see _grid), only when h is nonzero, on its
    own, by Taylor or eigh.  Writes the populations of step s, s a multiple
    of every up to whole, to row s // every of ``populations``, so a chunk's
    first sample goes to row start // every + 1, and returns the state at
    t_end.
    """
    chunk = max(1, CHUNK_BYTES // (16 * spec.n**2))
    done, step_q, order, last = _route(spec, parts[0], dt, whole, h, every)
    table = _phase_table(spec, parts, dt, step_q) if step_q else None
    jump = _jump_table(spec, table, dt, every) if done else None

    # each pass hands _steps chunks of unit steps each, from step start on:
    # jumps up to step done, then fresh full-length steps; the states that
    # end on a multiple of every are sampled.  Passes that the tables serve
    # carry the state in the drive's frame, R(a)^dagger psi, a the drive
    # phase at the step edge, whose populations are the lab's.  It rotates
    # back at step edge whole by the frame's own phase, the angle of
    # e^{i w t_start} (e^{i w dt / 2})^(2 whole): e^{i w t} at that edge
    # differs from it by the rounding of w t, which at a large |w t| reaches
    # the state
    if table is not None:
        origin = cmath.phase(_phase_factors(spec, t_start))
        end = origin + 2 * whole * cmath.phase(_phase_factors(spec, 0.5 * dt))
        into, back = _rotation((-origin, end), spec.n)
        psi = psi * into
    for begin, stop, unit, tab in ((0, done, every, jump), (done, whole, 1, table)):
        for start in range(begin, stop, chunk * unit):
            starts = np.arange(start, min(start + chunk * unit, stop), unit)
            mids = t_start + (starts + 0.5) * dt
            # the stack, of unitaries or of H, stays referenced until the next
            # chunk's replaces it: freed at once, it would leave a heap top
            # that the allocator returns to the system, and the next stack
            # would fault in fresh pages (Taylor steps at n = 256 took 512
            # minor page faults per step so, against 31)
            u, chain = _steps(spec, parts, mids, dt, psi, tab, order)
            psi = chain[-1]
            sampled = chain[-(start + unit) % every // unit :: every // unit]
            row = start // every + 1
            populations[row : row + len(sampled)] = sampled.real**2 + sampled.imag**2
    if table is not None:
        psi = psi * back
    if h:
        mid = np.array([t_start + whole * dt + 0.5 * h])
        psi = _steps(spec, parts, mid, h, psi, None, last)[1][0]
    return psi


def _in_frame(spec: SystemSpec) -> bool:
    """True when H(theta) = R(theta) H(0) R(theta)^dagger, R(theta) = diag(e^{i k theta}).

    So for rwa2, whose drive couples level 1 to level 0 through e^{i theta},
    and for a static spec, whose steps all take theta = 0 (see
    _phase_factors), where R = I.
    """
    return spec.drive_model == "rwa2" or _is_static(spec)


def _frame_steps(spec, parts, psi, t_start, t_end, dt, whole, h, every, populations):
    """Every step of the run in the rotating frame, for a spec that is _in_frame.

    With R(theta) = diag(e^{i k theta}), a step of length h at drive phase
    theta = a + w h / 2, a the phase at its start, is
    R(a) U_h(w h / 2) R(a)^dagger, so k steps of dt from t_start and a last
    one of h multiply to R(w t_end) W_h W^k R(a_0)^dagger, a_0 = w t_start and
    W_h = R(-w h / 2) U_h(0) R(-w h / 2), W = W_dt.  The powers of W_h come
    from _frame_powers: in closed form at n = 2, from one eigh of H(0) above.
    The frame states W^(j every) R(a_0)^dagger psi of the sample intervals
    are chained one chunk at a time from M = W^every (see _power_states);
    R is diagonal, so their populations are the lab frame's.  The last step,
    of length h = t_end - (t_start + whole dt) (see _grid), is W_h, taken
    only when h is nonzero.  Of the drive phases only w t_start,
    w t_end, w dt / 2 and w h / 2 are formed: the first two are the ends'
    w t, which evolve checks are finite, and dt (when whole > 0) and h are
    at most t_end - t_start, which bounds the others by half their
    difference, where w dt itself may overflow.  Writes the populations of
    sample interval j, which step j every closes, to row j of
    ``populations``, so a chunk of intervals from start on begins at row
    1 + start, and returns the state at t_end, back in the lab frame.
    """
    n = spec.n
    power = _frame_powers(spec, parts, dt)
    # R(w t) at the run's ends as Python scalars: diag(1, e^{i w t}) for rwa2,
    # the one driven spec in the frame, which is two-level, and I otherwise
    start, end = (complex(_phase_factors(spec, t)) for t in (t_start, t_end))
    phi = psi * [1.0, start.conjugate()] if n == 2 else psi
    count, size = whole // every, max(1, CHUNK_BYTES // (16 * n))
    # no power of W is formed when no full-length step runs: dt may then
    # exceed the span, and w dt / 2 overflow
    interval = power(every) if count else None
    for start in range(0, count, size):
        states = _power_states(interval, phi, min(size, count - start))
        populations[1 + start : 1 + start + len(states)] = states.real**2 + states.imag**2
        phi = states[-1]
    if whole % every:
        phi = power(whole % every) @ phi
    if h:
        phi = power(1, h) @ phi
    return phi * [1.0, end] if n == 2 else phi


def _frame_powers(spec, parts, dt):
    """(k, h) -> W_h^k, W_h = R(-w h / 2) U_h(0) R(-w h / 2) the frame's step of length h.

    h is dt unless given (see _frame_steps).  At n = 2, with
    H(0) = [[p, c], [c, q]], p and q the drift's levels and
    c = A[1, 0] + A[0, 1], real as A is (A's diagonal is zero; see _parts),
    m = (p + q) / 2, d = (p - q) / 2, r = hypot(d, c), x = r h and
    s = sin(x) / r (h at r = 0):
    U_h(0) = e^{-i m h} [[cos x - i s d, -i s c], [-i s c, cos x + i s d]]
    (Rabi, Phys. Rev. 51, 652, 1937), so W_h = e^{-i (m h + e)} V with
    e = w h / 2 and V = [[A, B], [-B*, A*]] in SU(2), A = (cos x - i s d) e^{i e}
    and B = -i s c.  V = cos a I + N, N traceless, is a rotation by 2 a, and
    V^k = cos(k a) I + sin(k a) N / |N|, formed in scalar arithmetic without
    eigh.  The rest are static (rwa2 is two-level only), so W_h = U_h(0), and
    W_h^k = X diag(e^{i k theta_j}) X^dagger from the one eigh
    H(0) = X diag(l_j) X^dagger, theta_j the angle of e^{-i l_j h}; A is
    real, so H(0) is real symmetric, and X is real from an eigh in real
    arithmetic.  Every power is formed from angles in (-pi, pi] times k, so
    it is finite at any step count.
    """
    if spec.n > 2:
        where = f"in the rotating frame for dt = {dt!r}"
        (w,), (v,) = _spectrum(_at_phase(*parts, np.ones(1)), where)
        back = _adjoint(v)
        return lambda k, h=dt: (v * np.exp(1j * k * np.angle(np.exp(-1j * (w * h))))) @ back
    (p, q), c = parts[0], float(parts[1][1, 0] + parts[1][0, 1])
    # halves first, as in hermitian_eig: p - q may overflow
    m, d = 0.5 * p + 0.5 * q, 0.5 * p - 0.5 * q

    def power(k, h=dt):
        x = math.hypot(d, c) * h
        # s = h sin(x) / x, which stays right where r h underflows
        s = math.sin(x) / x * h if x else h
        turn = complex(_phase_factors(spec, 0.5 * h))
        a, b = complex(math.cos(x), -s * d) * turn, -1j * s * c
        norm = math.hypot(a.imag, abs(b))
        angle = math.atan2(norm, a.real)
        # the angle of e^{-i (m h + e)}, each factor reduced exactly by libm
        unit = complex(math.cos(m * h), math.sin(m * h)) * turn
        phase = -math.atan2(unit.imag, unit.real)
        cos, sin = math.cos(k * angle), math.sin(k * angle) / norm if norm else 0.0
        z = complex(math.cos(k * phase), math.sin(k * phase))
        return np.array([[z * complex(cos, sin * a.imag), z * sin * b],
                         [-z * sin * b.conjugate(), z * complex(cos, -sin * a.imag)]])

    return power


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

    evolve validates the inputs, lays out the samples and dispatches to
    _frame_steps or _lab_steps, which take every step of the run; _route
    decides the lab path's route, and _lab_steps carries it out.  The
    drive phase is taken at every step midpoint, so it is exact.  An rwa2
    or static spec takes every step in the rotating frame, as powers of one
    step, in closed form at n = 2 and from one eigh of H(0) above (see
    _frame_steps).  The other drives process their steps in chunks of at
    most CHUNK_BYTES of matrices.  When a jump table over sample_every
    steps fits and composing it forms fewer matrices than the steps it
    replaces, each whole sample interval costs one propagator, summed from
    that table, in the chain; only the full-length steps after the last
    whole interval are fresh.  Without a jump table, fresh full-length
    steps with x = dt (max|drift| + g) < 1 are applied to the state as
    their Taylor series, K matrix-vector products each, when those cost
    less than the eigh's they replace (see _taylor_order).  Otherwise, when
    they are at least Q (Q phases in [0, 2 pi / n), from dt g / 2; see
    _table_phases), or a jump table is composed, they are summed in the
    drive's frame from a Fourier table over the drive phase that one batched
    eigh of Q matrices builds once per run; else they are diagonalized in one
    batched eigh call per chunk.  Jumps and fresh steps share one loop (see
    the module docstring).  _grid gives the full steps and the length h of
    a last step to t_end; that step is taken only when h is nonzero, on its
    own, by Taylor or eigh on the same rule.  The paths write the sample of
    full step s to row s // sample_every, and evolve writes the final state
    into the last row when h is nonzero or whole is not a multiple of
    sample_every: there no path wrote it.  The drift's levels are the
    floats of _drift_levels, which build_drift puts on a
    diagonal; only an assembled H holds them, on its diagonal.  Raises
    ValueError when the drive phase w t is not finite at
    t_start or t_end (the time is reported), when the drift
    diag(E - Delta_0) or the bound 2 (max|drift| + g) dt on a step's
    eigenphases is too large for float64, or when the samples would need
    more than MAX_SAMPLE_BYTES, and EigenConvergenceError when the
    eigensolver fails.
    """
    n = spec.n
    psi = _initial_vector(n, config.initial_state)
    t_start, t_end, dt = config.t_start, config.t_end, config.dt
    n_steps, whole, h = _grid(t_start, t_end, dt)
    # any sample_every past the step count samples the ends only; clamped, it
    # keeps the sample marks within int64
    every = min(config.sample_every, n_steps + 1)
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
    # _table_phases), so every eigenphase of a step stays below that bound
    # times dt; the factor 2 leaves room for rounding and for a last step
    # slightly longer than dt (see _grid)
    parts = _parts(spec)
    levels = parts[0]
    if not all(map(math.isfinite, levels)):
        raise ValueError("drift diag(E - Delta_0) is too large for float64")
    if not math.isfinite(2.0 * ((max(map(abs, levels)) + spec.g) * dt)):
        raise ValueError("step phase bound 2 (max|drift| + g) dt is too large for float64")
    # sample k follows step k every, the last one step n_steps: the multiple
    # of every past n_steps is never scaled by dt, where it could overflow.
    # The ends are set as given, since t_start + 0 dt would turn a t_start of
    # -0.0 into 0.0
    times = np.empty(n_samples)
    times[:-1] = t_start + np.arange(0, n_steps, every) * dt
    times[0], times[-1] = t_start, t_end
    populations = np.empty((n_samples, n), dtype=np.float64)
    populations[0] = psi.real**2 + psi.imag**2

    if _in_frame(spec):
        psi = _frame_steps(spec, parts, psi, t_start, t_end, dt, whole, h, every, populations)
    else:
        psi = _lab_steps(spec, parts, psi, t_start, dt, whole, h, every, populations)
    # the last sample is the final state, unless step whole closed a sample
    # interval and no last step followed it
    if h or whole % every:
        populations[-1] = psi.real**2 + psi.imag**2

    # ** 0.5, - and abs() on a temporary reuse its memory (numpy elides the
    # copies), so the norm errors take one array, not two
    return Trajectory(
        times=times,
        populations=populations,
        norm_errors=abs((populations @ np.ones(n)) ** 0.5 - 1.0),
        final_state=psi.copy(),
    )
