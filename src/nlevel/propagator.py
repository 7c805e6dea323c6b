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
1990): the N unitaries are cut into blocks, each block's running products
are formed for all blocks at once, the state is carried from block to block,
and one more product over all blocks gives every state.  At small n (up to
_SCAN_MAX_N) the blocks are at most 8 long and laid out block index
innermost, so each product is one elementwise multiply and sum over all
blocks, and the carries recurse through the same scan (_scan); a BLAS call
per 3 x 3 product would cost more than its arithmetic.  Above that the
blocks are isqrt(N) long, the products are batched BLAS products and the
carries one matrix-vector product per block, about 2 sqrt(N) numpy calls in
place of N.  The scheme is second order in dt and unitary to solver
precision, so norm drift shows rounding only, not the discretization error:
the resonant two-level drive of configs/rabi_two_level.json, run for 5,000
steps of T/100, strays up to 1.17e-3 from the closed form sin^2(g t / 2)
while its norm errors stay below 1.3e-12.

Phase table.  H = drift + e^{i theta} A + h.c. depends on t only through the
drive phase theta = w t, so the unitary U(theta) = exp(-i dt H(theta)) of a
step of length dt is a smooth 2 pi-periodic function of one angle.  Its
Fourier coefficients C_m fall off like (dt g/2)^|m| / |m|! (Shirley, Phys.
Rev. 138, B979, 1965), so C_m for |m| <= M (see _table_order) give U to
about eps.  evolve diagonalizes U at P = 2M + 2 phases in one batched eigh,
once per run, and every full-length step then costs one row of a
(N, 2M + 1) @ (2M + 1, n n) product of its phase powers e^{i m theta} with
the C_m.  The steps that need a unitary are the K of a period that reuse
repeats (below) and the fresh full-length steps; a last step shortened to
land on t_end is not one of them.  The table serves them all when there are
at least P of them and P matrices fit in a chunk; other runs, such as a
one-step run, two steps at n = 32 or a period of K < P steps all reused,
diagonalize every step.

Period reuse.  The drive e^{i w t} A + h.c. repeats after T = 2 pi / |w|, so
when K steps of dt make up T the midpoint Hamiltonians repeat every K steps
(Floquet periodicity).  evolve then forms only those K unitaries, from the
phase table or one batched eigh, multiplies them into the propagators from
one sample to the next, and chains the samples through those propagators
with the same blocked product.  This applies when K |w| dt equals 2 pi
within 4 ulps (a static H counts as K = 1) and lcm(K, sample_every) steps
of unitaries fit in one CHUNK_BYTES chunk.
The steps after the last whole lcm(K, sample_every) block follow as fresh
chunks, and the shortened last step after them, in the same loop: each pass
chains one stack, reused, fresh or the last step, and records the states
that end on a multiple of sample_every or on the last step.
"""

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
    _phase_factors,
    build_drift,
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
# table), whatever the run length.  Measured on the phase-table path with
# _scan at n = 3 and the BLAS chain at n = 8 (20,000 and 4,000 steps of
# dt = 0.005, off the period grid, every step sampled) on one pinned CPU of a
# 2-vCPU x86 VM (OpenBLAS): evolve took 0.77, 0.61, 0.50, 0.54 and
# 0.57 us/step at n = 3 and 3.26, 2.56, 2.07, 1.89 and 2.20 us/step at n = 8
# for 64 KiB, 128 KiB, 256 KiB, 512 KiB and 1 MiB chunks (median of 3 runs of
# 9 calls each).
CHUNK_BYTES = 2**18
# largest n whose states _chain forms elementwise (see _scan) in place of one
# BLAS call per matrix: numpy's @ on a (B, n, n) stack calls zgemm once per
# matrix, about 0.37 us each at n = 3.  Measured on the same CPU (medians of 31
# interleaved calls), _scan took 0.86, 0.91, 0.98, 1.07, 1.20, 1.33 and 1.66
# times the BLAS chain's time at n = 2..8 for N = 50 unitaries, and 0.17,
# 0.31, 0.50, 0.70, 0.92, 1.16 and 1.71 times for one chunk (N = 4096, 1820,
# 1024, 655, 455, 334 and 256).
_SCAN_MAX_N = 4
# block length of _scan, and the longest stack it chains one product at a
# time; block lengths 4 to 12 measured within noise of each other at n = 2..4
# (16 was up to 25% slower at N = 300)
_SCAN_BLOCK = 8
# cap on the sampled times, populations and norm errors a run may hold
MAX_SAMPLE_BYTES = 2**30
# K |w| dt may miss 2 pi by this much, relative, for the grid to count as one
# drive period of K steps; about the rounding of w t itself on the direct path
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
    if not np.all(np.isfinite(arr)):
        raise ValueError("initial state amplitudes must be finite")
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("initial state must not be the zero vector")
    return arr / norm


def _step_count(span: float, dt: float) -> int:
    # back off by one ulp-scale factor so span/dt == integer N stays N steps
    n_steps = int(math.ceil((span / dt) * (1.0 - 1e-12)))
    return max(n_steps, 1)


def _unitaries(spec: SystemSpec, z: np.ndarray, dt: float, where: str) -> np.ndarray:
    """exp(-i dt H) for H = _at_phase(spec, z) at every phase factor of z, as a stack.

    The one batched eigh of the propagator's steps; ``where`` names the phases
    in the EigenConvergenceError a solver failure raises.
    """
    # eigh reads the lower triangle and the real diagonal, which is all of H,
    # hermitian by construction (see hamiltonian_at)
    try:
        w, v = np.linalg.eigh(_at_phase(spec, z))
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigensolver failed to converge {where}") from exc
    return (v * np.exp(-1j * (w * dt))[..., None, :]) @ _adjoint(v)


def _step_unitaries(
    spec: SystemSpec, mids: np.ndarray, dt: float, table: np.ndarray = None
) -> np.ndarray:
    """exp(-i dt H(t)) at every step midpoint t of ``mids``, as a stack.

    Every step is dt long.  With ``table``, the phase table built for steps of
    that length (see _phase_table), the unitaries are summed from its Fourier
    coefficients; without it they come from one batched eigh.
    """
    z = _phase_factors(spec, mids)
    if table is None:
        span = f"[{float(mids[0])!r}, {float(mids[-1])!r}]"
        return _unitaries(spec, z, dt, f"at some t in {span}")
    u = _phase_powers(z, len(table) // 2).T @ table
    return u.reshape(len(mids), spec.n, spec.n)


def _table_order(spec: SystemSpec, dt: float, limit: int):
    """Fourier order M of the step unitary's phase table, or None when P > limit.

    M is the smallest order with 2 x^(M+1) / (M+1)! <= eps for x = dt g / 2,
    and the table samples P = 2M + 2 phases.  g / 2 is the spectral norm of
    drive_coefficient for every drive model (0 for "none", a bound then).
    The coefficient C_m of U(theta) collects terms of order |m| and above in
    dt A, so its size falls off like x^|m| / |m|! (Shirley, Phys. Rev. 138,
    B979, 1965): the orders left out and those the P-point transform folds
    onto the kept ones stay at about eps.
    """
    x = 0.5 * spec.g * dt
    order, term = 0, 2.0 * x  # term = 2 x^(order+1) / (order+1)!
    while term > _EPS and 2 * order + 2 <= limit:
        order += 1
        term *= x / (order + 1)
    return order if 2 * order + 2 <= limit else None


def _phase_table(spec: SystemSpec, dt: float, order: int) -> np.ndarray:
    """Fourier coefficients C_m, m = -M..M, of the full step's unitary, as (2M + 1, n n).

    U(theta) = exp(-i dt H(theta)), with H(theta) = drift + e^{i theta} A + h.c.
    the Hamiltonian at drive phase theta = w t, is diagonalized at the
    P = 2M + 2 phases 2 pi j / P in one batched eigh.  C_m is the length-P
    DFT (1/P) sum_j U(2 pi j / P) e^{-2 pi i m j / P}, so that
    U(theta) = sum_m C_m e^{i m theta} to about eps (see _table_order).
    """
    p = 2 * order + 2
    j = np.arange(p)
    u = _unitaries(spec, root_power(p, j), dt, f"on the drive-phase table for dt = {dt!r}")
    m = np.arange(-order, order + 1)
    return root_power(p, -np.outer(m, j)) @ u.reshape(p, -1) / p


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

    Up to n = _SCAN_MAX_N the states come from _scan: about 20 numpy calls
    for every factor of 8 in N, none of them per matrix.  Above it the
    stack, padded with identities, is cut into B = ceil(N / L) blocks of
    L = isqrt(N) unitaries.  L - 1 batched products form every block's
    running products, B - 1 matrix-vector products carry psi to the start of
    each block, and one batched product applies each block's running
    products to its start: about 2 sqrt(N) numpy calls, each of which calls
    BLAS once per matrix.  The input stack is left unchanged.
    """
    count, n = u.shape[0], u.shape[-1]
    if n <= _SCAN_MAX_N:
        return _scan(u.transpose(1, 2, 0), psi)
    size = math.isqrt(count)
    blocks = -(-count // size)
    pad = np.broadcast_to(np.eye(n, dtype=u.dtype), (blocks * size - count, n, n))
    # prefix[b, i] = u[b L + i] ... u[b L + 1] u[b L]
    prefix = np.concatenate((u, pad)).reshape(blocks, size, n, n)
    for i in range(1, size):
        prefix[:, i] = prefix[:, i] @ prefix[:, i - 1]
    starts = np.empty((blocks, n, 1), dtype=np.complex128)
    starts[0, :, 0] = psi
    for b in range(1, blocks):
        starts[b] = prefix[b - 1, -1] @ starts[b - 1]
    return (prefix @ starts[:, None]).reshape(blocks * size, n)[:count]


def _scan(u: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """The states of _chain for a stack laid out as (n, n, N), step index last.

    Up to _SCAN_BLOCK unitaries are applied one by one.  A longer stack is
    cut into blocks of L = min(_SCAN_BLOCK, isqrt(N)), copied block index
    innermost as (L, n, n, B), so that each of the L - 1 running products
    forms the product of every block at once, elementwise.  psi is carried
    to the start of each block by _scan over the B - 1 block products, and
    one more elementwise product applies each block's running products to
    its start.  The input stack is left unchanged.
    """
    n, count = u.shape[0], u.shape[-1]
    if count <= _SCAN_BLOCK:
        states = np.empty((count, n), dtype=np.complex128)
        states[0] = u[..., 0] @ psi
        for j in range(1, count):
            states[j] = u[..., j] @ states[j - 1]
        return states
    size = min(_SCAN_BLOCK, math.isqrt(count))
    blocks, rest = -(-count // size), count % size
    full = count - rest
    # prefix[i, :, :, b] = u[b L + i] ... u[b L + 1] u[b L]; zeros pad the last
    # block, whose products only reach the states cut off at the end
    prefix = np.empty((size, n, n, blocks), dtype=np.complex128)
    grouped = u[..., :full].reshape(n, n, -1, size)
    prefix[..., : full // size] = grouped.transpose(3, 0, 1, 2)
    if rest:
        prefix[:rest, ..., -1] = u[..., full:].transpose(2, 0, 1)
        prefix[rest:, ..., -1] = 0.0
    for i in range(1, size):
        prefix[i] = (prefix[i][:, :, None] * prefix[i - 1][None]).sum(1)
    starts = np.empty((n, blocks), dtype=np.complex128)
    starts[:, 0] = psi
    starts[:, 1:] = _scan(prefix[-1, ..., :-1], psi).T
    return (prefix * starts).sum(2).transpose(2, 0, 1).reshape(blocks * size, n)[:count]


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


def _sample_propagators(
    spec: SystemSpec, t_start: float, dt: float, period: int, every: int,
    table: np.ndarray = None,
) -> np.ndarray:
    """Products of every consecutive step unitaries over lcm(period, every) steps.

    Entry j maps the state at step j * every to the state at step
    (j + 1) * every, for a grid whose midpoint Hamiltonians repeat every
    ``period`` steps from t_start on.  Only the first period's unitaries are
    formed, summed from ``table`` when given (see _step_unitaries), else from
    one batched eigh.
    """
    block = math.lcm(period, every)
    u = _step_unitaries(spec, t_start + (np.arange(period) + 0.5) * dt, dt, table)
    u = u[np.arange(block) % period].reshape(block // every, every, spec.n, spec.n)
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
    each sample costs one propagator in the chain.  When the full-length
    steps that need a unitary, the reused period's and the fresh ones, are
    at least P (P = 2M + 2, M from dt g / 2; see _table_order), their
    unitaries are summed from a Fourier table over the drive phase that one
    batched eigh of P matrices builds once per run; otherwise they are
    diagonalized in one batched eigh call per chunk.  All kinds of chunk
    share one loop (see the module docstring).  Raises
    ValueError when the drive phase w t is not finite at t_start or t_end
    (the time is reported), when the drift diag(E - Delta_0) or the bound
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
        drift = build_drift(spec).diagonal().tolist()
    if not all(map(math.isfinite, drift)):
        raise ValueError("drift diag(E - Delta_0) is too large for float64")
    if not math.isfinite(2.0 * ((max(map(abs, drift)) + spec.g) * dt)):
        raise ValueError("step phase bound 2 (max|drift| + g) dt is too large for float64")
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
    done = 0  # steps taken by period reuse
    period = _period_steps(spec, dt)
    if period is not None:
        block = math.lcm(period, every)
        done = whole // block * block if block <= chunk else 0
    # the full-length steps that need a unitary, the reused period's K and the
    # fresh ones, are summed from a phase table when its P phases fit a chunk
    # and cost no more eigh work than those steps; this is decided before any
    # eigh, and the table is built once, only for such runs
    order = _table_order(spec, dt, min((period if done else 0) + whole - done, chunk))
    table = None if order is None else _phase_table(spec, dt, order)
    if done:
        props = _sample_propagators(spec, t_start, dt, period, every, table)

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
            u = _step_unitaries(spec, t_start + (ends - 0.5) * dt, dt, table)
        else:
            t0 = t_start + whole * dt
            u = _step_unitaries(spec, np.array([t0 + 0.5 * (t_end - t0)]), t_end - t0)
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
