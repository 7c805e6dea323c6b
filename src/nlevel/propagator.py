"""Midpoint-exponential propagation of driven n-level systems.

Each step applies exp(-i dt H(t + dt/2)) to the state, with the matrix
exponential evaluated through a full hermitian eigendecomposition (LAPACK,
through numpy.linalg.eigh).  H(t) does not depend on the state, so evolve
assembles and diagonalizes the midpoint Hamiltonians of many steps at once
and forms their step unitaries in one batch.  Whether H(t) is hermitian
does not depend on t (see hamiltonian_at), so evolve checks it once per run,
at the first step midpoint.  The chain of states through a chunk is a
blocked prefix product (Blelloch, CMU-CS-90-190, 1990): the N unitaries are
cut into blocks of L = isqrt(N), each block's running products are formed
for all blocks at once, one matrix-vector product per block carries the
state from block to block, and one batched product gives every state, about
2 sqrt(N) numpy calls in place of N.  The scheme is second order in dt and
unitary to solver precision, so norm drift doubles as an error diagnostic.

Period reuse.  The drive e^{i w t} A + h.c. repeats after T = 2 pi / |w|, so
when K steps of dt make up T the midpoint Hamiltonians repeat every K steps
(Floquet periodicity).  evolve then diagonalizes only those K, multiplies
them into the propagators from one sample to the next, and chains the
samples through those propagators with the same blocked product.  This
applies when K |w| dt equals 2 pi within 4 ulps (a static H counts as K = 1)
and lcm(K, sample_every) steps of unitaries fit in one CHUNK_BYTES chunk.
The steps after the last whole lcm(K, sample_every) block, and a last step
shortened to land on t_end, follow as freshly diagonalized chunks in the same
loop: each pass chains one stack, reused or fresh, and records the states
that end on a multiple of sample_every or on the last step.
"""

import math
from dataclasses import dataclass

import numpy as np

from .hamiltonian import SystemSpec, _adjoint, _as_real, hamiltonian_at

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
# size at once (stack, eigenvectors, step unitaries, block products), whatever
# the run length.  With the blocked chain on one pinned CPU of a 2-vCPU x86 VM
# (OpenBLAS), evolve took 5.91, 5.55, 5.00, 5.92 and 5.18 us/step at n = 3 and
# 25.7, 21.9, 20.7, 24.2 and 25.7 us/step at n = 8 for 64 KiB, 128 KiB,
# 256 KiB, 512 KiB and 1 MiB chunks (medians of 9 runs).
CHUNK_BYTES = 2**18
# cap on the sampled times, populations and norm errors a run may hold
MAX_SAMPLE_BYTES = 2**30
# K |w| dt may miss 2 pi by this much, relative, for the grid to count as one
# drive period of K steps; about the rounding of w t itself on the direct path
_PERIOD_RTOL = 4 * np.finfo(np.float64).eps


class EigenConvergenceError(RuntimeError):
    """The LAPACK hermitian eigensolver failed to converge."""


def _not_hermitian(h: np.ndarray) -> np.ndarray:
    """True for each matrix of a stack that is not hermitian at its own scale.

    The anti-hermitian residue max|H - H^dagger| / 2 is compared with
    HERMITIAN_RTOL times max|H|, so the test means the same at any energy
    scale.  Matrices with non-finite entries fail it.
    """
    residue = 0.5 * np.max(np.abs(h - _adjoint(h)), axis=(-2, -1))
    return ~(residue <= HERMITIAN_RTOL * np.max(np.abs(h), axis=(-2, -1)))


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
    if _not_hermitian(a):
        raise ValueError(
            "matrix is not hermitian (anti-hermitian residue above "
            f"{HERMITIAN_RTOL:g} of its largest entry)"
        )
    try:
        return np.linalg.eigh(0.5 * (a + _adjoint(a)))
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
    y = v.conj().T @ psi
    y = y * np.exp(-1j * w * dt)
    return v @ y


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


def _step_unitaries(spec: SystemSpec, edges: np.ndarray) -> np.ndarray:
    """exp(-i (t1 - t0) H((t0 + t1) / 2)) for consecutive step edges, as a stack."""
    steps = np.diff(edges)
    mids = edges[:-1] + 0.5 * steps
    # eigh reads the lower triangle and the real diagonal, which is all of H
    # once evolve has checked that H is hermitian
    try:
        w, v = np.linalg.eigh(hamiltonian_at(spec, mids))
    except np.linalg.LinAlgError as exc:
        span = f"[{float(mids[0])!r}, {float(mids[-1])!r}]"
        raise EigenConvergenceError(
            f"eigensolver failed to converge at some t in {span}"
        ) from exc
    return (v * np.exp(-1j * (w * steps[:, None]))[:, None, :]) @ _adjoint(v)


def _chain(u: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """States u[0] psi, u[1] u[0] psi, ... for a stack of N unitaries, as (N, n).

    The stack, padded with identities, is cut into B = ceil(N / L) blocks of
    L = isqrt(N) unitaries.  L - 1 batched products form every block's
    running products, B - 1 matrix-vector products carry psi to the start of
    each block, and one batched product applies each block's running
    products to its start.  The input stack is left unchanged.
    """
    count, n = u.shape[0], u.shape[-1]
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


def _period_steps(spec: SystemSpec, dt: float):
    """Steps per drive period K when dt divides the period, else None.

    The step-midpoint Hamiltonians then repeat every K steps.  A constant
    Hamiltonian (no drive, g = 0 or w = 0) repeats every step, K = 1.
    """
    if spec.drive_model == "none" or spec.g == 0.0 or spec.omega == 0.0:
        return 1
    turn = abs(spec.omega) * dt
    if turn * MAX_STEPS < 2.0 * math.pi:
        return None  # a period longer than any run
    k = round(2.0 * math.pi / turn)
    if k >= 1 and abs(k * turn - 2.0 * math.pi) <= _PERIOD_RTOL * 2.0 * math.pi:
        return k
    return None


def _sample_propagators(
    spec: SystemSpec, t_start: float, dt: float, period: int, every: int
) -> np.ndarray:
    """Products of every consecutive step unitaries over lcm(period, every) steps.

    Entry j maps the state at step j * every to the state at step
    (j + 1) * every, for a grid whose midpoint Hamiltonians repeat every
    ``period`` steps from t_start on.  Only the first period is diagonalized.
    """
    block = math.lcm(period, every)
    u = _step_unitaries(spec, t_start + np.arange(period + 1) * dt)
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

    The Hamiltonian is rebuilt at every step midpoint, so the drive phase is
    exact.  Steps are processed in chunks of at most CHUNK_BYTES of
    Hamiltonians, each diagonalized in one batched eigh call.  On a grid of
    K steps per drive period only one period is diagonalized and each sample
    costs one propagator in the chain; both kinds of chunk share one loop
    (see the module docstring).  Raises
    ValueError when H(t) is not hermitian at the first step midpoint (the
    time is reported) or when the samples would need more than
    MAX_SAMPLE_BYTES, and EigenConvergenceError when the eigensolver fails.
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
    # H(t) - H(t)^dagger does not depend on t (see hamiltonian_at), so the
    # first step's midpoint stands for every step
    first = t_start + 0.5 * ((t_end if n_steps == 1 else t_start + dt) - t_start)
    if _not_hermitian(hamiltonian_at(spec, first)):
        raise ValueError(f"Hamiltonian is not hermitian at t = {first!r}")
    # sample k follows step min(k every, n_steps); the ends are set as given,
    # since t_start + 0 dt would turn a t_start of -0.0 into 0.0
    marks = np.minimum(np.arange(n_samples) * every, n_steps)
    times = t_start + marks * dt
    times[0], times[-1] = t_start, t_end
    populations = np.empty((n_samples, n), dtype=np.float64)
    populations[0] = psi.real**2 + psi.imag**2

    chunk = max(1, CHUNK_BYTES // (16 * n * n))
    done = 0  # steps taken by period reuse
    period = _period_steps(spec, dt)
    if period is not None:
        block = math.lcm(period, every)
        # a last step shortened to land on t_end is not one of the period's
        whole = n_steps if t_start + n_steps * dt == t_end else n_steps - 1
        done = whole // block * block if block <= chunk else 0
    if done:
        props = _sample_propagators(spec, t_start, dt, period, every)

    # each pass chains a stack u of unitaries, u[i] ending at step ends[i]:
    # reused sample propagators up to step done, then fresh chunks
    pos, k = 0, 1
    while pos < n_steps:
        if pos < done:
            j = np.arange(pos // every, min(pos // every + chunk, done // every))
            u, ends = props[j % len(props)], (j + 1) * every
        else:
            stop = min(pos + chunk, n_steps)
            # step edges t_start + k dt; the last edge is exactly t_end
            edges = t_start + np.arange(pos, stop + 1) * dt
            if stop == n_steps:
                edges[-1] = t_end
            u, ends = _step_unitaries(spec, edges), np.arange(pos + 1, stop + 1)
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
