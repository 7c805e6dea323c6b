"""Seeded inputs for the benchmark workloads.

Each workload keeps its defining property for every seed (dimension, drive
model, whether dt divides the drive period, sample density) and draws the
energies, drive amplitude, drive frequency and initial amplitudes from narrow
fixed ranges, so that run cost and integration error stay comparable from
seed to seed.  The start is always one basis level; the seed only sets its
global phase, because a superposed start makes the max population error swing
by half its value between seeds.  Nothing here imports the package under test.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One generated `nlevel evolve` problem and what its output must satisfy.

    ``tolerance`` bounds the max population deviation from the independent
    reference (see reference.py); it sits a few times above the integrator's
    own error at ``dt`` for every seed.
    """

    name: str
    n: int
    drive_model: str
    energies: tuple
    g: float
    omega: float
    dt: float
    steps: int
    sample_every: int
    initial_state: object  # basis index or tuple of complex amplitudes
    tolerance: float
    t_start: float = 0.0

    @property
    def t_end(self) -> float:
        return self.t_start + self.steps * self.dt

    def step_edges(self) -> np.ndarray:
        """Step boundaries as the stepper forms them: t_start + k dt, last = t_end."""
        edges = self.t_start + np.arange(self.steps + 1) * self.dt
        edges[-1] = self.t_end
        return edges

    def sample_steps(self) -> np.ndarray:
        """Indices into step_edges() of the instants the trajectory records."""
        idx = list(range(0, self.steps + 1, self.sample_every))
        if idx[-1] != self.steps:
            idx.append(self.steps)
        return np.array(idx)

    def psi0(self) -> np.ndarray:
        psi = np.zeros(self.n, dtype=np.complex128)
        if isinstance(self.initial_state, int):
            psi[self.initial_state] = 1.0
        else:
            psi[:] = self.initial_state
        return psi / np.linalg.norm(psi)

    def config(self) -> dict:
        """The JSON config `nlevel evolve --config` reads."""
        if isinstance(self.initial_state, int):
            initial = self.initial_state
        else:
            initial = [[a.real, a.imag] for a in self.initial_state]
        return {
            "n": self.n,
            "energies": list(self.energies),
            "g": self.g,
            "omega": self.omega,
            "drive_model": self.drive_model,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "dt": self.dt,
            "sample_every": self.sample_every,
            "initial_state": initial,
        }


def _level0(rng, n):
    # level 0 with a seeded global phase, passed as explicit amplitudes
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    return (complex(math.cos(phase), math.sin(phase)),) + (0j,) * (n - 1)


def _incommensurate_omega(rng, dt):
    # keep T/dt at least 0.1 away from an integer so no grid repeats per period
    while True:
        omega = float(rng.uniform(0.99, 1.01))
        frac = (2.0 * math.pi / (omega * dt)) % 1.0
        if 0.1 < frac < 0.9:
            return omega


def rabi2_floquet(rng) -> Workload:
    """n = 2 rwa2 at exact resonance on a grid of 100 steps per drive period.

    Starts in the lower level, so the closed-form law sin^2(g t / 2) is the
    reference; one sample per period over 50 periods.
    """
    centre = float(rng.uniform(-0.5, 0.5))
    gap = float(rng.uniform(0.98, 1.02))
    energies = (centre + 0.5 * gap, centre - 0.5 * gap)
    omega = energies[0] - energies[1]
    return Workload(
        name="rabi2_floquet",
        n=2,
        drive_model="rwa2",
        energies=energies,
        g=float(rng.uniform(0.0495, 0.0505)),
        omega=omega,
        dt=2.0 * math.pi / omega / 100,
        steps=100 * 50,
        sample_every=100,
        initial_state=1,
        tolerance=5e-3,
    )


def driven3_dense(rng) -> Workload:
    """n = 3 generalized drive off the period grid, sampled every step."""
    base = np.array([-1.0, 0.3, 1.1])
    dt = 0.005
    return Workload(
        name="driven3_dense",
        n=3,
        drive_model="generalized",
        energies=tuple(float(e) for e in base + rng.uniform(-0.01, 0.01, 3)),
        g=float(rng.uniform(0.2475, 0.2525)),
        omega=_incommensurate_omega(rng, dt),
        dt=dt,
        steps=1500,
        sample_every=1,
        initial_state=_level0(rng, 3),
        tolerance=1e-6,
    )


def dense32(rng) -> Workload:
    """n = 32 generalized drive off the period grid, two steps, sparse samples."""
    n = 32
    dt = 0.05
    spacing = 2.0 / (n - 1)
    # jitter of a tenth of the spacing keeps the levels sorted
    levels = np.linspace(-1.0, 1.0, n) + rng.uniform(-0.1, 0.1, n) * spacing
    return Workload(
        name="dense32",
        n=n,
        drive_model="generalized",
        energies=tuple(float(e) for e in levels),
        g=float(rng.uniform(0.2475, 0.2525)),
        omega=_incommensurate_omega(rng, dt),
        dt=dt,
        steps=2,
        sample_every=2,
        initial_state=_level0(rng, n),
        tolerance=5e-7,
    )


WORKLOADS = {f.__name__: f for f in (rabi2_floquet, driven3_dense, dense32)}


def make(name: str, seed: int) -> Workload:
    """The workload ``name`` drawn from ``seed``; the same seed gives the same inputs."""
    index = list(WORKLOADS).index(name)
    return WORKLOADS[name](np.random.default_rng([seed, index]))
