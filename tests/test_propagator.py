import dataclasses
import inspect
import itertools
import math
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import nlevel.cli as cli
import nlevel.hamiltonian as hamiltonian
import nlevel.propagator as propagator
from nlevel import (
    EigenConvergenceError,
    EvolutionConfig,
    SystemSpec,
    build_clock,
    build_full_hamiltonian,
    build_shift,
    evolve,
    exp_step,
    hermitian_eig,
)
from test_cli import write_config

# the path tests share the stepwise reference of the sparse-sampling check
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))
from sparse_sampling import cases, committed, config_objects, stepwise  # noqa: E402


def max_abs(m):
    return float(np.max(np.abs(m)))


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (m + m.conj().T)


class TestHermitianEig:
    def test_diagonal_input_sorted(self):
        w, v = hermitian_eig(np.diag([3.0, -1.0, 0.5]))
        assert np.allclose(w, [-1.0, 0.5, 3.0], atol=1e-14)
        # columns must be the permuted basis vectors up to phase
        assert max_abs(np.abs(v) - np.abs(np.eye(3)[:, [1, 2, 0]])) <= 1e-12

    def test_sigma_x_spectrum(self):
        w, v = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1.0, 1.0], atol=1e-13)
        for k in range(2):
            assert max_abs(v[:, k].conj() @ v[:, k] - 1.0) <= 1e-13

    def test_ring_coupling_degenerate_pair(self):
        # shift + shift^dagger on three sites: eigenvalues 2cos(2 pi k / 3)
        s = build_shift(3)
        w, _ = hermitian_eig(s + s.conj().T)
        assert np.allclose(w, [-1.0, -1.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_reference_solver(self, n):
        rng = np.random.default_rng(500 + n)
        for _ in range(5):
            h = random_hermitian(rng, n)
            w, v = hermitian_eig(h)
            assert np.allclose(w, np.linalg.eigvalsh(h), atol=1e-11)
            assert max_abs(v @ np.diag(w) @ v.conj().T - h) <= 1e-10
            assert max_abs(v.conj().T @ v - np.eye(n)) <= 1e-10

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            w, _ = hermitian_eig(random_hermitian(rng, 6))
            assert np.all(np.diff(w) >= -1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not hermitian"):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_eig(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_an_empty_matrix(self):
        # with a message of its own, not numpy's about a zero-size reduction
        with pytest.raises(ValueError, match=r"^expected a matrix of at least one row"):
            hermitian_eig(np.zeros((0, 0)))

    def test_entries_near_the_float64_limit(self):
        # H + H^dagger and H - H^dagger overflow here, so neither may be formed
        h = np.diag([1.7e308, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w, _ = hermitian_eig(h)
            psi = exp_step(h, 0.5, np.array([0.6, 0.8j]))
            with pytest.raises(ValueError, match="not hermitian"):
                hermitian_eig(np.array([[0.0, 1.7e308], [-1.7e308, 0.0]]))
        assert np.array_equal(w, [0.0, 1.7e308])
        assert np.array_equal(np.abs(psi) ** 2, np.abs([0.6, 0.8j]) ** 2)


class TestExpStep:
    def test_zero_dt_is_identity(self):
        rng = np.random.default_rng(3)
        h = random_hermitian(rng, 4)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        assert max_abs(exp_step(h, 0.0, psi) - psi) <= 1e-13

    def test_diagonal_hamiltonian_phases(self):
        energies = np.array([0.7, -0.2, 1.4])
        psi = np.ones(3, dtype=complex) / math.sqrt(3)
        dt = 0.83
        got = exp_step(np.diag(energies), dt, psi)
        expected = np.exp(-1j * energies * dt) * psi
        assert max_abs(got - expected) <= 1e-13

    def test_composition(self):
        rng = np.random.default_rng(9)
        h = random_hermitian(rng, 5)
        psi = rng.normal(size=5) + 1j * rng.normal(size=5)
        psi /= np.linalg.norm(psi)
        dt = 0.37
        twice = exp_step(h, dt, exp_step(h, dt, psi))
        once = exp_step(h, 2 * dt, psi)
        assert max_abs(twice - once) <= 1e-12

    def test_preserves_norm(self):
        rng = np.random.default_rng(21)
        h = random_hermitian(rng, 6)
        psi = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
        out = exp_step(h, 1.9, psi)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_rejects_mismatched_state(self):
        with pytest.raises(ValueError, match="does not match"):
            exp_step(np.eye(3), 0.1, np.ones(2, dtype=complex))

    @pytest.mark.parametrize("dt", [1e10, -1e10])
    def test_rejects_an_overflowing_step_phase(self, dt):
        # as evolve does, without a warning and without writing NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="step phase .*too large for float64$"):
                exp_step(np.diag([1e300, -1e300]), dt, np.array([1.0, 0.0]))

    def test_loop_matches_the_stepwise_reference(self):
        # the path tests' batched reference against one exp_step per step: a
        # driven n = 3 run from amplitudes, 40 full steps and one of 0.4 dt
        spec = jump_spec(3, g=0.25)
        config = EvolutionConfig(t_start=0.7, t_end=0.7 + 40.4 * 0.05, dt=0.05,
                                 initial_state=superposed(3), sample_every=7)
        edges = np.append(0.7 + np.arange(41) * 0.05, config.t_end)
        states = [propagator._initial_vector(3, config.initial_state)]
        for t0, t1 in zip(edges[:-1], edges[1:]):
            h = build_full_hamiltonian(spec, t0 + 0.5 * (t1 - t0))
            states.append(exp_step(h, t1 - t0, states[-1]))
        taken = [0, 7, 14, 21, 28, 35, 41]
        times, populations, final_state = stepwise(spec, config)
        assert np.array_equal(times, edges[taken])
        assert max_abs(populations - np.abs(np.array(states)[taken]) ** 2) <= 1e-14
        assert max_abs(final_state - states[-1]) <= 1e-14


class TestEvolutionConfig:
    def test_rejects_non_positive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            EvolutionConfig(t_start=0.0, t_end=1.0, dt=0.0)

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError, match="t_end"):
            EvolutionConfig(t_start=1.0, t_end=1.0, dt=0.1)

    def test_rejects_bad_sample_every(self):
        with pytest.raises(ValueError, match="sample_every"):
            EvolutionConfig(t_start=0.0, t_end=1.0, dt=0.1, sample_every=0)
        with pytest.raises(ValueError, match="sample_every"):
            EvolutionConfig(t_start=0.0, t_end=1.0, dt=0.1, sample_every=True)

    def test_rejects_oversized_grid(self):
        with pytest.raises(ValueError, match="steps"):
            EvolutionConfig(t_start=0.0, t_end=1.0, dt=1e-12)

    @pytest.mark.parametrize("key", ["t_start", "t_end", "dt"])
    def test_rejects_integers_past_float64(self, key):
        fields = dict(dict(t_start=0.0, t_end=1.0, dt=0.1), **{key: 10**400})
        with pytest.raises(ValueError, match=f"^{key} is too large for float64$"):
            EvolutionConfig(**fields)


THREE_LEVEL = SystemSpec(
    n=3,
    energies=(-1.0, 0.3, 1.1),
    g=0.25,
    omega=1.0,
    drive_model="generalized",
)


class TestEvolve:
    def test_undriven_populations_frozen(self):
        spec = SystemSpec(n=3, energies=(-1.0, 0.3, 1.1))
        config = EvolutionConfig(
            t_start=0.0, t_end=5.0, dt=0.01,
            initial_state=np.array([1.0, 1.0, 1.0]) / math.sqrt(3),
        )
        traj = evolve(spec, config)
        assert max_abs(traj.populations - traj.populations[0]) <= 1e-12

    def test_time_grid_lands_on_endpoint(self):
        config = EvolutionConfig(t_start=0.0, t_end=1.0, dt=0.3)
        traj = evolve(THREE_LEVEL, config)
        # ceil(1/0.3) = 4 steps, last one shortened
        assert traj.times.shape == (5,)
        assert np.allclose(traj.times[:4], [0.0, 0.3, 0.6, 0.9], atol=1e-15)
        assert traj.times[-1] == 1.0

    def test_integer_ratio_keeps_step_count(self):
        config = EvolutionConfig(t_start=0.0, t_end=30.0, dt=0.005, sample_every=20)
        traj = evolve(THREE_LEVEL, config)
        # 6000 steps sampled every 20th, plus the initial instant
        assert traj.times.shape == (301,)
        assert traj.times[-1] == 30.0
        # 2.7 / 0.3 rounds to 9 + 2e-15 while 9 steps of 0.3 end 4e-16 short
        # of 2.7: 9 steps, the last a rounding error longer than dt, not a
        # tenth a rounding error long
        traj = evolve(THREE_LEVEL, EvolutionConfig(t_start=0.0, t_end=2.7, dt=0.3))
        assert traj.times.shape == (10,)

    def test_times_strictly_increasing(self):
        config = EvolutionConfig(t_start=0.5, t_end=3.7, dt=0.07, sample_every=3)
        traj = evolve(THREE_LEVEL, config)
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == 0.5
        assert traj.times[-1] == 3.7

    # at a late start t_end - t_start rounds to just over K dt on many grids
    # (t_start 1e4, dt 0.01 and K = 10 among them) while edge K, formed as
    # t_end is, lands on t_end: every path must take K steps and sample
    # t_end once, not add a zero-length step
    @pytest.mark.parametrize("spec", [
        SystemSpec(n=2, energies=(0.5, -0.5), g=0.25, omega=1.0, drive_model="rwa2"),
        dataclasses.replace(THREE_LEVEL, omega=0.0),
        THREE_LEVEL,
    ], ids=["rwa2", "static", "generalized"])
    def test_late_start_takes_k_steps(self, spec):
        grids = list(itertools.product((1e3, 1e4, 1e5), (0.1, 0.01, 0.001), range(1, 13)))
        for t_start, dt, steps in grids:
            traj = evolve(spec, EvolutionConfig(t_start=t_start, t_end=t_start + steps * dt,
                                                dt=dt))
            assert traj.times.shape == (steps + 1,), (t_start, dt, steps)
            assert np.all(np.diff(traj.times) > 0), (t_start, dt, steps)
        for t_start, dt, steps in grids:
            assert propagator._grid(t_start, t_start + steps * dt, dt) == (steps, steps, 0.0)

    def test_sample_count_with_remainder(self):
        # 5 steps sampled every 2nd: instants 0, 2, 4, plus the final 5th
        config = EvolutionConfig(t_start=0.0, t_end=1.5, dt=0.3, sample_every=2)
        traj = evolve(THREE_LEVEL, config)
        assert traj.times.shape == (4,)

    def test_single_step_when_dt_exceeds_span(self):
        config = EvolutionConfig(t_start=0.0, t_end=1.0, dt=5.0)
        traj = evolve(THREE_LEVEL, config)
        assert traj.times.shape == (2,)
        assert traj.times[-1] == 1.0

    def test_norm_error_stays_small(self):
        config = EvolutionConfig(t_start=0.0, t_end=20.0, dt=0.01)
        traj = evolve(THREE_LEVEL, config)
        assert float(np.max(traj.norm_errors)) <= 1e-10
        assert np.allclose(traj.populations.sum(axis=1), 1.0, atol=1e-10)

    def test_resonant_two_level_transfer(self):
        # driving at the level splitting swaps the populations as sin^2(g t / 2)
        g = 0.05
        period = 2.0 * math.pi / g
        spec = SystemSpec(
            n=2, energies=(0.5, -0.5), g=g, omega=1.0, drive_model="rwa2"
        )
        config = EvolutionConfig(
            t_start=0.0, t_end=period, dt=period / 2000, initial_state=1
        )
        traj = evolve(spec, config)
        predicted = np.sin(0.5 * g * traj.times) ** 2
        assert float(np.max(np.abs(traj.populations[:, 0] - predicted))) <= 1e-3

    def test_cosine_drive_matches_generalized_bitwise(self):
        base = dict(n=2, energies=(0.5, -0.5), g=0.3, omega=1.0)
        config = EvolutionConfig(t_start=0.0, t_end=8.0, dt=0.02, sample_every=4)
        a = evolve(SystemSpec(drive_model="cosine2", **base), config)
        b = evolve(SystemSpec(drive_model="generalized", **base), config)
        assert np.array_equal(a.populations, b.populations)
        assert np.array_equal(a.times, b.times)

    @pytest.mark.parametrize("shift", [2.75, 1e6])
    @pytest.mark.parametrize("include_delta0", [True, False])
    def test_populations_invariant_under_energy_offset(self, include_delta0, shift):
        # a mean energy far above the level spacing must neither be rejected
        # as non-hermitian nor change the populations
        energies = (-1.0, 0.3, 1.1)
        kwargs = dict(n=3, g=0.25, omega=1.0, drive_model="generalized",
                      include_delta0=include_delta0)
        base = SystemSpec(energies=energies, **kwargs)
        lifted = SystemSpec(energies=tuple(e + shift for e in energies), **kwargs)
        config = EvolutionConfig(t_start=0.0, t_end=6.0, dt=0.01)
        a = evolve(base, config)
        b = evolve(lifted, config)
        assert max_abs(a.populations - b.populations) <= 1e-9

    def test_populations_ignore_trace_term(self):
        plain = SystemSpec(n=3, energies=(-1.0, 0.3, 1.1), g=0.25, omega=1.0,
                           drive_model="generalized")
        offset = SystemSpec(n=3, energies=(-1.0, 0.3, 1.1), g=0.25, omega=1.0,
                            drive_model="generalized", include_delta0=True)
        config = EvolutionConfig(t_start=0.0, t_end=6.0, dt=0.01)
        a = evolve(plain, config)
        b = evolve(offset, config)
        assert max_abs(a.populations - b.populations) <= 1e-9

    def test_second_order_convergence(self):
        t_end = 10.0
        ref = evolve(
            THREE_LEVEL,
            EvolutionConfig(t_start=0.0, t_end=t_end, dt=t_end / 8192),
        ).final_state
        errors = []
        for steps in (128, 256, 512):
            traj = evolve(
                THREE_LEVEL,
                EvolutionConfig(t_start=0.0, t_end=t_end, dt=t_end / steps),
            )
            errors.append(float(np.linalg.norm(traj.final_state - ref)))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.3 <= coarse / fine <= 4.8

    def test_final_state_matches_last_sample(self):
        config = EvolutionConfig(t_start=0.0, t_end=2.0, dt=0.01, sample_every=7)
        traj = evolve(THREE_LEVEL, config)
        assert max_abs(np.abs(traj.final_state) ** 2 - traj.populations[-1]) <= 1e-14
        assert traj.n == 3


class TestInitialState:
    CONFIG = dict(t_start=0.0, t_end=1.0, dt=0.05)

    def test_index_equals_explicit_vector(self):
        a = evolve(THREE_LEVEL, EvolutionConfig(initial_state=1, **self.CONFIG))
        b = evolve(
            THREE_LEVEL,
            EvolutionConfig(initial_state=[0.0, 1.0, 0.0], **self.CONFIG),
        )
        assert np.array_equal(a.populations, b.populations)

    def test_amplitudes_are_normalized(self):
        a = evolve(THREE_LEVEL, EvolutionConfig(initial_state=2, **self.CONFIG))
        b = evolve(
            THREE_LEVEL,
            EvolutionConfig(initial_state=[0.0, 0.0, 5.0], **self.CONFIG),
        )
        assert np.array_equal(a.populations, b.populations)

    def test_rejects_zero_vector(self):
        config = EvolutionConfig(initial_state=[0.0, 0.0, 0.0], **self.CONFIG)
        with pytest.raises(ValueError, match="zero vector"):
            evolve(THREE_LEVEL, config)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1.7e308, 5e-324])
    def test_amplitudes_at_extreme_scales(self, tmp_path, scale):
        # the amplitudes are scaled by a power of two before their norm is
        # taken, so neither its square overflows nor does it underflow to 0
        raw = committed("rabi_two_level.json")
        expected = evolve(*config_objects(dict(raw, initial_state=[[1.0, 0.0]] * 2)))
        scaled = dict(raw, initial_state=[[scale, 0.0]] * 2)
        traj = evolve(*config_objects(scaled))
        _, populations = evolve_through_cli(tmp_path, scaled)
        for got in (traj.populations, populations):
            assert max_abs(got - expected.populations) <= 1e-14
        assert float(np.max(traj.norm_errors)) <= 1e-12

    def test_rejects_non_finite_amplitudes(self):
        for bad in (np.inf, np.nan, complex(0.0, np.inf)):
            config = EvolutionConfig(initial_state=[1.0, bad, 0.0], **self.CONFIG)
            with pytest.raises(ValueError, match="finite"):
                evolve(THREE_LEVEL, config)

    def test_rejects_wrong_length(self):
        config = EvolutionConfig(initial_state=[1.0, 0.0], **self.CONFIG)
        with pytest.raises(ValueError, match="amplitudes"):
            evolve(THREE_LEVEL, config)

    def test_rejects_out_of_range_index(self):
        config = EvolutionConfig(initial_state=3, **self.CONFIG)
        with pytest.raises(ValueError, match="outside"):
            evolve(THREE_LEVEL, config)

    def test_rejects_integers_past_float64(self):
        config = EvolutionConfig(initial_state=[10**400, 0, 0], **self.CONFIG)
        with pytest.raises(ValueError, match="too large for float64"):
            evolve(THREE_LEVEL, config)

    def test_rejects_bool(self):
        config = EvolutionConfig(initial_state=True, **self.CONFIG)
        with pytest.raises(ValueError):
            evolve(THREE_LEVEL, config)


class TestFailureMapping:
    CONFIG = dict(t_start=0.0, t_end=1.0, dt=0.5)

    # the numerical contract, checked before any eigh: the drift and the
    # bound 2 (max|drift| + g) dt on a step's eigenphases must be finite.
    # Each spec overflows somewhere else; none may warn or write NaN.  The
    # last three would otherwise step by a phase table of Q = 5, by eigh
    # and by a phase table of Q = 7
    @pytest.mark.parametrize("energies, g, dt, t_end, phases, what", [
        ((1.7e308, -1.7e308, 0.0), 1e308, 0.1, 1.0, None, "step phase bound"),
        ((1.7e308, 1.7e308, 1.0), 0.25, 0.1, 1.0, 5, "drift"),
        ((1e300, -1e300, 0.0), 0.25, 1e9, 1e10, None, "step phase bound"),
        ((1e300, -1e300, 0.0), 1e-10, 1e9, 1e11, 7, "step phase bound"),
    ], ids=["drift_plus_g", "mean_energy", "eigh", "table"])
    def test_too_large_for_float64(self, monkeypatch, energies, g, dt, t_end, phases,
                                   what):
        spec = dataclasses.replace(THREE_LEVEL, energies=energies, g=g)
        config = EvolutionConfig(t_start=0.0, t_end=t_end, dt=dt)
        assert propagator._table_phases(spec, dt) == phases
        assert phases is None or phases <= propagator._grid(0.0, t_end, dt)[0]

        def never(*args, **kwargs):
            pytest.fail("eigh ran before the contract was checked")

        monkeypatch.setattr(np.linalg, "eigh", never)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{what} .*too large for float64$"):
                evolve(spec, config)

    @pytest.mark.parametrize("energies, g, dt, include_delta0, built", [
        ((1.7e308, -1.7e308, 0.0), 100.0, 0.25, False, []),  # 2 B dt = 8.5e307
        ((1.7e308, -1.7e308, 0.0), 0.25, 0.25, False, [5]),
        ((1.7e308, 1.7e308, 1.0), 0.25, 1e-300, True, [1]),  # no mean is formed
    ], ids=["eigh", "table", "delta0"])
    def test_contract_accepts_the_largest_finite_specs(self, table_builds, energies, g,
                                                       dt, include_delta0, built):
        spec = dataclasses.replace(THREE_LEVEL, energies=energies, g=g,
                                   include_delta0=include_delta0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve(spec, EvolutionConfig(t_start=0.0, t_end=40 * dt, dt=dt))
        assert table_builds == built
        assert np.all(np.isfinite(traj.populations))
        assert float(np.max(traj.norm_errors)) <= 1e-12

    @pytest.mark.parametrize("g, t_start, t_end, dt", [
        (1e-10, 1.7975e8, 1.798e8, 1.0),  # phase table
        (0.25, 1e8, 3e8, 1e6),  # eigh
    ], ids=["table", "eigh"])
    def test_overflowing_drive_phase_names_time(self, g, t_start, t_end, dt):
        # w t is finite at t_start but not at t_end; a check at the first step
        # midpoint cannot see that
        spec = dataclasses.replace(THREE_LEVEL, g=g, omega=1e300)
        config = EvolutionConfig(t_start=t_start, t_end=t_end, dt=dt)
        with pytest.raises(ValueError, match=f"not finite at t = {t_end!r}"):
            evolve(spec, config)

    @pytest.mark.parametrize("t_end", [1e9, 9.5e8], ids=["grid", "shortened"])
    @pytest.mark.parametrize("model, g", [("none", 0.3), ("generalized", 0.0)])
    def test_static_spec_ignores_drive_phase(self, model, g, t_end):
        # H(t) does not depend on the phase, so w t = inf must not reach it
        spec = dataclasses.replace(THREE_LEVEL, g=g, omega=1e300, drive_model=model)
        config = EvolutionConfig(t_start=0.0, t_end=t_end, dt=1e8,
                                 initial_state=[1.0, 1j, 0.0])
        traj = evolve(spec, config)
        assert traj.times[-1] == t_end
        assert np.allclose(traj.populations, [0.5, 0.5, 0.0], rtol=0.0, atol=1e-12)

    def test_grid_near_float64_limit_does_not_warn(self):
        # the last sample is t_end, set as given: the multiple of sample_every
        # past the step count that would mark it, 20 dt = 2e308, is never formed
        spec = SystemSpec(n=2, energies=(0.0, 0.0))
        config = EvolutionConfig(t_start=0.0, t_end=1.5e308, dt=1e307, sample_every=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve(spec, config)
        assert traj.times.tolist() == [0.0, 10 * 1e307, 1.5e308]

    def test_solver_failure_raises_convergence_error(self, monkeypatch):
        def fail(a, UPLO="L"):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(EigenConvergenceError, match="t in"):
            evolve(THREE_LEVEL, EvolutionConfig(**self.CONFIG))
        # the public single-matrix calls share evolve's one LAPACK handler
        message = "^eigensolver failed to converge in hermitian_eig$"
        with pytest.raises(EigenConvergenceError, match=message):
            hermitian_eig(np.eye(2))
        with pytest.raises(EigenConvergenceError, match=message):
            exp_step(np.eye(2), 0.1, [1.0, 0.0])


class TestChunking:
    # both runs take the same path: the phase table, whose Q = 5 phases a
    # 16-step chunk holds, or eigh, when g = 500 needs more phases (Q = 41)
    # than the run has steps (38); the sample instants fall on both sides of
    # every chunk edge
    @pytest.mark.parametrize("g, steps, built", [(0.25, 16, [5, 5]), (500.0, 7, [])],
                             ids=["table", "eigh"])
    def test_chunk_boundaries_do_not_change_the_trajectory(self, table_builds,
                                                           monkeypatch, g, steps,
                                                           built):
        spec = dataclasses.replace(THREE_LEVEL, g=g)
        config = EvolutionConfig(t_start=0.1, t_end=2.0, dt=0.05, sample_every=3)
        whole = evolve(spec, config)
        monkeypatch.setattr(propagator, "CHUNK_BYTES", steps * 16 * 3 * 3)
        chunked = evolve(spec, config)
        assert table_builds == built
        assert np.array_equal(chunked.times, whole.times)
        assert max_abs(chunked.populations - whole.populations) <= 1e-14
        assert max_abs(chunked.final_state - whole.final_state) <= 1e-14

    def test_one_step_per_chunk_for_oversized_matrices(self, monkeypatch):
        config = EvolutionConfig(t_start=0.0, t_end=0.3, dt=0.1)
        whole = evolve(THREE_LEVEL, config)
        monkeypatch.setattr(propagator, "CHUNK_BYTES", 1)
        chunked = evolve(THREE_LEVEL, config)
        assert np.array_equal(chunked.times, whole.times)
        assert max_abs(chunked.populations - whole.populations) <= 1e-14


class TestEnergyScale:
    # scaling energies, drive and frequency by s and time by 1/s leaves the
    # populations unchanged, so every scale must run and agree
    @staticmethod
    def _run(scale):
        spec = SystemSpec(
            n=3,
            energies=(-1.0 * scale, 0.3 * scale, 1.0 * scale),
            g=0.25 * scale,
            omega=1.0 * scale,
            drive_model="generalized",
        )
        config = EvolutionConfig(
            t_start=0.0, t_end=20.0 / scale, dt=0.01 / scale, sample_every=50
        )
        return evolve(spec, config)

    def test_populations_agree_across_scales(self):
        runs = [self._run(scale) for scale in (1e-300, 1e-6, 1.0, 1e6, 1e300)]
        for run in runs:
            assert float(np.max(run.norm_errors)) <= 1e-10
        for run in runs[:2] + runs[3:]:
            assert max_abs(run.populations - runs[2].populations) <= 1e-9

    def test_large_scale_system_runs(self):
        spec = SystemSpec(
            n=3, energies=(-1e6, 3e5, 1e6), g=2.5e5, omega=1e6,
            drive_model="generalized",
        )
        traj = evolve(spec, EvolutionConfig(t_start=0.0, t_end=1e-5, dt=1e-8))
        assert np.allclose(traj.populations.sum(axis=1), 1.0, atol=1e-10)

    @pytest.mark.parametrize("include_delta0", [False, True])
    @pytest.mark.parametrize("offset", [0.0, 1e6, 1e9])
    @pytest.mark.parametrize("n", range(2, 13))
    def test_steps_take_the_drift_of_build_drift(self, monkeypatch, n, offset,
                                                 include_delta0):
        # evolve reads the levels from the helper build_drift puts on its
        # diagonal; every H it assembles, here of a full step and a
        # shortened last step, and every H it diagonalizes, must hold that
        # diagonal to the bit, the drive's being zero.  From n = 4 both
        # steps here are Taylor steps, which diagonalize nothing
        energies = np.random.default_rng(400 + n).uniform(-5, 5, size=n) + offset
        spec = SystemSpec(n=n, energies=tuple(energies), g=0.25, omega=1.0,
                          drive_model="generalized", include_delta0=include_delta0)
        diagonals, plain, assemble = [], np.linalg.eigh, propagator._at_phase

        def spy(h, *args, **kwargs):
            diagonals.extend(np.diagonal(h, axis1=-2, axis2=-1))
            return plain(h, *args, **kwargs)

        def assembled(*args):
            h = assemble(*args)
            diagonals.extend(np.diagonal(h, axis1=-2, axis2=-1))
            return h

        monkeypatch.setattr(np.linalg, "eigh", spy)
        monkeypatch.setattr(propagator, "_at_phase", assembled)
        evolve(spec, EvolutionConfig(t_start=0.0, t_end=1.5e-3, dt=1e-3))
        assert diagonals
        for diagonal in diagonals:
            assert np.array_equal(diagonal, np.diag(hamiltonian.build_drift(spec)))

    def test_eig_accepts_large_scale_residue(self):
        h = np.diag([1e6, -1e6]).astype(complex)
        h[0, 1] = 5e-10
        h[1, 0] = -5e-10
        w, _ = hermitian_eig(h)
        assert np.allclose(w, [-1e6, 1e6], rtol=1e-12, atol=0.0)

    def test_eig_rejects_small_scale_non_hermitian(self):
        with pytest.raises(ValueError, match="not hermitian"):
            hermitian_eig(np.array([[0.0, 1e-12], [0.0, 0.0]]))


class TestSampleBudget:
    def test_huge_grid_rejected_before_allocation(self):
        # 5e7 samples of 64 levels would need about 26 GB; the check has to
        # fire before any buffer or Hamiltonian stack is built
        spec = SystemSpec(n=64, energies=tuple(range(64)))
        config = EvolutionConfig(t_start=0.0, t_end=1.0, dt=2e-8)
        with pytest.raises(ValueError, match="byte budget"):
            evolve(spec, config)

    @pytest.mark.parametrize("spec", [THREE_LEVEL, SystemSpec(
        n=2, energies=(0.5, -0.5), g=0.05, omega=1.0, drive_model="rwa2")],
        ids=["lab", "frame"])
    @pytest.mark.parametrize("t_end", [1.0, 1.03], ids=["grid", "shortened"])
    def test_sample_every_past_the_step_count(self, spec, t_end):
        # 20 or 21 steps: a sample_every past the int64 range samples the
        # ends, as any past the step count does
        runs = [evolve(spec, EvolutionConfig(t_start=0.0, t_end=t_end, dt=0.05,
                                             initial_state=1, sample_every=every))
                for every in (2**70, 22)]
        assert len(runs[0].times) == 2
        for field in ("times", "populations", "norm_errors", "final_state"):
            assert np.array_equal(getattr(runs[0], field), getattr(runs[1], field))

    def test_budget_counts_thinned_samples(self, monkeypatch):
        # 20 steps sampled every 5th: 5 samples of (3 + 2) doubles
        config = EvolutionConfig(t_start=0.0, t_end=1.0, dt=0.05, sample_every=5)
        monkeypatch.setattr(propagator, "MAX_SAMPLE_BYTES", 5 * 5 * 8)
        assert evolve(THREE_LEVEL, config).times.shape == (5,)
        monkeypatch.setattr(propagator, "MAX_SAMPLE_BYTES", 5 * 5 * 8 - 1)
        with pytest.raises(ValueError, match="byte budget"):
            evolve(THREE_LEVEL, config)


def rabi_cosine():
    """The Rabi config with its drive as cosine2, which runs in the lab frame.

    The rwa2 drive of the config runs in the rotating frame; cosine2 on the
    same grid of 100 steps per drive period takes a jump table composed
    from the phase table.
    """
    return config_objects(dict(committed("rabi_two_level.json"), drive_model="cosine2"))


def spy_on(monkeypatch, name, record):
    """Wrap propagator.<name> so that every call appends record(arguments, result).

    The wrapper forwards any arguments and binds them to the function's
    parameter names, so a spy survives a signature change that keeps the
    names it reads.  A record of None is not kept.  Returns the list of
    records.
    """
    records = []
    plain = getattr(propagator, name)
    signature = inspect.signature(plain)

    def spy(*args, **kwargs):
        result = plain(*args, **kwargs)
        entry = record(signature.bind(*args, **kwargs).arguments, result)
        if entry is not None:
            records.append(entry)
        return result

    monkeypatch.setattr(propagator, name, spy)
    return records


@pytest.fixture
def built_steps(monkeypatch):
    """Midpoint counts of every stack of step unitaries evolve builds.

    One entry per stack, whether its steps come from eigh or the phase table;
    Taylor steps form no unitaries and take no entry.
    """
    return spy_on(monkeypatch, "_steps",
                  lambda args, steps: None if args["order"] is not None else len(args["mids"]))


def step_unitaries(spec, parts, mids, dt, table=None):
    """The stack of step unitaries that _steps forms, from eigh or summed from ``table``."""
    return propagator._steps(spec, parts, mids, dt, np.eye(spec.n)[0], table, None)[0]


@pytest.fixture
def jump_builds(monkeypatch):
    """Sample intervals, in steps, of every jump table evolve composes."""
    return spy_on(monkeypatch, "_jump_table", lambda args, table: args["every"])


def on_period_grid(spec, dt):
    """True when a whole number of steps of dt make up the drive period 2 pi / |w|."""
    steps = 2.0 * math.pi / (abs(spec.omega) * dt)
    return round(steps) >= 1 and abs(steps - round(steps)) <= 1e-9 * steps


@pytest.fixture
def table_builds(monkeypatch):
    """Phase counts Q of every phase table evolve builds: Q + 2 frame coefficients."""
    return spy_on(monkeypatch, "_phase_table", lambda args, table: len(table) - 2)


@pytest.fixture
def eigh_phases(monkeypatch):
    """Matrix counts of every batched eigh evolve makes: table, steps or rotating frame."""
    return spy_on(monkeypatch, "_spectrum", lambda args, wv: len(args["h"]))


def assert_matches_stepwise(spec, config, traj=None):
    """Check evolve's run, or a trajectory it returned, against stepwise."""
    traj = evolve(spec, config) if traj is None else traj
    times, populations, final_state = stepwise(spec, config)
    assert np.array_equal(traj.times, times)
    assert max_abs(traj.populations - populations) <= 1e-10
    assert max_abs(traj.final_state - final_state) <= 1e-10
    return traj


class TestCommensurateGrids:
    # grids of K steps per drive period take jump tables like any other
    # grid.  On the Rabi grid with a cosine2 drive the jump table is
    # composed from the Q = 5 phase table, so eigh sees its 5 phases and no
    # step

    @pytest.mark.parametrize("short", [0.0, 0.4])
    def test_rabi_config_matches_stepwise(self, built_steps, table_builds, jump_builds,
                                          short):
        # the config's t_end sits one ulp below 2000 dt; short cuts the last step
        spec, config = rabi_cosine()
        config = EvolutionConfig(
            t_start=config.t_start, t_end=config.t_end - short * config.dt,
            dt=config.dt, initial_state=config.initial_state,
            sample_every=config.sample_every,
        )
        assert on_period_grid(spec, config.dt)
        assert_matches_stepwise(spec, config)
        # one jump per whole sample interval of 5, the 4 full steps after the
        # last of them, then the shortened last step
        assert built_steps == [399, 4, 1]
        assert table_builds == [5]
        assert jump_builds == [5]

    def test_jumps_over_several_chunks(self, built_steps, table_builds, jump_builds,
                                       monkeypatch):
        # 100-step chunks: 399 jumps in four passes, then 4 fresh full
        # steps, then the shortened last step, a chain of one
        monkeypatch.setattr(propagator, "CHUNK_BYTES", 100 * 16 * 2 * 2)
        chained, depth = [], []
        plain = propagator._chain

        def spy(u, psi):
            # _chain's carries call _chain again, through this spy; count
            # only the stacks evolve hands in
            if not depth:
                chained.append(len(u))
            depth.append(len(u))
            states = plain(u, psi)
            depth.pop()
            return states

        monkeypatch.setattr(propagator, "_chain", spy)
        spec, config = rabi_cosine()
        assert_matches_stepwise(spec, config)
        assert built_steps == [100, 100, 100, 99, 4, 1]
        assert table_builds == [5]
        assert jump_builds == [5]
        assert chained == [100, 100, 100, 99, 4, 1]

    def test_late_start_matches_stepwise(self, built_steps, table_builds, jump_builds):
        spec, config = rabi_cosine()
        config = EvolutionConfig(
            t_start=3.1, t_end=3.1 + 7.5 * 100 * config.dt, dt=config.dt,
            initial_state=0, sample_every=40,
        )
        assert_matches_stepwise(spec, config)
        # 18 jumps of 40 steps, then the 30 steps after them
        assert built_steps[0] == 18
        assert sum(built_steps) < 750 / 2
        assert table_builds == [5]
        assert jump_builds == [40]

    def test_static_hamiltonian_matches_stepwise(self, built_steps, jump_builds,
                                                 eigh_phases):
        # a static H repeats every step, but runs in the rotating frame: one
        # eigh, of U(0), for every full-length step, and no jump table
        spec = SystemSpec(n=3, energies=(-1.0, 0.3, 1.1))
        config = EvolutionConfig(
            t_start=0.7, t_end=4.0, dt=0.01, initial_state=1, sample_every=3
        )
        assert propagator._in_frame(spec)
        assert_matches_stepwise(spec, config)
        assert jump_builds == []
        assert eigh_phases[0] == 1
        assert sum(built_steps) <= 1

    def test_step_longer_than_period_runs_stepwise(self, built_steps, jump_builds):
        # two drive periods per step, 10 steps: composing a jump table of 5
        # steps at dt g / 2 = 0.31 would form more matrices than the run has
        spec, _ = rabi_cosine()
        dt = 2.0 * (2.0 * math.pi)
        assert not on_period_grid(spec, dt)
        config = EvolutionConfig(t_start=0.0, t_end=10 * dt, dt=dt, initial_state=1)
        assert_matches_stepwise(spec, config)
        assert sum(built_steps) == 10
        assert jump_builds == []

    def test_block_over_a_chunk_runs_stepwise(self, built_steps, table_builds,
                                              jump_builds, monkeypatch):
        # chunks of 880 bytes meet _table_phases' second bound, 16 Q
        # (2 (n S + n/2) + 1) bytes, for the Q = 5 phase table, 5 x 11, but not
        # for the Q = 7 jump table, 7 x 15: every full step is summed from the
        # phase table, 13 2 x 2 matrices a chunk
        monkeypatch.setattr(propagator, "CHUNK_BYTES", 16 * 5 * 11)
        spec, config = rabi_cosine()
        assert_matches_stepwise(spec, config)
        assert sum(built_steps) == 2000
        assert max(built_steps) == 13
        assert table_builds == [5]
        assert jump_builds == []

    @pytest.mark.parametrize("period, every", [(1, 7), (3, 1), (100, 100), (100, 5),
                                               (100, 7), (16, 40)])
    def test_jump_table_matches_plain_products(self, period, every):
        # the propagators over one sample interval, summed from the jump
        # table on a grid of K steps per drive period: every below, equal to
        # and above K, coprime pairs, K = 1, and every = 1, where the jump
        # table is the phase table; against the interval's step unitaries
        # from eigh multiplied from the left one by one, for 5 intervals
        dt = 0.1
        spec = dataclasses.replace(table_spec("generalized", 3, 0.05, dt),
                                   omega=2.0 * math.pi / (period * dt))
        assert on_period_grid(spec, dt)
        parts = hamiltonian._parts(spec)
        table = propagator._phase_table(spec, parts, dt, propagator._table_phases(spec, dt))
        jump = propagator._jump_table(spec, table, dt, every)
        starts = 0.3 + np.arange(5) * every * dt
        props = in_the_lab(spec, step_unitaries(
            spec, parts, starts + 0.5 * dt, dt, jump), starts + 0.5 * dt, dt, every)
        for start, prop in zip(starts, props):
            product = np.eye(3)
            mids = start + (np.arange(every) + 0.5) * dt
            for u in step_unitaries(spec, parts, mids, dt):
                product = u @ product
            assert max_abs(prop - product) <= 1e-13


def jump_spec(n, model="generalized", g=0.1, omega=1.0137):
    """A driven spec of n levels whose long sample intervals take jump tables."""
    return SystemSpec(n=n, energies=tuple(np.sin(np.arange(n) * 1.3)), g=g, omega=omega,
                      drive_model=model)


class TestJumpTable:
    # every whole sample interval's propagator summed from one table over
    # its start phase, composed from the phase table, on any grid

    @pytest.mark.parametrize("every", [2, 7, 20, 100, 4099])
    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    @pytest.mark.parametrize("grid", ["commensurate", "off_grid"])
    def test_matches_stepwise(self, jump_builds, grid, n, every):
        # 100 steps per drive period or 123.97; a late start, superposed,
        # whole sample intervals enough for the jumps to save more matrices
        # than composing forms, 150 full steps after them and a last step
        # shortened to 0.6 dt
        spec = jump_spec(n)
        dt = 2.0 * math.pi / (100 * spec.omega) if grid == "commensurate" else 0.05
        assert on_period_grid(spec, dt) == (grid == "commensurate")
        steps = (1 if every > 1000 else 5) * every + 150
        config = EvolutionConfig(t_start=0.7, t_end=0.7 + (steps + 0.6) * dt, dt=dt,
                                 initial_state=superposed(n), sample_every=every)
        assert_matches_stepwise(spec, config)
        assert jump_builds == [every]

    @pytest.mark.parametrize("n", [3, 8])
    def test_composed_table_matches_plain_products(self, n):
        # V_1000 summed at the start phases of 4 sample intervals, against
        # their 1,000 step unitaries from eigh multiplied one by one, within
        # TestNormDrift's 16 eps per step
        spec, dt, every = jump_spec(n, g=0.25), 0.005, 1000
        parts = hamiltonian._parts(spec)
        table = propagator._phase_table(spec, parts, dt, propagator._table_phases(spec, dt))
        jump = propagator._jump_table(spec, table, dt, every)
        starts = 0.3 + np.arange(4) * every * dt
        props = in_the_lab(spec, step_unitaries(
            spec, parts, starts + 0.5 * dt, dt, jump), starts + 0.5 * dt, dt, every)
        for start, prop in zip(starts, props):
            product = np.eye(n)
            for u in step_unitaries(
                    spec, parts, start + (np.arange(every) + 0.5) * dt, dt):
                product = u @ product
            assert max_abs(prop - product) <= 16 * EPS * every

    @pytest.mark.parametrize("every", [16, 4096])
    def test_falls_back_when_the_jump_table_does_not_fit(self, table_builds, jump_builds,
                                                         every):
        # 4,096 steps at n = 2 and dt g / 2 = 20: the Q = 83 phase table
        # fits, a jump table over 16 steps (x = 320) does not, so every full
        # step is summed from the phase table within CHUNK_BYTES
        spec = jump_spec(2, g=40.0)
        config = EvolutionConfig(t_start=0.0, t_end=4096.0, dt=1.0, sample_every=every)
        tracemalloc.start()
        try:
            traj = evolve(spec, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table_builds == [83]
        assert jump_builds == []
        assert peak <= 8 * propagator.CHUNK_BYTES
        assert_matches_stepwise(spec, config, traj)

    @pytest.mark.parametrize("extra, built", [(0, []), (1, [4])])
    def test_composed_only_when_the_jumps_save_more(self, jump_builds, extra, built):
        # intervals of 4 steps take 2 compositions of 3 Q matrices each; over
        # 2 Q intervals the jumps save 2 Q (4 - 1) steps, no more than the
        # compositions form, so every step is fresh; one more interval and
        # the jumps save more
        spec, dt, every = jump_spec(3), 0.05, 4
        assert propagator._table_phases(spec, every * dt) == 5
        steps = (2 * 5 + extra) * every
        config = EvolutionConfig(t_start=0.0, t_end=steps * dt, dt=dt,
                                 initial_state=superposed(3), sample_every=every)
        assert_matches_stepwise(spec, config)
        assert jump_builds == built

    @pytest.mark.parametrize("steps, every", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_not_built_for_one_or_two_steps_at_n32(self, jump_builds, steps, every):
        # dense32's shape: a jump over 2 steps would form more matrices than
        # the steps it saves
        config = EvolutionConfig(t_start=0.0, t_end=steps * 0.05, dt=0.05,
                                 sample_every=every)
        assert_matches_stepwise(jump_spec(32, g=0.25), config)
        assert jump_builds == []

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    def test_extreme_scales_match_stepwise(self, jump_builds, scale):
        # TestEnergyScale's runs at both ends of the float64 range
        spec = SystemSpec(n=3, energies=(-1.0 * scale, 0.3 * scale, 1.0 * scale),
                          g=0.25 * scale, omega=1.0 * scale, drive_model="generalized")
        config = EvolutionConfig(t_start=0.0, t_end=20.0 / scale, dt=0.01 / scale,
                                 initial_state=superposed(3), sample_every=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_matches_stepwise(spec, config)
        assert jump_builds == [50]

    def test_shift_stays_finite(self, jump_builds):
        # w t is finite at both ends of [-0.4e308, 0.4e308], but w a dt is
        # not for the shift a = 32 steps that the last composition of a
        # 33-step jump takes; the drive is too weak for the phases' rounding,
        # about eps w t, to reach the populations
        spec = SystemSpec(n=3, energies=(-1e-306, 0.3e-306, 1.1e-306), g=1e-318,
                          omega=4.0, drive_model="generalized")
        config = EvolutionConfig(t_start=-0.4e308, t_end=0.4e308, dt=0.02e308,
                                 initial_state=superposed(3), sample_every=33)
        assert not math.isfinite(spec.omega * 32 * config.dt)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = assert_matches_stepwise(spec, config)
        assert jump_builds == [33]
        assert np.all(np.isfinite(traj.populations))


def evolve_through_cli(tmp_path, raw):
    """Sample times and populations of `nlevel evolve` on a config."""
    out = tmp_path / "out.csv"
    assert cli.main(["evolve", "--config", write_config(tmp_path, raw),
                     "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    return rows[:, 0], rows[:, 1:-1]


def cosine(raw):
    return dict(raw, drive_model="cosine2")


@pytest.mark.filterwarnings("error")
class TestConfigsThroughCli:
    # the committed configs and copies through `nlevel evolve`, with
    # warnings as errors: the three-level config jumps over its 300 sample
    # intervals of 20 steps, its copy ending at t = 29.9973 over 299, then
    # takes 19 phase-table steps and one shortened step; the Rabi config's
    # rwa2 drive runs in the rotating frame, on the period grid and detuned
    # off it.  Its cosine2 copies, on the grid and detuned off it, take a
    # jump table composed from the phase table alike

    @pytest.mark.parametrize("name, changes, tables, jumps", [
        ("driven_three_level.json", lambda raw: raw, 1, 1),
        ("driven_three_level.json", lambda raw: dict(raw, t_end=29.9973), 1, 1),
        ("rabi_two_level.json",
         lambda raw: cosine(dict(raw, omega=raw["omega"] * 1.0137)), 1, 1),
        ("rabi_two_level.json", cosine, 1, 1),
        ("rabi_two_level.json", lambda raw: raw, 0, 0),
        ("rabi_two_level.json", lambda raw: dict(raw, omega=raw["omega"] * 1.0137), 0, 0),
    ], ids=["driven", "driven_short", "rabi_detuned", "rabi", "rabi_frame",
            "rabi_frame_detuned"])
    def test_matches_stepwise(self, tmp_path, table_builds, jump_builds, name,
                              changes, tables, jumps):
        raw = changes(committed(name))
        times, populations = evolve_through_cli(tmp_path, raw)
        assert len(table_builds) == tables
        assert len(jump_builds) == jumps
        expected_times, expected, _ = stepwise(*config_objects(raw))
        assert np.array_equal(times, expected_times)
        assert max_abs(populations - expected) <= 1e-10

    def test_rabi_config_follows_closed_form(self, tmp_path):
        raw = committed("rabi_two_level.json")
        times, populations = evolve_through_cli(tmp_path, raw)
        assert len(times) > 1
        assert max_abs(populations[:, 0] - np.sin(0.5 * raw["g"] * times) ** 2) <= 1e-3


SCAN_BLOCK = propagator._SCAN_BLOCK


def plain_chain(u, psi):
    """The states of _chain from one matrix-vector product per unitary."""
    states = np.empty((len(u), len(psi)), dtype=complex)
    for j, u_j in enumerate(u):
        psi = u_j @ psi
        states[j] = psi
    return states


def random_unitaries(rng, count, n):
    m = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    return np.linalg.qr(m)[0]


class TestChain:
    # _chain against one matrix-vector product per unitary, with blocks
    # stored block index innermost up to n = _SCAN_MAX_N and matrix by
    # matrix above it, and no blocks from n = _LOOP_MIN_N on, each n next to
    # those crossovers; counts on both sides of the block length and its
    # square, and the chunk lengths evolve hands in

    @pytest.mark.parametrize("n", sorted({2, 3, propagator._SCAN_MAX_N,
                                          propagator._SCAN_MAX_N + 1, 8,
                                          propagator._LOOP_MIN_N - 1,
                                          propagator._LOOP_MIN_N, 32}))
    @pytest.mark.parametrize("count", sorted({
        1, 2, 3, 4, 5, 15, 16, 17, 455, 1820,
        SCAN_BLOCK - 1, SCAN_BLOCK, SCAN_BLOCK + 1,
        SCAN_BLOCK**2 - 1, SCAN_BLOCK**2, SCAN_BLOCK**2 + 1,
        *(propagator.CHUNK_BYTES // (16 * n * n) for n in (2, 3, 5, 8, 32)),
    }))
    def test_matches_plain_loop(self, count, n):
        rng = np.random.default_rng(1000 * count + n)
        u = random_unitaries(rng, count, n)
        kept = u.copy()
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        states = propagator._chain(u, psi)
        assert states.shape == (count, n)
        assert max_abs(states - plain_chain(u, psi)) <= 1e-13
        assert np.array_equal(u, kept)

    @pytest.mark.parametrize("n", [propagator._SCAN_MAX_N, propagator._SCAN_MAX_N + 1])
    @pytest.mark.parametrize("count", [SCAN_BLOCK, SCAN_BLOCK + 1, 100])
    @pytest.mark.parametrize("layout", ["every_other", "step_index_last"])
    def test_strided_stack_matches_plain_loop(self, layout, count, n):
        # the carries hand _chain views of a larger buffer: every other
        # matrix of a stack, or a stack stored step index last
        rng = np.random.default_rng(7 * count + n)
        if layout == "every_other":
            u = random_unitaries(rng, 2 * count, n)[::2]
        else:
            u = random_unitaries(rng, count, n).transpose(1, 2, 0).copy().transpose(2, 0, 1)
        assert not u.flags.c_contiguous
        kept = u.copy()
        psi = np.exp(1j * rng.normal(size=n)) / math.sqrt(n)
        states = propagator._chain(u, psi)
        assert states.shape == (count, n)
        assert max_abs(states - plain_chain(u, psi)) <= 1e-13
        assert np.array_equal(u, kept)

    @pytest.mark.parametrize("chunk_bytes", [None, 1])
    @pytest.mark.parametrize("n, steps", [(8, 300), (32, 40)])
    def test_evolve_matches_stepwise(self, monkeypatch, n, steps, chunk_bytes):
        # off the period grid, over several chunks, last step shortened; the
        # whole chunks' runs jump over their sample intervals of 3 steps
        if chunk_bytes is not None:
            monkeypatch.setattr(propagator, "CHUNK_BYTES", chunk_bytes)
        spec = SystemSpec(
            n=n, energies=tuple(np.sin(np.arange(n) * 1.3)), g=0.25,
            omega=1.0137, drive_model="generalized",
        )
        dt = 0.01
        config = EvolutionConfig(
            t_start=0.2, t_end=0.2 + (steps - 0.4) * dt, dt=dt, initial_state=1,
            sample_every=3,
        )
        assert not on_period_grid(spec, dt)
        assert_matches_stepwise(spec, config)


EPS = np.finfo(np.float64).eps


def table_spec(model, n, x, dt, offset=0.0):
    """A spec whose drive makes dt g / 2 equal x."""
    return SystemSpec(
        n=n, energies=tuple(offset + np.sin(np.arange(n) * 1.3)), g=2.0 * x / dt,
        omega=1.0137, drive_model=model, include_delta0=offset != 0.0,
    )


def in_the_lab(spec, frame, mids, dt, steps=1):
    """Lab propagators of frame ones M over ``steps`` steps, the first centred at each of mids.

    Over L steps from drive phase a = theta - w dt / 2, theta the first
    step's, the frame's M is R(a + L w dt)^dagger V R(a), R(a) =
    diag(e^{i k a}), so V = R(a + L w dt) M R(a)^dagger.  The rotations are
    formed as evolve forms its own, from the angles of e^{i theta} and of
    e^{i w dt / 2} (see propagator._rotation).
    """
    theta = np.angle(hamiltonian._phase_factors(spec, mids))
    half = np.angle(hamiltonian._phase_factors(spec, 0.5 * dt))
    left = propagator._rotation(theta + (2 * steps - 1) * half, spec.n)
    right = propagator._rotation(half - theta, spec.n)
    return left[:, :, None] * frame * right[:, None, :]


def tabled_and_direct(spec, dt, steps=300, t0=0.25):
    """The step unitaries of one grid from the phase table and from eigh."""
    mids = t0 + (np.arange(steps) + 0.5) * dt
    parts = hamiltonian._parts(spec)
    table = propagator._phase_table(spec, parts, dt, propagator._table_phases(spec, dt))
    return (in_the_lab(spec, step_unitaries(spec, parts, mids, dt, table), mids, dt),
            step_unitaries(spec, parts, mids, dt))


class TestPhaseTable:
    # full-length fresh steps summed from a Fourier table over the drive phase

    @pytest.mark.parametrize("x", [1e-3, 0.1, 5.0])
    @pytest.mark.parametrize("model, n", [("generalized", 3), ("generalized", 8),
                                          ("generalized", 32), ("cosine2", 2),
                                          ("rwa2", 2)])
    def test_matches_eigh(self, model, n, x):
        tabled, direct = tabled_and_direct(table_spec(model, n, x, 0.125), 0.125)
        assert max_abs(tabled - direct) <= 1e-13

    @pytest.mark.parametrize("x", [1e-3, 0.1, 5.0])
    @pytest.mark.parametrize("n", [3, 32])
    def test_matches_eigh_at_energy_offset(self, n, x):
        # eigh resolves eigenvalues near |E| = 1e6 to about eps |E|, so both
        # stacks carry phase errors of about eps |E| dt; on a grid of binary
        # fractions and on one that has none
        for t0, dt in ((0.25, 0.125), (1000.1, 0.1)):
            spec = table_spec("generalized", n, x, dt, offset=1e6)
            tabled, direct = tabled_and_direct(spec, dt, t0=t0)
            bound = 1e-13 + 64 * EPS * max(spec.energies) * dt
            assert max_abs(tabled - direct) <= bound

    @pytest.mark.parametrize("x", [0.0, 6.25e-4, 1e-3, 0.1, 5.0])
    def test_order_is_the_smallest_within_eps(self, x):
        # at n = 3, Q = 2 S + 1 phases hold every Fourier order up to 3 S + 1
        # and leave out 3 S + 2: what they leave out is within eps, and what
        # Q - 2 phases would leave out is not
        width = propagator._table_phases(table_spec("generalized", 3, x, 0.125), 0.125) // 2

        def tail(m):
            return 2.0 * x ** (m + 1) / math.factorial(m + 1)

        assert tail(3 * width + 1) <= EPS
        assert width == 0 or tail(3 * width - 2) > EPS

    @pytest.mark.parametrize("n, quoted, largest, last", [
        (2, (5, 11, 37), 89, 22.45),
        (3, (3, 7, 25), 73, 29.85),
        (32, (1, 1, 3), 15, 76.92),
    ])
    def test_phases_quoted_in_the_readme(self, n, quoted, largest, last):
        # Q at dt g / 2 = 6.25e-4, 0.1 and 5, and the largest Q whose table
        # fits, at the last dt g / 2 on a grid of 0.01 where one does: the
        # second bound, about 16 n Q^2 bytes, stops it at n = 2 and 3, and
        # its Q matrices at n = 32, where a chunk holds 16.  Q grows with
        # dt g / 2, so none fits beyond
        def phases(x):
            return propagator._table_phases(table_spec("generalized", n, x, 1.0), 1.0)

        assert tuple(phases(x) for x in (6.25e-4, 0.1, 5.0)) == quoted
        assert phases(last) == largest
        assert phases(last + 0.01) is None

    @pytest.mark.parametrize("model, n", [("none", 3), ("generalized", 2),
                                          ("generalized", 3), ("generalized", 32),
                                          ("cosine2", 2), ("rwa2", 2)])
    def test_drive_norm_is_half_g(self, model, n):
        # the table order takes ||A||_2 = g / 2 without building A
        spec = SystemSpec(n=n, energies=(0.0,) * n, g=0.3, omega=1.0, drive_model=model)
        norm = np.linalg.norm(hamiltonian.drive_coefficient(spec), 2)
        assert norm == (0.0 if model == "none" else 0.5 * spec.g)

    def test_cosine_equals_generalized_and_reruns_bitwise(self, table_builds):
        base = dict(n=2, energies=(0.5, -0.5), g=0.3, omega=1.0137)
        config = EvolutionConfig(t_start=0.1, t_end=8.0, dt=0.02, sample_every=4)
        runs = [evolve(SystemSpec(drive_model=model, **base), config)
                for model in ("cosine2", "generalized", "cosine2")]
        assert len(table_builds) == 3
        for run in runs[1:]:
            assert np.array_equal(run.times, runs[0].times)
            assert np.array_equal(run.populations, runs[0].populations)
            assert np.array_equal(run.final_state, runs[0].final_state)

    def test_built_once_over_several_chunks(self, table_builds, built_steps, jump_builds,
                                            monkeypatch):
        # x = 1.25e-3 needs Q = 3 phases; 16-matrix chunks hold them, and
        # the 66 jumps over sample intervals of 3 steps composed from them,
        # which the last full step and the shortened one follow
        config = EvolutionConfig(t_start=0.1, t_end=2.1 - 0.004, dt=0.01,
                                 initial_state=1, sample_every=3)
        whole = evolve(THREE_LEVEL, config)
        monkeypatch.setattr(propagator, "CHUNK_BYTES", 16 * 16 * 3 * 3)
        del table_builds[:], built_steps[:], jump_builds[:]
        chunked = assert_matches_stepwise(THREE_LEVEL, config)
        assert table_builds == [3]
        assert jump_builds == [3]
        assert built_steps == [16] * 4 + [2, 1, 1]
        assert max_abs(chunked.populations - whole.populations) <= 1e-14

    @pytest.mark.parametrize("steps, built", [(10.0, [3]), (9.6, [3]), (3.0, [3]),
                                              (2.6, [])])
    def test_needs_as_many_full_steps_as_phases(self, table_builds, steps, built):
        # x = 6.25e-4 needs Q = 3; a last step shortened to t_end is not full
        dt = 0.005
        config = EvolutionConfig(t_start=0.0, t_end=steps * dt, dt=dt)
        assert_matches_stepwise(THREE_LEVEL, config)
        assert table_builds == built

    def test_not_built_for_one_step(self, table_builds, jump_builds):
        # the shape of a set-up probe: a driven grid cut to one step
        evolve(THREE_LEVEL, EvolutionConfig(t_start=0.0, t_end=0.005, dt=0.005))
        assert table_builds == jump_builds == []

    @pytest.mark.parametrize("steps, every, built, stacks", [(2, 2, [], []),
                                                           (40, 1, [1], [16, 16, 8])],
                             ids=["2_taylor_steps", "40_table_steps"])
    def test_one_phase_serves_many_steps_at_n32(self, table_builds, built_steps,
                                                eigh_phases, jump_builds, steps, every,
                                                built, stacks):
        # at n >= 2M + 1 the table is U(0): one eigh of one matrix, which
        # costs about 1.5 n = 48 matrix-vector products, serves 40 steps in
        # 16-step chunks, where their Taylor series would take 8 products
        # each; 2 steps take 16 products as Taylor steps and no eigh.
        # Composing a jump over one sample interval of 2 steps would form
        # more matrices than it saves, and sample_every = 1 never does
        spec = SystemSpec(n=32, energies=tuple(np.linspace(-1.0, 1.0, 32)), g=0.25,
                          omega=1.0137, drive_model="generalized")
        config = EvolutionConfig(t_start=0.0, t_end=steps * 0.05, dt=0.05,
                                 sample_every=every)
        assert not on_period_grid(spec, config.dt)
        assert_matches_stepwise(spec, config)
        assert table_builds == built
        assert built_steps == stacks
        assert eigh_phases == built
        assert jump_builds == []

    def test_one_phase_for_a_static_spec(self, table_builds, eigh_phases):
        # the rotating frame, R = I, in place of a table: one eigh of U(0)
        spec = SystemSpec(n=3, energies=(-1.0, 0.3, 1.1))
        evolve(spec, EvolutionConfig(t_start=0.0, t_end=20.0, dt=0.01))
        assert table_builds == []
        assert eigh_phases == [1]

    def test_built_for_the_jump_table(self, table_builds, built_steps, eigh_phases):
        # ending on exactly 2000 dt, every step lies in a whole sample
        # interval and none is fresh: the jump table is composed from a
        # Q = 5 table, so eigh sees its 5 phases and no step
        spec, config = rabi_cosine()
        exact = EvolutionConfig(
            t_start=config.t_start, t_end=config.t_start + 2000 * config.dt,
            dt=config.dt, initial_state=config.initial_state,
            sample_every=config.sample_every,
        )
        assert_matches_stepwise(spec, exact)
        assert table_builds == [5]
        assert built_steps == [400]
        assert eigh_phases == [5]

    def test_built_on_a_period_shorter_than_the_table(self, table_builds, built_steps,
                                                      jump_builds):
        # K = 8 steps per period at ||H|| dt = 10, where the table needs more
        # phases (Q = 13) than a period has steps, but fewer than the run's
        # 64; a jump table over 4 steps would form more matrices than it saves
        spec = SystemSpec(n=3, energies=(-1.0, 0.3, 1.0), g=0.25, omega=1.0,
                          drive_model="generalized")
        dt = 10.0 / np.linalg.norm(build_full_hamiltonian(spec, 0.0), 2)
        spec = dataclasses.replace(spec, omega=2.0 * math.pi / (8 * dt))
        assert on_period_grid(spec, dt)
        assert round(2.0 * math.pi / (spec.omega * dt)) == 8
        assert propagator._table_phases(spec, dt) == 13
        config = EvolutionConfig(t_start=0.0, t_end=64 * dt, dt=dt, sample_every=4)
        assert_matches_stepwise(spec, config)
        assert table_builds == [13]
        assert built_steps == [64]
        assert jump_builds == []

    @pytest.mark.parametrize("g, built", [(40.0, [83]), (800.0, [])])
    def test_memory_stays_bounded_at_large_dt_g(self, table_builds, jump_builds, g, built):
        # 4,096 steps at n = 2: dt g / 2 = 20 needs Q = 83 phases, whose
        # powers, 85 rows per step, go through in slices that fit
        # CHUNK_BYTES; dt g / 2 = 400 would need Q = 1,121, past the second
        # bound of _table_phases, so every step is diagonalized instead
        spec = SystemSpec(n=2, energies=(0.5, -0.5), g=g, omega=1.0137,
                          drive_model="generalized")
        config = EvolutionConfig(t_start=0.0, t_end=4096.0, dt=1.0, sample_every=4096)
        tracemalloc.start()
        try:
            traj = evolve(spec, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table_builds == built
        assert jump_builds == []
        assert peak <= 8 * propagator.CHUNK_BYTES
        assert_matches_stepwise(spec, config, traj)

    def test_solver_failure_in_the_table_raises_convergence_error(self, monkeypatch):
        def fail(a, UPLO="L"):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        config = EvolutionConfig(t_start=0.0, t_end=2.0, dt=0.01)
        with pytest.raises(EigenConvergenceError, match="drive-phase table"):
            evolve(THREE_LEVEL, config)


class TestClockSymmetry:
    # Z A Z^dagger = sigma A for every drive model and Z commutes with the
    # drift, so a step at drive phase theta + 2 pi / n is the step at theta
    # conjugated by the clock Z; the phase table rests on that

    @pytest.mark.parametrize("model, n", [
        ("none", 2), ("generalized", 2), ("cosine2", 2), ("rwa2", 2),
        ("none", 3), ("generalized", 3), ("none", 8), ("generalized", 8),
        ("none", 32), ("generalized", 32),
    ])
    def test_shifted_phase_is_a_clock_conjugation(self, model, n):
        spec = table_spec(model, n, 0.3, 0.125, offset=0.4)
        theta = np.random.default_rng(n).uniform(0.0, 2.0 * math.pi, 16)
        u, shifted = (propagator._unitaries(hamiltonian._parts(spec), np.exp(1j * phase), 0.125, "")
                      for phase in (theta, theta + 2.0 * math.pi / n))
        z = build_clock(n)
        assert max_abs(shifted - z @ u @ z.conj().T) <= 1e-14

    @pytest.mark.parametrize("model, n, x", [
        ("generalized", 32, 0.1), ("generalized", 8, 1e-4), ("generalized", 3, 1e-9),
        ("cosine2", 2, 1e-17), ("rwa2", 2, 1e-17),
    ])
    def test_one_phase_matches_eigh(self, model, n, x):
        # S = 0 at n >= 2M + 1: every step is U(0) split into its y^-1, 1 and y terms
        spec = table_spec(model, n, x, 0.125)
        assert propagator._table_phases(spec, 0.125) == 1
        tabled, direct = tabled_and_direct(spec, 0.125)
        assert max_abs(tabled - direct) <= 1e-13

    @pytest.mark.parametrize("n", [2, 3, 8, 32])
    @pytest.mark.parametrize("model, omega", [("none", 1.0137), ("generalized", 0.0)])
    def test_static_spec_takes_one_phase(self, table_builds, eigh_phases, model, omega,
                                         n):
        # g > 0 but no drive phase: every step sits at phase factor 1, so the
        # rotating frame with R = I takes one eigh, of H(0), for them all, or
        # none at n = 2, where the frame's step is a rotation in closed form
        spec = dataclasses.replace(table_spec("generalized", n, 0.1, 0.125),
                                   drive_model=model, omega=omega)
        config = EvolutionConfig(t_start=0.25, t_end=0.25 + 40 * 0.125, dt=0.125,
                                 initial_state=n - 1, sample_every=3)
        assert propagator._in_frame(spec)
        assert_matches_stepwise(spec, config)
        assert table_builds == []
        assert eigh_phases == ([] if n == 2 else [1])

    # the benchmark's three workloads at their middle parameters: dense32
    # (n = 32, two steps), driven3_dense (n = 3, 1,500 steps, off the period
    # grid) and rabi2_floquet (n = 2, 100 steps per period, 50 periods) with
    # its drive as cosine2, so that a jump table composed from the phase
    # table serves it; the workload's own rwa2 drive runs in the rotating
    # frame (see TestRotatingFrame), as does a static n = 8 spec, which
    # builds no table.  dense32's two steps are Taylor steps, which cost
    # fewer products than the one eigh of its one-phase table.  H is real
    # symmetric at drive phase 0, so the frame diagonalizes a real matrix,
    # and the tables of Q = 3 and Q = 5 phases complex ones
    @pytest.mark.parametrize("spec, dt, steps, every, phases, dtype", [
        (SystemSpec(n=32, energies=tuple(np.linspace(-1.0, 1.0, 32)), g=0.25,
                    omega=1.0, drive_model="generalized"), 0.05, 2, 2, None, None),
        (THREE_LEVEL, 0.005, 1500, 1, 3, np.complex128),
        (SystemSpec(n=2, energies=(0.5, -0.5), g=0.05, omega=1.0, drive_model="cosine2"),
         2.0 * math.pi / 100, 5000, 100, 5, np.complex128),
        (SystemSpec(n=8, energies=tuple(np.sin(np.arange(8) * 1.3)), g=0.25, omega=0.0,
                    drive_model="generalized"), 0.05, 300, 1, None, np.float64),
    ], ids=["dense32", "driven3_dense", "rabi2_floquet", "static_n8_frame"])
    def test_eigh_work_of_the_benchmark_runs(self, monkeypatch, table_builds, spec, dt,
                                             steps, every, phases, dtype):
        calls = []
        plain = np.linalg.eigh

        def spy(a, *args, **kwargs):
            calls.append((a.shape, a.dtype))
            return plain(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        config = EvolutionConfig(t_start=0.0, t_end=steps * dt, dt=dt, sample_every=every)
        traj = evolve(spec, config)
        assert table_builds == ([] if phases is None else [phases])
        assert calls == ([] if dtype is None else [((phases or 1, spec.n, spec.n), dtype)])
        assert_matches_stepwise(spec, config, traj)


@pytest.fixture
def taylor_steps(monkeypatch):
    """Step counts of every stack of Taylor steps evolve applies to the state."""
    return spy_on(monkeypatch, "_taylor_states", lambda args, states: len(args["h"]))


def taylor_spec(n, x, dt, g=2.0):
    """A driven spec of n levels whose bound dt (max|drift| + g) equals x."""
    energies = np.sin(np.arange(n) * 1.3)
    levels = hamiltonian._drift_levels(SystemSpec(n=n, energies=tuple(energies)))
    scale = x / (dt * (max(map(abs, levels)) + g))
    return SystemSpec(n=n, energies=tuple(scale * energies), g=scale * g, omega=1.0137,
                      drive_model="generalized")


class TestTaylorSteps:
    # without a jump table, fresh full-length lab steps and a shortened last
    # step are applied to the state as sum_{k <= K} (-i h H)^k psi / k! when
    # x = h (max|drift| + g) < 1 and the K products cost less than the eigh's
    # they replace, about 1.5 n products each

    @pytest.mark.parametrize("last", [0.0, 0.4], ids=["grid", "shortened"])
    @pytest.mark.parametrize("x", [0.05, 0.9])
    @pytest.mark.parametrize("n", [3, 32, 128])
    def test_match_stepwise(self, monkeypatch, taylor_steps, eigh_phases, n, x, last):
        # every step by Taylor, at any n, once an eigh costs more than any
        # number of products; g is most of the bound, so a K taken without
        # it would fall short of eps.  7 steps sampled every 3rd, off the
        # period grid, from a start on every level
        monkeypatch.setattr(propagator, "_EIGH_PRODUCTS", 1e9)
        dt = 0.125
        spec = taylor_spec(n, x, dt)
        config = EvolutionConfig(t_start=0.3, t_end=0.3 + (7 - last) * dt, dt=dt,
                                 initial_state=superposed(n), sample_every=3)
        assert not on_period_grid(spec, dt)
        assert_matches_stepwise(spec, config)
        assert eigh_phases == []
        whole, chunk = 7 if last == 0 else 6, max(1, propagator.CHUNK_BYTES // (16 * n * n))
        full = [min(chunk, whole - k) for k in range(0, whole, chunk)]
        assert taylor_steps == full + ([] if last == 0 else [1])

    def test_norm_errors_within_16_eps_per_step(self, monkeypatch):
        # 400 short runs of random size, bound, length and start, every step
        # by Taylor; sample j follows j steps
        monkeypatch.setattr(propagator, "_EIGH_PRODUCTS", 1e9)
        rng = np.random.default_rng(31)
        worst = 0.0
        for _ in range(400):
            n, steps = int(rng.integers(2, 41)), int(rng.integers(1, 9))
            spec = taylor_spec(n, float(rng.uniform(0.01, 0.99)), 0.1)
            amplitudes = rng.normal(size=n) + 1j * rng.normal(size=n)
            config = EvolutionConfig(t_start=0.0, t_end=steps * 0.1, dt=0.1,
                                     initial_state=tuple(amplitudes))
            errors = evolve(spec, config).norm_errors
            worst = max(worst, float(np.max(errors / np.maximum(np.arange(steps + 1), 1))))
        assert worst <= 16 * EPS

    @pytest.mark.parametrize("spec, dt, steps", [
        # the 1e6 energy scale, with Delta_0 kept: x = 1e3
        (SystemSpec(n=32, energies=tuple(1e6 + np.sin(np.arange(32) * 1.3)), g=0.25,
                    omega=1.0137, drive_model="generalized", include_delta0=True), 1e-3, 2),
        (taylor_spec(128, 5.0, 0.05), 0.05, 2),
        # nofit_n2_2k_every1's spec, whose step table does not fit: x = 60
        (config_objects(cases()["nofit_n2_2k_every1"])[0], 0.05, 40),
    ], ids=["1e6_scale", "n128_x5", "nofit_n2"])
    def test_large_bounds_take_eigh(self, taylor_steps, eigh_phases, spec, dt, steps):
        # x >= 1 takes eigh, even where K products would cost less than it
        assert propagator._taylor_order(spec, hamiltonian._drift_levels(spec), dt, 1,
                                        10**9) is None
        config = EvolutionConfig(t_start=0.0, t_end=steps * dt, dt=dt)
        assert_matches_stepwise(spec, config)
        assert taylor_steps == []
        assert eigh_phases

    @pytest.mark.parametrize("n, taylor, stacks", [(3, [], [20, 1]),
                                                   (32, [1], [16, 4])], ids=["n3", "n32"])
    def test_shortened_last_step(self, taylor_steps, built_steps, n, taylor, stacks):
        # 20 full steps from the phase table and a last step of 0.6 dt, whose
        # K = 5 at n = 3 costs more than 1.5 n = 4.5 products, and K = 7 at
        # n = 32 less than 48
        dt = 0.005 if n == 3 else 0.05
        spec = jump_spec(n, g=0.25)
        config = EvolutionConfig(t_start=0.0, t_end=20.6 * dt, dt=dt,
                                 initial_state=superposed(n))
        assert_matches_stepwise(spec, config)
        assert taylor_steps == taylor
        assert built_steps == stacks

    @pytest.mark.parametrize("x", [1e-12, 1e-3, 0.05, 0.5, 0.9, 0.999])
    def test_order_is_the_smallest_within_eps(self, x):
        # e^x x^(K+1) / (K+1)! bounds the terms left out: within eps at K,
        # and not at K - 1
        spec = taylor_spec(32, x, 1.0)
        order = propagator._taylor_order(spec, hamiltonian._drift_levels(spec), 1.0, 1, 1)

        def tail(k):
            return math.exp(x) * x ** (k + 1) / math.factorial(k + 1)

        assert tail(order) <= EPS
        assert order == 0 or tail(order - 1) > EPS


RABI = SystemSpec(n=2, energies=(0.5, -0.5), g=0.05, omega=1.0, drive_model="rwa2")
RABI_DT = 2.0 * math.pi / 100  # 100 steps per drive period


def superposed(n):
    """A start on every level with distinct phases, normalized by evolve."""
    return tuple(complex(a) for a in (1.0 + np.arange(n)) * np.exp(1j * np.arange(n)))


class TestRotatingFrame:
    # rwa2 and static specs: H(theta) = R(theta) H(0) R(theta)^dagger with R
    # diagonal, so every full-length step comes from powers of
    # W = R(-w dt / 2) U(0) R(-w dt / 2), and a last step shortened to h is
    # the same step at length h: in closed form at n = 2, from one eigh, of
    # H(0), above.  A superposed start shows a wrong frame phase in the
    # populations, which a basis start would not

    @pytest.mark.parametrize("model, n, expected", [
        ("rwa2", 2, True), ("none", 3, True), ("none", 8, True),
        ("generalized", 3, False), ("cosine2", 2, False),
    ])
    def test_frame_follows_the_drive_model(self, model, n, expected):
        spec = SystemSpec(n=n, energies=tuple(np.sin(np.arange(n) * 1.3)), g=0.3,
                          omega=1.0137, drive_model=model)
        assert propagator._in_frame(spec) == expected
        for static in (dataclasses.replace(spec, g=0.0),
                       dataclasses.replace(spec, omega=0.0)):
            assert propagator._in_frame(static)

    @pytest.mark.parametrize("every", [1, 7, 100, 4099])
    @pytest.mark.parametrize("spec, dt", [
        (RABI, RABI_DT),
        (RABI, RABI_DT * 1.0137),
        (dataclasses.replace(RABI, energies=(-0.5, 0.5), omega=-1.0), RABI_DT),
        (SystemSpec(n=3, energies=(-1.0, 0.3, 1.1), g=0.25, omega=0.0,
                    drive_model="generalized"), 0.01),
        (SystemSpec(n=8, energies=tuple(np.sin(np.arange(8) * 1.3)), g=0.3,
                    omega=0.0, drive_model="generalized"), 0.01),
    ], ids=["rwa2", "rwa2_off_grid", "rwa2_backwards", "static3", "static8"])
    def test_matches_stepwise(self, table_builds, jump_builds, eigh_phases, spec, dt,
                              every):
        # a late start, superposed, and a last step shortened to 0.6 dt
        config = EvolutionConfig(t_start=3.1, t_end=3.1 + 4150.6 * dt, dt=dt,
                                 initial_state=superposed(spec.n), sample_every=every)
        assert_matches_stepwise(spec, config)
        assert table_builds == jump_builds == []
        # H(0) above n = 2, whose spectrum also serves the shortened last step
        assert eigh_phases == ([] if spec.n == 2 else [1])

    @pytest.mark.parametrize("spec, dt", [
        (RABI, RABI_DT),
        (dataclasses.replace(RABI, include_delta0=True, energies=(100.5, 99.5)), RABI_DT),
        (dataclasses.replace(RABI, energies=(1e3, -1e3)), 0.05),
        (SystemSpec(n=2, energies=(0.3, 0.3)), 0.05),
        (SystemSpec(n=2, energies=(0.3, 0.3), include_delta0=True), 0.05),
        (SystemSpec(n=2, energies=(0.5, -0.2), g=0.3), 0.05),
        (dataclasses.replace(RABI, g=0.0), RABI_DT),
        (SystemSpec(n=2, energies=(0.5, -0.2), g=0.3, drive_model="generalized"), 0.05),
        (SystemSpec(n=2, energies=(0.5, -0.2), g=0.3, drive_model="cosine2"), 0.05),
        (SystemSpec(n=3, energies=(-1.0, 0.3, 1.1), g=0.25, drive_model="generalized",
                    include_delta0=True), 0.05),
        (SystemSpec(n=8, energies=tuple(np.sin(np.arange(8) * 1.3) + 2.0)), 0.05),
    ], ids=["resonant", "delta0", "large_d_dt", "r_zero", "r_zero_delta0", "none",
            "g_zero", "generalized_w0", "cosine2_w0", "static3_delta0", "static8"])
    def test_powers_match_stepwise(self, eigh_phases, spec, dt):
        # 1,000.6 steps from a late, superposed start, sampled every 7th: the
        # closed form at n = 2 (r = 0 where the energies are equal and
        # g = 0; |d| dt = 50 for energies +-1e3), the spectral powers above
        config = EvolutionConfig(t_start=3.1, t_end=3.1 + 1000.6 * dt, dt=dt,
                                 initial_state=superposed(spec.n), sample_every=7)
        assert propagator._in_frame(spec)
        assert_matches_stepwise(spec, config)
        # H(0) above n = 2, whose spectrum also serves the shortened last step
        assert eigh_phases == ([] if spec.n == 2 else [1])

    @pytest.mark.parametrize("steps", [2000, 1, 0.6, 1.6],
                             ids=["on_grid", "one_step", "one_short_step",
                                  "full_and_short"])
    def test_short_runs_and_runs_on_the_grid(self, eigh_phases, steps):
        # at n = 2 no step is diagonalized, on the grid or off it: a shortened
        # last step, alone or after full ones, is the closed form at its length
        config = EvolutionConfig(t_start=-0.3, t_end=-0.3 + steps * RABI_DT, dt=RABI_DT,
                                 initial_state=(0.6, 0.8j), sample_every=5)
        assert_matches_stepwise(RABI, config)
        assert eigh_phases == []

    def test_benchmark_run_calls_no_linalg(self, monkeypatch, table_builds, built_steps):
        # rabi2_floquet at its middle parameters (5,000 steps, 50 samples,
        # ending on a step edge) and the committed Rabi config, whose last
        # step is shortened to land on t_end: no step is diagonalized.  One
        # loop, not a parametrization, keeps the test's id
        runs = [(RABI, EvolutionConfig(t_start=0.0, t_end=5000 * RABI_DT, dt=RABI_DT,
                                       initial_state=1, sample_every=100)),
                config_objects(committed("rabi_two_level.json"))]
        for spec, config in runs:
            called = []
            with monkeypatch.context() as patch:
                for name in np.linalg.__all__:
                    if name != "LinAlgError":
                        patch.setattr(np.linalg, name,
                                      lambda *args, name=name, **kwargs: called.append(name))
                # nor is a drift matrix or an H formed: the closed form reads
                # H(0)'s three numbers from the drift levels and drive coefficient
                for owner, name in ((np, "diag"), (propagator, "_at_phase")):
                    patch.setattr(owner, name,
                                  lambda *args, name=name, **kwargs: called.append(name))
                traj = evolve(spec, config)
            assert called == []
            assert table_builds == built_steps == []
            assert_matches_stepwise(spec, config, traj)
        # the config's 2,000 steps of dt end a rounding error away from t_end:
        # 1,999 full steps and a last one that lands on it
        config = runs[1][1]
        assert config.t_start + 2000 * config.dt != config.t_end
        assert propagator._grid(config.t_start, config.t_end, config.dt)[:2] == (2000, 1999)

    def test_long_static_run_takes_one_eigh(self, eigh_phases):
        # 100,000 steps sampled every 2,000 and a last one of 0.6 dt, against
        # the exact propagator V e^{-i w t} V^dagger at every sample instant
        spec = SystemSpec(n=3, energies=(-1.0, 0.3, 1.1), g=0.25, omega=0.0,
                          drive_model="generalized")
        config = EvolutionConfig(t_start=0.0, t_end=100000.6 * 0.01, dt=0.01,
                                 initial_state=superposed(3), sample_every=2000)
        traj = evolve(spec, config)
        assert eigh_phases == [1]
        w, v = np.linalg.eigh(build_full_hamiltonian(spec, 0.0))
        psi = propagator._initial_vector(3, config.initial_state)
        exact = (v * np.exp(-1j * np.outer(traj.times, w))[:, None, :]) @ (v.conj().T @ psi)
        assert max_abs(traj.populations - np.abs(exact) ** 2) <= 1e-10
        assert max_abs(traj.final_state - exact[-1]) <= 1e-10

    def test_frame_phases_stay_finite(self):
        # w t is finite at both ends of [-0.85e308, 0.85e308], but w dt is
        # not; the frame forms w t_start, w dt / 2 and w t_end
        spec = SystemSpec(n=2, energies=(0.05, -0.05), g=0.01, omega=2.0,
                          drive_model="rwa2")
        config = EvolutionConfig(t_start=-0.85e308, t_end=0.85e308, dt=1.7e308,
                                 initial_state=(0.6, 0.8j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = assert_matches_stepwise(spec, config)
        assert np.all(np.isfinite(traj.populations))

    @pytest.mark.parametrize("t_start, t_end, dt, omega, scale", [
        (0.0, 1.0, 1e308, 4.0, 1.0),
        (-7.5 * 2.0**1020, 7.5 * 2.0**1020, 7.75 * 2.0**1020, 1.0, 2.0**-1016),
    ], ids=["dt_over_span", "off_grid_near_the_float64_limit"])
    def test_last_step_phases_stay_finite(self, t_start, t_end, dt, omega, scale):
        # one step shorter than dt, where w dt / 2 is inf, forms no power of
        # the full step; a full step and a shortened one at w t = +-0.84e308
        # form w h / 2 and w t_end.  Multiples of 2^1020 keep every edge,
        # midpoint and length exact, and levels and coupling scaled by
        # 2^-1016 keep each step's eigenphases near 6, so that the stepwise
        # loop resolves them
        spec = SystemSpec(n=2, energies=(0.05 * scale, -0.05 * scale), g=0.01 * scale,
                          omega=omega, drive_model="rwa2")
        config = EvolutionConfig(t_start=t_start, t_end=t_end, dt=dt,
                                 initial_state=(0.6, 0.8j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = assert_matches_stepwise(spec, config)
        assert len(traj.times) == (2 if dt > t_end - t_start else 3)
        assert np.all(np.isfinite(traj.final_state))

    @pytest.mark.parametrize("every", [1, 5])
    def test_chunks_hold_the_sampled_states(self, monkeypatch, every):
        # 7-state chunks: the frame states of 400 or 2,000 samples in many
        # passes, against one pass
        spec, config = config_objects(committed("rabi_two_level.json"))
        config = dataclasses.replace(config, initial_state=(0.6, 0.8j),
                                     sample_every=every)
        whole = evolve(spec, config)
        monkeypatch.setattr(propagator, "CHUNK_BYTES", 7 * 16 * 2)
        chunked = assert_matches_stepwise(spec, config)
        # the two runs form their powers in another order: rounding of about
        # eps per sample apart
        bound = EPS * len(whole.times)
        assert max_abs(chunked.populations - whole.populations) <= bound
        assert max_abs(chunked.final_state - whole.final_state) <= bound

    @pytest.mark.parametrize("count", [1, 2, 3, 7, 8, 9, 100])
    def test_power_states_match_repeated_products(self, count):
        rng = np.random.default_rng(count)
        m = random_unitaries(rng, 1, 3)[0]
        psi = np.exp(1j * rng.normal(size=3)) / math.sqrt(3)
        states = propagator._power_states(m, psi, count)
        assert states.shape == (count, 3)
        assert max_abs(states - plain_chain(np.broadcast_to(m, (count, 3, 3)), psi)) <= 1e-13


class TestNormDrift:
    # ||psi|| drifts by rounding only: a few ulps per step at any energy
    # scale and step size, whether or not the grid repeats per drive period
    STEPS = 512

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("h_dt", [1e-3, 1e-1, 10.0])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_drift_bounded_by_step_count(self, scale, h_dt, periodic):
        def spec(omega):
            return SystemSpec(
                n=3, energies=(-1.0 * scale, 0.3 * scale, 1.0 * scale),
                g=0.25 * scale, omega=omega, drive_model="generalized",
            )

        norm = np.linalg.norm(build_full_hamiltonian(spec(scale), 0.0), 2)
        dt = h_dt / norm
        steps_per_period = 16 if periodic else 16.37
        driven = spec(2.0 * math.pi / (steps_per_period * dt))
        assert on_period_grid(driven, dt) == periodic
        config = EvolutionConfig(
            t_start=0.0, t_end=self.STEPS * dt, dt=dt, initial_state=0,
            sample_every=4,
        )
        traj = evolve(driven, config)
        eps = np.finfo(np.float64).eps
        assert float(np.max(traj.norm_errors)) <= 16 * eps * self.STEPS

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("h_dt", [1e-3, 1e-1, 10.0])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("model, n", [("rwa2", 2), ("none", 3), ("generalized", 8)])
    def test_drift_in_the_rotating_frame(self, eigh_phases, model, n, scale, h_dt,
                                         periodic):
        # rwa2 and static specs, the static n = 8 one coupled (g > 0, w = 0),
        # at the bound of the lab frame's runs
        def spec(omega):
            return SystemSpec(
                n=n, energies=tuple(scale * np.sin(np.arange(n) * 1.3)), g=0.25 * scale,
                omega=0.0 if model == "generalized" else omega, drive_model=model,
            )

        norm = np.linalg.norm(build_full_hamiltonian(spec(scale), 0.0), 2)
        dt = h_dt / norm
        steps_per_period = 16 if periodic else 16.37
        driven = spec(2.0 * math.pi / (steps_per_period * dt))
        config = EvolutionConfig(
            t_start=0.0, t_end=self.STEPS * dt, dt=dt, initial_state=0,
            sample_every=4,
        )
        traj = evolve(driven, config)
        assert eigh_phases == ([] if n == 2 else [1])
        eps = np.finfo(np.float64).eps
        assert float(np.max(traj.norm_errors)) <= 16 * eps * self.STEPS
