import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest

from nlevel import (
    DRIVE_MODELS,
    EvolutionConfig,
    SystemSpec,
    build_clock,
    build_drift,
    build_full_hamiltonian,
    build_fourier,
    build_interaction,
    build_shift,
    deltas_to_energies,
    drive_coefficient,
    energies_to_deltas,
    hamiltonian_at,
    interaction_diagonal,
    mat_pow,
)
from nlevel.algebra import root_power
from nlevel.hamiltonian import _at_phase, _drift_levels, _parts, _phase_factors


def max_abs(m):
    return float(np.max(np.abs(m)))


def random_energies(rng, n):
    return rng.uniform(-8.0, 8.0, size=n)


class TestDecomposition:
    def test_two_level_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            e0, e1 = random_energies(rng, 2)
            deltas = energies_to_deltas([e0, e1])
            assert abs(deltas[0] - 0.5 * (e0 + e1)) <= 1e-15
            assert abs(deltas[1] - 0.5 * (e0 - e1)) <= 1e-15
            assert abs(deltas[0].imag) <= 1e-15
            assert abs(deltas[1].imag) <= 1e-15

    def test_three_level_against_linear_solve(self):
        # the coefficients form a Vandermonde system in sigma; solve it
        # independently and compare
        energies = np.array([-1.0, 0.3, 1.1])
        sigma = cmath.exp(2j * cmath.pi / 3)
        a = np.array(
            [[sigma ** (m * j) for j in range(3)] for m in range(3)],
            dtype=complex,
        )
        expected = np.linalg.solve(a, energies.astype(complex))
        got = energies_to_deltas(energies)
        assert max_abs(got - expected) <= 1e-12

    def test_three_level_first_coefficient(self):
        energies = [2.0, -0.5, 0.75]
        sigma = cmath.exp(2j * cmath.pi / 3)
        expected = (energies[0] + sigma**2 * energies[1] + sigma * energies[2]) / 3
        got = energies_to_deltas(energies)
        assert abs(got[1] - expected) <= 1e-13

    @pytest.mark.parametrize("n", range(2, 13))
    def test_roundtrip(self, n):
        rng = np.random.default_rng(100 + n)
        energies = random_energies(rng, n)
        back = deltas_to_energies(energies_to_deltas(energies))
        assert max_abs(back - energies) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 13))
    def test_conjugate_pairing(self, n):
        # real energies force delta_{n-j} = conj(delta_j)
        rng = np.random.default_rng(200 + n)
        deltas = energies_to_deltas(random_energies(rng, n))
        for j in range(n):
            assert abs(deltas[(n - j) % n] - deltas[j].conjugate()) <= 1e-12

    def test_constant_energies_collapse_to_offset(self):
        deltas = energies_to_deltas([1.5, 1.5, 1.5, 1.5])
        assert abs(deltas[0] - 1.5) <= 1e-13
        assert max_abs(deltas[1:]) <= 1e-13

    def test_linearity(self):
        rng = np.random.default_rng(42)
        a = random_energies(rng, 5)
        b = random_energies(rng, 5)
        lhs = energies_to_deltas(2.0 * a - 3.0 * b)
        rhs = 2.0 * energies_to_deltas(a) - 3.0 * energies_to_deltas(b)
        assert max_abs(lhs - rhs) <= 1e-12

    def test_rejects_complex_energies(self):
        with pytest.raises(ValueError):
            energies_to_deltas(np.array([1.0 + 0.1j, 2.0]))

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            energies_to_deltas([1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            energies_to_deltas([1.0, math.inf])

    def test_rejects_energies_beyond_float64(self):
        # an int past the float64 range, as SystemSpec refuses it
        with pytest.raises(ValueError, match="too large for float64"):
            energies_to_deltas([10**400, 0])

    @pytest.mark.parametrize("energies", [["1", "2"], [True, False, True], "12", [1.0, 1j]],
                             ids=["str_entries", "bools", "str", "complex_entry"])
    def test_reads_energies_as_system_spec_does(self, energies):
        # text and bools are no energies, here or in a SystemSpec
        with pytest.raises(ValueError) as spec_error:
            SystemSpec(n=len(energies), energies=energies)
        with pytest.raises(ValueError) as error:
            energies_to_deltas(energies)
        assert str(error.value) == str(spec_error.value)

    @pytest.mark.parametrize("deltas", [["1", "0"], [True, False], [10**400, 0]],
                             ids=["str", "bools", "past_int64"])
    def test_reconstruction_rejects_non_numbers(self, deltas):
        with pytest.raises(ValueError, match="deltas must be integer, real or complex"):
            deltas_to_energies(deltas)

    @pytest.mark.parametrize("deltas", [np.zeros((2, 2)), [1.0]], ids=["2d", "single"])
    def test_reconstruction_rejects_misshapen_deltas(self, deltas):
        with pytest.raises(ValueError, match="1-d sequence of length >= 2"):
            deltas_to_energies(deltas)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)],
                             ids=["nan", "inf", "imag_inf"])
    def test_reconstruction_rejects_non_finite_deltas(self, bad):
        with pytest.raises(ValueError, match="deltas must be finite"):
            deltas_to_energies([0.0, bad, 0.0])

    def test_reconstruction_rejects_unpaired_deltas(self):
        # breaking the conjugate pairing makes the energies complex
        with pytest.raises(ValueError, match="not real"):
            deltas_to_energies(np.array([0.0, 1.0j, 0.0]))

    def test_reconstruction_tolerance_is_adjustable(self):
        deltas = np.array([0.0, 1e-8j, 0.0])
        with pytest.raises(ValueError):
            deltas_to_energies(deltas)
        out = deltas_to_energies(deltas, imag_tol=1e-6)
        assert out.dtype == np.float64

    @pytest.mark.parametrize("imag_tol", [math.nan, math.inf, -1.0, None, "1e-6"])
    def test_reconstruction_rejects_invalid_tolerance(self, imag_tol):
        # a NaN tolerance discarded any imaginary part, here 0.26, and a
        # negative one rejected exactly real energies
        deltas = energies_to_deltas([1.0, 2.0, 4.0])
        deltas[1] += 0.3
        with pytest.raises(ValueError, match="imag_tol"):
            deltas_to_energies(deltas, imag_tol=imag_tol)
        with pytest.raises(ValueError, match="imag_tol"):
            deltas_to_energies(energies_to_deltas([1.0, 1.0]), imag_tol=imag_tol)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e6, 1e9])
    def test_roundtrip_at_large_scale(self, scale):
        # the rounding residue in the imaginary part grows with the energies
        rng = np.random.default_rng(int(scale) % 997)
        for _ in range(50):
            energies = scale * random_energies(rng, int(rng.integers(2, 13)))
            back = deltas_to_energies(energies_to_deltas(energies))
            assert max_abs(back - energies) <= 1e-12 * max_abs(energies)
        with pytest.raises(ValueError, match="not real"):
            deltas_to_energies(scale * np.array([0.0, 1.0j, 0.0]))
        # near the float64 limit, where the unscaled sum E_0 = sum_j Delta_j
        # overflows
        energies = np.array([1.7e308, 1.6e308, 1.5e308, 1.4e308, -1.7e308])
        back = deltas_to_energies(energies_to_deltas(energies))
        assert max_abs(back - energies) <= 1e-15 * max_abs(energies)
        # E_0 = Delta_0 + Delta_1 = 3.4e308 does not fit in float64
        with pytest.raises(ValueError, match="too large for float64"):
            deltas_to_energies([1.7e308, 1.7e308])


class TestDrift:
    def test_two_level_traceless_part(self):
        spec = SystemSpec(n=2, energies=(0.5, -0.5))
        delta1 = 0.5 * (0.5 - (-0.5))
        assert max_abs(build_drift(spec) - np.diag([delta1, -delta1])) <= 1e-15

    def test_offset_restores_energies(self):
        energies = (-1.0, 0.3, 1.1)
        spec = SystemSpec(n=3, energies=energies, include_delta0=True)
        assert max_abs(build_drift(spec) - np.diag(energies)) <= 1e-12

    def test_matches_clock_power_expansion(self):
        energies = (-1.0, 0.3, 1.1)
        deltas = energies_to_deltas(energies)
        clock = build_clock(3)
        expected = deltas[1] * clock + deltas[2] * mat_pow(clock, 2)
        got = build_drift(SystemSpec(n=3, energies=energies))
        assert max_abs(got - expected) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_hermitian(self, n):
        # exactly, whatever the mean energy next to the level spacing
        rng = np.random.default_rng(300 + n)
        energies = rng.uniform(-5, 5, size=n)
        for offset in (0.0, 1e6, 1e9):
            spec = SystemSpec(n=n, energies=tuple(energies + offset))
            h = build_drift(spec)
            assert np.array_equal(h, h.conj().T)

    def test_diagonal(self):
        spec = SystemSpec(n=4, energies=(1.0, 2.0, 3.0, 4.0))
        h = build_drift(spec)
        assert max_abs(h - np.diag(np.diag(h))) == 0.0

    @pytest.mark.parametrize("energies", [
        (1e16, 1.0, -1e16),  # numpy's pairwise mean reads 0 or 1/3 by order
        tuple(np.random.default_rng(301).uniform(-5, 5, size=12) + 1e9),
    ], ids=["cancelling", "offset"])
    def test_permuting_energies_permutes_the_diagonal(self, energies):
        # the mean energy is correctly rounded, so it does not depend on the
        # order of the energies, and neither does any level, to the bit
        levels = np.diag(build_drift(SystemSpec(n=len(energies), energies=energies)))
        rng = np.random.default_rng(302)
        for _ in range(20):
            order = rng.permutation(len(energies))
            spec = SystemSpec(n=len(energies), energies=tuple(np.array(energies)[order]))
            assert np.array_equal(np.diag(build_drift(spec)), levels[order])


class TestInteraction:
    def test_two_level_is_cosine_sigma_x(self):
        g, omega = 0.3, 1.7
        for t in np.linspace(0.0, 9.0, 13):
            expected = g * math.cos(omega * t) * np.array([[0, 1], [1, 0]])
            assert max_abs(build_interaction(2, g, omega, t) - expected) <= 1e-14

    def test_zero_coupling(self):
        assert max_abs(build_interaction(4, 0.0, 2.0, 1.3)) == 0.0

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_interaction(3, -0.5, 1.0, 0.0)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_exactly_hermitian(self, n):
        h = build_interaction(n, 0.8, 1.1, 2.45)
        assert np.array_equal(h, h.conj().T)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_diagonalized_by_fourier_frame(self, n):
        # the shift-built drive must equal W D W^dagger with the cosine
        # diagonal, for every phase angle, also at phases so large that
        # w t + 2 pi k / n would round the offsets away
        w = build_fourier(n)
        for theta in [*np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False),
                      3e16, 1e20, 1e300, 1.7e308]:
            lhs = build_interaction(n, 1.0, 1.0, theta)
            rhs = w @ interaction_diagonal(n, 1.0, theta) @ w.conj().T
            assert max_abs(lhs - rhs) <= 1e-12

    def test_diagonal_rejects_an_overflowing_phase(self):
        # w t = 1e300 * 1e300 is inf, where build_interaction raises as well
        with pytest.raises(ValueError, match=r"not finite at t = 1e\+300"):
            interaction_diagonal(3, 1e300, 1e300)
        with pytest.raises(ValueError, match=r"not finite at t = 1e\+300"):
            build_interaction(3, 1.0, 1e300, 1e300)

    def test_diagonal_entries_are_shifted_cosines(self):
        n, omega, t = 5, 1.3, 0.9
        d = interaction_diagonal(n, omega, t)
        for k in range(n):
            assert abs(d[k, k] - math.cos(omega * t + 2 * math.pi * k / n)) <= 1e-14


class TestFullHamiltonian:
    def test_undriven_is_drift(self):
        spec = SystemSpec(n=3, energies=(-1.0, 0.3, 1.1))
        assert np.array_equal(build_full_hamiltonian(spec, 2.2), build_drift(spec))

    def test_generalized_adds_interaction(self):
        spec = SystemSpec(
            n=4,
            energies=(0.1, 0.4, -0.2, 0.9),
            g=0.35,
            omega=1.2,
            drive_model="generalized",
        )
        t = 3.7
        expected = build_drift(spec) + build_interaction(4, 0.35, 1.2, t)
        assert max_abs(build_full_hamiltonian(spec, t) - expected) <= 1e-15

    def test_cosine_two_level_matches_generalized_bitwise(self):
        kwargs = dict(n=2, energies=(0.5, -0.5), g=0.4, omega=1.0)
        a = SystemSpec(drive_model="cosine2", **kwargs)
        b = SystemSpec(drive_model="generalized", **kwargs)
        for t in (0.0, 0.31, 5.7):
            assert np.array_equal(
                build_full_hamiltonian(a, t), build_full_hamiltonian(b, t)
            )

    def test_rotating_wave_matrix(self):
        g, omega = 0.05, 1.0
        spec = SystemSpec(
            n=2, energies=(0.5, -0.5), g=g, omega=omega, drive_model="rwa2"
        )
        sigma_p = np.array([[0, 1], [0, 0]], dtype=complex)
        sigma_m = sigma_p.conj().T
        for t in (0.0, 1.9, 4.4):
            expected = (
                np.diag([0.5, -0.5])
                + 0.5 * g * cmath.exp(-1j * omega * t) * sigma_p
                + 0.5 * g * cmath.exp(1j * omega * t) * sigma_m
            )
            assert max_abs(build_full_hamiltonian(spec, t) - expected) <= 1e-15

    def test_cosine_minus_rwa_is_counter_rotating(self):
        g, omega = 0.2, 1.0
        base = dict(n=2, energies=(0.5, -0.5), g=g, omega=omega)
        full = SystemSpec(drive_model="cosine2", **base)
        rwa = SystemSpec(drive_model="rwa2", **base)
        sigma_p = np.array([[0, 1], [0, 0]], dtype=complex)
        sigma_m = sigma_p.conj().T
        for t in (0.0, 0.8, 2.9):
            diff = build_full_hamiltonian(full, t) - build_full_hamiltonian(rwa, t)
            expected = 0.5 * g * (
                cmath.exp(1j * omega * t) * sigma_p
                + cmath.exp(-1j * omega * t) * sigma_m
            )
            assert max_abs(diff - expected) <= 1e-15

    def test_drive_coefficient_shapes(self):
        spec = SystemSpec(n=3, energies=(0.0, 1.0, 2.0))
        assert max_abs(drive_coefficient(spec)) == 0.0
        driven = SystemSpec(
            n=3, energies=(0.0, 1.0, 2.0), g=0.6, omega=1.0,
            drive_model="generalized",
        )
        assert max_abs(drive_coefficient(driven) - 0.3 * build_shift(3)) <= 1e-15

    @pytest.mark.parametrize("model, n", [
        (model, n) for model in DRIVE_MODELS for n in (2, 3, 32)
        if n == 2 or model not in ("cosine2", "rwa2")
    ])
    def test_drive_coefficient_is_real(self, model, n):
        # every H is assembled from its real part alone (see _parts), so that
        # H(0) is real symmetric and its eigensolve runs in real arithmetic;
        # the public matrix stays complex, and its imaginary parts are +0, so
        # a complex product with the real part is the same to the bit
        spec = SystemSpec(n=n, energies=tuple(np.sin(np.arange(n) * 1.3)), g=0.7,
                          omega=1.1, drive_model=model)
        a = drive_coefficient(spec)
        assert a.dtype == np.complex128
        assert np.array_equal(a.imag, np.zeros((n, n)))
        assert not np.signbit(a.imag).any()

    @pytest.mark.parametrize("model", DRIVE_MODELS)
    def test_hermitian_for_random_specs(self, model):
        # the propagator relies on H being hermitian to the bit and does not
        # check it: at one time, over a stack of times and at the phase
        # table's roots of unity, with and without Delta_0, at any scale.
        # Each H is also diag(levels) + (m + m^dagger), m = z A, in value (a
        # zero's sign may differ), and hamiltonian_at's stays complex, static
        # specs' too
        rng = np.random.default_rng(400 + DRIVE_MODELS.index(model))
        for _ in range(50):
            n = 2 if model in ("cosine2", "rwa2") else int(rng.integers(2, 9))
            spec = SystemSpec(
                n=n,
                energies=tuple(rng.uniform(-5, 5, size=n)),
                g=float(rng.uniform(0.0, 2.0)),
                omega=float(rng.uniform(0.1, 3.0)),
                drive_model=model,
            )
            t = float(rng.uniform(0.0, 20.0))
            for scale, keep in itertools.product((1.0, 1e-6, 1e150, 1e300), (False, True)):
                scaled = dataclasses.replace(
                    spec,
                    energies=tuple(scale * e for e in spec.energies),
                    g=scale * spec.g,
                    omega=scale * spec.omega,
                    include_delta0=keep,
                )
                times = (t + np.linspace(0.0, 20.0, 7)) / scale
                one, many = build_full_hamiltonian(scaled, times[0]), hamiltonian_at(scaled, times)
                assert one.dtype == many.dtype == np.complex128
                z = _phase_factors(scaled, times)
                stacks = [(one[None], z[:1]), (many, z)]
                for roots in (root_power(p, np.arange(p)) for p in (2, 12, 18)):
                    stacks.append((_at_phase(*_parts(scaled), roots), roots))
                drift = np.diag(_drift_levels(scaled))
                for h, z in stacks:
                    assert np.array_equal(h, np.swapaxes(h.conj(), -1, -2))
                    m = z[:, None, None] * drive_coefficient(scaled)
                    assert np.array_equal(h, drift + (m + np.swapaxes(m.conj(), -1, -2)))


class TestHamiltonianAt:
    SPEC = SystemSpec(
        n=4, energies=(0.1, 0.4, -0.2, 0.9), g=0.35, omega=1.2,
        drive_model="generalized",
    )

    def test_stack_matches_single_times_bitwise(self):
        times = np.linspace(0.0, 7.0, 11)
        stack = hamiltonian_at(self.SPEC, times)
        assert stack.shape == (11, 4, 4)
        for t, h in zip(times, stack):
            assert np.array_equal(h, build_full_hamiltonian(self.SPEC, float(t)))

    def test_scalar_time_gives_one_matrix(self):
        assert hamiltonian_at(self.SPEC, 2).shape == (4, 4)

    @pytest.mark.parametrize("model, n", [("none", 3), ("generalized", 3),
                                          ("cosine2", 2), ("rwa2", 2)])
    @pytest.mark.parametrize("shape", [(0,), (2, 0)])
    def test_empty_times_give_an_empty_stack(self, model, n, shape):
        # np.shape(times) + (n, n), as for any other array of times
        spec = SystemSpec(n=n, energies=tuple(np.arange(n) * 0.7), g=0.35, omega=1.2,
                          drive_model=model)
        stack = hamiltonian_at(spec, np.zeros(shape))
        assert stack.shape == shape + (n, n)

    def test_static_spec_is_the_drift_at_any_time(self):
        # w t overflows at t = 1e9, but no drive means no phase
        spec = SystemSpec(n=3, energies=(-1.0, 0.3, 1.1), g=0.0, omega=1e300,
                          drive_model="generalized")
        stack = hamiltonian_at(spec, [0.0, 1e9])
        assert np.array_equal(stack, np.broadcast_to(build_drift(spec), (2, 3, 3)))

    @pytest.mark.filterwarnings("error")
    def test_rejects_a_drive_phase_past_float64(self):
        # w t overflows at t = 1e300 and evolve rejects it so; a static spec
        # at the same t keeps its finite H
        spec = SystemSpec(n=2, energies=(0.0, 1.0), g=1.0, omega=1e300,
                          drive_model="generalized")
        for build in (lambda t: hamiltonian_at(spec, [0.0, t]),
                      lambda t: build_full_hamiltonian(spec, t),
                      lambda t: build_interaction(2, 1.0, 1e300, t)):
            with pytest.raises(ValueError, match=r"w t is not finite at t = 1e\+300"):
                build(1e300)
        static = dataclasses.replace(spec, g=0.0)
        assert np.array_equal(hamiltonian_at(static, 1e300), build_drift(static))

    @pytest.mark.parametrize("times", [[0.0, math.inf], [math.nan], [1j]])
    def test_rejects_non_finite_or_complex_times(self, times):
        with pytest.raises(ValueError, match="finite real"):
            hamiltonian_at(self.SPEC, times)


class TestSystemSpecValidation:
    def test_energy_count_must_match(self):
        with pytest.raises(ValueError, match="expected 3"):
            SystemSpec(n=3, energies=(1.0, 2.0))

    def test_rejects_complex_energy(self):
        # Python and numpy complex numbers, even with a zero imaginary part,
        # at the energies and the other real inputs _as_real reads
        for build in (
            lambda: SystemSpec(n=2, energies=(1.0, 1.0j)),
            lambda: SystemSpec(n=2, energies=(1.0, np.complex128(1.0))),
            lambda: SystemSpec(n=2, energies=(0.0, 1.0), g=0.1 + 0j),
            lambda: SystemSpec(n=2, energies=(0.0, 1.0), omega=np.complex128(1.0)),
            lambda: EvolutionConfig(t_start=0.0, t_end=1.0, dt=np.complex128(0.1)),
            lambda: build_full_hamiltonian(SystemSpec(n=2, energies=(0.0, 1.0)), 1j),
        ):
            with pytest.raises(ValueError, match="must be a real number, got"):
                build()

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError, match="g"):
            SystemSpec(n=2, energies=(0.0, 1.0), g=-0.1)

    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError, match="drive_model"):
            SystemSpec(n=2, energies=(0.0, 1.0), drive_model="rabi")

    @pytest.mark.parametrize("model", ["cosine2", "rwa2"])
    def test_two_level_models_require_two_levels(self, model):
        with pytest.raises(ValueError, match="requires n = 2"):
            SystemSpec(n=3, energies=(0.0, 1.0, 2.0), drive_model=model)

    @pytest.mark.parametrize(
        "energies",
        [5, None, 2.0, np.array(1.0), "01", b"01"],
        ids=["int", "none", "float", "0d-array", "str", "bytes"],
    )
    def test_rejects_non_sequence_energies(self, energies):
        with pytest.raises(ValueError, match="energies must be a sequence of real numbers"):
            SystemSpec(n=2, energies=energies)

    def test_rejects_non_finite_energy(self):
        with pytest.raises(ValueError):
            SystemSpec(n=2, energies=(0.0, math.nan))

    def test_rejects_bool_flag_stand_in(self):
        with pytest.raises(ValueError):
            SystemSpec(n=2, energies=(0.0, 1.0), include_delta0=1)
