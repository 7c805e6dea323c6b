"""The package surface: ``nlevel`` exports each module's public names, once."""

import nlevel
from nlevel import algebra, hamiltonian, propagator

MODULES = (algebra, hamiltonian, propagator)

# every name the package exported before its surface was read from the
# modules' lists; each must stay importable from nlevel
EARLIER_NAMES = {
    "DRIVE_MODELS", "EigenConvergenceError", "EvolutionConfig", "SystemSpec",
    "Trajectory", "adjoint", "build_clock", "build_drift", "build_fourier",
    "build_full_hamiltonian", "build_interaction", "build_shift",
    "deltas_to_energies", "drive_coefficient", "energies_to_deltas", "evolve",
    "exp_step", "hamiltonian_at", "hermitian_eig", "interaction_diagonal",
    "mat_mul", "mat_pow", "primitive_root", "similarity_diagonalize_shift",
}


class TestPackageSurface:
    def test_all_concatenates_the_module_lists_without_duplicates(self):
        assert nlevel.__all__ == [name for m in MODULES for name in m.__all__]
        assert len(set(nlevel.__all__)) == len(nlevel.__all__)

    def test_each_name_is_the_modules_own_object(self):
        for module in MODULES:
            for name in module.__all__:
                assert getattr(nlevel, name) is getattr(module, name), name

    def test_keeps_the_earlier_names_and_adds_the_limits(self):
        assert len(EARLIER_NAMES) == 24
        added = {"HERMITIAN_RTOL", "MAX_SAMPLE_BYTES", "MAX_STEPS"}
        assert set(nlevel.__all__) == EARLIER_NAMES | added
