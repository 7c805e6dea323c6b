"""Independent reference trajectories for the benchmark workloads.

Built from numpy alone: the Hamiltonian is assembled here from the level
energies and the drive model's definition, and each step is exponentiated
through LAPACK ``eigh``.  The midpoint rule runs at ``dt / substeps`` over
the same step edges as the program, so its error is ``substeps**2`` times
smaller than the program's.  The resonant two-level workload instead has an
exact closed form.
"""

import numpy as np

_CHUNK = 4096  # substeps diagonalized per batch; bounds memory at large n


def drive_matrix(n: int, drive_model: str) -> np.ndarray:
    """A such that the drive is (g/2) (e^{i w t} A + h.c.)."""
    a = np.zeros((n, n), dtype=np.complex128)
    if drive_model == "generalized":
        a[(np.arange(n) + 1) % n, np.arange(n)] = 1.0  # cyclic shift k -> k+1
    elif drive_model == "rwa2":
        a[1, 0] = 1.0  # sigma_minus
    else:
        raise ValueError(f"no reference for drive model {drive_model!r}")
    return a


def hamiltonians(w, times) -> np.ndarray:
    """Stack of H(t) = diag(E) + (g/2)(e^{i w t} A + h.c.) for each t."""
    a = 0.5 * w.g * drive_matrix(w.n, w.drive_model)
    phase = np.exp(1j * w.omega * np.asarray(times))[:, None, None]
    m = phase * a
    return np.diag(np.asarray(w.energies, dtype=np.complex128)) + m + np.conj(
        np.swapaxes(m, 1, 2)
    )


def midpoint_populations(w, substeps: int = 8) -> np.ndarray:
    """Populations at the workload's sample instants, midpoint rule at dt/substeps."""
    edges = w.step_edges()
    frac = np.arange(substeps + 1) / substeps
    fine = (edges[:-1, None] + np.diff(edges)[:, None] * frac[None, :-1]).ravel()
    fine = np.append(fine, edges[-1])
    h = np.diff(fine)
    mid = fine[:-1] + 0.5 * h
    wanted = set((w.sample_steps() * substeps).tolist())

    psi = w.psi0()
    out = [np.abs(psi) ** 2]
    for lo in range(0, mid.shape[0], _CHUNK):
        evals, vecs = np.linalg.eigh(hamiltonians(w, mid[lo : lo + _CHUNK]))
        phases = np.exp(-1j * evals * h[lo : lo + _CHUNK, None])
        unitaries = (vecs * phases[:, None, :]) @ np.conj(np.swapaxes(vecs, 1, 2))
        for j, u in enumerate(unitaries, start=lo + 1):
            psi = u @ psi
            if j in wanted:
                out.append(np.abs(psi) ** 2)
    return np.array(out)


def rabi_populations(w) -> np.ndarray:
    """Exact populations of the resonant rwa2 system started in the lower level.

    In the frame rotating with the drive the coupling is (g/2) sigma_x, so the
    upper level fills as sin^2(g t / 2).
    """
    if w.drive_model != "rwa2" or w.initial_state != 1 or w.omega != w.energies[0] - w.energies[1]:
        raise ValueError("closed form needs rwa2 at w = E0 - E1 started in level 1")
    t = w.step_edges()[w.sample_steps()] - w.t_start
    upper = np.sin(0.5 * w.g * t) ** 2
    return np.column_stack([upper, 1.0 - upper])


def populations(w) -> np.ndarray:
    """The reference the benchmark checks the workload's output against."""
    if w.drive_model == "rwa2":
        return rabi_populations(w)
    return midpoint_populations(w)
