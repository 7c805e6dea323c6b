"""Generalized Pauli (clock and shift) matrices and their Fourier companion.

For dimension n the shift matrix cycles the basis states, the clock matrix
carries the n-th roots of unity on its diagonal, and the unitary Vandermonde
matrix W maps one onto the other.  Roots of unity are always evaluated as
exp(2*pi*i*k/n) with the integer exponent reduced mod n; powers are never
accumulated by repeated multiplication, so conjugate symmetry survives to
machine precision.

All builders return fresh complex128 arrays.
"""

import numpy as np

__all__ = [
    "primitive_root",
    "build_shift",
    "build_clock",
    "build_fourier",
    "mat_mul",
    "mat_pow",
    "adjoint",
    "similarity_diagonalize_shift",
]


# byte size allowed for one n x n complex matrix, so n <= 512.  Every command
# holds a bounded number of them: peaks measured with tracemalloc at n = 128
# and 256 were about 150 matrices for `matrices` (its JSON objects), 11 for
# `algebra`, 7 for a two-step `evolve` and 4 for `decompose`, so none passes
# 1 GiB
_MAX_MATRIX_BYTES = 2**22


def _check_dim(n) -> int:
    """n as an int, when it is at least 2 and one n x n matrix fits the byte budget."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"dimension must be an integer, got {n!r}")
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got {n}")
    need = 16 * int(n) ** 2
    if need > _MAX_MATRIX_BYTES:
        raise ValueError(
            f"dimension {n} needs {need} bytes per n x n matrix, over the "
            f"{_MAX_MATRIX_BYTES}-byte budget"
        )
    return int(n)


def root_power(n: int, k) -> np.ndarray:
    """exp(2*pi*i*(k mod n)/n) for an integer exponent or array of exponents."""
    exps = np.asarray(k) % n
    return np.exp(2j * np.pi * exps / n)


def primitive_root(n: int) -> complex:
    """Primitive n-th root of unity sigma = exp(2*pi*i/n)."""
    n = _check_dim(n)
    return complex(root_power(n, 1))


def build_shift(n: int) -> np.ndarray:
    """Cyclic shift matrix: entry [j, k] = 1 exactly when j == k+1 (mod n).

    Ones sit on the subdiagonal plus the top-right corner, so the matrix sends
    basis state k to basis state k+1 (mod n).
    """
    n = _check_dim(n)
    s = np.zeros((n, n), dtype=np.complex128)
    k = np.arange(n)
    s[(k + 1) % n, k] = 1.0
    return s


def build_clock(n: int) -> np.ndarray:
    """Diagonal clock matrix diag(1, sigma, sigma^2, ..., sigma^(n-1))."""
    n = _check_dim(n)
    return np.diag(root_power(n, np.arange(n)))


def build_fourier(n: int) -> np.ndarray:
    """Unitary Vandermonde matrix with entries sigma^((n-j)k mod n) / sqrt(n).

    Row 0 is constant 1/sqrt(n); the last row steps through 1, sigma,
    sigma^2, ...  W is unitary and diagonalizes the shift matrix:
    W @ clock @ adjoint(W) == shift.
    """
    n = _check_dim(n)
    j = np.arange(n)[:, None]
    k = np.arange(n)[None, :]
    return root_power(n, (n - j) * k) / np.sqrt(n)


def mat_mul(a, b) -> np.ndarray:
    """Matrix product with an explicit shape check."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("mat_mul expects two 2-d matrices")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    return a @ b


def mat_pow(a, k) -> np.ndarray:
    """Non-negative integer matrix power, evaluated by repeated squaring."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"mat_pow expects a square matrix, got shape {a.shape}")
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 0:
        raise ValueError(f"power must be a non-negative integer, got {k!r}")
    return np.linalg.matrix_power(a, int(k))


def adjoint(a) -> np.ndarray:
    """Conjugate transpose, returned as a fresh array."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError("adjoint expects a 2-d matrix")
    return a.conj().T.copy()


def similarity_diagonalize_shift(n: int) -> np.ndarray:
    """Assemble the shift matrix from its spectral form W @ clock @ W^dagger."""
    w = build_fourier(n)
    return w @ build_clock(n) @ w.conj().T
