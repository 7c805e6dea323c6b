"""Cancel the host's speed drift out of measured times.

On a shared virtual machine the same single-threaded work runs up to 2x
slower for stretches of several seconds, and process CPU time drifts with
wall time, so medians of separate runs spread by about 20%.  A fixed
calibration kernel, run just before and just after each timed operation,
tracks that drift: the benchmark reports each time multiplied by
``REFERENCE_KERNEL_S / kernel time``, i.e. seconds at the speed the host has
when the kernel takes ``REFERENCE_KERNEL_S``.  Raw medians are printed
beside the scaled ones.  run.py keeps itself and its children on one CPU, so
the kernel runs on the core that ran the measured work.
"""

import math
import time

import numpy as np

# median kernel time on the 2-vCPU x86_64 VM (Python 3.11, numpy 2.4) the
# benchmark was written on; it only fixes the scale of the reported times
REFERENCE_KERNEL_S = 0.02

_M = np.array([[1.0, 0.5j, 0.0], [-0.5j, 0.2, 0.3], [0.0, 0.3, -1.0]])


def kernel_seconds() -> float:
    """Time a fixed mix of interpreted complex arithmetic and 3x3 numpy products.

    It mirrors the package's hot loop: Python-level complex math plus many
    small array operations.
    """
    t0 = time.perf_counter()
    z = 0j
    for k in range(12000):
        z = z * 0.999 + complex(math.cos(k * 1e-3), math.sin(k * 1e-3))
    m = _M
    for _ in range(1500):
        m = 0.5 * (m @ _M) + _M.conj().T
    return time.perf_counter() - t0


class Gauge:
    """Times operations and scales them by the kernel timed around each one."""

    def __init__(self):
        self.factors = []

    def time(self, fn):
        """Run fn(); returns (raw seconds, speed factor, its result)."""
        before = kernel_seconds()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        factor = REFERENCE_KERNEL_S / (0.5 * (before + kernel_seconds()))
        self.factors.append(factor)
        return raw, factor, result
