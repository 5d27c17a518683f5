"""Reference kernel that puts solver times on a fixed machine speed.

The machine this benchmark was built on is shared: its speed for the same
single-threaded work drifts by up to 2x over seconds to minutes, so raw
seconds from two runs a minute apart are not comparable. Every solver run
is bracketed by two runs of this kernel, a fixed mix of the operations the
solver spends its time in (numpy calls on 3-vectors, small matrix products
and plain Python arithmetic), and its time is rescaled by how much slower
the kernel ran than `REFERENCE_S`. The raw seconds are kept next to the
rescaled ones in each run's record.
"""

import time

import numpy as np

# close to the kernel's fastest time on a 2.1 GHz Intel Xeon vCPU with
# numpy 2.4 and Python 3.11; a fixed unit, so rescaled figures read as seconds
REFERENCE_S = 0.0048

_V = np.array([[1.0, 0.2, -0.3], [0.1, 1.1, 0.4], [-0.5, 0.3, 0.9]])


def kernel_seconds() -> float:
    """Time one run of the fixed reference kernel."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(150):
        c = np.cross(_V[0], _V[1])
        acc += float(np.linalg.norm(c)) + float((_V @ c).sum())
    for i in range(15000):
        acc += i * 1e-9
    elapsed = time.perf_counter() - start
    if not np.isfinite(acc):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return elapsed


def speed_factor(before: float, after: float) -> float:
    """Factor that rescales a time measured between two kernel runs to the
    reference speed."""
    return REFERENCE_S / (0.5 * (before + after))
