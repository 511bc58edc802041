"""Host speed, measured by a fixed reference loop next to every iteration.

On a shared host the same code runs up to about 1.5 times slower for
stretches of seconds to minutes, as other tenants load the machine; that
drift, not the code, was most of the spread between runs.  The reference
loop is fixed work of the same kind as the workloads (an interpreted loop
over small numpy vectors, then a small dense solve) and calls nothing of
tripanel, so a change to the library cannot move it.  Each timed section
is scaled by ``REFERENCE_S / t_ref``, where ``t_ref`` is the mean of the
reference times measured just before and just after it: the figures are
seconds on a host where the loop takes REFERENCE_S.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

REFERENCE_S = 0.030  # about the loop's median time on a 2-vCPU x86_64 VM

_RNG = np.random.default_rng(0)
_VECS = _RNG.standard_normal((200, 3))
_MATRIX = _VECS @ _VECS.T + 300.0 * np.eye(200)


def _loop() -> float:
    acc = 0.0
    for _ in range(3):
        for i in range(200):
            a, b = _VECS[i], _VECS[(i + 1) % 200]
            c = np.cross(a, b)
            n = math.sqrt(c @ c)
            acc += math.atan2(n, a @ b) + n
    return acc + float(np.linalg.solve(_MATRIX, _VECS[:, 0]).sum())


def reference_time() -> float:
    """Seconds the reference loop takes now, after a garbage collection."""
    gc.collect()
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0
