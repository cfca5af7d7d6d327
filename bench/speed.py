"""Machine-speed reference: a fixed kernel, timed between the calls of a run.

On a shared 2-core machine the speed of one core drifts by tens of percent
over minutes, so wall times of runs made minutes apart spread wider than any
useful regression bound, however much work each run holds.  The kernel mixes
the two kinds of work torseform does, Python-level walks of expression trees
and small dense linear algebra in numpy, and its median time in a run
measures the speed that run saw.

The kernel tracks the program only in part.  Over 35 blocks of 20 alternating
kernel/check calls the block medians correlated at r = 0.9 and the check
moved by about 0.75 of the kernel's relative change, yet in some ten-run
series the kernel drifted while the check did not.  Over four recorded series
(35 runs of 35 s on a 2-core Intel Xeon, Python 3.11, numpy 2.4) the worst
quartile spread of points_per_s across runs was 0.30 unscaled, 0.24 with the
full ratio and 0.11 with its square root, so times are rescaled by the square
root.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

# Typical median kernel time on the machine above; sets only the scale.
REFERENCE_S = 0.025

_TREE = ("+", ("*", "x", ("sin", "y")), ("/", ("+", "x", 1.5), ("*", "y", "y")))


def _walk(node, env):
    if isinstance(node, str):
        return env[node]
    if isinstance(node, float):
        return node
    if node[0] == "sin":
        return math.sin(_walk(node[1], env))
    a, b = _walk(node[1], env), _walk(node[2], env)
    return a + b if node[0] == "+" else a * b if node[0] == "*" else a / b


def kernel() -> float:
    acc = 0.0
    for i in range(6000):
        acc += _walk(_TREE, {"x": 0.1 + i * 1e-4, "y": 1.0 + i * 1e-4})
    eye = np.eye(4)
    for i in range(1500):
        acc += float(np.linalg.solve(eye * (1.0 + i * 1e-6) + 0.1, np.ones(4))[0])
    return acc


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


def time_scale(kernel_times) -> float:
    """Factor that rescales a run's measured times to the reference speed."""
    return math.sqrt(REFERENCE_S / statistics.median(kernel_times))
