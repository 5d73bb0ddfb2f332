"""Machine-speed calibration for the timing metrics.

On a shared machine the speed a process gets drifts by 1.5x and more over
seconds to minutes, and a run's median pass time drifts with it (see
NOTES.md).  The drift is common to everything the process runs, so each
timed pass is paired with the mean of a fixed reference kernel timed just
before and just after it.  A timing metric is the median over passes of
`pass / kernel`, converted back to seconds by `KERNEL_REF_S`, the
kernel's median time on the machine the baseline was taken on (a
2-vCPU VM, Python 3.11, numpy with OpenBLAS).  Raw
medians are printed next to the calibrated ones.

The kernel is fixed work of the same kind as mesorate's: small dense
solves, float formatting and short-lived Python objects.  It binds
numpy.linalg.solve at import, so the span recorder never sees it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

KERNEL_REF_S = 0.0075
_REPS = 1000
KERNEL_SHARE = 0.1          # calibration time after a pass, as a share of the pass
_SOLVE = np.linalg.solve
_A = 4.0 * np.eye(10) + np.arange(100.0).reshape(10, 10) / 100.0
_B = np.ones(10)


def kernel_s(min_seconds: float = 0.0) -> float:
    """Mean wall time of one run of the reference kernel, repeated until
    `min_seconds` have passed (at least once).  Long passes get long
    calibration windows, so the kernel samples the machine's speed over
    a stretch comparable to the pass rather than at one instant."""
    runs = 0
    t0 = time.perf_counter()
    while True:
        acc = 0.0
        for i in range(_REPS):
            x = _SOLVE(_A, _B)
            acc += float(x[i % 10])
            _ = {"value": format(acc, ".17g"), "i": i}
        runs += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return elapsed / runs


def calibrated(times: list[float], kernels: list[float]) -> float:
    """Median of times[i] over the mean kernel time around it, in reference
    seconds; kernels[i] and kernels[i + 1] bracket times[i]."""
    ratios = [t / (0.5 * (kernels[i] + kernels[i + 1])) for i, t in enumerate(times)]
    return statistics.median(ratios) * KERNEL_REF_S
