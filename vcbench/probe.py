"""Speed probes: fixed reference kernels, timed between passes.

The machines this benchmark runs on are shared, and their speed drifts by
10-30 % within a minute, in interpreted and BLAS code alike. Such a
level shift moves every timing of a run together. So before each pass the
harness times three small kernels of its own, each standing in for one
kind of work the program does:

- ``interp``: a pure-Python dynamic-programming loop, like DTW.
- ``parse``: decimal text parsed into floats, like loading a text model.
- ``blas``: float64 GEMMs at the training net's shapes.

A run's end-to-end timings are scaled by the reference time of the
workload's kernels over their median time in that run. They therefore read
as if measured at the reference speed, and a change to the program moves
them while a change of machine speed does not. The raw timings are kept
in the run's result file.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

_RNG = np.random.default_rng(0)
_DIST = _RNG.random((160, 160)).tolist()
_TEXT = [" ".join(repr(float(v)) for v in row) for row in _RNG.standard_normal((90, 100))]
_WEIGHTS = _RNG.standard_normal((256, 128))
_BATCH = _RNG.standard_normal((128, 128))


def _interp() -> None:
    prev = list(_DIST[0])
    for j in range(1, len(prev)):
        prev[j] += prev[j - 1]
    for row in _DIST[1:]:
        cur = [prev[0] + row[0]] + [0.0] * (len(row) - 1)
        for j in range(1, len(row)):
            best = prev[j - 1]
            if prev[j] < best:
                best = prev[j]
            if cur[j - 1] < best:
                best = cur[j - 1]
            cur[j] = best + row[j]
        prev = cur


def _parse() -> None:
    np.array([[float(v) for v in line.split()] for line in _TEXT])


def _blas() -> None:
    for _ in range(20):
        hidden = _BATCH @ _WEIGHTS.T
        hidden.T @ _BATCH


KERNELS = {"interp": _interp, "parse": _parse, "blas": _blas}

#: Median kernel seconds on the reference machine (a quiet 2-core x86-64
#: VM, numpy 2.4.6, OpenBLAS 0.3.31, two BLAS threads).
REFERENCE_S = {"interp": 0.0035, "parse": 0.0050, "blas": 0.0055}

REPEATS = 3


class SpeedProbe:
    """Kernel timings collected over one run."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {name: [] for name in KERNELS}

    def measure(self) -> None:
        for _ in range(REPEATS):
            for name, kernel in KERNELS.items():
                start = perf_counter()
                kernel()
                self.samples[name].append(perf_counter() - start)

    def medians(self) -> dict[str, float]:
        return {name: statistics.median(times) for name, times in self.samples.items()}

    def slowdown(self, kernels: tuple[str, ...]) -> float:
        """How much slower than the reference the machine ran these kernels."""
        medians = self.medians()
        return sum(medians[k] for k in kernels) / sum(REFERENCE_S[k] for k in kernels)
