"""Dynamic time warping over frame sequences.

Produces the frame pairing that the parallel baselines train on. Steps are
the unconstrained {(1,0), (0,1), (1,1)} set with squared Euclidean frame
distance; backtrace ties prefer diagonal, then a-advance, then b-advance,
so the returned path is deterministic.

The cumulative cost is accumulated in place, inside the distance matrix
that scipy's squared-Euclidean ``cdist`` kernel returns, so that matrix is
the only ta x tb array. Row 0 and column 0 are running sums; the interior
runs as a numpy wavefront over anti-diagonals k = i + j, each of which
depends only on the two before it and costs three ufunc calls over strided
views. Each cell gets the same minimum and the same single addition as the
scalar recurrence, so costs are bit-identical to it. The path is read
back from the stored costs with the recurrence's strict comparisons in its
order, so it is the path the scalar recurrence's back-pointers give.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InsufficientDataError, NonFiniteError
from .features import FeatureSequence


@dataclass(frozen=True)
class AlignmentPath:
    """Monotone index pairs (i into a, j into b) covering both sequences."""

    pairs: tuple[tuple[int, int], ...]
    cost: float

    def validate(self, frames_a: int, frames_b: int) -> None:
        """Raise if the path is not a valid warp of (frames_a, frames_b)."""
        if not self.pairs:
            raise ValueError("empty alignment path")
        if self.pairs[0] != (0, 0):
            raise ValueError(f"path must start at (0, 0), starts at {self.pairs[0]}")
        if self.pairs[-1] != (frames_a - 1, frames_b - 1):
            raise ValueError(
                f"path must end at ({frames_a - 1}, {frames_b - 1}), "
                f"ends at {self.pairs[-1]}"
            )
        for (i0, j0), (i1, j1) in zip(self.pairs, self.pairs[1:]):
            if (i1 - i0, j1 - j0) not in ((1, 0), (0, 1), (1, 1)):
                raise ValueError(f"illegal step ({i0},{j0}) -> ({i1},{j1})")


_KERNEL_MODULE = "scipy.spatial._distance_pybind"


@functools.cache
def _sqeuclidean_kernel():
    """scipy's squared-Euclidean distance kernel, the function that
    ``cdist(x, y, metric="sqeuclidean")`` hands its two arrays to after its
    shape checks, so it gives the same matrix bit for bit. Looked up once,
    on first use.

    Importing scipy.spatial costs 0.24-0.35 s and 38 MB of peak memory on
    2 cores (its kd-tree, qhull, scipy.sparse and scipy.linalg with its own
    OpenBLAS), none of which DTW uses; loading the kernel alone costs 1 ms
    and 0.5 MB. So the kernel's extension file is loaded on its own, and
    neither scipy nor scipy.spatial is imported. That also holds where
    scipy.spatial is loaded already: the kernel is initialised once per
    process, so its loader returns the module already imported. Where the
    file or its function is missing, or loading it fails, public ``cdist``
    does the work (_public_cdist).
    """
    try:
        path = _kernel_file()
        if path is not None:
            loader = importlib.machinery.ExtensionFileLoader(_KERNEL_MODULE, path)
            module = importlib.util.module_from_spec(
                importlib.util.spec_from_loader(_KERNEL_MODULE, loader)
            )
            loader.exec_module(module)
            return module.cdist_sqeuclidean
    except (ImportError, OSError, AttributeError):
        pass
    return _public_cdist


def _kernel_file() -> str | None:
    """Path of the kernel's extension in the installed scipy, found without
    importing scipy; None where there is no such file."""
    spec = importlib.util.find_spec("scipy")
    for root in (spec and spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "spatial", "_distance_pybind" + suffix)
            if os.path.isfile(path):
                return path
    return None


def _public_cdist(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances by scipy's public cdist. Imported here:
    only a scipy whose kernel _sqeuclidean_kernel cannot load comes here."""
    from scipy.spatial.distance import cdist

    return cdist(x, y, metric="sqeuclidean")


def dtw_align(a: FeatureSequence, b: FeatureSequence) -> AlignmentPath:
    """Minimum-cost monotone alignment of a against b.

    Cost is the sum of squared Euclidean distances over all path cells.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    if a.frames < 1 or b.frames < 1:
        raise InsufficientDataError("both sequences need at least one frame")

    cost = _sqeuclidean_kernel()(a.data, b.data)
    ta, tb = cost.shape
    # Accumulate in place: once a diagonal is done, cost[i, j] holds D[i, j].
    # Row 0 and column 0 are the sequential running sums of the recurrence.
    np.cumsum(cost[0], out=cost[0])
    np.cumsum(cost[:, 0], out=cost[:, 0])

    # Interior cell (i, k - i) of diagonal k is flat index k + i * (tb - 1);
    # its predecessors sit tb + 1 (diagonal), tb (up) and 1 (left) before it,
    # so each diagonal and its three predecessor sets are strided views.
    # min(min(diag, up), left) is the value the strict < tests pick.
    step = tb - 1
    flat = cost.reshape(-1)
    lowest = np.empty(min(ta, tb))
    for k in range(2, ta + tb - 1) if ta > 1 and tb > 1 else ():
        lo, hi = max(1, k - tb + 1), min(k - 1, ta - 1)
        start, stop = k + lo * step, k + hi * step + 1
        best = lowest[: hi - lo + 1]
        np.minimum(flat[start - tb - 1 : stop - tb - 1 : step],
                   flat[start - tb : stop - tb : step], out=best)
        np.minimum(best, flat[start - 1 : stop - 1 : step], out=best)
        cells = flat[start:stop:step]
        np.add(cells, best, out=cells)

    total = float(cost[ta - 1, tb - 1])
    if not np.isfinite(total):
        raise NonFiniteError(
            f"DTW cost of a {ta}x{tb} alignment is {total}: the squared frame "
            "distances overflowed float64"
        )

    # Read each step back from the stored costs with the recurrence's strict
    # < tests in its order: ties keep diagonal, then a-advance.
    pairs = [(ta - 1, tb - 1)]
    i, j = ta - 1, tb - 1
    while i and j:
        best_cost = cost[i - 1, j - 1]
        di, dj = 1, 1
        up = cost[i - 1, j]
        if up < best_cost:
            best_cost, dj = up, 0
        if cost[i, j - 1] < best_cost:
            di, dj = 0, 1
        i, j = i - di, j - dj
        pairs.append((i, j))
    pairs.extend((i, jj) for jj in range(j - 1, -1, -1))
    pairs.extend((ii, 0) for ii in range(i - 1, -1, -1))
    pairs.reverse()
    return AlignmentPath(pairs=tuple(pairs), cost=total)


def paired_frames(
    a: FeatureSequence, b: FeatureSequence, path: AlignmentPath
) -> tuple[FeatureSequence, FeatureSequence]:
    """Materialize the warped sequences: row k is (a[i_k], b[j_k])."""
    path.validate(a.frames, b.frames)
    ii = np.fromiter((i for i, _ in path.pairs), dtype=np.intp)
    jj = np.fromiter((j for _, j in path.pairs), dtype=np.intp)
    return (
        FeatureSequence(a.data[ii], a.kind),
        FeatureSequence(b.data[jj], b.kind),
    )
