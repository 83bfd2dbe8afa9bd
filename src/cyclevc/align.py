"""Dynamic time warping over frame sequences.

Produces the frame pairing that the parallel baselines train on. Steps are
the unconstrained {(1,0), (0,1), (1,1)} set with squared Euclidean frame
distance; backtrace ties prefer diagonal, then a-advance, then b-advance,
so the returned path is deterministic.

The cost recurrence runs as a numpy wavefront over anti-diagonals
k = i + j: every cell of a diagonal depends only on the two diagonals
before it, so each diagonal is a handful of vector operations. Two rolling
vectors hold the costs, and every cell outside the grid reads inf. The
diagonals of the distance and back-pointer matrices are read and written
as strided views, so nothing is copied or skewed, and each cell gets the
same strict comparisons and the same single addition as the scalar
recurrence: costs and paths are bit-identical to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InsufficientDataError
from .features import FeatureSequence


@dataclass(frozen=True)
class AlignmentPath:
    """Monotone index pairs (i into a, j into b) covering both sequences."""

    pairs: tuple[tuple[int, int], ...]
    cost: float

    def __len__(self) -> int:
        return len(self.pairs)

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


def dtw_align(a: FeatureSequence, b: FeatureSequence) -> AlignmentPath:
    """Minimum-cost monotone alignment of a against b.

    Cost is the sum of squared Euclidean distances over all path cells.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dims differ: {a.dim} vs {b.dim}")
    if a.frames < 1 or b.frames < 1:
        raise InsufficientDataError("both sequences need at least one frame")

    # Imported here: scipy.spatial costs a third of a second to import, and
    # only the commands that align need it.
    from scipy.spatial.distance import cdist

    dist = cdist(a.data, b.data, metric="sqeuclidean")
    ta, tb = dist.shape
    # step codes: 0 diagonal, 1 a-advance (from i-1, j), 2 b-advance (from i, j-1)
    back = np.zeros((ta, tb), dtype=np.uint8)

    # Entry i + 1 of a diagonal-k buffer holds D[i, k - i]. Entry 0 and every
    # entry past a diagonal's end are never written, so any predecessor
    # outside the grid reads inf. Cell (i, k - i) is flat index
    # k + i * (tb - 1), so a diagonal of dist or back is a strided view.
    step = max(tb - 1, 1)
    dist_flat = dist.reshape(-1)
    back_flat = back.reshape(-1)
    older = np.full(ta + 1, np.inf)  # diagonal k - 2; diagonal k overwrites it
    newer = np.full(ta + 1, np.inf)  # diagonal k - 1
    newer[1] = dist_flat[0]
    for k in range(1, ta + tb - 1):
        lo, hi = max(0, k - tb + 1), min(k, ta - 1)
        cells = slice(k + lo * (tb - 1), k + hi * (tb - 1) + 1, step)
        diag = older[lo : hi + 1]
        up = newer[lo : hi + 1]
        left = newer[lo + 1 : hi + 2]
        # The strict < tests of the scalar recurrence, in its order: ties
        # keep diagonal, then a-advance.
        a_adv = up < diag
        best = np.minimum(diag, up)
        b_adv = left < best
        np.minimum(best, left, out=best)
        back_flat[cells] = np.where(b_adv, 2, a_adv)
        np.add(best, dist_flat[cells], out=older[lo + 1 : hi + 2])
        older, newer = newer, older

    pairs = [(ta - 1, tb - 1)]
    i, j = ta - 1, tb - 1
    while (i, j) != (0, 0):
        code = back[i, j]
        if code == 0:
            i, j = i - 1, j - 1
        elif code == 1:
            i -= 1
        else:
            j -= 1
        pairs.append((i, j))
    pairs.reverse()
    return AlignmentPath(pairs=tuple(pairs), cost=float(newer[ta]))


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
