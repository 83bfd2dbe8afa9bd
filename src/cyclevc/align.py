"""Dynamic time warping over frame sequences.

Produces the frame pairing that the parallel baselines train on. Steps are
the unconstrained {(1,0), (0,1), (1,1)} set with squared Euclidean frame
distance; backtrace ties prefer diagonal, then a-advance, then b-advance,
so the returned path is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

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

    dist = cdist(a.data, b.data, metric="sqeuclidean")
    ta, tb = dist.shape
    # step codes: 0 diagonal, 1 a-advance (from i-1, j), 2 b-advance (from i, j-1)
    back = [bytearray(tb) for _ in range(ta)]

    # Rolling plain-python rows: far faster than per-cell numpy indexing.
    d = dist[0].tolist()
    prev = d[:]
    for j in range(1, tb):
        prev[j] += prev[j - 1]
        back[0][j] = 2
    for i in range(1, ta):
        d = dist[i].tolist()
        cur = [prev[0] + d[0]] + [0.0] * (tb - 1)
        back[i][0] = 1
        back_i = back[i]
        for j in range(1, tb):
            best = prev[j - 1]
            code = 0
            if prev[j] < best:
                best = prev[j]
                code = 1
            if cur[j - 1] < best:
                best = cur[j - 1]
                code = 2
            cur[j] = best + d[j]
            back_i[j] = code
        prev = cur

    pairs = [(ta - 1, tb - 1)]
    i, j = ta - 1, tb - 1
    while (i, j) != (0, 0):
        code = back[i][j]
        if code == 0:
            i, j = i - 1, j - 1
        elif code == 1:
            i -= 1
        else:
            j -= 1
        pairs.append((i, j))
    pairs.reverse()
    return AlignmentPath(pairs=tuple(pairs), cost=float(prev[tb - 1]))


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
