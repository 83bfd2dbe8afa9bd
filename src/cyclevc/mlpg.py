"""Maximum likelihood parameter generation and the cepstral post-filter.

Given per-frame mean vectors for static + derivative streams and one
global variance per stream dimension, recover the static trajectory that
minimizes the variance-weighted squared residual against all streams at
once. The window matrices use the same edge replication as the delta
computation, so a delta-expanded sequence is recovered exactly.

Each static dimension is an independent symmetric positive-definite banded
system (bandwidth = twice the largest window offset), solved in O(T). The
bands of the normal equations are built for all dimensions at once,
straight from the windows' row entries, without forming any T x T matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .features import DELTA_WINDOWS, FeatureKind, FeatureSequence, LOW_DIM

#: Largest frame offset of any delta kernel: the half-width of every band.
_MAX_OFFSET = max(abs(off) for win in DELTA_WINDOWS for off, _ in win)


@dataclass(frozen=True)
class GaussianTrajectory:
    """Per-frame means for S statics x 3 delta windows plus global variances.

    means columns are ordered [static | delta | delta-delta] blocks, matching
    compute_deltas output. variances may be +inf to switch a stream off.
    """

    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        means = np.asarray(self.means, dtype=np.float64)
        variances = np.asarray(self.variances, dtype=np.float64).reshape(-1)
        if means.ndim != 2:
            raise DimensionMismatchError("means must be a T x (S*W) matrix")
        w = len(DELTA_WINDOWS)
        if means.shape[1] % w != 0:
            raise DimensionMismatchError(
                f"means width {means.shape[1]} is not divisible by {w} windows"
            )
        if variances.shape[0] != means.shape[1]:
            raise DimensionMismatchError(
                f"variances length {variances.shape[0]} must equal means width {means.shape[1]}"
            )
        if (variances <= 0).any() or np.isnan(variances).any():
            raise ValueError("variances must be strictly positive")
        if not np.isfinite(means).all():
            raise ValueError("means must be finite")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "variances", variances)

    @property
    def frames(self) -> int:
        return self.means.shape[0]

    @property
    def static_dim(self) -> int:
        return self.means.shape[1] // len(DELTA_WINDOWS)


def _window_rows(win, frames: int) -> np.ndarray:
    """One kernel's T x T window matrix W, row t holding W[t, t-K..t+K]
    (K = _MAX_OFFSET; entries off either edge stay 0).

    Edge replication clamps out-of-range offsets onto the edge frame, and
    offsets that land on the same column get their coefficients summed,
    exactly as in the delta computation.
    """
    rows = np.zeros((frames, 2 * _MAX_OFFSET + 1))
    t = np.arange(frames)
    for offset, coef in win:
        rows[t, np.clip(t + offset, 0, frames - 1) - t + _MAX_OFFSET] += coef
    return rows


def mlpg_generate(traj: GaussianTrajectory) -> FeatureSequence:
    """Solve for the smooth static trajectory under all stream constraints.

    For each static dimension the minimizer of
    sum_w ||W_w c - mu_w||^2 / var_w solves the normal equations
    (sum_w W_w^T W_w / var_w) c = sum_w W_w^T mu_w / var_w.
    """
    if traj.frames < 1:
        raise ValueError("need at least one frame")
    t = traj.frames
    s = traj.static_dim
    precisions = 1.0 / traj.variances  # +inf variance -> zero weight
    if (precisions[:s] <= 0).any():
        raise ValueError("static-stream variances must be finite (identity window must bind)")

    k = _MAX_OFFSET
    bandwidth = min(2 * k, t - 1)
    ab = np.zeros((s, bandwidth + 1, t))  # solveh_banded's upper storage
    rhs = np.zeros((s, t))
    for w, win in enumerate(DELTA_WINDOWS):
        p = precisions[w * s : (w + 1) * s, None]
        rows = _window_rows(win, t)
        mu = traj.means[:, w * s : (w + 1) * s].T * p
        # Row r of W adds W[r,i] W[r,j] to entry (i, j) of W^T W, stored for
        # i <= j at ab[bandwidth - (j - i), j], and W[r,i] mu[r] to rhs[i].
        # With i = r+d1 and j = r+d2, rows lo..hi-1 are those where both
        # columns exist.
        for d1 in range(-k, k + 1):
            lo = max(0, -d1)
            hi = max(lo, t - max(d1, 0))
            rhs[:, lo + d1 : hi + d1] += rows[lo:hi, d1 + k] * mu[:, lo:hi]
            for d2 in range(d1, min(k, d1 + bandwidth) + 1):
                hi = max(lo, t - max(d2, 0))
                ab[:, bandwidth - (d2 - d1), lo + d2 : hi + d2] += p * (
                    rows[lo:hi, d1 + k] * rows[lo:hi, d2 + k]
                )

    # Imported here: scipy.linalg costs about 0.2 s to import, and training
    # and the statistics commands never smooth a trajectory.
    from scipy.linalg import solveh_banded

    out = np.empty((t, s))
    for dim in range(s):
        out[:, dim] = solveh_banded(ab[dim], rhs[dim], lower=False)

    kind = FeatureKind.MCEP_LOW25 if s == LOW_DIM else FeatureKind.GENERIC
    return FeatureSequence(out, kind)


def postfilter(seq: FeatureSequence, beta: float = 0.0) -> FeatureSequence:
    """Simplified cepstral emphasis: scale coefficients 2.. by (1 + beta).

    Coefficients 0 (energy) and 1 are left alone. beta = 0 is the identity.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    out = seq.data.copy()
    if seq.dim > 2:
        out[:, 2:] *= 1.0 + beta
    return FeatureSequence(out, seq.kind)
