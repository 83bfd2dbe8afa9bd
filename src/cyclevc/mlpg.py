"""Maximum likelihood parameter generation and the cepstral post-filter.

Given per-frame mean vectors for static + derivative streams and one
global variance per stream dimension, recover the static trajectory that
minimizes the variance-weighted squared residual against all streams at
once. The window matrices use the same edge replication as the delta
computation, so a delta-expanded sequence is recovered exactly.

Each static dimension is an independent symmetric positive-definite banded
system (bandwidth = twice the largest window offset). The bands of the
normal equations are built for all dimensions at once, straight from the
windows' row entries, without forming any T x T matrix, and one LAPACK call
solves them all as a block-diagonal band, in O(T) per dimension.
"""

from __future__ import annotations

import ctypes
import reprlib
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from . import net
from .errors import DimensionMismatchError, finite_real
from .features import _MAX_OFFSET, DELTA_WINDOWS, FeatureKind, FeatureSequence, LOW_DIM


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
    exactly as in the delta computation. Only the first and last K rows
    clamp an offset, so the rows are built over at most 2K + 1 frames and
    the middle one stands for every interior row.
    """
    k = _MAX_OFFSET
    n = min(frames, 2 * k + 1)
    rows = np.zeros((n, 2 * k + 1))
    t = np.arange(n)
    for offset, coef in win:
        rows[t, np.clip(t + offset, 0, n - 1) - t + k] += coef
    if n == frames:
        return rows
    interior = rows[k : k + 1].repeat(frames - 2 * k, axis=0)
    return np.concatenate((rows[:k], interior, rows[k + 1 :]))


def _normal_band(precisions: np.ndarray, frames: int) -> np.ndarray:
    """sum_w W_w^T W_w / var_w for every static dimension, in
    solveh_banded's upper storage: (S, bandwidth + 1, frames), each
    dimension's band in Fortran order. The S bands side by side are then
    one Fortran-ordered block-diagonal band, which LAPACK takes without a copy.

    A column at least 2K frames from either end (K = _MAX_OFFSET) sums the
    same products in the same order wherever it is, since none of its rows
    clamps an offset. So the sums run over a template of at most 4K + 1
    frames: its first and last 2K columns are the edges of any longer
    sequence and its middle column is the interior, bit for bit.
    """
    k = _MAX_OFFSET
    edge = 2 * k
    n = min(frames, 2 * edge + 1)
    s = precisions.shape[0] // len(DELTA_WINDOWS)
    bandwidth = min(edge, n - 1)
    ab = np.zeros((s, n, bandwidth + 1)).transpose(0, 2, 1)
    for w, win in enumerate(DELTA_WINDOWS):
        p = precisions[w * s : (w + 1) * s, None]
        rows = _window_rows(win, n)
        # Row r of W adds W[r,i] W[r,j] to entry (i, j) of W^T W, stored for
        # i <= j at ab[bandwidth - (j - i), j]. With i = r+d1 and j = r+d2,
        # rows lo..hi-1 are those where both columns exist.
        for d1 in range(-k, k + 1):
            lo = max(0, -d1)
            for d2 in range(d1, min(k, d1 + bandwidth) + 1):
                hi = max(lo, n - max(d2, 0))
                ab[:, bandwidth - (d2 - d1), lo + d2 : hi + d2] += p * (
                    rows[lo:hi, d1 + k] * rows[lo:hi, d2 + k]
                )
    if n == frames:
        return ab
    band = np.empty((s, frames, bandwidth + 1)).transpose(0, 2, 1)
    band[:, :, :edge] = ab[:, :, :edge]
    band[:, :, edge : frames - edge] = ab[:, :, edge : edge + 1]
    band[:, :, frames - edge :] = ab[:, :, edge + 1 :]
    return band


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
    ab = _normal_band(precisions, t)
    rhs = np.zeros((t, s))
    for w, win in enumerate(DELTA_WINDOWS):
        rows = _window_rows(win, t)
        mu = traj.means[:, w * s : (w + 1) * s] * precisions[w * s : (w + 1) * s]
        # Row r of W adds W[r,i] mu[r] to rhs[i], i = r+d1.
        for d1 in range(-k, k + 1):
            lo = max(0, -d1)
            hi = max(lo, t - max(d1, 0))
            rhs[lo + d1 : hi + d1] += rows[lo:hi, d1 + k, None] * mu[lo:hi]
    rhs = np.ascontiguousarray(rhs.T)  # one row per dimension, as the band's blocks

    # What solveh_banded(ab[dim], rhs[dim], lower=False) does per dimension,
    # as one solve: side by side, the blocks are one Fortran-ordered band (no
    # copy), decoupled by the zeros each block's first columns leave unused.
    # A 2-row band goes to ptsv, any other to pbsv; b ends as the solution.
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    band, b = ab.transpose(1, 0, 2).reshape(ab.shape[1], -1), rhs.reshape(-1)
    solvers = net._lapack_band_solvers()
    if solvers is None:
        info = _solve_with_scipy(band, b)
    else:
        info = _solve_with_numpy_lapack(solvers, band, b)
    if info > 0:
        # The stacked system's info is dim * T + j; solveh_banded names j.
        raise LinAlgError(f"{(info - 1) % t + 1}th leading minor not positive definite")

    kind = FeatureKind.MCEP_LOW25 if s == LOW_DIM else FeatureKind.GENERIC
    return FeatureSequence(b.reshape(s, t).T.copy(), kind)


def _solve_with_numpy_lapack(solvers, band: np.ndarray, b: np.ndarray) -> int:
    """The solve by the (pbsv, ptsv) pair net._lapack_band_solvers binds;
    returns LAPACK's info. pbsv takes band in place, Fortran-ordered."""
    pbsv, ptsv = solvers
    rows, n = band.shape
    if not (band.dtype == b.dtype == np.float64 and b.shape == (n,)
            and band.flags.f_contiguous and b.flags.c_contiguous):
        raise ValueError("LAPACK takes a float64 band in Fortran order and a contiguous vector")
    size, kd, ldab, one = (ctypes.byref(ctypes.c_int64(v)) for v in (n, rows - 1, rows, 1))
    info = ctypes.c_int64()
    if rows == 2:
        # ptsv takes the diagonal and the superdiagonal as vectors of their own.
        d, e = np.ascontiguousarray(band[1]), np.ascontiguousarray(band[0, 1:])
        ptsv(size, one, d.ctypes.data, e.ctypes.data, b.ctypes.data, size, ctypes.byref(info))
    else:
        pbsv(b"U", size, kd, one, band.ctypes.data, ldab, b.ctypes.data, size,
             ctypes.byref(info), 1)
    return info.value


def _solve_with_scipy(band: np.ndarray, b: np.ndarray) -> int:
    """The solve by scipy's LAPACK, for a numpy that links no 64-bit-integer
    LAPACK; returns LAPACK's info. Imported here: scipy.linalg costs about
    0.25 s to import and loads a BLAS of its own."""
    from scipy.linalg import get_lapack_funcs

    tridiagonal = band.shape[0] == 2
    (solve,) = get_lapack_funcs(("ptsv" if tridiagonal else "pbsv",), (band, b))
    if tridiagonal:
        b[:], info = solve(band[1], band[0, 1:], b, 1, 1, 1)[2:]
    else:
        b[:], info = solve(band, b, lower=0, overwrite_ab=1, overwrite_b=1)[1:]
    return info


def check_beta(beta: float) -> None:
    """Raise ValueError unless postfilter accepts beta: finite and >= 0."""
    if not (finite_real(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and >= 0, got {reprlib.repr(beta)}")


def postfilter(seq: FeatureSequence, beta: float = 0.0) -> FeatureSequence:
    """Simplified cepstral emphasis: scale coefficients 2.. by (1 + beta).

    Coefficients 0 (energy) and 1 are left alone. beta = 0 is the identity.
    """
    check_beta(beta)
    out = seq.data.copy()
    out[:, 2:] *= 1.0 + beta
    return FeatureSequence(out, seq.kind)
