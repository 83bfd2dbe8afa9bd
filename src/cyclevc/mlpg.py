"""Maximum likelihood parameter generation and the cepstral post-filter.

Given per-frame mean vectors for static + derivative streams and one
global variance per stream dimension, recover the static trajectory that
minimizes the variance-weighted squared residual against all streams at
once. The window matrices use the same edge replication as the delta
computation, so a delta-expanded sequence is recovered exactly.

Each static dimension is an independent symmetric positive-definite banded
system (bandwidth = twice the largest window offset). The bands of the
normal equations are built for all dimensions at once, straight from the
windows' row entries, without forming any T x T matrix, and LAPACK's pbtrf
and pbtrs (together pbsv) solve them all as one block-diagonal band, in
O(T) per dimension. The band depends only on the target speaker's variances
and on T, so the factor of the longest band made for the last precisions
seen is kept, and a shorter utterance pays only for its own last columns.
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


#: Frames of the normal band's template (4K + 1).
_TEMPLATE = 4 * _MAX_OFFSET + 1

#: The one factor kept: (precisions' bytes, the read-only stacked pbtrf factor
#: of the longest band factored for them, as the (S, L, 3) memory of its
#: Fortran-ordered band, and that band's raw last two columns), or None. It is
#: only ever replaced whole, so concurrent calls can at worst lose a reuse.
_factor = None


def mlpg_generate(traj: GaussianTrajectory) -> FeatureSequence:
    """Solve for the smooth static trajectory under all stream constraints.

    For each static dimension the minimizer of
    sum_w ||W_w c - mu_w||^2 / var_w solves the normal equations
    (sum_w W_w^T W_w / var_w) c = sum_w W_w^T mu_w / var_w.
    """
    global _factor
    if traj.frames < 1:
        raise ValueError("need at least one frame")
    t = traj.frames
    s = traj.static_dim
    precisions = 1.0 / traj.variances  # +inf variance -> zero weight
    if (precisions[:s] <= 0).any():
        raise ValueError("static-stream variances must be finite (identity window must bind)")

    k = _MAX_OFFSET
    rhs = np.zeros((t, s))
    for w, win in enumerate(DELTA_WINDOWS):
        rows = _window_rows(win, t)
        mu = traj.means[:, w * s : (w + 1) * s] * precisions[w * s : (w + 1) * s]
        # Row r of W adds W[r,i] mu[r] to rhs[i], i = r+d1.
        for d1 in range(-k, k + 1):
            lo = max(0, -d1)
            hi = max(lo, t - max(d1, 0))
            rhs[lo + d1 : hi + d1] += rows[lo:hi, d1 + k, None] * mu[lo:hi]
    b = np.ascontiguousarray(rhs.T).reshape(-1)  # one block per dimension, as the band's

    # What solveh_banded(ab[dim], rhs[dim], lower=False) does per dimension,
    # as one solve: side by side, the blocks are one Fortran-ordered band (no
    # copy), decoupled by the zeros each block's first columns leave unused.
    # A 2-row band goes to ptsv; any other is factored by pbtrf, or taken
    # from the kept factor, and solved by pbtrs: pbsv's two steps.
    lapack = _band_lapack()
    if not np.isfinite(b).all():
        raise ValueError("array must not contain infs or NaNs")
    key, kept = precisions.tobytes(), _factor
    reuse = kept is not None and kept[0] == key and k == 1 and _TEMPLATE <= t <= len(kept[1][0])
    band = _factor_from_prefix(lapack, *kept[1:], t) if reuse else None
    if band is None:
        ab = _normal_band(precisions, t)
        if not np.isfinite(ab).all():
            raise ValueError("array must not contain infs or NaNs")
        band = ab.transpose(0, 2, 1)  # (S, T, rows): the stacked band's memory
        end, rows = band[:, -2:].copy(), band.shape[2]
        info = lapack.ptsv(band, b) if rows == 2 else lapack.pbtrf(band)
        if info > 0:
            # The stacked system's info is dim * T + j; solveh_banded names j.
            raise LinAlgError(f"{(info - 1) % t + 1}th leading minor not positive definite")
    if band.shape[2] != 2:
        lapack.pbtrs(band, b)
    if not reuse and t >= _TEMPLATE:
        band.flags.writeable = False
        _factor = (key, band, end)

    kind = FeatureKind.MCEP_LOW25 if s == LOW_DIM else FeatureKind.GENERIC
    return FeatureSequence(b.reshape(s, t).T.copy(), kind)


def _factor_from_prefix(lapack, cached: np.ndarray, end: np.ndarray, frames: int):
    """The stacked pbtrf factor of the T = frames band, laid out as cached,
    from cached, the factor of a band at least as long whose raw last two
    columns are end; None where the replayed tail does not check out.

    Written for K = 1: pbtf2 computes column j from columns <= j, and only
    the last 2K = 2 columns of a band of T >= _TEMPLATE frames differ from
    a longer band's, so columns 0..T-3 are cached's. The last two are
    replayed through pbtrf itself, for its arithmetic: (a) per dimension, a
    unit pivot holding U[T-4, T-3] and U[T-4, T-2], whose rank-1 update
    leaves the partial entries (T-3, T-2) and (T-2, T-2), then a pivot of -1
    stops it (info 2); (b) stacked, the pivot RN(U[T-3, T-3]^2), whose root
    is U[T-3, T-3] again, those partial entries and raw column T-1.
    """
    s, t = cached.shape[0], frames
    u_prev, u_last = cached[:, t - 4], cached[:, t - 3]  # columns T-4, T-3
    x2 = end[:, 0, 0] * (1.0 / u_prev[:, 2])
    update = np.zeros((s, 3, 3))
    update[:, 0, 2], update[:, 1, 1], update[:, 1, 2] = 1.0, u_last[:, 1], -1.0
    update[:, 2] = end[:, 0]
    update[:, 2, 0] = x2
    if any(lapack.pbtrf(window) != 2 for window in update):
        return None
    tail = np.zeros((s, 3, 3))
    tail[:, 0, 2] = u_last[:, 2] ** 2
    tail[:, 1, 1:] = update[:, 2, 1:]
    tail[:, 2] = end[:, 1]
    if lapack.pbtrf(tail) != 0 or (tail[:, 0, 2] != u_last[:, 2]).any():
        return None
    factor = np.empty((s, t, 3))
    factor[:, : t - 2] = cached[:, : t - 2]
    factor[:, t - 2 :] = tail[:, 1:]
    factor[:, t - 2, 0] = x2
    return factor


def _band_lapack():
    solvers = net._lapack_band_solvers()
    return _ScipyLapack() if solvers is None else _NumpyLapack(*solvers)


def _address(a: np.ndarray, size: int) -> int:
    """a's buffer, where LAPACK reads and writes size float64s."""
    if not (a.dtype == np.float64 and a.flags.c_contiguous and a.size == size):
        raise ValueError("LAPACK takes float64 arrays in C order, of the sizes it is given")
    return a.ctypes.data


def _ref(value: int):
    return ctypes.byref(ctypes.c_int64(value))


class _NumpyLapack:
    """pbtrf, pbtrs and ptsv of the LAPACK numpy links (net._lapack_band_solvers).
    A band is passed as the memory of its Fortran-ordered storage, a
    C-ordered (..., columns, rows) array, and b as a vector. pbtrf factors
    in place, pbtrs and ptsv leave the solution in b; pbtrf and ptsv return
    LAPACK's info."""

    def __init__(self, pbtrf, pbtrs, ptsv):
        self._pbtrf, self._pbtrs, self._ptsv = pbtrf, pbtrs, ptsv

    def pbtrf(self, band: np.ndarray) -> int:
        rows, info = band.shape[-1], ctypes.c_int64()
        self._pbtrf(b"U", _ref(band.size // rows), _ref(rows - 1), _address(band, band.size),
                    _ref(rows), ctypes.byref(info), 1)
        return info.value

    def pbtrs(self, band: np.ndarray, b: np.ndarray) -> None:
        rows, size = band.shape[-1], _ref(b.size)
        self._pbtrs(b"U", size, _ref(rows - 1), _ref(1), _address(band, b.size * rows),
                    _ref(rows), _address(b, b.size), size, _ref(0), 1)

    def ptsv(self, band: np.ndarray, b: np.ndarray) -> int:
        # ptsv takes the diagonal and the superdiagonal as vectors of their own.
        d, e, n = band[..., 1].ravel(), band[..., 0].ravel()[1:], b.size
        size, info = _ref(n), ctypes.c_int64()
        self._ptsv(size, _ref(1), _address(d, n), _address(e, n - 1), _address(b, n), size,
                   ctypes.byref(info))
        return info.value


class _ScipyLapack:
    """The same three by scipy's LAPACK, for a numpy that links no
    64-bit-integer LAPACK. Imported here: scipy.linalg costs about 0.25 s
    to import and loads a BLAS of its own."""

    def __init__(self):
        from scipy.linalg import get_lapack_funcs

        names = ("pbtrf", "pbtrs", "ptsv")
        self._pbtrf, self._pbtrs, self._ptsv = get_lapack_funcs(names, dtype=np.float64)

    def pbtrf(self, band: np.ndarray) -> int:
        c, info = self._pbtrf(band.reshape(-1, band.shape[-1]).T, lower=0, overwrite_ab=1)
        band[:] = c.T.reshape(band.shape)
        return info

    def pbtrs(self, band: np.ndarray, b: np.ndarray) -> None:
        b[:] = self._pbtrs(band.reshape(-1, band.shape[-1]).T, b, lower=0, overwrite_b=1)[0]

    def ptsv(self, band: np.ndarray, b: np.ndarray) -> int:
        b[:], info = self._ptsv(band[..., 1].ravel(), band[..., 0].ravel()[1:], b, 1, 1, 1)[2:]
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
