"""Frame-feature data model and the operations of the conversion pipeline.

A feature sequence is a T x D matrix of real-valued frames tagged with a
kind. The mel-cepstrum arrives as 49 coefficients per frame; conversion
works on the lower 25 (spectral envelope) augmented with first and second
derivatives to 75 dims, while the higher 24 (fine structure) are carried
through untouched. F0 tracks use 0 for unvoiced frames.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    FormatError,
    InsufficientDataError,
    NonFiniteError,
    located,
)

#: Floor applied to every fitted standard deviation so that degenerate
#: (constant) data cannot blow up a later division.
STD_FLOOR = 1e-8

MCEP_DIM = 49
LOW_DIM = 25
HIGH_DIM = 24
AUGMENTED_DIM = 75


class FeatureKind(enum.Enum):
    """Tag describing what a feature sequence holds.

    The integer values are the on-disk kind codes of the FTR1 format and
    must never be renumbered.
    """

    GENERIC = 0
    MCEP49 = 1
    MCEP_LOW25 = 2
    MCEP_HIGH24 = 3
    AUGMENTED75 = 4
    F0 = 5
    APERIODICITY = 6

    @property
    def fixed_dim(self) -> int | None:
        """Feature width this kind requires, or None if any width is fine."""
        return _FIXED_DIMS.get(self)


_FIXED_DIMS = {
    FeatureKind.MCEP49: MCEP_DIM,
    FeatureKind.MCEP_LOW25: LOW_DIM,
    FeatureKind.MCEP_HIGH24: HIGH_DIM,
    FeatureKind.AUGMENTED75: AUGMENTED_DIM,
    FeatureKind.F0: 1,
}


@dataclass(frozen=True)
class FeatureSequence:
    """T x D matrix of frames plus a kind tag.

    data is stored as float64, one row per frame. All entries must be
    finite and the width must match the kind where the kind fixes one.
    """

    data: np.ndarray
    kind: FeatureKind = FeatureKind.GENERIC

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise DimensionMismatchError(
                f"feature data must be 2-D (frames x dims), got shape {arr.shape}"
            )
        if arr.shape[1] < 1:
            raise DimensionMismatchError("feature dimension must be >= 1")
        fixed = self.kind.fixed_dim
        if fixed is not None and arr.shape[1] != fixed:
            raise DimensionMismatchError(
                f"kind {self.kind.name} requires width {fixed}, got {arr.shape[1]}"
            )
        if not np.isfinite(arr).all():
            raise NonFiniteError("feature data contains non-finite entries")
        object.__setattr__(self, "data", arr)

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class NormStats:
    """Per-dimension mean and (floored) standard deviation for z-scoring."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        std = np.asarray(self.std, dtype=np.float64).reshape(-1)
        if mean.shape != std.shape:
            raise DimensionMismatchError("mean and std must have equal length")
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise ValueError("stats must be finite")
        if (std <= 0).any():
            raise ValueError("std must be strictly positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class LogF0Stats:
    """Mean/std of natural-log F0 over the voiced frames of one speaker."""

    mean: float
    std: float
    voiced_count: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mean) and np.isfinite(self.std)):
            raise ValueError("log-F0 stats must be finite")
        if self.std <= 0:
            raise ValueError("log-F0 std must be strictly positive")
        if self.voiced_count < 1:
            raise ValueError("voiced_count must be >= 1")


#: Static, delta and delta-delta kernels in the HTS convention, each a
#: tuple of (frame offset, coefficient) pairs applied with edge frames
#: replicated. The first kernel is the identity, so the first LOW_DIM
#: augmented columns are the statics. Neither the stats file nor the
#: model bundle records the windows, so this is the only set.
DELTA_WINDOWS = (
    ((0, 1.0),),
    ((-1, -0.5), (1, 0.5)),
    ((-1, 1.0), (0, -2.0), (1, 1.0)),
)

#: Largest frame offset of any delta kernel: the edge padding of
#: compute_deltas and the half-width of every MLPG band.
_MAX_OFFSET = max(abs(off) for win in DELTA_WINDOWS for off, _ in win)


def split_mcep(seq: FeatureSequence) -> tuple[FeatureSequence, FeatureSequence]:
    """Split a 49-dim mel-cepstrum into lower 25 and higher 24 columns."""
    if seq.kind is not FeatureKind.MCEP49:
        raise DimensionMismatchError(f"split_mcep expects MCEP49, got {seq.kind.name}")
    lower = FeatureSequence(seq.data[:, :LOW_DIM].copy(), FeatureKind.MCEP_LOW25)
    higher = FeatureSequence(seq.data[:, LOW_DIM:].copy(), FeatureKind.MCEP_HIGH24)
    return lower, higher


def merge_mcep(lower: FeatureSequence, higher: FeatureSequence) -> FeatureSequence:
    """Concatenate lower/higher mel-cepstrum halves back into 49 columns.

    The higher-order columns are copied verbatim, never recomputed.
    """
    if lower.kind is not FeatureKind.MCEP_LOW25 or higher.kind is not FeatureKind.MCEP_HIGH24:
        raise DimensionMismatchError(
            f"merge_mcep expects (MCEP_LOW25, MCEP_HIGH24), got "
            f"({lower.kind.name}, {higher.kind.name})"
        )
    if lower.frames != higher.frames:
        raise DimensionMismatchError(
            f"frame counts differ: {lower.frames} vs {higher.frames}"
        )
    merged = np.concatenate([lower.data, higher.data], axis=1)
    return FeatureSequence(merged, FeatureKind.MCEP49)


def compute_deltas(seq: FeatureSequence) -> FeatureSequence:
    """Augment static features with derivative streams.

    Output columns are ordered [static | delta | delta-delta], one block
    per kernel of DELTA_WINDOWS. Boundary frames replicate the edge frame,
    so the frame count never changes.
    """
    if seq.frames < 1:
        raise InsufficientDataError("compute_deltas needs at least one frame")
    data = seq.data
    t, d = data.shape
    k = _MAX_OFFSET
    # The edge frames repeated k times on each side: frame i + offset,
    # clamped to the sequence, is row k + i + offset here.
    padded = np.concatenate((data[:1].repeat(k, axis=0), data, data[-1:].repeat(k, axis=0)))
    out = np.zeros((t, len(DELTA_WINDOWS) * d))
    for w, win in enumerate(DELTA_WINDOWS):
        block = out[:, w * d : (w + 1) * d]
        for offset, coef in win:
            block += coef * padded[k + offset : k + offset + t]
    kind = (
        FeatureKind.AUGMENTED75
        if seq.kind is FeatureKind.MCEP_LOW25
        else FeatureKind.GENERIC
    )
    return FeatureSequence(out, kind)


def fit_norm_stats(seq: FeatureSequence) -> NormStats:
    """Per-dimension mean and population std, std floored at STD_FLOOR."""
    if seq.frames < 2:
        raise InsufficientDataError(
            f"need at least 2 frames to fit normalization stats, got {seq.frames}"
        )
    mean = seq.data.mean(axis=0)
    std = np.maximum(seq.data.std(axis=0), STD_FLOOR)
    return NormStats(mean, std)


def normalize(seq: FeatureSequence, stats: NormStats) -> FeatureSequence:
    if seq.dim != stats.dim:
        raise DimensionMismatchError(
            f"sequence width {seq.dim} does not match stats width {stats.dim}"
        )
    return FeatureSequence((seq.data - stats.mean) / stats.std, seq.kind)


def denormalize(seq: FeatureSequence, stats: NormStats) -> FeatureSequence:
    if seq.dim != stats.dim:
        raise DimensionMismatchError(
            f"sequence width {seq.dim} does not match stats width {stats.dim}"
        )
    return FeatureSequence(seq.data * stats.std + stats.mean, seq.kind)


def fit_logf0_stats(f0: FeatureSequence) -> LogF0Stats:
    """Fit natural-log F0 mean/std over voiced frames (F0 > 0) only."""
    if f0.kind is not FeatureKind.F0:
        raise DimensionMismatchError("fit_logf0_stats expects a 1-dim F0 track")
    voiced = f0.data[f0.data[:, 0] > 0.0, 0]
    if voiced.shape[0] < 2:
        raise InsufficientDataError(
            f"need at least 2 voiced frames to fit log-F0 stats, got {voiced.shape[0]}"
        )
    logs = np.log(voiced)
    return LogF0Stats(
        mean=float(logs.mean()),
        std=float(max(logs.std(), STD_FLOOR)),
        voiced_count=int(voiced.shape[0]),
    )


def transform_f0(
    f0: FeatureSequence, src: LogF0Stats, tgt: LogF0Stats
) -> FeatureSequence:
    """Map voiced log-F0 linearly so source stats become target stats.

    Unvoiced frames (F0 = 0) pass through unchanged, preserving the
    voiced/unvoiced mask exactly: a voiced frame whose F0 maps to 0 or to
    infinity raises NonFiniteError.
    """
    if f0.kind is not FeatureKind.F0:
        raise DimensionMismatchError("transform_f0 expects a 1-dim F0 track")
    out = f0.data.copy()
    voiced = out[:, 0] > 0.0
    logs = np.log(out[voiced, 0])
    with np.errstate(over="ignore"):
        mapped = np.exp((logs - src.mean) / src.std * tgt.std + tgt.mean)
    if not ((mapped > 0.0) & (mapped < np.inf)).all():
        raise NonFiniteError("a voiced frame's F0 maps to 0 or infinity")
    out[voiced, 0] = mapped
    return FeatureSequence(out, FeatureKind.F0)


# ---------------------------------------------------------------------------
# On-disk formats
# ---------------------------------------------------------------------------

_FTR_MAGIC = b"FTR1"
_FTR_HEADER = struct.Struct("<4sIII")  # magic, frames, dim, kind code


def ftr_frames(path, seq: FeatureSequence) -> np.ndarray:
    """seq's frames as FTR1 stores them, row-major little-endian float32.
    A value beyond float32's range, which read_ftr would read back as
    infinite, or a nonzero one below it, which it would read back as 0,
    raises NonFiniteError naming path."""
    with np.errstate(over="ignore"):
        frames = np.ascontiguousarray(seq.data, dtype="<f4")
    if not np.isfinite(frames).all():
        raise NonFiniteError(f"{path}: feature data exceeds the float32 range of FTR1")
    # all() is cheap where nothing is 0, as in every stream but F0.
    if not frames.all() and np.count_nonzero(frames) != np.count_nonzero(seq.data):
        raise NonFiniteError(f"{path}: feature data holds a nonzero value FTR1 stores as 0")
    return frames


def write_ftr(path, seq: FeatureSequence) -> None:
    """Write the FTR1 binary format: header plus row-major float32 frames.
    Checks the frames (ftr_frames) before it opens path."""
    header = _FTR_HEADER.pack(_FTR_MAGIC, seq.frames, seq.dim, seq.kind.value)
    body = ftr_frames(path, seq).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def read_ftr(path) -> FeatureSequence:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _FTR_HEADER.size:
        raise FormatError(f"{path}: truncated FTR1 header")
    magic, frames, dim, code = _FTR_HEADER.unpack_from(raw)
    if magic != _FTR_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {_FTR_MAGIC!r}")
    try:
        kind = FeatureKind(code)
    except ValueError as exc:
        raise FormatError(f"{path}: unknown kind code {code}") from exc
    expected = _FTR_HEADER.size + 4 * frames * dim
    if len(raw) != expected:
        raise FormatError(
            f"{path}: expected {expected} bytes for {frames}x{dim} frames, got {len(raw)}"
        )
    body = np.frombuffer(raw, dtype="<f4", offset=_FTR_HEADER.size)
    with np.errstate(invalid="ignore"):  # a signaling NaN: FeatureSequence names it
        data = body.astype(np.float64).reshape(frames, dim)
    with located(path, ValueError):  # the content error's own type, naming the file
        return FeatureSequence(data, kind)
