"""Output checks, computed with the benchmark's own code.

Nothing here calls cyclevc: the file formats are parsed directly, and the
conversion reference is a dense numpy forward pass followed by a dense
normal-equation MLPG solve, so a fault in the program cannot hide behind
the same fault in its checker. Each function returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

LOW_DIM = 25
MCEP_DIM = 49
KIND_MCEP49, KIND_F0, KIND_AP = 1, 5, 6
WINDOWS = (
    ((0, 1.0),),
    ((-1, -0.5), (1, 0.5)),
    ((-1, 1.0), (0, -2.0), (1, 1.0)),
)
MCD_CONST = 10.0 / math.log(10.0)
#: Agreement demanded of float64 results with the dense reference.
REFERENCE_TOL = 1e-8
_FTR_HEADER = struct.Struct("<4sIII")


def read_ftr(path) -> tuple[int, np.ndarray]:
    """(kind code, frames x dim float32 array) of an FTR1 file."""
    raw = Path(path).read_bytes()
    if len(raw) < _FTR_HEADER.size:
        raise ValueError(f"{path}: truncated header")
    magic, frames, dim, kind = _FTR_HEADER.unpack_from(raw)
    if magic != b"FTR1" or len(raw) != _FTR_HEADER.size + 4 * frames * dim:
        raise ValueError(f"{path}: not a well-formed FTR1 file")
    return kind, np.frombuffer(raw, dtype="<f4", offset=_FTR_HEADER.size).reshape(frames, dim)


def read_mlp(path) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weight, bias) per layer of an MLP1 text model."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "MLP1":
        raise ValueError(f"{path}: not an MLP1 model")
    layers = []
    pos = 4
    while pos < len(lines) and lines[pos].startswith("weight "):
        _, _, rows, _ = lines[pos].split()
        rows = int(rows)
        w = np.array([[float(v) for v in line.split()] for line in lines[pos + 1 : pos + 1 + rows]])
        b = np.array([float(v) for v in lines[pos + 2 + rows].split()])
        layers.append((w, b))
        pos += rows + 3
    return layers


def read_stats(path) -> dict[str, np.ndarray | float]:
    """Fields of a VCSTATS1 speaker-statistics file."""
    fields = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines()[1:]:
        key, _, value = line.partition(" ")
        fields[key] = value
    return {
        "mean": np.array([float(v) for v in fields["norm_mean"].split()]),
        "std": np.array([float(v) for v in fields["norm_std"].split()]),
        "logf0_mean": float(fields["logf0_mean"]),
        "logf0_std": float(fields["logf0_std"]),
    }


def window_matrices(frames: int) -> list[np.ndarray]:
    """Dense T x T matrix per delta window, edge frames replicated."""
    mats = []
    idx = np.arange(frames)
    for win in WINDOWS:
        mat = np.zeros((frames, frames))
        for offset, coef in win:
            np.add.at(mat, (idx, np.clip(idx + offset, 0, frames - 1)), coef)
        mats.append(mat)
    return mats


def dense_forward(layers, x: np.ndarray) -> np.ndarray:
    """Sigmoid hidden layers, linear output."""
    for k, (w, b) in enumerate(layers):
        x = x @ w.T + b
        if k < len(layers) - 1:
            with np.errstate(over="ignore"):
                x = 1.0 / (1.0 + np.exp(-x))
    return x


def dense_mlpg(means: np.ndarray, variances: np.ndarray, mats) -> np.ndarray:
    """Solve (sum_w W_w' W_w / v_w) c = sum_w W_w' mu_w / v_w per static dim."""
    grams = [m.T @ m for m in mats]
    out = np.empty((means.shape[0], LOW_DIM))
    for d in range(LOW_DIM):
        cols = [w * LOW_DIM + d for w in range(len(mats))]
        lhs = sum(g / variances[c] for g, c in zip(grams, cols))
        rhs = sum(m.T @ means[:, c] / variances[c] for m, c in zip(mats, cols))
        out[:, d] = np.linalg.solve(lhs, rhs)
    return out


def reference_lower(mcep: np.ndarray, layers, src: dict, tgt: dict) -> np.ndarray:
    """Converted lower 25 mel-cepstra of one utterance, MLPG on, no post-filter."""
    mats = window_matrices(mcep.shape[0])
    lower = np.asarray(mcep[:, :LOW_DIM], dtype=np.float64)
    augmented = np.concatenate([m @ lower for m in mats], axis=1)
    mapped = dense_forward(layers, (augmented - src["mean"]) / src["std"])
    return dense_mlpg(mapped * tgt["std"] + tgt["mean"], tgt["std"] ** 2, mats)


def conversion_problems(
    mcep_in: np.ndarray,
    f0_in: np.ndarray,
    ap_in: np.ndarray,
    mcep_out: np.ndarray,
    f0_out: np.ndarray,
    ap_out: np.ndarray,
    reference: np.ndarray | None = None,
) -> list[str]:
    """Stream integrity of one conversion, plus agreement with a reference.

    Arrays of the same dtype are compared bit for bit. With float32 (FTR
    file) outputs the reference tolerance also allows the float32 rounding
    of the stored value.
    """
    frames = mcep_in.shape[0]
    if mcep_out.shape != (frames, MCEP_DIM):
        return [f"converted mcep has shape {mcep_out.shape}, expected ({frames}, {MCEP_DIM})"]
    if f0_out.shape != f0_in.shape or ap_out.shape != ap_in.shape:
        return [f"f0/ap shapes {f0_out.shape}/{ap_out.shape} differ from the input's"]
    problems = []
    if mcep_out[:, LOW_DIM:].tobytes() != np.ascontiguousarray(mcep_in[:, LOW_DIM:]).tobytes():
        problems.append("upper 24 mel-cepstrum columns changed")
    if ap_out.tobytes() != ap_in.tobytes():
        problems.append("aperiodicity stream changed")
    if not np.array_equal(f0_out[:, 0] > 0.0, f0_in[:, 0] > 0.0):
        problems.append("F0 voiced mask changed")
    if reference is not None:
        lower = mcep_out[:, :LOW_DIM].astype(np.float64)
        allowed = REFERENCE_TOL * np.maximum(1.0, np.abs(reference))
        if mcep_out.dtype == np.float32:
            allowed = allowed + np.abs(reference) * 2.0**-24
        err = np.abs(lower - reference)
        if not (err <= allowed).all():
            problems.append(
                f"lower 25 columns differ from the dense reference by up to {err.max():.3e}"
            )
    return problems


def loss_csv_problems(path, columns: list[str], epochs: int) -> tuple[list[str], list[dict]]:
    """A losses.csv must hold one finite row per epoch, numbered from 1."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"losses.csv unreadable: {exc}"], []
    if not lines or lines[0].split(",") != ["epoch", *columns]:
        return [f"losses.csv header is {lines[:1]!r}"], []
    rows = []
    for k, line in enumerate(lines[1:], 1):
        values = line.split(",")
        if len(values) != len(columns) + 1 or values[0] != str(k):
            return [f"losses.csv row {k} is malformed: {line!r}"], []
        row = dict(zip(columns, (float(v) for v in values[1:])))
        if not all(math.isfinite(v) for v in row.values()):
            return [f"losses.csv row {k} is not finite: {line!r}"], []
        rows.append(row)
    if len(rows) != epochs:
        return [f"losses.csv has {len(rows)} rows for {epochs} epochs"], rows
    return [], rows


def alignment_problems(
    a: np.ndarray, b: np.ndarray, pairs: np.ndarray, cost: float, mcd: float
) -> list[str]:
    """The path must be a valid warp of (a, b); its cost and the MCD along
    it must match a recomputation."""
    ta, tb = a.shape[0], b.shape[0]
    if pairs.ndim != 2 or pairs.shape[0] < 1 or pairs.shape[1] != 2:
        return [f"alignment path has shape {pairs.shape}"]
    if tuple(pairs[0]) != (0, 0) or tuple(pairs[-1]) != (ta - 1, tb - 1):
        return [f"path runs {tuple(pairs[0])}..{tuple(pairs[-1])}, not (0, 0)..({ta - 1}, {tb - 1})"]
    steps = np.diff(pairs, axis=0)
    legal = ((steps == (1, 0)).all(1) | (steps == (0, 1)).all(1) | (steps == (1, 1)).all(1))
    if not legal.all():
        return [f"illegal step at path index {int(np.argmin(legal))}"]
    diff = a[pairs[:, 0]] - b[pairs[:, 1]]
    problems = []
    want_cost = float(np.sum(diff**2))
    if not math.isclose(cost, want_cost, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"path cost {cost!r} != sum of distances {want_cost!r}")
    want_mcd = float(np.mean(MCD_CONST * np.sqrt(2.0 * np.sum(diff[:, 1:] ** 2, axis=1))))
    if not math.isclose(mcd, want_mcd, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"MCD {mcd!r} != recomputation along the path {want_mcd!r}")
    return problems
