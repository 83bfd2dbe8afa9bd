"""End-to-end plumbing around the trainers: speaker statistics, the
utterance conversion chain, parallel-data preparation, synthetic
two-speaker corpora, objective evaluation, and the on-disk layout for
models and loss histories.

Conversion follows the fixed stage order: split the 49-dim mel-cepstrum,
augment the lower 25 with deltas, z-score with the source speaker's stats,
map through the generator, de-z-score with the target speaker's stats,
reduce to statics (MLPG or plain slice), post-filter, merge with the
untouched higher-order columns, transform F0, copy aperiodicity, and
measure the distortion from the source statics (shift_db).
"""

from __future__ import annotations

import json
import reprlib
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Sequence, Sized

import numpy as np

from .align import dtw_align, paired_frames
from .baselines import ParallelTrainSet
from .errors import (
    DimensionMismatchError,
    FormatError,
    InsufficientDataError,
    NonFiniteError,
    check_integer,
    finite_real,
    located,
    utf8_text,
)
from .features import (
    AUGMENTED_DIM,
    FeatureKind,
    FeatureSequence,
    LOW_DIM,
    LogF0Stats,
    NormStats,
    compute_deltas,
    denormalize,
    fit_logf0_stats,
    fit_norm_stats,
    merge_mcep,
    normalize,
    split_mcep,
    transform_f0,
)
from .mlpg import GaussianTrajectory, check_beta, mlpg_generate, postfilter
from .net import Mlp, keep_heap_top, load_mlp, save_mlp
from .seeding import derive_rng

_MCD_CONST = 10.0 / np.log(10.0)
_CEPSTRAL_KINDS = (FeatureKind.MCEP49, FeatureKind.MCEP_LOW25, FeatureKind.GENERIC)


# ---------------------------------------------------------------------------
# Speaker statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpeakerStats:
    """Normalization stats for the 75-dim augmented features plus log-F0."""

    norm: NormStats
    logf0: LogF0Stats

    def __post_init__(self) -> None:
        if self.norm.dim != AUGMENTED_DIM:
            raise DimensionMismatchError(
                f"normalization stats have {self.norm.dim} dims, expected {AUGMENTED_DIM}"
            )


def augment_lower(mcep: FeatureSequence) -> FeatureSequence:
    """49-dim mel-cepstrum -> 75-dim lower-order static+delta features."""
    lower, _ = split_mcep(mcep)
    return compute_deltas(lower)


def compute_speaker_stats(
    mcep_seqs: Iterable[FeatureSequence],
    f0_seqs: Iterable[FeatureSequence],
) -> SpeakerStats:
    """Pool all of one speaker's utterances and fit their statistics."""
    augmented = [augment_lower(seq).data for seq in mcep_seqs]
    if not augmented:
        raise InsufficientDataError("no mel-cepstrum files given")
    pooled = FeatureSequence(np.concatenate(augmented, axis=0))
    f0_data = [seq.data for seq in f0_seqs]
    if not f0_data:
        raise InsufficientDataError("no F0 files given")
    pooled_f0 = FeatureSequence(np.concatenate(f0_data, axis=0), FeatureKind.F0)
    return SpeakerStats(norm=fit_norm_stats(pooled), logf0=fit_logf0_stats(pooled_f0))


_STATS_MAGIC = "VCSTATS1"
_STATS_KEYS = ("norm_mean", "norm_std", "logf0_mean", "logf0_std", "logf0_voiced_count")


def save_speaker_stats(path, stats: SpeakerStats) -> None:
    lines = [
        _STATS_MAGIC,
        "norm_mean " + " ".join(repr(float(v)) for v in stats.norm.mean),
        "norm_std " + " ".join(repr(float(v)) for v in stats.norm.std),
        f"logf0_mean {stats.logf0.mean!r}",
        f"logf0_std {stats.logf0.std!r}",
        f"logf0_voiced_count {stats.logf0.voiced_count}",
    ]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_speaker_stats(path) -> SpeakerStats:
    lines = utf8_text(path, Path(path).read_bytes()).splitlines()
    if not lines or lines[0] != _STATS_MAGIC:
        raise FormatError(f"{path}: not a {_STATS_MAGIC} file")
    fields = {}
    for line_no, line in enumerate(lines[1:], 2):
        if line.strip():
            key, _, value = line.partition(" ")
            if key not in _STATS_KEYS:
                raise FormatError(f"{path}: line {line_no} has unknown key {key!r}: {line!r}")
            if key in fields:
                raise FormatError(f"{path}: line {line_no} repeats {key}: {line!r}")
            fields[key] = value
    try:
        return SpeakerStats(
            norm=NormStats(
                mean=np.array([float(v) for v in fields["norm_mean"].split()]),
                std=np.array([float(v) for v in fields["norm_std"].split()]),
            ),
            logf0=LogF0Stats(
                mean=float(fields["logf0_mean"]),
                std=float(fields["logf0_std"]),
                voiced_count=int(fields["logf0_voiced_count"]),
            ),
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"{path}: malformed stats file: {exc}") from exc


# ---------------------------------------------------------------------------
# Parallel data preparation
# ---------------------------------------------------------------------------

def check_parallel_lists(src: Sized, tgt: Sized) -> None:
    """Raise DimensionMismatchError unless the source and target lists,
    of utterances or of their files, pair one to one."""
    if len(src) != len(tgt):
        raise DimensionMismatchError(
            f"parallel lists differ: {len(src)} source vs {len(tgt)} target utterances"
        )


def prepare_parallel_frames(
    src_mceps: Sequence[FeatureSequence],
    tgt_mceps: Sequence[FeatureSequence],
    src_stats: SpeakerStats,
    tgt_stats: SpeakerStats,
) -> ParallelTrainSet:
    """DTW-align utterance pairs and pool the warped, normalized frames.

    Deltas are computed on each utterance's natural timing first; the
    alignment itself runs on the 25-dim statics and the resulting path
    then pairs the full augmented frames.
    """
    check_parallel_lists(src_mceps, tgt_mceps)
    if not src_mceps:
        raise InsufficientDataError("no parallel utterances given")
    xs, ys = [], []
    for src, tgt in zip(src_mceps, tgt_mceps):
        src_aug = normalize(augment_lower(src), src_stats.norm)
        tgt_aug = normalize(augment_lower(tgt), tgt_stats.norm)
        src_statics = FeatureSequence(src_aug.data[:, :LOW_DIM])
        tgt_statics = FeatureSequence(tgt_aug.data[:, :LOW_DIM])
        path = dtw_align(src_statics, tgt_statics)
        warped_src, warped_tgt = paired_frames(src_aug, tgt_aug, path)
        xs.append(warped_src.data)
        ys.append(warped_tgt.data)
    return ParallelTrainSet(
        x=FeatureSequence(np.concatenate(xs, axis=0), FeatureKind.AUGMENTED75),
        y=FeatureSequence(np.concatenate(ys, axis=0), FeatureKind.AUGMENTED75),
    )


# ---------------------------------------------------------------------------
# Conversion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConversionResult:
    mcep: FeatureSequence
    f0: FeatureSequence
    aperiodicity: FeatureSequence
    shift_db: float  # MCD from the source's lower statics to the converted ones
    frames: int
    seconds: float


#: Most rows per generator call in convert_utterance. Blocks of at least half
#: as many give the same bytes as one call over the utterance; below about 100
#: rows OpenBLAS switches to a small-matrix kernel that rounds differently.
GENERATOR_BLOCK = 512


def _map_blocks(generator: Callable[[np.ndarray], np.ndarray], frames: np.ndarray) -> np.ndarray:
    """generator's outputs on n = ceil(T / GENERATOR_BLOCK) balanced row
    blocks of the T frames (bounds T * k // n), called in order and
    concatenated. An output not of its block's shape raises
    DimensionMismatchError."""
    n = -(-len(frames) // GENERATOR_BLOCK)
    bounds = [len(frames) * k // n for k in range(n + 1)]
    outputs = []
    for lo, hi in zip(bounds, bounds[1:]):
        block = frames[lo:hi]
        outputs.append(generator(block))
        if outputs[-1].shape != block.shape:
            raise DimensionMismatchError(
                f"generator returned shape {outputs[-1].shape}, expected {block.shape}"
            )
    return np.concatenate(outputs)


def check_frames(name: str, stream: FeatureSequence, mcep: FeatureSequence) -> None:
    """Raise DimensionMismatchError unless stream, called name, has mcep's frame count."""
    if stream.frames != mcep.frames:
        raise DimensionMismatchError(f"{name} has {stream.frames} frames, mcep {mcep.frames}")


def convert_utterance(
    generator: Callable[[np.ndarray], np.ndarray],
    src_stats: SpeakerStats,
    tgt_stats: SpeakerStats,
    mcep: FeatureSequence,
    f0: FeatureSequence,
    aperiodicity: FeatureSequence,
    use_mlpg: bool = True,
    postfilter_beta: float = 0.0,
    trace: Callable[[str], None] | None = None,
) -> ConversionResult:
    """Run one utterance through the conversion chain.

    generator maps a B x 75 normalized batch to a B x 75 normalized batch,
    each frame on its own. It is called on ceil(T / GENERATOR_BLOCK)
    balanced, in-order row blocks of the T-frame utterance, none over
    GENERATOR_BLOCK rows, so a network's forward cache holds one block's
    activations at a time, not the whole utterance's.
    Every stage's output is checked, so the chain runs with numpy's overflow and
    invalid warnings off; a stage's ValueError gets "stage <label>: " in front.
    Higher-order mel-cepstrum columns and the aperiodicity stream are
    copied through bit-exactly. F0 and aperiodicity must match mcep's frames,
    and postfilter must accept postfilter_beta, before the first stage.
    Also sets the heap pad (net.keep_heap_top), so each utterance reuses the
    heap the one before it freed.
    """
    for name, stream in (("F0", f0), ("aperiodicity", aperiodicity)):
        check_frames(name, stream, mcep)
    check_beta(postfilter_beta)
    keep_heap_top()
    started = time.monotonic()

    def stage(label: str) -> located:
        if trace is not None:
            trace(label)
        return located(f"stage {label}", ValueError)

    with np.errstate(over="ignore", invalid="ignore"):
        with stage("split-mcep"):
            lower, higher = split_mcep(mcep)
        with stage("compute-deltas"):
            aug = compute_deltas(lower)
        with stage("normalize-source"):
            z = normalize(aug, src_stats.norm)
        del aug  # no later stage reads it, nor z after the generator
        with stage("generator"):
            mapped = _map_blocks(generator, z.data)
            if not np.isfinite(mapped).all():
                raise NonFiniteError("non-finite output")
        del z
        with stage("denormalize-target"):
            out = denormalize(FeatureSequence(mapped, FeatureKind.AUGMENTED75), tgt_stats.norm)
        if use_mlpg:
            with stage("mlpg"):
                traj = GaussianTrajectory(means=out.data, variances=tgt_stats.norm.std**2)
                statics = mlpg_generate(traj)
        else:
            with stage("slice-statics"):
                statics = FeatureSequence(out.data[:, :LOW_DIM], FeatureKind.MCEP_LOW25)
        with stage("postfilter"):
            statics = postfilter(statics, postfilter_beta)
        with stage("merge-mcep"):
            merged = merge_mcep(statics, higher)
        with stage("transform-f0"):
            out_f0 = transform_f0(f0, src_stats.logf0, tgt_stats.logf0)
        with stage("copy-aperiodicity"):
            out_ap = FeatureSequence(aperiodicity.data, aperiodicity.kind)
        with stage("shift-db"):
            shift = mel_cepstral_distortion(lower, statics)

    return ConversionResult(
        mcep=merged,
        f0=out_f0,
        aperiodicity=out_ap,
        shift_db=shift,
        frames=mcep.frames,
        seconds=time.monotonic() - started,
    )


def to_lower(seq: FeatureSequence) -> FeatureSequence:
    """The lower 25 coefficients of a 49-dim mel-cepstrum; any other
    sequence unchanged."""
    if seq.kind is FeatureKind.MCEP49:
        return split_mcep(seq)[0]
    return seq


def require_mel_cepstra(seq: FeatureSequence, name: str) -> FeatureSequence:
    """seq, if it can hold mel-cepstra: c0 and more, of a kind in _CEPSTRAL_KINDS."""
    if seq.dim < 2 or seq.kind not in _CEPSTRAL_KINDS:
        raise DimensionMismatchError(f"{name}: {seq.dim}-column {seq.kind.name}, not mel-cepstra")
    return seq


def mel_cepstral_distortion(
    reference: FeatureSequence, converted: FeatureSequence
) -> float:
    """Frame-averaged mel-cepstral distortion in dB, coefficient 0 excluded.

    49-dim inputs are reduced to their lower 25 first. If the frame counts
    differ, the sequences are DTW-aligned and the distortion is averaged
    over the path. Frames so large that their distances overflow float64
    raise NonFiniteError. require_mel_cepstra checks both inputs first.
    """
    ref = to_lower(require_mel_cepstra(reference, "reference"))
    conv = to_lower(require_mel_cepstra(converted, "converted"))
    if ref.dim != conv.dim:
        raise DimensionMismatchError(f"dims differ: {ref.dim} vs {conv.dim}")
    if ref.frames < 1 or conv.frames < 1:
        raise InsufficientDataError("cannot evaluate empty sequences")
    if ref.frames != conv.frames:
        path = dtw_align(ref, conv)
        ref, conv = paired_frames(ref, conv, path)
    with np.errstate(over="ignore"):
        diff = ref.data[:, 1:] - conv.data[:, 1:]
        per_frame = _MCD_CONST * np.sqrt(2.0 * np.sum(diff**2, axis=1))
        mcd = float(per_frame.mean())
    if not np.isfinite(mcd):
        raise NonFiniteError(
            "mel-cepstral distortion is not finite: the squared frame "
            "differences overflowed float64"
        )
    return mcd


# ---------------------------------------------------------------------------
# Synthetic two-speaker corpora
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MixtureSpec:
    """Gaussian mixture over the 25-dim static space."""

    weights: np.ndarray
    means: np.ndarray   # K x 25
    stds: np.ndarray    # K x 25

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, _real_array(f.name, getattr(self, f.name)))
        object.__setattr__(self, "weights", self.weights.reshape(-1))
        weights, means, stds = self.weights, self.means, self.stds
        if means.shape != (len(weights), LOW_DIM) or stds.shape != means.shape:
            raise DimensionMismatchError(
                f"means/stds must be {len(weights)} x {LOW_DIM}, got {means.shape}/{stds.shape}"
            )
        # An empty mixture sums to 0. The bound is the one Generator.choice applies.
        bound = np.sqrt(np.finfo(np.float64).eps)
        if not ((weights >= 0).all() and abs(weights.sum() - 1.0) <= bound):
            raise ValueError("weights must be nonnegative and sum to 1")
        if not (stds > 0).all():
            raise ValueError("stds must be positive")

    @property
    def overall_mean(self) -> np.ndarray:
        return self.weights @ self.means


def _real_array(name: str, value) -> np.ndarray:
    """value, nested lists or a numpy array of a real dtype (whose object
    entries are Python numbers), as a float64 array; ValueError naming
    name unless each entry is finite_real."""
    items = np.array(value, dtype=object)
    for item in items.flat:
        if not finite_real(item):
            raise ValueError(f"{name} must hold finite numbers, got {reprlib.repr(item)}")
    return items.astype(np.float64)


def is_plain_file_name(name: str) -> bool:
    """Not empty, . or .., and without /, \\ or NUL: a file right in its directory."""
    return name not in ("", ".", "..") and not any(c in name for c in "/\\\0")


def _check_numbers(spec, *positive: str) -> None:
    """Raise ValueError unless each int field of spec passes check_integer, at
    least 1 if named in positive, and each float field is a finite_real number."""
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.type == "int":
            check_integer(f.name, value, 1 if f.name in positive else None)
        if f.type == "float" and not finite_real(value):
            raise ValueError(f"{f.name} must be a finite number, got {reprlib.repr(value)}")


@dataclass(frozen=True)
class SpeakerSpec:
    name: str
    frames: int
    mixture: MixtureSpec
    logf0_mean: float
    logf0_std: float
    voiced_fraction: float = 0.85
    high_band_std: float = 0.05

    def __post_init__(self) -> None:
        # The name becomes the stem of the speaker's output files.
        if not is_plain_file_name(self.name):
            raise ValueError(f"speaker name {self.name!r} is not a plain file name")
        _check_numbers(self, "frames")
        if self.logf0_std <= 0:
            raise ValueError("logf0_std must be > 0")
        if not 0.0 <= self.voiced_fraction <= 1.0:
            raise ValueError("voiced_fraction must lie in [0, 1]")
        if self.high_band_std < 0:
            raise ValueError("high_band_std must be >= 0")


def _from_object(path, spec_type, obj, where: str, **nested):
    """spec_type from the JSON object obj, nested replacing obj's entries,
    after refusing a key that names no field (its default would stay in use)."""
    names = {f.name for f in fields(spec_type)}
    for key in obj if isinstance(obj, dict) else ():
        if key not in names:
            raise FormatError(f"{path}: unknown key {key!r} in {where}")
    return spec_type(**{**obj, **nested})


@dataclass(frozen=True)
class SyntheticSpec:
    seed: int
    speakers: tuple[SpeakerSpec, ...]
    aperiodicity_dim: int = 5

    def __post_init__(self) -> None:
        _check_numbers(self, "aperiodicity_dim")
        names = [spk.name for spk in self.speakers]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"speaker name {name!r} is used more than once")

    @staticmethod
    def from_json(path) -> "SyntheticSpec":
        try:
            doc = json.loads(utf8_text(path, Path(path).read_bytes()))
            speakers = tuple(
                _from_object(path, SpeakerSpec, spk, f"speakers[{k}]", mixture=_from_object(
                    path, MixtureSpec, spk["mixture"], f"speakers[{k}].mixture"))
                for k, spk in enumerate(doc["speakers"])
            )
            return _from_object(path, SyntheticSpec, doc, "the spec", speakers=speakers)
        except FormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: malformed synthetic spec: {exc}") from exc


def generate_speaker(
    spec: SpeakerSpec, aperiodicity_dim: int, rng: np.random.Generator
) -> dict[str, FeatureSequence]:
    """Draw one pseudo-speaker's mcep/f0/aperiodicity streams."""
    t = spec.frames
    comp = rng.choice(spec.mixture.weights.shape[0], size=t, p=spec.mixture.weights)
    statics = spec.mixture.means[comp] + spec.mixture.stds[comp] * rng.standard_normal(
        (t, LOW_DIM)
    )
    higher = spec.high_band_std * rng.standard_normal((t, 49 - LOW_DIM))
    mcep = FeatureSequence(
        np.concatenate([statics, higher], axis=1), FeatureKind.MCEP49
    )
    voiced = rng.random(t) < spec.voiced_fraction
    logf0 = spec.logf0_mean + spec.logf0_std * rng.standard_normal(t)
    f0 = np.where(voiced, np.exp(logf0), 0.0).reshape(-1, 1)
    ap = rng.random((t, aperiodicity_dim))
    return {
        "mcep": mcep,
        "f0": FeatureSequence(f0, FeatureKind.F0),
        "ap": FeatureSequence(ap, FeatureKind.APERIODICITY),
    }


def generate_dataset(spec: SyntheticSpec) -> dict[str, dict[str, FeatureSequence]]:
    """Deterministically generate every speaker in the spec.

    Each speaker gets its own RNG stream derived from the root seed, so
    adding a speaker never perturbs the others.
    """
    out = {}
    for spk in spec.speakers:
        rng = derive_rng(spec.seed, f"synth.{spk.name}")
        out[spk.name] = generate_speaker(spk, spec.aperiodicity_dim, rng)
    return out


# ---------------------------------------------------------------------------
# Model bundle + loss history persistence
# ---------------------------------------------------------------------------

_MANIFEST_MAGIC = "VCMODEL2"
_MANIFEST_NAME = "manifest.txt"

#: Network roles persisted per training method.
BUNDLE_ROLES = {
    "cyclegan": ("G", "F", "D_X", "D_Y"),
    "gan-parallel": ("G", "D"),
    "mse-parallel": ("G",),
}


def _network_paths(model_dir, method: str) -> dict[str, Path]:
    """The model file of each network role of method in model_dir: <role>.mlp."""
    return {role: Path(model_dir) / f"{role.lower()}.mlp" for role in BUNDLE_ROLES[method]}


def save_model_bundle(model_dir, method: str, networks: dict[str, Mlp]) -> None:
    """Write one model file per network role, then a manifest stating the method,
    after removing any old manifest: a failed save leaves no bundle to load."""
    roles = BUNDLE_ROLES.get(method)
    if roles is None:
        raise ValueError(f"unknown method {method!r}")
    if set(networks) != set(roles):
        raise ValueError(f"method {method} needs networks {roles}, got {tuple(networks)}")
    manifest = Path(model_dir) / _MANIFEST_NAME
    manifest.parent.mkdir(parents=True, exist_ok=True)
    manifest.unlink(missing_ok=True)
    for role, path in _network_paths(model_dir, method).items():
        save_mlp(path, networks[role])
    manifest.write_text(f"{_MANIFEST_MAGIC}\nmethod {method}\n", encoding="utf-8")


def read_manifest(model_dir) -> tuple[str, dict[str, Path]]:
    """A bundle's method and the model file of each of its network roles, from
    the manifest alone: its magic line and one method line. No network file is opened."""
    manifest = Path(model_dir) / _MANIFEST_NAME
    if not manifest.exists():
        raise FormatError(f"{manifest}: missing model manifest")
    lines = utf8_text(manifest, manifest.read_bytes()).splitlines()
    if len(lines) != 2 or lines[0] != _MANIFEST_MAGIC or not lines[1].startswith("method "):
        raise FormatError(f"{manifest}: not a {_MANIFEST_MAGIC} manifest")
    method = lines[1].removeprefix("method ")
    if method not in BUNDLE_ROLES:
        raise FormatError(f"{manifest}: unknown method {method!r}")
    return method, _network_paths(model_dir, method)


def load_model_bundle(model_dir) -> tuple[str, dict[str, Mlp]]:
    """A bundle's method and every network it holds, by role."""
    method, paths = read_manifest(model_dir)
    return method, {role: load_mlp(path) for role, path in paths.items()}


def write_loss_csv(path, history: Sequence[tuple]) -> None:
    """Loss history CSV: the epoch, then each loss record field at full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(["epoch", *history[0]._fields]) + "\n")
        for epoch, row in enumerate(history, 1):
            fh.write(",".join([str(epoch), *(repr(float(v)) for v in row)]) + "\n")
