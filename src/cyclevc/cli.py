"""Command-line entry points: stats, train, convert, align, gen-synthetic, eval.

Every command is deterministic for a fixed seed and set of inputs; all
randomness flows from the single --seed value.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .align import dtw_align
from .baselines import (
    GanBaselineConfig,
    MseBaselineConfig,
    train_gan_baseline,
    train_mse_baseline,
)
from .cyclegan import LOSS_FORMS, CycleGanConfig, build_model, train
from .errors import DimensionMismatchError, InsufficientDataError, NonFiniteError, located
from .features import (
    AUGMENTED_DIM,
    FeatureKind,
    FeatureSequence,
    ftr_frames,
    normalize,
    read_ftr,
    write_ftr,
)
from .net import forward, load_mlp
from .pipeline import (
    BUNDLE_ROLES,
    SyntheticSpec,
    augment_lower,
    check_frames,
    compute_speaker_stats,
    convert_utterance,
    generate_dataset,
    load_speaker_stats,
    mel_cepstral_distortion,
    prepare_parallel_frames,
    read_manifest,
    require_mel_cepstra,
    save_model_bundle,
    save_speaker_stats,
    to_lower,
    write_loss_csv,
)

def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad hidden layer list {text!r}")


def _read_expected(path, kind: FeatureKind) -> FeatureSequence:
    """The sequence in path as kind: a file of that kind, or a GENERIC one
    of a width the kind allows, relabeled. A file with no frame is refused."""
    seq = read_ftr(path)
    if seq.frames < 1:
        raise InsufficientDataError(f"{path}: holds no frames")
    if seq.kind is kind:
        return seq
    if seq.kind is not FeatureKind.GENERIC:
        raise DimensionMismatchError(f"{path}: holds {seq.kind.name}, expected {kind.name}")
    with located(path, DimensionMismatchError):  # a width the kind does not allow
        return FeatureSequence(seq.data, kind)


def _read_many(paths, kind: FeatureKind) -> list[FeatureSequence]:
    return [_read_expected(p, kind) for p in paths]


def _naming(*paths) -> located:
    return located(", ".join(map(str, paths)), DimensionMismatchError, InsufficientDataError)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace) -> int:
    with _naming(*args.mcep, *args.f0):
        if len(args.mcep) != len(args.f0):
            raise DimensionMismatchError(f"{len(args.mcep)} mcep files, {len(args.f0)} F0 files")
    mceps = _read_many(args.mcep, FeatureKind.MCEP49)
    f0s = _read_many(args.f0, FeatureKind.F0)
    for mcep_path, f0_path, mcep, f0 in zip(args.mcep, args.f0, mceps, f0s):
        with _naming(mcep_path, f0_path):
            check_frames("F0", f0, mcep)
    with _naming(*args.mcep, *args.f0):
        stats = compute_speaker_stats(mceps, f0s)
    save_speaker_stats(args.out, stats)
    print(
        f"stats written to {args.out}: "
        f"{stats.norm.mean.shape[0]} dims, "
        f"{stats.logf0.voiced_count} voiced frames"
    )
    return 0


def _normalized_pool(paths, stats) -> FeatureSequence:
    parts = [
        normalize(augment_lower(seq), stats.norm).data
        for seq in _read_many(paths, FeatureKind.MCEP49)
    ]
    return FeatureSequence(np.concatenate(parts, axis=0), FeatureKind.AUGMENTED75)


def _train_cyclegan(config, x_data, y_data):
    model, history = train(build_model(AUGMENTED_DIM, config), x_data, y_data, config)
    return model.g, model.f, model.d_x, model.d_y, history


#: Each method's config and trainer. A trainer takes the config and the
#: training data and returns the networks, in BUNDLE_ROLES order, and the
#: history; it looks its training function up when called (a tracer may replace it).
_METHODS = {
    "cyclegan": (CycleGanConfig, _train_cyclegan),
    "gan-parallel": (GanBaselineConfig, lambda config, pairs: train_gan_baseline(pairs, config)),
    "mse-parallel": (MseBaselineConfig, lambda config, pairs: train_mse_baseline(pairs, config)),
}


def _check_outputs(networks, x: FeatureSequence, y: FeatureSequence, n: int) -> None:
    """Raise NonFiniteError naming the first network whose output on the
    first n frames of its pool (x for G and D_X, y for the others) is not
    finite. fit checks each step's losses before its update, so only this
    checks the last update: finite parameters can still overflow, silently under main's errstate."""
    for role, network in networks.items():
        frames = (x if role in ("G", "D_X") else y).data[:n]
        if not np.isfinite(forward(network, frames)[0]).all():
            raise NonFiniteError(
                f"trained {role} gives non-finite output on the first {len(frames)} "
                "training frames; nothing was written"
            )


def cmd_train(args: argparse.Namespace) -> int:
    config_type, trainer = _METHODS[args.method]
    given = {f.name: getattr(args, f.name) for f in fields(config_type)}
    for dest, flag in args.setting_flags.items():
        if dest not in given and getattr(args, dest) is not None:
            raise ValueError(f"{flag} is not used by --method {args.method}")
    config = config_type(**{name: value for name, value in given.items() if value is not None})
    src_stats = load_speaker_stats(args.src_stats)
    tgt_stats = load_speaker_stats(args.tgt_stats)
    settings = (f"{f.name}={getattr(config, f.name)!r}" for f in fields(config))
    print(" ".join([f"method={args.method}", *settings]))

    if args.method == "cyclegan":
        data = (
            _normalized_pool(args.src_mcep, src_stats),
            _normalized_pool(args.tgt_mcep, tgt_stats),
        )
    else:
        src_mceps = _read_many(args.src_mcep, FeatureKind.MCEP49)
        tgt_mceps = _read_many(args.tgt_mcep, FeatureKind.MCEP49)
        with _naming(*args.src_mcep, *args.tgt_mcep):  # lists of other lengths
            data = (prepare_parallel_frames(src_mceps, tgt_mceps, src_stats, tgt_stats),)
    *networks, history = trainer(config, *data)
    networks = dict(zip(BUNDLE_ROLES[args.method], networks))
    pools = data if args.method == "cyclegan" else (data[0].x, data[0].y)
    _check_outputs(networks, *pools, config.batch_frames)
    out_dir = Path(args.out_dir)
    save_model_bundle(out_dir, args.method, networks)
    write_loss_csv(out_dir / "losses.csv", history)
    print(f"models written to {out_dir}")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    # Only the generator that converts is loaded: G maps x to y, and a
    # cyclegan's F maps y to x. The parallel methods train G alone.
    method, paths = read_manifest(args.model_dir)
    if args.direction == "yx" and method != "cyclegan":
        raise ValueError(f"method {method} trains a one-way mapping; use --direction xy")
    net_path = paths["G" if args.direction == "xy" else "F"]
    net = load_mlp(net_path)
    src_stats = load_speaker_stats(args.src_stats)
    tgt_stats = load_speaker_stats(args.tgt_stats)
    mcep = _read_expected(args.mcep, FeatureKind.MCEP49)
    f0 = _read_expected(args.f0, FeatureKind.F0)
    ap = _read_expected(args.ap, FeatureKind.APERIODICITY)
    for name, path, stream in (("F0", args.f0, f0), ("aperiodicity", args.ap, ap)):
        with _naming(args.mcep, path):  # convert_utterance checks again, naming no file
            check_frames(name, stream, mcep)

    # The inputs that a stage's error names; convert_utterance names the stage.
    inputs = {"normalize-source": (args.mcep, args.src_stats), "generator": (net_path,),
              "denormalize-target": (args.tgt_stats,), "mlpg": (args.tgt_stats,),
              "transform-f0": (args.f0, args.src_stats, args.tgt_stats)}
    stages = [None]

    def trace(label):
        stages.append(label)
        if args.trace:
            print(f"stage: {label}")

    try:
        result = convert_utterance(
            generator=lambda batch: forward(net, batch)[0],
            src_stats=src_stats,
            tgt_stats=tgt_stats,
            mcep=mcep,
            f0=f0,
            aperiodicity=ap,
            use_mlpg=args.mlpg == "on",
            postfilter_beta=args.postfilter_beta,
            trace=trace,
        )
    except ValueError as exc:
        if stages[-1] not in inputs:
            raise
        raise type(exc)(f"{', '.join(map(str, inputs[stages[-1]]))}: {exc}") from exc
    outputs = (
        (args.out_mcep, result.mcep), (args.out_f0, result.f0), (args.out_ap, result.aperiodicity)
    )
    for path, seq in outputs:  # all three are checked before any is written
        ftr_frames(path, seq)
    for path, seq in outputs:
        write_ftr(path, seq)
    print(
        f"frames={result.frames} shift_db={result.shift_db:.4f} "
        f"seconds={result.seconds:.3f}"
    )
    return 0


def cmd_align(args: argparse.Namespace) -> int:
    a = read_ftr(args.a)
    b = read_ftr(args.b)
    with _naming(args.a, args.b):
        path = dtw_align(to_lower(a), to_lower(b))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("i,j\n")
        for i, j in path.pairs:
            fh.write(f"{i},{j}\n")
    print(f"pairs={len(path.pairs)} cost={path.cost!r}")
    return 0


def cmd_gen_synthetic(args: argparse.Namespace) -> int:
    with located(args.spec, NonFiniteError):  # numbers that overflow a stream
        dataset = generate_dataset(SyntheticSpec.from_json(args.spec))
    out_dir = Path(args.out_dir)
    outputs = [
        (out_dir / f"{name}.{stream}.ftr", seq)
        for name, streams in dataset.items()
        for stream, seq in streams.items()
    ]
    for path, seq in outputs:  # all are checked before any is written
        ftr_frames(path, seq)
    out_dir.mkdir(parents=True, exist_ok=True)
    for path, seq in outputs:
        write_ftr(path, seq)
        print(f"wrote {path} ({seq.frames} frames)")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    reference = require_mel_cepstra(read_ftr(args.reference), args.reference)
    converted = require_mel_cepstra(read_ftr(args.converted), args.converted)
    with _naming(args.reference, args.converted):
        mcd = mel_cepstral_distortion(reference, converted)
    print(
        f"mcd_db={mcd!r} frames_reference={reference.frames} "
        f"frames_converted={converted.frames}"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The cyclevc parser, built once per process: parsing leaves it as it
    was, and the commands only read the setting_flags it puts in args."""
    parser = argparse.ArgumentParser(
        prog="cyclevc",
        description="Nonparallel voice conversion over mel-cepstral features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="fit per-speaker normalization and F0 stats")
    p.add_argument("--mcep", nargs="+", required=True, help="49-dim mcep FTR files")
    p.add_argument(
        "--f0", nargs="+", required=True, help="F0 FTR files, one per --mcep file, in its order"
    )
    p.add_argument("--out", required=True, help="output stats file")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("train", help="train a conversion model")
    p.add_argument("--method", choices=_METHODS, required=True)
    p.add_argument("--src-mcep", nargs="+", required=True)
    p.add_argument("--tgt-mcep", nargs="+", required=True)
    p.add_argument("--src-stats", required=True)
    p.add_argument("--tgt-stats", required=True)
    p.add_argument("--out-dir", required=True)
    # Each setting's dest is its config field, and its default the
    # method's config default (None here).
    settings = [
        p.add_argument("--seed", type=int),
        p.add_argument(
            "--lambda",
            dest="cycle_weight",
            type=float,
            help="cycle-consistency weight (default 10)",
        ),
        p.add_argument("--batch", dest="batch_frames", type=int),
        p.add_argument(
            "--epochs",
            type=int,
            help="default 400 (cyclegan, gan-parallel) or 60 (mse-parallel)",
        ),
        p.add_argument("--lr-g", dest="lr_generator", type=float),
        p.add_argument("--lr-d", dest="lr_discriminator", type=float),
        p.add_argument("--loss-form", choices=LOSS_FORMS),
        p.add_argument("--mse-weight", type=float),
        p.add_argument(
            "--hidden", dest="hidden_dims", type=_parse_hidden,
            help="comma-separated hidden layer widths",
        ),
    ]
    p.set_defaults(func=cmd_train, setting_flags={a.dest: a.option_strings[0] for a in settings})

    p = sub.add_parser("convert", help="convert one utterance")
    p.add_argument("--model-dir", required=True)
    p.add_argument("--direction", choices=("xy", "yx"), default="xy")
    p.add_argument("--src-stats", required=True)
    p.add_argument("--tgt-stats", required=True)
    p.add_argument("--mcep", required=True)
    p.add_argument("--f0", required=True)
    p.add_argument("--ap", required=True)
    p.add_argument("--out-mcep", required=True)
    p.add_argument("--out-f0", required=True)
    p.add_argument("--out-ap", required=True)
    p.add_argument("--mlpg", choices=("on", "off"), default="on")
    p.add_argument("--postfilter-beta", type=float, default=0.0)
    p.add_argument("--trace", action="store_true", help="print pipeline stages")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("align", help="DTW-align two feature files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--out", required=True, help="output CSV of index pairs")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("gen-synthetic", help="generate synthetic speakers")
    p.add_argument("--spec", required=True, help="JSON generation spec")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("eval", help="mel-cepstral distortion between two files")
    p.add_argument("--reference", required=True)
    p.add_argument("--converted", required=True)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # every command checks its results
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
