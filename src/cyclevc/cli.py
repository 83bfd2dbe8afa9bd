"""Command-line entry points: stats, train, convert, align, gen-synthetic, eval.

Every command is deterministic for a fixed seed and set of inputs; all
randomness flows from the single --seed value.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from .align import dtw_align
from .baselines import (
    GAN_LOSS_COLUMNS,
    GanBaselineConfig,
    MseBaselineConfig,
    train_gan_baseline,
    train_mse_baseline,
)
from .cyclegan import LOSS_FORMS, CycleGanConfig, LossReport, build_model, train
from .errors import DimensionMismatchError, InsufficientDataError
from .features import (
    AUGMENTED_DIM,
    FeatureKind,
    FeatureSequence,
    normalize,
    read_ftr,
    write_ftr,
)
from .net import forward, load_mlp
from .pipeline import (
    SyntheticSpec,
    augment_lower,
    compute_speaker_stats,
    convert_utterance,
    generate_dataset,
    load_speaker_stats,
    mel_cepstral_distortion,
    prepare_parallel_frames,
    read_manifest,
    save_model_bundle,
    save_speaker_stats,
    to_lower,
    write_loss_csv,
)

def _parse_hidden(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad hidden layer list {text!r}")
    if not dims or any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError("hidden layer widths must be positive")
    return dims


def _read_expected(path, kind: FeatureKind) -> FeatureSequence:
    seq = read_ftr(path)
    if seq.kind is kind:
        return seq
    if kind.fixed_dim is not None and seq.dim != kind.fixed_dim:
        raise DimensionMismatchError(
            f"{path}: expected {kind.name} ({kind.fixed_dim} dims), "
            f"got {seq.kind.name} with {seq.dim}"
        )
    return FeatureSequence(seq.data, kind)


def _read_many(paths, kind: FeatureKind) -> list[FeatureSequence]:
    return [_read_expected(p, kind) for p in paths]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace) -> int:
    mceps = _read_many(args.mcep, FeatureKind.MCEP49)
    f0s = _read_many(args.f0, FeatureKind.F0)
    try:
        stats = compute_speaker_stats(mceps, f0s)
    except InsufficientDataError as exc:
        names = ", ".join(str(p) for p in args.f0)
        raise InsufficientDataError(f"{exc} (F0 files: {names})") from exc
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
    networks = {"G": model.g, "F": model.f, "D_X": model.d_x, "D_Y": model.d_y}
    return networks, [f.name for f in fields(LossReport)], [astuple(r) for r in history]


def _train_gan_parallel(config, pairs):
    gen, disc, history = train_gan_baseline(pairs, config)
    return {"G": gen, "D": disc}, GAN_LOSS_COLUMNS, [tuple(r.values()) for r in history]


def _train_mse_parallel(config, pairs):
    net, history = train_mse_baseline(pairs, config)
    return {"G": net}, ["mse"], [(mse,) for mse in history]


#: Each method's config and trainer. A trainer takes the config and the
#: training data and returns the networks by bundle role, the losses.csv
#: columns and one row of losses per epoch.
_METHODS = {
    "cyclegan": (CycleGanConfig, _train_cyclegan),
    "gan-parallel": (GanBaselineConfig, _train_gan_parallel),
    "mse-parallel": (MseBaselineConfig, _train_mse_parallel),
}


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
        data = (prepare_parallel_frames(src_mceps, tgt_mceps, src_stats, tgt_stats),)
    networks, columns, rows = trainer(config, *data)
    out_dir = Path(args.out_dir)
    save_model_bundle(out_dir, args.method, networks)
    write_loss_csv(out_dir / "losses.csv", columns, rows)
    print(f"models written to {out_dir}")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    # Only the generator that converts is parsed: G maps x to y, and a
    # cyclegan's F maps y to x. The parallel methods train G alone.
    method, paths = read_manifest(args.model_dir)
    if args.direction == "yx" and method != "cyclegan":
        raise ValueError(f"method {method} trains a one-way mapping; use --direction xy")
    net = load_mlp(paths["G" if args.direction == "xy" else "F"])
    src_stats = load_speaker_stats(args.src_stats)
    tgt_stats = load_speaker_stats(args.tgt_stats)
    mcep = _read_expected(args.mcep, FeatureKind.MCEP49)
    f0 = _read_expected(args.f0, FeatureKind.F0)
    ap = _read_expected(args.ap, FeatureKind.APERIODICITY)

    trace = (lambda label: print(f"stage: {label}")) if args.trace else None
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
    write_ftr(args.out_mcep, result.mcep)
    write_ftr(args.out_f0, result.f0)
    write_ftr(args.out_ap, result.aperiodicity)
    print(
        f"frames={result.frames} mcd_db={result.mcd_db:.4f} "
        f"seconds={result.seconds:.3f}"
    )
    return 0


def cmd_align(args: argparse.Namespace) -> int:
    a = read_ftr(args.a)
    b = read_ftr(args.b)
    path = dtw_align(to_lower(a), to_lower(b))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("i,j\n")
        for i, j in path.pairs:
            fh.write(f"{i},{j}\n")
    print(f"pairs={len(path.pairs)} cost={path.cost!r}")
    return 0


def cmd_gen_synthetic(args: argparse.Namespace) -> int:
    spec = SyntheticSpec.from_json(args.spec)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, streams in generate_dataset(spec).items():
        for stream, suffix in (("mcep", "mcep"), ("f0", "f0"), ("ap", "ap")):
            path = out_dir / f"{name}.{suffix}.ftr"
            write_ftr(path, streams[stream])
            print(f"wrote {path} ({streams[stream].frames} frames)")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    reference = read_ftr(args.reference)
    converted = read_ftr(args.converted)
    mcd = mel_cepstral_distortion(reference, converted)
    print(
        f"mcd_db={mcd!r} frames_reference={reference.frames} "
        f"frames_converted={converted.frames}"
    )
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclevc",
        description="Nonparallel voice conversion over mel-cepstral features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", help="fit per-speaker normalization and F0 stats")
    p.add_argument("--mcep", nargs="+", required=True, help="49-dim mcep FTR files")
    p.add_argument("--f0", nargs="+", required=True, help="F0 FTR files")
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
        return args.func(args)
    except (ValueError, OSError) as exc:
        where = getattr(exc, "position", None)  # a training step's, see cyclegan.fit
        print(f"error: {where}: {exc}" if where else f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
