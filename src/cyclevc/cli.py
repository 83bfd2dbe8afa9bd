"""Command-line entry points: stats, train, convert, align, gen-synthetic, eval.

Every command is deterministic for a fixed seed and set of inputs; all
randomness flows from the single --seed value.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

import numpy as np

from .align import dtw_align
from .baselines import (
    GanBaselineConfig,
    MseBaselineConfig,
    train_gan_baseline,
    train_mse_baseline,
)
from .cyclegan import CycleGanConfig, CycleGanModel, build_model, train
from .errors import DimensionMismatchError, InsufficientDataError
from .features import (
    AUGMENTED_DIM,
    FeatureKind,
    FeatureSequence,
    normalize,
    read_ftr,
    split_mcep,
    write_ftr,
)
from .net import Mlp, forward
from .pipeline import (
    SyntheticSpec,
    augment_lower,
    compute_speaker_stats,
    convert_utterance,
    generate_dataset,
    load_model_bundle,
    load_speaker_stats,
    mel_cepstral_distortion,
    prepare_parallel_frames,
    save_model_bundle,
    save_speaker_stats,
    write_loss_csv,
)

_METHODS = ("cyclegan", "gan-parallel", "mse-parallel")
_DEFAULT_EPOCHS = {"cyclegan": 400, "gan-parallel": 400, "mse-parallel": 60}


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


_M_TOP_PAD = -2  # glibc <malloc.h>
_HEAP_TOP_PAD = 64 << 20


def _keep_heap_top() -> None:
    """Have glibc keep 64 MiB of freed heap instead of returning it to the OS.

    A training step allocates and frees several MB of activations,
    gradients and parameter vectors. With glibc's default trim threshold
    the heap top goes back to the OS at the end of each step and every
    page faults in again during the next one: about 3000 minor faults per
    default-size step, a fifth of its time. The pad only keeps address
    space; untouched pages cost no memory. Without a C-library mallopt
    nothing changes.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


def cmd_train(args: argparse.Namespace) -> int:
    _keep_heap_top()
    src_stats = load_speaker_stats(args.src_stats)
    tgt_stats = load_speaker_stats(args.tgt_stats)
    epochs = args.epochs if args.epochs is not None else _DEFAULT_EPOCHS[args.method]
    print(
        f"method={args.method} lambda={args.cycle_weight!r} batch={args.batch} "
        f"epochs={epochs} lr_g={args.lr_g!r} lr_d={args.lr_d!r} seed={args.seed}"
    )

    out_dir = Path(args.out_dir)
    if args.method == "cyclegan":
        if args.paired:
            print(
                "warning: --paired ignored; cycle-consistent training is nonparallel",
                file=sys.stderr,
            )
        x_data = _normalized_pool(args.src_mcep, src_stats)
        y_data = _normalized_pool(args.tgt_mcep, tgt_stats)
        config = CycleGanConfig(
            cycle_weight=args.cycle_weight,
            lr_generator=args.lr_g,
            lr_discriminator=args.lr_d,
            batch_frames=args.batch,
            epochs=epochs,
            seed=args.seed,
            loss_form=args.loss_form,
            hidden_dims=args.hidden,
        )
        model = build_model(AUGMENTED_DIM, config)
        model, history = train(model, x_data, y_data, config)
        save_model_bundle(
            out_dir,
            "cyclegan",
            {"G": model.g, "F": model.f, "D_X": model.d_x, "D_Y": model.d_y},
        )
        write_loss_csv(
            out_dir / "losses.csv",
            ["adv_g", "adv_f", "disc_x", "disc_y", "cycle", "total"],
            [
                (r.adv_g, r.adv_f, r.disc_x, r.disc_y, r.cycle, r.total)
                for r in history
            ],
        )
    else:
        if len(args.src_mcep) != len(args.tgt_mcep):
            raise DimensionMismatchError(
                f"method {args.method} needs parallel utterance lists; "
                f"got {len(args.src_mcep)} source vs {len(args.tgt_mcep)} target files"
            )
        pairs = prepare_parallel_frames(
            _read_many(args.src_mcep, FeatureKind.MCEP49),
            _read_many(args.tgt_mcep, FeatureKind.MCEP49),
            src_stats,
            tgt_stats,
        )
        if args.method == "mse-parallel":
            config = MseBaselineConfig(
                learning_rate=args.lr_g,
                batch_frames=args.batch,
                epochs=epochs,
                seed=args.seed,
                hidden_dims=args.hidden,
            )
            net, history = train_mse_baseline(pairs, config)
            save_model_bundle(out_dir, "mse-parallel", {"G": net})
            write_loss_csv(out_dir / "losses.csv", ["mse"], [(v,) for v in history])
        else:
            config = GanBaselineConfig(
                mse_weight=args.mse_weight,
                lr_generator=args.lr_g,
                lr_discriminator=args.lr_d,
                batch_frames=args.batch,
                epochs=epochs,
                seed=args.seed,
                loss_form=args.loss_form,
                hidden_dims=args.hidden,
            )
            gen, disc, history = train_gan_baseline(pairs, config)
            save_model_bundle(out_dir, "gan-parallel", {"G": gen, "D": disc})
            write_loss_csv(
                out_dir / "losses.csv",
                ["disc", "adv", "mse", "total"],
                [(r["disc"], r["adv"], r["mse"], r["total"]) for r in history],
            )
    print(f"models written to {out_dir}")
    return 0


def cmd_convert(args: argparse.Namespace) -> int:
    method, networks = load_model_bundle(args.model_dir)
    if method == "cyclegan":
        net = networks["G"] if args.direction == "xy" else networks["F"]
    elif args.direction == "yx":
        raise ValueError(f"method {method} trains a one-way mapping; use --direction xy")
    else:
        net = networks["G"]
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
    if a.kind is FeatureKind.MCEP49 and b.kind is FeatureKind.MCEP49:
        a, b = split_mcep(a)[0], split_mcep(b)[0]
    path = dtw_align(a, b)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--lambda",
        dest="cycle_weight",
        type=float,
        default=10.0,
        help="cycle-consistency weight (default 10)",
    )
    p.add_argument("--batch", type=int, default=128)
    p.add_argument(
        "--epochs",
        type=int,
        default=None,
        help="default 400 (cyclegan, gan-parallel) or 60 (mse-parallel)",
    )
    p.add_argument("--lr-g", type=float, default=0.001)
    p.add_argument("--lr-d", type=float, default=0.0001)
    p.add_argument("--loss-form", choices=("lsgan", "log"), default="lsgan")
    p.add_argument("--mse-weight", type=float, default=1.0)
    p.add_argument(
        "--hidden", type=_parse_hidden, default=(128, 256, 256, 128),
        help="comma-separated hidden layer widths",
    )
    p.add_argument(
        "--paired",
        action="store_true",
        help="declare the utterance lists parallel (ignored by cyclegan)",
    )
    p.set_defaults(func=cmd_train)

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
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
