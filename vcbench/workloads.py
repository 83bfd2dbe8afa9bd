"""The four workloads: their set-up, their timed operations, and the check
each operation's output must pass.

Every workload is a closed loop with one client: operations run one after
another in this process, each starting when the previous one returned.
The operations of one pass cover the workload's whole input mix once; a
run repeats whole passes, so every run measures the same mix.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import cyclevc.cli
import cyclevc.features
import cyclevc.net
import cyclevc.pipeline

from . import checks
from .corpus import (
    Plan,
    band_points,
    cut_utterances,
    fixed_total_lengths,
    layout,
    spec_doc,
    stratified_lengths,
    utterance_path,
)


class SetupError(RuntimeError):
    """A set-up step of the program failed; the run cannot measure anything."""


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def call_cli(argv: list[str]) -> CliResult:
    """``cyclevc.cli.main(argv)`` in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cyclevc.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def _failed_call(res: CliResult) -> list[str]:
    if res.code != 0:
        return [f"exit code {res.code}: {res.stderr.strip()}"]
    return []


def _fields(text: str) -> dict[str, str]:
    """key=value tokens of the last line a command printed."""
    lines = text.strip().splitlines()
    return dict(tok.split("=", 1) for tok in lines[-1].split() if "=" in tok) if lines else {}


@dataclass
class Op:
    """One timed operation: ``run`` is timed, ``check`` inspects its result."""

    kind: str
    frames: int
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Context:
    plan: Plan
    setup_dir: Path   # read-only inputs made by set-up
    out_dir: Path     # outputs of the timed operations
    state: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def utt(self, cut, stream: str) -> str:
        return str(utterance_path(self.setup_dir / "utts", cut, stream))

    def files(self, group: str, stream: str = "mcep") -> list[str]:
        return [self.utt(c, stream) for c in self.plan.groups[group]]


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _training_problems(ctx: Context, res: CliResult, out: Path, method: str,
                       columns: list[str], epochs: int, progress: str | None = None) -> list[str]:
    """losses.csv is complete and finite, the bundle reloads, the
    ``progress`` column (if given) fell from the first epoch to the last,
    and every pass reproduces the first pass's files byte for byte (the
    seed is the same)."""
    problems = _failed_call(res)
    if problems:
        return problems
    problems, rows = checks.loss_csv_problems(out / "losses.csv", columns, epochs)
    if rows:
        ctx.state["last_row"] = rows[-1]
        if progress and not rows[-1][progress] < rows[0][progress]:
            problems.append(f"{progress} did not fall: {rows[0][progress]!r} -> {rows[-1][progress]!r}")
    try:
        loaded, networks = cyclevc.pipeline.load_model_bundle(out)
    except (ValueError, OSError) as exc:
        return problems + [f"bundle does not reload: {exc}"]
    if loaded != method:
        problems.append(f"bundle reloads as method {loaded!r}, not {method!r}")
    files = [out / "losses.csv", out / "manifest.txt"] + [out / f"{r.lower()}.mlp" for r in networks]
    digest = _digest(sorted(files))
    if ctx.state.setdefault("train_digest", digest) != digest:
        problems.append("training output differs from the first pass with the same seed")
    shutil.rmtree(out)
    return problems


def _stats_argv(ctx: Context, group: str, out: Path) -> list[str]:
    return ["stats", "--mcep", *ctx.files(group), "--f0", *ctx.files(group, "f0"), "--out", str(out)]


class Workload:
    name = ""
    why = ""
    primary = ""  # op kind whose latency is reported
    probe_kernels: tuple[str, ...] = ()  # speed-probe kernels like its dominant layers

    def plan(self, seed: int) -> Plan:
        raise NotImplementedError

    def prepare(self, seed: int, setup_dir: Path) -> None:
        """Set-up: corpus, utterances and speaker stats, all through the program."""
        plan = self.plan(seed)
        setup_dir.mkdir(parents=True, exist_ok=True)
        spec = setup_dir / "spec.json"
        spec.write_text(json.dumps(spec_doc(plan)), encoding="utf-8")
        corpus_dir = setup_dir / "corpus"
        self._must(call_cli(["gen-synthetic", "--spec", str(spec), "--out-dir", str(corpus_dir)]))
        cut_utterances(plan, corpus_dir, setup_dir / "utts")
        shutil.rmtree(corpus_dir)
        ctx = Context(plan, setup_dir, setup_dir)
        self._must(call_cli(_stats_argv(ctx, "train_src", setup_dir / "src.stats")))
        self._must(call_cli(_stats_argv(ctx, "train_tgt", setup_dir / "tgt.stats")))
        self.prepare_model(ctx)

    @staticmethod
    def _must(res: CliResult) -> None:
        if res.code != 0:
            raise SetupError(res.stderr.strip() or f"exit code {res.code}")

    def prepare_model(self, ctx: Context) -> None:
        pass

    def pass_ops(self, ctx: Context) -> list[Op]:
        raise NotImplementedError

    def named_metrics(self, records, ctx: Context) -> dict[str, tuple[float, str]]:
        """The workload's figures under their descriptive names."""
        raise NotImplementedError


def _latency(records, kind: str) -> list[float]:
    return [r.seconds for r in records if r.kind == kind]


def throughput(records) -> float:
    return sum(r.frames for r in records) / sum(r.seconds for r in records)


# ---------------------------------------------------------------------------
# train-cyclegan
# ---------------------------------------------------------------------------

class TrainCycleGan(Workload):
    name = "train-cyclegan"
    why = ("cyclevc train --method cyclegan at the paper's default net: GEMM-bound "
           "forward/backward/Adam plus the text bundle save, the dominant user cost")
    primary = "train"
    probe_kernels = ("blas", "interp")
    EPOCHS = 4
    FILES = 5
    FRAMES = 3200   # per speaker: 25 steps of 128 frames per epoch
    BATCH = 128

    def plan(self, seed: int) -> Plan:
        rng = np.random.default_rng([seed, 2])
        return layout(seed, {
            "train_src": [("src", n) for n in fixed_total_lengths(rng, self.FILES, self.FRAMES)],
            "train_tgt": [("tgt", n) for n in fixed_total_lengths(rng, self.FILES, self.FRAMES)],
        })

    def pass_ops(self, ctx: Context) -> list[Op]:
        out = ctx.out_dir / "model"
        argv = [
            "train", "--method", "cyclegan",
            "--src-mcep", *ctx.files("train_src"), "--tgt-mcep", *ctx.files("train_tgt"),
            "--src-stats", str(ctx.setup_dir / "src.stats"),
            "--tgt-stats", str(ctx.setup_dir / "tgt.stats"),
            "--out-dir", str(out), "--epochs", str(self.EPOCHS), "--seed", str(ctx.plan.seed),
        ]
        frames = self.EPOCHS * (self.FRAMES // self.BATCH) * self.BATCH
        columns = ["adv_g", "adv_f", "disc_x", "disc_y", "cycle", "total"]
        return [Op(
            "train", frames, lambda: call_cli(argv),
            lambda res: _training_problems(ctx, res, out, "cyclegan", columns, self.EPOCHS, "cycle"),
        )]

    def named_metrics(self, records, ctx):
        return {
            "train_frames_per_s": (throughput(records), "frames/s"),
            "train_call_s_p50": (statistics.median(_latency(records, "train")), "s"),
            "train_cycle_loss_last": (ctx.state.get("last_row", {}).get("cycle", float("nan")), "1"),
        }


# ---------------------------------------------------------------------------
# convert-cli and convert-batch
# ---------------------------------------------------------------------------

class _Convert(Workload):
    """Shared set-up: a default-size cyclegan bundle trained for one epoch."""

    UTTERANCES = 0
    TRAIN_FRAMES = 512
    MIN_FRAMES, MAX_FRAMES = 200, 2000
    REFERENCE_CHECKS = 2   # shortest utterances checked against the dense reference

    def plan(self, seed: int) -> Plan:
        rng = np.random.default_rng([seed, 3])
        lengths = stratified_lengths(rng, self.UTTERANCES, self.MIN_FRAMES, self.MAX_FRAMES)
        return layout(seed, {
            "train_src": [("src", self.TRAIN_FRAMES)],
            "train_tgt": [("tgt", self.TRAIN_FRAMES)],
            "utts": [("src", n) for n in lengths],
        })

    def prepare_model(self, ctx: Context) -> None:
        self._must(call_cli([
            "train", "--method", "cyclegan",
            "--src-mcep", *ctx.files("train_src"), "--tgt-mcep", *ctx.files("train_tgt"),
            "--src-stats", str(ctx.setup_dir / "src.stats"),
            "--tgt-stats", str(ctx.setup_dir / "tgt.stats"),
            "--out-dir", str(ctx.setup_dir / "model"), "--epochs", "1",
            "--seed", str(ctx.plan.seed),
        ]))

    def _reference(self, ctx: Context, cut) -> np.ndarray | None:
        """Dense reference for the shortest utterances, on their first pass only."""
        if "reference_cuts" not in ctx.state:
            by_length = sorted(ctx.plan.groups["utts"], key=lambda c: c.frames)
            ctx.state["reference_cuts"] = {c.name for c in by_length[: self.REFERENCE_CHECKS]}
            ctx.state["layers"] = checks.read_mlp(ctx.setup_dir / "model" / "g.mlp")
            ctx.state["src"] = checks.read_stats(ctx.setup_dir / "src.stats")
            ctx.state["tgt"] = checks.read_stats(ctx.setup_dir / "tgt.stats")
        if cut.name not in ctx.state["reference_cuts"]:
            return None
        ctx.state["reference_cuts"].discard(cut.name)
        _, mcep = checks.read_ftr(ctx.utt(cut, "mcep"))
        return checks.reference_lower(mcep, ctx.state["layers"], ctx.state["src"], ctx.state["tgt"])

    def _file_problems(self, ctx: Context, cut, outs: dict[str, Path], reference) -> list[str]:
        try:
            inputs = [checks.read_ftr(ctx.utt(cut, s))[1] for s in ("mcep", "f0", "ap")]
            kinds, outputs = zip(*(checks.read_ftr(outs[s]) for s in ("mcep", "f0", "ap")))
        except (OSError, ValueError) as exc:
            return [f"output unreadable: {exc}"]
        finally:
            for path in outs.values():
                path.unlink(missing_ok=True)
        if kinds != (checks.KIND_MCEP49, checks.KIND_F0, checks.KIND_AP):
            return [f"output kind codes {kinds}"]
        return checks.conversion_problems(*inputs, *outputs, reference=reference)

    def _outs(self, ctx: Context) -> dict[str, Path]:
        return {s: ctx.out_dir / f"out.{s}.ftr" for s in ("mcep", "f0", "ap")}


class ConvertCli(_Convert):
    name = "convert-cli"
    why = ("one cyclevc convert call per utterance, 200-2000 frames, MLPG on: each call "
           "re-reads the whole bundle, so persistence and CLI glue dominate")
    primary = "convert"
    probe_kernels = ("parse",)
    UTTERANCES = 12

    def pass_ops(self, ctx: Context) -> list[Op]:
        outs = self._outs(ctx)
        ops = []
        for cut in ctx.plan.groups["utts"]:
            argv = [
                "convert", "--model-dir", str(ctx.setup_dir / "model"),
                "--src-stats", str(ctx.setup_dir / "src.stats"),
                "--tgt-stats", str(ctx.setup_dir / "tgt.stats"),
                "--mcep", ctx.utt(cut, "mcep"), "--f0", ctx.utt(cut, "f0"), "--ap", ctx.utt(cut, "ap"),
                "--out-mcep", str(outs["mcep"]), "--out-f0", str(outs["f0"]), "--out-ap", str(outs["ap"]),
            ]

            def check(res, cut=cut):
                problems = _failed_call(res)
                if not problems and _fields(res.stdout).get("frames") != str(cut.frames):
                    problems.append(f"convert reported {res.stdout.strip()!r} for {cut.frames} frames")
                if problems:
                    return problems
                return self._file_problems(ctx, cut, outs, self._reference(ctx, cut))

            ops.append(Op("convert", cut.frames, lambda argv=argv: call_cli(argv), check))
        return ops

    def named_metrics(self, records, ctx):
        return {
            "convert_call_ms_p50": (1e3 * statistics.median(_latency(records, "convert")), "ms"),
            "convert_cli_frames_per_s": (throughput(records), "frames/s"),
        }


class ConvertBatch(_Convert):
    name = "convert-batch"
    why = ("batches of 40 utterances, 200-2000 frames: one bundle load, then "
           "pipeline.convert_utterance per utterance, so deltas, generator and MLPG carry the time")
    primary = "utterance"
    probe_kernels = ("blas", "interp")
    UTTERANCES = 40

    def pass_ops(self, ctx: Context) -> list[Op]:
        def load():
            method, networks = cyclevc.pipeline.load_model_bundle(ctx.setup_dir / "model")
            ctx.state["G"] = networks["G"]
            ctx.state["stats"] = (
                cyclevc.pipeline.load_speaker_stats(ctx.setup_dir / "src.stats"),
                cyclevc.pipeline.load_speaker_stats(ctx.setup_dir / "tgt.stats"),
            )
            return method

        def check_load(method):
            return [] if method == "cyclegan" else [f"bundle loaded as method {method!r}"]

        outs = self._outs(ctx)
        ops = [Op("load", 0, load, check_load)]
        for cut in ctx.plan.groups["utts"]:
            def run(cut=cut):
                read = cyclevc.features.read_ftr
                g = ctx.state["G"]
                src_stats, tgt_stats = ctx.state["stats"]
                result = cyclevc.pipeline.convert_utterance(
                    generator=lambda batch: cyclevc.net.forward(g, batch)[0],
                    src_stats=src_stats,
                    tgt_stats=tgt_stats,
                    mcep=read(ctx.utt(cut, "mcep")),
                    f0=read(ctx.utt(cut, "f0")),
                    aperiodicity=read(ctx.utt(cut, "ap")),
                )
                cyclevc.features.write_ftr(outs["mcep"], result.mcep)
                cyclevc.features.write_ftr(outs["f0"], result.f0)
                cyclevc.features.write_ftr(outs["ap"], result.aperiodicity)
                return result

            def check(result, cut=cut):
                inputs = [checks.read_ftr(ctx.utt(cut, s))[1].astype(np.float64)
                          for s in ("mcep", "f0", "ap")]
                outputs = (result.mcep.data, result.f0.data, result.aperiodicity.data)
                reference = self._reference(ctx, cut)
                problems = checks.conversion_problems(*inputs, *outputs, reference=reference)
                return problems + self._file_problems(ctx, cut, outs, reference)

            ops.append(Op("utterance", cut.frames, run, check))
        return ops

    def named_metrics(self, records, ctx):
        utts = [1e3 * s for s in _latency(records, "utterance")]
        return {
            "convert_utt_ms_p50": (statistics.median(utts), "ms"),
            "convert_utt_ms_p90": (float(np.percentile(utts, 90)), "ms"),
            "convert_batch_frames_per_s": (throughput(records), "frames/s"),
        }


# ---------------------------------------------------------------------------
# parallel-align
# ---------------------------------------------------------------------------

class ParallelAlign(Workload):
    name = "parallel-align"
    why = ("gan-parallel training at --hidden 32 on unequal-length pairs, then eval: "
           "pure-Python DTW and a small, overhead-bound net")
    primary = "eval"
    probe_kernels = ("interp",)
    PAIRS = 4
    EVAL_PAIRS = 6
    EPOCHS = 10
    MIN_FRAMES, MAX_FRAMES = 400, 700
    MIN_RATIO, MAX_RATIO = 0.8, 1.25

    def _pairs(self, rng, n):
        """Source lengths and length ratios from n bands each; the longest
        source gets the smallest ratio, so the DTW sizes stay alike."""
        src = np.rint(band_points(rng, n, self.MIN_FRAMES, self.MAX_FRAMES))
        ratio = band_points(rng, n, self.MIN_RATIO, self.MAX_RATIO)[::-1]
        order = rng.permutation(n)
        tgt = np.rint(src * ratio)
        return ([("src", int(a)) for a in src[order]], [("tgt", int(b)) for b in tgt[order]])

    def plan(self, seed: int) -> Plan:
        rng = np.random.default_rng([seed, 4])
        train_src, train_tgt = self._pairs(rng, self.PAIRS)
        eval_src, eval_tgt = self._pairs(rng, self.EVAL_PAIRS)
        return layout(seed, {
            "train_src": train_src, "train_tgt": train_tgt,
            "eval_src": eval_src, "eval_tgt": eval_tgt,
        })

    def pass_ops(self, ctx: Context) -> list[Op]:
        out = ctx.out_dir / "model"
        groups = ctx.plan.groups
        argv = [
            "train", "--method", "gan-parallel", "--hidden", "32",
            "--src-mcep", *ctx.files("train_src"), "--tgt-mcep", *ctx.files("train_tgt"),
            "--src-stats", str(ctx.setup_dir / "src.stats"),
            "--tgt-stats", str(ctx.setup_dir / "tgt.stats"),
            "--out-dir", str(out), "--epochs", str(self.EPOCHS), "--seed", str(ctx.plan.seed),
        ]
        train_frames = sum(c.frames for c in groups["train_src"] + groups["train_tgt"])
        columns = ["disc", "adv", "mse", "total"]
        ops = [Op(
            "train", train_frames, lambda: call_cli(argv),
            lambda res: _training_problems(ctx, res, out, "gan-parallel", columns, self.EPOCHS),
        )]
        for ref, conv in zip(groups["eval_tgt"], groups["eval_src"]):
            argv_eval = ["eval", "--reference", ctx.utt(ref, "mcep"), "--converted", ctx.utt(conv, "mcep")]
            ops.append(Op(
                "eval", ref.frames + conv.frames, lambda a=argv_eval: call_cli(a),
                lambda res, ref=ref, conv=conv: self._eval_problems(ctx, res, ref, conv),
            ))
        return ops

    def _eval_problems(self, ctx: Context, res: CliResult, ref, conv) -> list[str]:
        """On a pair's first eval, re-derive the alignment with ``cyclevc
        align`` and check the path, its cost and the reported MCD against a
        recomputation; later evals of the pair must repeat that MCD exactly."""
        problems = _failed_call(res)
        if problems:
            return problems
        printed = _fields(res.stdout)
        if (printed.get("frames_reference"), printed.get("frames_converted")) != (
                str(ref.frames), str(conv.frames)):
            return [f"eval reported {res.stdout.strip()!r}"]
        verified = ctx.state.setdefault("verified_mcd", {})
        if ref.name in verified:
            if printed.get("mcd_db") != verified[ref.name]:
                return [f"eval MCD {printed.get('mcd_db')} != verified {verified[ref.name]}"]
            return []
        csv = ctx.out_dir / "path.csv"
        aligned = call_cli(["align", "--a", ctx.utt(ref, "mcep"), "--b", ctx.utt(conv, "mcep"),
                            "--out", str(csv)])
        problems = _failed_call(aligned)
        if problems:
            return ["align: " + p for p in problems]
        pairs = np.loadtxt(csv, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
        csv.unlink()
        a = checks.read_ftr(ctx.utt(ref, "mcep"))[1][:, : checks.LOW_DIM].astype(np.float64)
        b = checks.read_ftr(ctx.utt(conv, "mcep"))[1][:, : checks.LOW_DIM].astype(np.float64)
        problems = checks.alignment_problems(
            a, b, pairs, float(_fields(aligned.stdout)["cost"]), float(printed["mcd_db"]))
        if not problems:
            verified[ref.name] = printed["mcd_db"]
        return problems

    def named_metrics(self, records, ctx):
        return {
            "parallel_train_s": (statistics.median(_latency(records, "train")), "s"),
            "eval_call_ms_p50": (1e3 * statistics.median(_latency(records, "eval")), "ms"),
            "parallel_frames_per_s": (throughput(records), "frames/s"),
        }


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (TrainCycleGan(), ConvertCli(), ConvertBatch(), ParallelAlign())
}
