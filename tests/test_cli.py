"""End-to-end command-line tests over a small generated corpus."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cyclevc
from cyclevc import baselines, cyclegan
from cyclevc.baselines import GanBaselineConfig, MseBaselineConfig
from cyclevc.cli import build_parser, main
from cyclevc.cyclegan import CycleGanConfig
from cyclevc.errors import NonFiniteError
from cyclevc.features import read_ftr, split_mcep, write_ftr
from cyclevc.net import forward
from cyclevc.pipeline import convert_utterance, load_model_bundle, load_speaker_stats


def write_spec(path, seed=31, frames_a=160, frames_b=140):
    rng = np.random.default_rng(99)

    def mixture(center):
        means = (center + rng.normal(0, 0.4, size=(3, 25))).tolist()
        return {
            "weights": [0.5, 0.3, 0.2],
            "means": means,
            "stds": np.full((3, 25), 0.3).tolist(),
        }

    doc = {
        "seed": seed,
        "aperiodicity_dim": 5,
        "speakers": [
            {"name": "src", "frames": frames_a, "mixture": mixture(-1.0),
             "logf0_mean": 4.8, "logf0_std": 0.2, "voiced_fraction": 0.9},
            {"name": "tgt", "frames": frames_b, "mixture": mixture(1.0),
             "logf0_mean": 5.3, "logf0_std": 0.15, "voiced_fraction": 0.9},
        ],
    }
    path.write_text(json.dumps(doc))


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Synthetic two-speaker corpus with fitted stats, built once per module."""
    root = tmp_path_factory.mktemp("corpus")
    spec = root / "spec.json"
    write_spec(spec)
    assert main(["gen-synthetic", "--spec", str(spec), "--out-dir", str(root)]) == 0
    for name in ("src", "tgt"):
        assert main([
            "stats",
            "--mcep", str(root / f"{name}.mcep.ftr"),
            "--f0", str(root / f"{name}.f0.ftr"),
            "--out", str(root / f"{name}.stats"),
        ]) == 0
    return root


def train_args(corpus, method, out_dir, *extra):
    return [
        "train", "--method", method,
        "--src-mcep", str(corpus / "src.mcep.ftr"),
        "--tgt-mcep", str(corpus / "tgt.mcep.ftr"),
        "--src-stats", str(corpus / "src.stats"),
        "--tgt-stats", str(corpus / "tgt.stats"),
        "--out-dir", str(out_dir),
        "--epochs", "2", "--hidden", "8", "--seed", "7",
        *extra,
    ]


def test_cli_import_loads_no_scipy():
    """scipy is imported inside DTW and MLPG, the only code that uses it, so
    train, stats and gen-synthetic never pay its import time. Checked in a
    fresh interpreter, where no earlier test has loaded scipy."""
    code = "import sys, cyclevc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(Path(cyclevc.__file__).resolve().parents[1])},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert run.stdout.strip() == "[]"


def test_stats_and_cyclegan_training_load_no_scipy(tmp_path):
    """gen-synthetic, stats and a cyclegan run need neither DTW nor MLPG, so
    a fresh interpreter that runs all three has not loaded scipy."""
    spec = tmp_path / "spec.json"
    write_spec(spec, frames_a=40, frames_b=40)
    runs = [["gen-synthetic", "--spec", str(spec), "--out-dir", str(tmp_path)]]
    for name in ("src", "tgt"):
        runs.append([
            "stats", "--mcep", str(tmp_path / f"{name}.mcep.ftr"),
            "--f0", str(tmp_path / f"{name}.f0.ftr"), "--out", str(tmp_path / f"{name}.stats"),
        ])
    runs.append(train_args(tmp_path, "cyclegan", tmp_path / "model") + ["--batch", "16"])
    code = (
        "import json, sys; from cyclevc.cli import main\n"
        "assert all(main(argv) == 0 for argv in json.loads(sys.argv[1]))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": str(Path(cyclevc.__file__).resolve().parents[1])},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert (tmp_path / "model" / "losses.csv").exists()
    assert run.stdout.splitlines()[-1] == "[]"


class TestParserDefaults:
    def test_training_flag_defaults(self):
        args = build_parser().parse_args(
            ["train", "--method", "cyclegan", "--src-mcep", "a", "--tgt-mcep", "b",
             "--src-stats", "s", "--tgt-stats", "t", "--out-dir", "d"]
        )
        # A setting left out stays None: its method's config default applies.
        for dest in (
            "seed", "cycle_weight", "batch_frames", "epochs", "lr_generator",
            "lr_discriminator", "loss_form", "mse_weight", "hidden_dims",
        ):
            assert getattr(args, dest) is None
        config = CycleGanConfig()
        assert config.cycle_weight == 10.0
        assert config.batch_frames == 128
        assert config.lr_generator == 0.001
        assert config.lr_discriminator == 0.0001
        assert config.epochs == 400
        assert GanBaselineConfig().epochs == 400
        assert MseBaselineConfig().epochs == 60

    def test_hidden_parse(self):
        args = build_parser().parse_args(
            ["train", "--method", "cyclegan", "--src-mcep", "a", "--tgt-mcep", "b",
             "--src-stats", "s", "--tgt-stats", "t", "--out-dir", "d",
             "--hidden", "16,32,16"]
        )
        assert args.hidden_dims == (16, 32, 16)


class TestGenSynthetic:
    def test_byte_determinism(self, corpus, tmp_path):
        spec = tmp_path / "spec.json"
        write_spec(spec)
        assert main(["gen-synthetic", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 0
        for name in ("src", "tgt"):
            for stream in ("mcep", "f0", "ap"):
                fresh = (tmp_path / f"{name}.{stream}.ftr").read_bytes()
                original = (corpus / f"{name}.{stream}.ftr").read_bytes()
                assert fresh == original

    def test_bad_spec_is_an_error(self, tmp_path, capsys):
        spec = tmp_path / "broken.json"
        spec.write_text("{")
        assert main(["gen-synthetic", "--spec", str(spec), "--out-dir", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "names",
        [("a", "a"), ("", "b"), (".", "b"), ("..", "b"), ("../escape", "b"), ("a\\b", "c")],
        ids=["repeated", "empty", "dot", "dot-dot", "parent-path", "backslash"],
    )
    def test_unsafe_speaker_names_write_nothing(self, tmp_path, capsys, names):
        spec = tmp_path / "spec.json"
        write_spec(spec)
        doc = json.loads(spec.read_text())
        for speaker, name in zip(doc["speakers"], names):
            speaker["name"] = name
        spec.write_text(json.dumps(doc))
        out_dir = tmp_path / "sub" / "out"
        assert main(["gen-synthetic", "--spec", str(spec), "--out-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {spec}: malformed synthetic spec: ")
        assert not (tmp_path / "sub").exists()
        assert list(tmp_path.rglob("*.ftr")) == []


class TestStats:
    def test_all_unvoiced_names_the_file(self, corpus, tmp_path, capsys):
        from cyclevc.features import FeatureKind, FeatureSequence, write_ftr

        silent = tmp_path / "silent.f0.ftr"
        write_ftr(silent, FeatureSequence(np.zeros((10, 1)), FeatureKind.F0))
        code = main([
            "stats",
            "--mcep", str(corpus / "src.mcep.ftr"),
            "--f0", str(silent),
            "--out", str(tmp_path / "out.stats"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "silent.f0.ftr" in err

    def test_missing_file(self, tmp_path, capsys):
        code = main([
            "stats", "--mcep", str(tmp_path / "nope.ftr"),
            "--f0", str(tmp_path / "nope2.ftr"),
            "--out", str(tmp_path / "out.stats"),
        ])
        assert code == 1


class TestTrain:
    def test_cyclegan_outputs(self, corpus, tmp_path, capsys):
        out = tmp_path / "models"
        assert main(train_args(corpus, "cyclegan", out)) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == (
            "method=cyclegan lr_generator=0.001 batch_frames=128 epochs=2 seed=7 "
            "hidden_dims=(8,) cycle_weight=10.0 lr_discriminator=0.0001 loss_form='lsgan'"
        )
        manifest = (out / "manifest.txt").read_text()
        for role in ("G", "F", "D_X", "D_Y"):
            assert f"network {role} " in manifest
        header = (out / "losses.csv").read_text().splitlines()[0]
        assert header == "epoch,adv_g,adv_f,disc_x,disc_y,cycle,total"

    def test_seeded_rerun_is_byte_identical(self, corpus, tmp_path):
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        assert main(train_args(corpus, "cyclegan", first)) == 0
        assert main(train_args(corpus, "cyclegan", second)) == 0
        assert (first / "losses.csv").read_bytes() == (second / "losses.csv").read_bytes()
        assert (first / "g.mlp").read_bytes() == (second / "g.mlp").read_bytes()

    def test_mse_parallel(self, corpus, tmp_path, capsys):
        """The header names only the settings mse-parallel uses."""
        out = tmp_path / "models"
        assert main(train_args(corpus, "mse-parallel", out)) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == (
            "method=mse-parallel lr_generator=0.001 batch_frames=128 epochs=2 seed=7 "
            "hidden_dims=(8,)"
        )
        lines = (out / "losses.csv").read_text().splitlines()
        assert lines[0] == "epoch,mse"
        assert len(lines) == 3  # header + 2 epochs

    def test_gan_parallel(self, corpus, tmp_path, capsys):
        out = tmp_path / "models"
        args = train_args(corpus, "gan-parallel", out, "--mse-weight", "0.5", "--loss-form", "log")
        assert main(args) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == (
            "method=gan-parallel lr_generator=0.001 batch_frames=128 epochs=2 seed=7 "
            "hidden_dims=(8,) mse_weight=0.5 lr_discriminator=0.0001 loss_form='log'"
        )
        lines = (out / "losses.csv").read_text().splitlines()
        assert lines[0] == "epoch,disc,adv,mse,total"

    @pytest.mark.parametrize(
        "method, flag, value",
        [
            ("mse-parallel", "--lambda", "3"),
            ("mse-parallel", "--lr-d", "0.5"),
            ("cyclegan", "--mse-weight", "0.5"),
            ("gan-parallel", "--lambda", "3"),
        ],
    )
    def test_flag_the_method_does_not_use_is_an_error(
        self, tmp_path, capsys, method, flag, value
    ):
        """Rejected before any input is read: none of these files exist."""
        out = tmp_path / "models"
        assert main(train_args(tmp_path / "missing", method, out, flag, value)) == 1
        assert capsys.readouterr().err == f"error: {flag} is not used by --method {method}\n"
        assert not out.exists()

    def test_parallel_list_mismatch_is_an_error(self, corpus, tmp_path, capsys):
        args = train_args(corpus, "mse-parallel", tmp_path / "m")
        args[args.index("--tgt-mcep") + 1 :] = [
            str(corpus / "tgt.mcep.ftr"), str(corpus / "src.mcep.ftr"),
        ] + args[args.index("--tgt-mcep") + 2 :]
        assert main(args) == 1
        assert "parallel" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["cyclegan", "gan-parallel", "mse-parallel"])
    def test_non_finite_step_names_its_epoch_and_step(
        self, corpus, tmp_path, capsys, monkeypatch, method
    ):
        """An update that diverges in epoch 2, step 3 is reported there."""
        steps = []  # steps drawn so far, one entry per epoch
        batches = cyclegan.epoch_batches
        update = cyclegan.apply_update

        def counted(*args):
            steps.append(0)
            for indices in batches(*args):
                steps[-1] += 1
                yield indices

        def diverging(*args):
            if len(steps) == 2 and steps[1] == 3:
                raise NonFiniteError("non-finite gradient in layer 1")
            return update(*args)

        monkeypatch.setattr(cyclegan, "epoch_batches", counted)
        monkeypatch.setattr(cyclegan, "apply_update", diverging)
        monkeypatch.setattr(baselines, "apply_update", diverging)
        assert main(train_args(corpus, method, tmp_path / "m", "--batch", "16")) == 1
        err = capsys.readouterr().err
        assert err == "error: epoch 2, step 3: non-finite gradient in layer 1\n"


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("models")
    assert main(train_args(corpus, "cyclegan", out)) == 0
    return out


class TestConvertAndEval:
    def convert_args(self, corpus, trained, out_dir, *extra):
        return [
            "convert", "--model-dir", str(trained),
            "--src-stats", str(corpus / "src.stats"),
            "--tgt-stats", str(corpus / "tgt.stats"),
            "--mcep", str(corpus / "src.mcep.ftr"),
            "--f0", str(corpus / "src.f0.ftr"),
            "--ap", str(corpus / "src.ap.ftr"),
            "--out-mcep", str(out_dir / "out.mcep.ftr"),
            "--out-f0", str(out_dir / "out.f0.ftr"),
            "--out-ap", str(out_dir / "out.ap.ftr"),
            *extra,
        ]

    def test_pass_through_integrity(self, corpus, trained, tmp_path, capsys):
        assert main(self.convert_args(corpus, trained, tmp_path)) == 0
        report = capsys.readouterr().out
        assert "frames=160" in report and "mcd_db=" in report

        src = read_ftr(corpus / "src.mcep.ftr")
        out = read_ftr(tmp_path / "out.mcep.ftr")
        assert out.frames == src.frames
        assert np.array_equal(out.data[:, 25:], src.data[:, 25:])
        # aperiodicity stream is byte-identical on disk
        assert (tmp_path / "out.ap.ftr").read_bytes() == (
            corpus / "src.ap.ftr"
        ).read_bytes()
        f0_in = read_ftr(corpus / "src.f0.ftr")
        f0_out = read_ftr(tmp_path / "out.f0.ftr")
        assert np.array_equal(f0_out.data > 0, f0_in.data > 0)

    def test_converted_output_is_deterministic(self, corpus, trained, tmp_path):
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        a_dir.mkdir(), b_dir.mkdir()
        assert main(self.convert_args(corpus, trained, a_dir)) == 0
        assert main(self.convert_args(corpus, trained, b_dir)) == 0
        for name in ("out.mcep.ftr", "out.f0.ftr", "out.ap.ftr"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_trace_lists_stages_in_order(self, corpus, trained, tmp_path, capsys):
        assert main(self.convert_args(corpus, trained, tmp_path, "--trace")) == 0
        out = capsys.readouterr().out
        stages = [l.split(": ", 1)[1] for l in out.splitlines() if l.startswith("stage:")]
        assert stages == [
            "split-mcep", "compute-deltas", "normalize-source", "generator",
            "denormalize-target", "mlpg", "postfilter", "merge-mcep",
            "transform-f0", "copy-aperiodicity",
        ]

    def test_mlpg_off_uses_slice_stage(self, corpus, trained, tmp_path, capsys):
        assert main(
            self.convert_args(corpus, trained, tmp_path, "--trace", "--mlpg", "off")
        ) == 0
        out = capsys.readouterr().out
        assert "stage: slice-statics" in out
        assert "stage: mlpg" not in out

    def test_reverse_direction_runs(self, corpus, trained, tmp_path):
        args = [
            "convert", "--model-dir", str(trained), "--direction", "yx",
            "--src-stats", str(corpus / "tgt.stats"),
            "--tgt-stats", str(corpus / "src.stats"),
            "--mcep", str(corpus / "tgt.mcep.ftr"),
            "--f0", str(corpus / "tgt.f0.ftr"),
            "--ap", str(corpus / "tgt.ap.ftr"),
            "--out-mcep", str(tmp_path / "o.mcep.ftr"),
            "--out-f0", str(tmp_path / "o.f0.ftr"),
            "--out-ap", str(tmp_path / "o.ap.ftr"),
        ]
        assert main(args) == 0

    def test_eval_identical_files(self, corpus, capsys):
        path = str(corpus / "src.mcep.ftr")
        assert main(["eval", "--reference", path, "--converted", path]) == 0
        out = capsys.readouterr().out
        assert "mcd_db=0.0" in out

    def test_eval_differing_lengths(self, corpus, capsys):
        assert main([
            "eval",
            "--reference", str(corpus / "tgt.mcep.ftr"),
            "--converted", str(corpus / "src.mcep.ftr"),
        ]) == 0
        out = capsys.readouterr().out
        value = float(out.split("mcd_db=")[1].split()[0])
        assert value > 0 and np.isfinite(value)


@pytest.fixture(scope="module")
def bundles(corpus, trained, tmp_path_factory):
    """A trained bundle per method."""
    out = {"cyclegan": trained}
    for method in ("gan-parallel", "mse-parallel"):
        out[method] = tmp_path_factory.mktemp(method)
        assert main(train_args(corpus, method, out[method])) == 0
    return out


_OUTPUTS = ("out.mcep.ftr", "out.f0.ftr", "out.ap.ftr")


def convert_argv(corpus, model_dir, out_dir, direction="xy"):
    src, tgt = ("src", "tgt") if direction == "xy" else ("tgt", "src")
    return [
        "convert", "--model-dir", str(model_dir), "--direction", direction,
        "--src-stats", str(corpus / f"{src}.stats"),
        "--tgt-stats", str(corpus / f"{tgt}.stats"),
        "--mcep", str(corpus / f"{src}.mcep.ftr"),
        "--f0", str(corpus / f"{src}.f0.ftr"),
        "--ap", str(corpus / f"{src}.ap.ftr"),
        "--out-mcep", str(out_dir / "out.mcep.ftr"),
        "--out-f0", str(out_dir / "out.f0.ftr"),
        "--out-ap", str(out_dir / "out.ap.ftr"),
    ]


def whole_bundle_convert(corpus, model_dir, out_dir, direction):
    """Convert through a load of every network in the bundle."""
    src, tgt = ("src", "tgt") if direction == "xy" else ("tgt", "src")
    _, networks = load_model_bundle(model_dir)
    net = networks["G" if direction == "xy" else "F"]
    result = convert_utterance(
        generator=lambda batch: forward(net, batch)[0],
        src_stats=load_speaker_stats(corpus / f"{src}.stats"),
        tgt_stats=load_speaker_stats(corpus / f"{tgt}.stats"),
        mcep=read_ftr(corpus / f"{src}.mcep.ftr"),
        f0=read_ftr(corpus / f"{src}.f0.ftr"),
        aperiodicity=read_ftr(corpus / f"{src}.ap.ftr"),
    )
    out_dir.mkdir()
    for name, seq in zip(_OUTPUTS, (result.mcep, result.f0, result.aperiodicity)):
        write_ftr(out_dir / name, seq)


class TestConvertLoadsOneNetwork:
    @pytest.mark.parametrize(
        "method, direction",
        [("cyclegan", "xy"), ("cyclegan", "yx"), ("gan-parallel", "xy"), ("mse-parallel", "xy")],
    )
    def test_matches_whole_bundle_conversion(self, corpus, bundles, tmp_path, method, direction):
        whole_bundle_convert(corpus, bundles[method], tmp_path / "ref", direction)
        (tmp_path / "cli").mkdir()
        assert main(convert_argv(corpus, bundles[method], tmp_path / "cli", direction)) == 0
        for name in _OUTPUTS:
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    def test_corrupt_discriminator_does_not_block_conversion(self, corpus, bundles, tmp_path):
        model = tmp_path / "model"
        shutil.copytree(bundles["cyclegan"], model)
        (model / "d_x.mlp").write_text("not a model\n")
        whole_bundle_convert(corpus, bundles["cyclegan"], tmp_path / "ref", "xy")
        (tmp_path / "cli").mkdir()
        assert main(convert_argv(corpus, model, tmp_path / "cli")) == 0
        for name in _OUTPUTS:
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()

    @pytest.mark.parametrize("direction, filename", [("xy", "g.mlp"), ("yx", "f.mlp")])
    def test_corrupt_generator_in_use_names_the_file(
        self, corpus, bundles, tmp_path, capsys, direction, filename
    ):
        model = tmp_path / "model"
        shutil.copytree(bundles["cyclegan"], model)
        (model / filename).write_text("not a model\n")
        assert main(convert_argv(corpus, model, tmp_path, direction)) == 1
        assert str(model / filename) in capsys.readouterr().err

    def test_bad_f0_file_names_the_file(self, corpus, bundles, tmp_path, capsys):
        f0 = tmp_path / "nan.f0.ftr"
        f0.write_bytes((corpus / "src.f0.ftr").read_bytes())
        with open(f0, "r+b") as fh:
            fh.seek(16)  # the first frame, after the FTR1 header
            fh.write(np.array([np.nan], dtype="<f4").tobytes())
        argv = convert_argv(corpus, bundles["cyclegan"], tmp_path)
        argv[argv.index("--f0") + 1] = str(f0)
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {f0}: feature data contains non-finite entries\n"
        )

    def test_non_utf8_stats_error_names_the_file(self, corpus, bundles, tmp_path, capsys):
        stats = tmp_path / "src.stats"
        stats.write_bytes(b"\xff" + (corpus / "src.stats").read_bytes())
        argv = convert_argv(corpus, bundles["cyclegan"], tmp_path)
        argv[argv.index("--src-stats") + 1] = str(stats)
        assert main(argv) == 1
        assert f"{stats}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["cyclegan", "gan-parallel", "mse-parallel"])
    def test_images_load_the_parameters_the_text_holds(
        self, bundles, tmp_path, monkeypatch, method
    ):
        text_only = tmp_path / "model"
        shutil.copytree(bundles[method], text_only)
        images = sorted(text_only.glob("*.mlp.f8"))
        assert [p.name for p in images] == sorted(f"{p.name}.f8" for p in text_only.glob("*.mlp"))
        for path in images:
            path.unlink()
        parsed = []
        parse = cyclevc.net._parse_block
        monkeypatch.setattr(cyclevc.net, "_parse_block", lambda *a: parsed.append(a[0]) or parse(*a))
        _, through_images = load_model_bundle(bundles[method])
        assert parsed == []
        _, through_text = load_model_bundle(text_only)
        assert {Path(p).name for p in parsed} == {p.name[:-3] for p in images}
        assert through_images.keys() == through_text.keys()
        for role, net in through_images.items():
            assert net.params.tobytes() == through_text[role].params.tobytes()

    def test_reverse_direction_on_parallel_bundle_reads_no_network(
        self, corpus, bundles, tmp_path, capsys
    ):
        model = tmp_path / "model"
        shutil.copytree(bundles["gan-parallel"], model)
        for path in model.glob("*.mlp"):
            path.unlink()
        assert main(convert_argv(corpus, model, tmp_path, "yx")) == 1
        assert "one-way mapping" in capsys.readouterr().err


class TestAlign:
    def test_path_csv(self, corpus, tmp_path, capsys):
        out = tmp_path / "path.csv"
        assert main([
            "align",
            "--a", str(corpus / "src.mcep.ftr"),
            "--b", str(corpus / "tgt.mcep.ftr"),
            "--out", str(out),
        ]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "i,j"
        first = tuple(int(v) for v in lines[1].split(","))
        last = tuple(int(v) for v in lines[-1].split(","))
        assert first == (0, 0)
        assert last == (159, 139)
        assert "cost=" in capsys.readouterr().out

    def test_mixed_widths_align_on_the_path_eval_uses(self, corpus, tmp_path, capsys):
        """A 49-dim file against a 25-dim one aligns on the lower 25, as
        eval does: same path and cost as two 49-dim files, and eval's MCD is
        the average along that path."""
        tgt = read_ftr(corpus / "tgt.mcep.ftr")
        low = tmp_path / "tgt.low.ftr"
        write_ftr(low, split_mcep(tgt)[0])
        src = str(corpus / "src.mcep.ftr")

        def align(b, out):
            assert main(["align", "--a", src, "--b", str(b), "--out", str(out)]) == 0
            return out.read_text(), capsys.readouterr().out

        mixed_csv, mixed_out = align(low, tmp_path / "mixed.csv")
        full_csv, full_out = align(corpus / "tgt.mcep.ftr", tmp_path / "full.csv")
        assert (mixed_csv, mixed_out) == (full_csv, full_out)

        assert main(["eval", "--reference", src, "--converted", str(low)]) == 0
        mcd = float(capsys.readouterr().out.split("mcd_db=")[1].split()[0])
        pairs = np.loadtxt(tmp_path / "mixed.csv", delimiter=",", skiprows=1, dtype=np.intp)
        a = split_mcep(read_ftr(src))[0].data[pairs[:, 0]]
        b = split_mcep(tgt)[0].data[pairs[:, 1]]
        per_frame = 10.0 / np.log(10.0) * np.sqrt(2.0 * ((a[:, 1:] - b[:, 1:]) ** 2).sum(axis=1))
        assert mcd == pytest.approx(per_frame.mean(), rel=1e-12)
