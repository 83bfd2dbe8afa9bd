"""End-to-end command-line tests over a small generated corpus."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cyclevc
from cyclevc import baselines, cyclegan, mlpg
from cyclevc.baselines import GanBaselineConfig, MseBaselineConfig
from cyclevc.cli import build_parser, main
from cyclevc.cyclegan import CycleGanConfig
from cyclevc.errors import NonFiniteError
from cyclevc.features import FeatureKind, FeatureSequence, read_ftr, split_mcep, write_ftr
from cyclevc.net import Mlp, forward, init_mlp
from cyclevc.pipeline import (
    convert_utterance,
    load_model_bundle,
    load_speaker_stats,
    save_model_bundle,
)


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
    """scipy is imported only inside the fallbacks of MLPG (a numpy with no
    64-bit-integer LAPACK) and DTW (a scipy whose distance kernel cannot be
    loaded on its own), so importing the CLI never pays its import time.
    Checked in a fresh interpreter, where no earlier test has loaded scipy."""
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


@pytest.mark.skipif(
    not isinstance(mlpg._band_lapack(), mlpg._NumpyLapack),
    reason="numpy links no 64-bit-integer LAPACK",
)
def test_convert_with_mlpg_loads_no_scipy(corpus, trained, tmp_path):
    """MLPG solves through the LAPACK numpy links, so a fresh interpreter
    that converts an utterance with MLPG on has not loaded scipy."""
    argv = [
        "convert", "--model-dir", str(trained), "--mlpg", "on",
        "--src-stats", str(corpus / "src.stats"), "--tgt-stats", str(corpus / "tgt.stats"),
        *(arg for stream in ("mcep", "f0", "ap") for arg in (
            f"--{stream}", str(corpus / f"src.{stream}.ftr"),
            f"--out-{stream}", str(tmp_path / f"out.{stream}.ftr"),
        )),
    ]
    code = (
        "import json, sys; from cyclevc.cli import main\n"
        "assert main(json.loads(sys.argv[1])) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argv)],
        env={**os.environ, "PYTHONPATH": str(Path(cyclevc.__file__).resolve().parents[1])},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert (tmp_path / "out.mcep.ftr").exists()
    assert run.stdout.splitlines()[-1] == "[]"


def test_alignment_commands_load_no_scipy(corpus, tmp_path):
    """DTW loads scipy's distance kernel from its extension file alone, so a
    fresh interpreter that aligns, evaluates an unequal-length pair and
    trains both parallel baselines has not loaded scipy. Here, unlike in
    this process (tests/test_align.py imports scipy.spatial), the kernel is
    loaded from the file. Importing scipy.spatial afterwards must leave the
    kernel and public cdist in agreement."""
    src, tgt = str(corpus / "src.mcep.ftr"), str(corpus / "tgt.mcep.ftr")
    runs = [
        ["align", "--a", src, "--b", tgt, "--out", str(tmp_path / "pairs.csv")],
        ["eval", "--reference", src, "--converted", tgt],
    ] + [
        train_args(corpus, method, tmp_path / method) + ["--batch", "16"]
        for method in ("gan-parallel", "mse-parallel")
    ]
    code = (
        "import json, sys; import numpy as np\n"
        "from cyclevc import align; from cyclevc.cli import main\n"
        "assert all(main(argv) == 0 for argv in json.loads(sys.argv[1]))\n"
        "kernel = align._sqeuclidean_kernel()\n"
        "print(kernel is align._public_cdist)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "from scipy.spatial.distance import cdist\n"
        "x, y = np.random.default_rng(3).normal(size=(2, 57, 25))\n"
        "print(kernel(x, y[:41]).tobytes() == cdist(x, y[:41], 'sqeuclidean').tobytes())"
    )
    run = subprocess.run(
        [sys.executable, "-c", code, json.dumps(runs)],
        env={**os.environ, "PYTHONPATH": str(Path(cyclevc.__file__).resolve().parents[1])},
        capture_output=True, text=True, check=True, timeout=120,
    )
    fell_back, loaded, agree = run.stdout.splitlines()[-3:]
    if fell_back == "True":
        pytest.skip("scipy's distance kernel could not be loaded from its file")
    assert (tmp_path / "pairs.csv").exists()
    assert all((tmp_path / method / "losses.csv").exists()
               for method in ("gan-parallel", "mse-parallel"))
    assert loaded == "[]"
    assert agree == "True"


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

    def test_a_train_run_leaves_the_setting_flags_as_built(self, tmp_path, capsys):
        """main() reuses one parser, so the setting_flags every train parse
        gets are the parser's own: a train run must leave them as built."""
        argv = train_args(tmp_path, "cyclegan", tmp_path / "models", "--mse-weight", "1")
        flags = build_parser().parse_args(argv).setting_flags
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --mse-weight is not used by --method cyclegan\n"
        assert build_parser().parse_args(argv).setting_flags is flags
        assert flags == {
            "seed": "--seed", "cycle_weight": "--lambda", "batch_frames": "--batch",
            "epochs": "--epochs", "lr_generator": "--lr-g", "lr_discriminator": "--lr-d",
            "loss_form": "--loss-form", "mse_weight": "--mse-weight", "hidden_dims": "--hidden",
        }

    def test_hidden_parse(self):
        args = build_parser().parse_args(
            ["train", "--method", "cyclegan", "--src-mcep", "a", "--tgt-mcep", "b",
             "--src-stats", "s", "--tgt-stats", "t", "--out-dir", "d",
             "--hidden", "16,32,16"]
        )
        assert args.hidden_dims == (16, 32, 16)

    def test_a_hidden_list_of_non_integers_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as caught:
            build_parser().parse_args(
                ["train", "--method", "cyclegan", "--src-mcep", "a", "--tgt-mcep", "b",
                 "--src-stats", "s", "--tgt-stats", "t", "--out-dir", "d", "--hidden", "4,x"]
            )
        assert caught.value.code == 2
        assert "bad hidden layer list '4,x'" in capsys.readouterr().err


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

    def test_an_integer_too_large_for_a_float_writes_nothing(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        write_spec(spec)
        doc = json.loads(spec.read_text())
        doc["speakers"][0]["mixture"]["weights"][0] = 10**400
        spec.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert main(["gen-synthetic", "--spec", str(spec), "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {spec}: malformed synthetic spec: weights must hold finite numbers, got 1000"
        )
        assert captured.out == ""
        assert not out_dir.exists()

    def test_a_stream_beyond_float32_writes_no_file(self, tmp_path, capsys):
        """The second speaker's mel-cepstra, near 1e39, overflow float32;
        the first speaker's three files must not be written either."""
        spec = tmp_path / "spec.json"
        write_spec(spec)
        doc = json.loads(spec.read_text())
        doc["speakers"][1]["mixture"]["means"] = [[1e39] * 25] * 3
        spec.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert main(["gen-synthetic", "--spec", str(spec), "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {out_dir / 'tgt.mcep.ftr'}: feature data exceeds the float32 range of FTR1\n"
        )
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            {"logf0_mean": 800},
            {"mixture": {"weights": [1.0], "means": [[1e308] * 25], "stds": [[1e308] * 25]}},
        ],
        ids=["logf0-mean-800", "mixture-at-1e308"],
    )
    def test_a_stream_that_overflows_names_the_spec(self, tmp_path, capsys, edit):
        """Finite settings whose draws overflow float64: the error names the
        spec, no numpy warning reaches stderr and nothing is written."""
        spec = tmp_path / "spec.json"
        write_spec(spec)
        doc = json.loads(spec.read_text())
        doc["speakers"][0].update(edit)
        spec.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["gen-synthetic", "--spec", str(spec), "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {spec}: feature data contains non-finite entries\n"
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("value", [10**400, 2**63], ids=["10**400", "2**63"])
    @pytest.mark.parametrize("field", ["frames", "aperiodicity_dim"])
    def test_an_integer_beyond_64_bits_writes_nothing(self, tmp_path, capsys, field, value):
        """frames used to overflow uncaught, and aperiodicity_dim gave
        numpy's message naming neither file nor field; both made --out-dir."""
        spec = tmp_path / "spec.json"
        write_spec(spec)
        doc = json.loads(spec.read_text())
        (doc["speakers"][0] if field == "frames" else doc)[field] = value
        spec.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert main(["gen-synthetic", "--spec", str(spec), "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(
            f"error: {spec}: malformed synthetic spec: {field} must fit in a signed 64-bit integer"
        )
        assert captured.out == ""
        assert not out_dir.exists()

    def test_weights_numpy_cannot_draw_from_name_the_spec(self, tmp_path, capsys):
        """Weights 5e-7 off a sum of 1 used to pass the spec check and fail
        in numpy's draw, with a message that named no file."""
        spec = tmp_path / "spec.json"
        write_spec(spec)
        doc = json.loads(spec.read_text())
        doc["speakers"][0]["mixture"]["weights"] = [0.5, 0.3, 0.2000005]
        spec.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert main(["gen-synthetic", "--spec", str(spec), "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {spec}: malformed synthetic spec: "
            "weights must be nonnegative and sum to 1\n"
        )
        assert captured.out == ""
        assert not out_dir.exists()

    def test_an_unknown_spec_key_writes_nothing(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        write_spec(spec)
        doc = json.loads(spec.read_text())
        doc["speakers"][1]["voiced_fration"] = doc["speakers"][1].pop("voiced_fraction")
        spec.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert main(["gen-synthetic", "--spec", str(spec), "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {spec}: unknown key 'voiced_fration' in speakers[1]\n"
        assert captured.out == ""
        assert not out_dir.exists()

    def test_a_bad_value_writes_nothing(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        write_spec(spec)
        doc = json.loads(spec.read_text())
        doc["speakers"][1]["logf0_std"] = float("nan")
        spec.write_text(json.dumps(doc))
        out_dir = tmp_path / "out"
        assert main(["gen-synthetic", "--spec", str(spec), "--out-dir", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {spec}: malformed synthetic spec: logf0_std must be a finite number, got nan\n"
        )
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "names",
        [("a", "a"), ("", "b"), (".", "b"), ("..", "b"), ("../escape", "b"), ("a\\b", "c"),
         ("a\0b", "c")],
        ids=["repeated", "empty", "dot", "dot-dot", "parent-path", "backslash", "nul"],
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


def write_empty(path, kind=FeatureKind.MCEP49):
    """An FTR file of kind that holds no frame."""
    write_ftr(path, FeatureSequence(np.zeros((0, kind.fixed_dim or 5)), kind))
    return str(path)


class TestStats:
    def test_an_empty_mcep_file_is_named(self, tmp_path, capsys):
        mcep = write_empty(tmp_path / "e.mcep.ftr")
        f0 = write_empty(tmp_path / "e.f0.ftr", FeatureKind.F0)
        out = tmp_path / "out.stats"
        assert main(["stats", "--mcep", mcep, "--f0", f0, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {mcep}: holds no frames\n"
        assert not out.exists()

    def test_a_one_frame_pair_names_both_files(self, corpus, tmp_path, capsys):
        mcep, f0 = str(tmp_path / "one.mcep.ftr"), str(tmp_path / "one.f0.ftr")
        first = read_ftr(corpus / "src.mcep.ftr").data[:1]
        write_ftr(mcep, FeatureSequence(first, FeatureKind.MCEP49))
        write_ftr(f0, FeatureSequence(np.full((1, 1), 150.0), FeatureKind.F0))
        out = tmp_path / "out.stats"
        assert main(["stats", "--mcep", mcep, "--f0", f0, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {mcep}, {f0}: need at least 2 frames to fit normalization stats, got 1\n"
        )
        assert not out.exists()

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

    def test_unequal_file_lists_write_nothing(self, corpus, tmp_path, capsys):
        mceps = [str(corpus / "src.mcep.ftr"), str(corpus / "tgt.mcep.ftr")]
        f0 = str(corpus / "src.f0.ftr")
        out = tmp_path / "out.stats"
        assert main(["stats", "--mcep", *mceps, "--f0", f0, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {mceps[0]}, {mceps[1]}, {f0}: 2 mcep files, 1 F0 files\n"
        assert captured.out == ""
        assert not out.exists()

    def test_a_pair_of_other_lengths_writes_nothing(self, corpus, tmp_path, capsys):
        """The src mcep (160 frames) with the tgt F0 (140), then a matching
        pair: the first pair is refused and named."""
        mceps = [str(corpus / "src.mcep.ftr"), str(corpus / "tgt.mcep.ftr")]
        f0s = [str(corpus / "tgt.f0.ftr"), str(corpus / "tgt.f0.ftr")]
        out = tmp_path / "out.stats"
        assert main(["stats", "--mcep", *mceps, "--f0", *f0s, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {mceps[0]}, {f0s[0]}: F0 has 140 frames, mcep 160\n"
        assert captured.out == ""
        assert not out.exists()

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
        assert (out / "manifest.txt").read_text() == "VCMODEL2\nmethod cyclegan\n"
        for role in ("g", "f", "d_x", "d_y"):
            assert (out / f"{role}.mlp").is_file() and (out / f"{role}.mlp.f8").is_file()
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

    @pytest.mark.parametrize(
        "method, flag, value, field",
        [
            ("cyclegan", "--lambda", "nan", "cycle_weight"),
            ("cyclegan", "--lambda", "inf", "cycle_weight"),
            ("cyclegan", "--lr-g", "nan", "lr_generator"),
            ("cyclegan", "--lr-d", "inf", "lr_discriminator"),
            ("gan-parallel", "--mse-weight", "nan", "mse_weight"),
        ],
    )
    def test_non_finite_setting_is_an_error(
        self, tmp_path, capsys, method, flag, value, field
    ):
        """Refused before any input is read (none of these files exist),
        rather than failing at the first step with a non-finite gradient."""
        out = tmp_path / "models"
        assert main(train_args(tmp_path / "missing", method, out, flag, value)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {field} must be finite, got {value}\n"
        assert "method=" not in captured.out
        assert not out.exists()

    @pytest.mark.parametrize("method", ["cyclegan", "mse-parallel"])
    def test_an_empty_source_file_is_named(self, corpus, tmp_path, capsys, method):
        args = train_args(corpus, method, tmp_path / "m")
        empty = write_empty(tmp_path / "e.mcep.ftr")
        args[args.index("--src-mcep") + 1] = empty
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {empty}: holds no frames\n"
        assert not (tmp_path / "m").exists()

    def test_a_hidden_width_below_one_is_refused_by_the_config(self, corpus, tmp_path, capsys):
        """TrainConfig owns the rule, so the error is the one --epochs 0 gets: exit 1."""
        out_dir = tmp_path / "out"
        assert main(train_args(corpus, "cyclegan", out_dir, "--hidden", "0")) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: hidden_dims[0] must be >= 1, got 0\n"
        assert captured.out == ""
        assert not out_dir.exists()

    def test_parallel_list_mismatch_is_an_error(self, corpus, tmp_path, capsys):
        args = train_args(corpus, "mse-parallel", tmp_path / "m")
        args[args.index("--tgt-mcep") + 1 :] = [
            str(corpus / "tgt.mcep.ftr"), str(corpus / "src.mcep.ftr"),
        ] + args[args.index("--tgt-mcep") + 2 :]
        assert main(args) == 1
        assert "parallel" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["gan-parallel", "mse-parallel"])
    def test_parallel_lists_of_other_lengths_name_every_file(self, corpus, tmp_path, capsys, method):
        src, tgt = str(corpus / "src.mcep.ftr"), str(corpus / "tgt.mcep.ftr")
        args = train_args(corpus, method, tmp_path / "m")
        args[args.index("--src-mcep") + 1 : args.index("--src-mcep") + 2] = [src, tgt]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            f"error: {src}, {tgt}, {tgt}: parallel lists differ: 2 source vs 1 target utterances\n"
        )
        assert not (tmp_path / "m").exists()

    @pytest.mark.parametrize("method", ["gan-parallel", "mse-parallel"])
    def test_parallel_list_lengths_are_compared_before_any_file_is_read(
        self, corpus, tmp_path, capsys, method
    ):
        src, tgt = str(corpus / "src.mcep.ftr"), str(corpus / "tgt.mcep.ftr")
        missing = str(tmp_path / "missing.mcep.ftr")
        args = train_args(corpus, method, tmp_path / "m")
        start, stop = args.index("--src-mcep"), args.index("--tgt-mcep") + 2
        args[start:stop] = ["--src-mcep", src, tgt, "--tgt-mcep", missing]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            f"error: {src}, {tgt}, {missing}: parallel lists differ: "
            "2 source vs 1 target utterances\n"
        )
        assert not (tmp_path / "m").exists()

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

    def test_overflowing_losses_stop_the_run(self, corpus, tmp_path, capsys):
        """At --lr-g 1e153 a step's losses overflow to inf. The run exits 1,
        names where, and writes no bundle. The overflow warning is silenced
        so that the loss check is what stops the run."""
        out = tmp_path / "m"
        with np.errstate(over="ignore"):
            args = train_args(corpus, "mse-parallel", out, "--lr-g", "1e153", "--batch", "32")
            assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: epoch 1, step 2: non-finite losses: ")
        assert not out.exists()

    def test_a_last_update_that_overflows_writes_nothing(self, corpus, tmp_path, capsys):
        """At --lr-g 1e308 and the default batch the one step's losses are
        finite and its update leaves finite parameters, up to about 1e308,
        whose output on the source frames is not."""
        out = tmp_path / "m"
        assert main(train_args(corpus, "mse-parallel", out, "--epochs", "1", "--lr-g", "1e308")) == 1
        assert capsys.readouterr().err == (
            "error: trained G gives non-finite output on the first 128 training frames; "
            "nothing was written\n"
        )
        assert not (out / "manifest.txt").exists() and not (out / "losses.csv").exists()

    @pytest.mark.parametrize("method, epochs, setting", [
        ("mse-parallel", "1", ("--lr-g", "1e308")),
        ("cyclegan", "1", ("--lambda", "1e308")),
        ("gan-parallel", "1", ("--mse-weight", "1e308")),
        ("gan-parallel", "3", ("--lr-d", "1e300")),
    ])
    def test_a_diverging_run_prints_only_its_error(self, corpus, tmp_path, method, epochs, setting):
        """In a fresh interpreter with Python's default warning filters,
        where numpy's overflow and invalid-value warnings would print on
        stderr before the error (the last --epochs given wins)."""
        out = tmp_path / "m"
        args = train_args(corpus, method, out, "--epochs", epochs, "--batch", "32", *setting)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(cyclevc.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from cyclevc.cli import main; sys.exit(main())",
             *args],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 1
        assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1, run.stderr
        assert not out.exists()


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
        assert "frames=160" in report and "shift_db=" in report

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

    def test_one_parser_serves_every_call(self, corpus, trained, tmp_path):
        """main() parses with one parser per process. A convert with --mlpg
        off and a post-filter, then one with the defaults, each write the
        bytes a lone call in a fresh interpreter writes."""
        assert build_parser() is build_parser()
        runs = {"flags": ("--mlpg", "off", "--postfilter-beta", "0.5"), "defaults": ()}
        env = {**os.environ, "PYTHONPATH": str(Path(cyclevc.__file__).resolve().parents[1])}
        for name, extra in runs.items():
            for mode in ("lone", "reused"):
                (tmp_path / mode / name).mkdir(parents=True)
            subprocess.run(
                [sys.executable, "-m", "cyclevc.cli",
                 *self.convert_args(corpus, trained, tmp_path / "lone" / name, *extra)],
                env=env, capture_output=True, check=True, timeout=120,
            )
        for name, extra in runs.items():
            assert main(self.convert_args(corpus, trained, tmp_path / "reused" / name, *extra)) == 0
        for name in runs:
            for out in _OUTPUTS:
                lone = (tmp_path / "lone" / name / out).read_bytes()
                assert (tmp_path / "reused" / name / out).read_bytes() == lone, (name, out)
        flagged, default = (tmp_path / "lone" / name / "out.mcep.ftr" for name in runs)
        assert flagged.read_bytes() != default.read_bytes()

    def test_trace_lists_stages_in_order(self, corpus, trained, tmp_path, capsys):
        assert main(self.convert_args(corpus, trained, tmp_path, "--trace")) == 0
        out = capsys.readouterr().out
        stages = [l.split(": ", 1)[1] for l in out.splitlines() if l.startswith("stage:")]
        assert stages == [
            "split-mcep", "compute-deltas", "normalize-source", "generator",
            "denormalize-target", "mlpg", "postfilter", "merge-mcep",
            "transform-f0", "copy-aperiodicity", "shift-db",
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

    def test_streams_of_other_lengths_are_an_error(self, corpus, trained, tmp_path, capsys):
        """The tgt F0 and aperiodicity (140 frames) with the src mcep (160)."""
        args = self.convert_args(corpus, trained, tmp_path)
        for flag, path in (("--f0", "tgt.f0.ftr"), ("--ap", "tgt.ap.ftr")):
            args[args.index(flag) + 1] = str(corpus / path)
        assert main(args) == 1
        assert capsys.readouterr().err == (
            f"error: {corpus / 'src.mcep.ftr'}, {corpus / 'tgt.f0.ftr'}: "
            "F0 has 140 frames, mcep 160\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_an_aperiodicity_of_another_length_names_its_file(
        self, corpus, trained, tmp_path, capsys
    ):
        """The tgt aperiodicity (140 frames) with the src mcep and F0 (160)."""
        args = self.convert_args(corpus, trained, tmp_path, "--trace")
        args[args.index("--ap") + 1] = str(corpus / "tgt.ap.ftr")
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {corpus / 'src.mcep.ftr'}, {corpus / 'tgt.ap.ftr'}: "
            "aperiodicity has 140 frames, mcep 160\n"
        )
        assert "stage:" not in captured.out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("beta", ["nan", "-0.1"])
    def test_a_bad_postfilter_beta_runs_no_stage(self, corpus, trained, tmp_path, capsys, beta):
        args = self.convert_args(corpus, trained, tmp_path, "--trace", "--postfilter-beta", beta)
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: beta must be finite and >= 0, got {float(beta)}\n"
        assert "stage:" not in captured.out
        assert list(tmp_path.iterdir()) == []

    def test_a_distortion_beyond_float64_names_its_stage(self, corpus, trained, tmp_path, capsys):
        """A postfilter beta of 1e300 leaves finite statics whose distance
        from the source overflows; shift-db is the stage that fails."""
        args = self.convert_args(corpus, trained, tmp_path, "--postfilter-beta", "1e300")
        assert main(args) == 1
        assert capsys.readouterr().err == (
            "error: stage shift-db: mel-cepstral distortion is not finite: "
            "the squared frame differences overflowed float64\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_an_empty_mcep_file_is_named(self, corpus, trained, tmp_path, capsys):
        args = self.convert_args(corpus, trained, tmp_path / "out")
        empty = write_empty(tmp_path / "e.mcep.ftr")
        args[args.index("--mcep") + 1] = empty
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {empty}: holds no frames\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "e.mcep.ftr"]

    def test_a_file_of_another_kind_is_an_error(self, corpus, trained, tmp_path, capsys):
        """APERIODICITY fixes no width, so a 49-column mel-cepstrum passes
        every width check; its kind tag refuses it."""
        args = self.convert_args(corpus, trained, tmp_path)
        path = str(corpus / "src.mcep.ftr")
        args[args.index("--ap") + 1] = path
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {path}: holds MCEP49, expected APERIODICITY\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_generic_file_is_read_as_the_kind_its_flag_names(
        self, corpus, trained, tmp_path, capsys
    ):
        """A 49-column GENERIC file converts as the MCEP49 one with the same
        frames; a 5-column one is refused by width, and named."""
        generic = tmp_path / "generic.ftr"
        write_ftr(generic, FeatureSequence(read_ftr(corpus / "src.mcep.ftr").data))
        outputs = {}
        for name, mcep in (("tagged", corpus / "src.mcep.ftr"), ("generic", generic)):
            out_dir = tmp_path / name
            out_dir.mkdir()
            args = self.convert_args(corpus, trained, out_dir)
            args[args.index("--mcep") + 1] = str(mcep)
            assert main(args) == 0
            outputs[name] = [p.read_bytes() for p in sorted(out_dir.iterdir())]
        assert outputs["generic"] == outputs["tagged"] and len(outputs["tagged"]) == 3

        narrow = tmp_path / "narrow.ftr"
        write_ftr(narrow, FeatureSequence(read_ftr(corpus / "src.ap.ftr").data))
        out_dir = tmp_path / "narrow"
        out_dir.mkdir()
        args = self.convert_args(corpus, trained, out_dir)
        args[args.index("--mcep") + 1] = str(narrow)
        capsys.readouterr()
        assert main(args) == 1
        assert capsys.readouterr().err == (
            f"error: {narrow}: kind MCEP49 requires width 49, got 5\n"
        )
        assert list(out_dir.iterdir()) == []

    def test_eval_of_streams_of_other_widths_names_both_files(self, corpus, tmp_path, capsys):
        reference = str(corpus / "src.mcep.ftr")
        converted = tmp_path / "g5.ftr"
        write_ftr(converted, FeatureSequence(read_ftr(corpus / "src.ap.ftr").data))
        assert main(["eval", "--reference", reference, "--converted", str(converted)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {reference}, {converted}: dims differ: 25 vs 5\n"
        assert captured.out == ""

    def test_eval_of_an_empty_sequence_names_both_files(self, corpus, tmp_path, capsys):
        reference = str(corpus / "src.mcep.ftr")
        empty = tmp_path / "empty.ftr"
        write_ftr(empty, FeatureSequence(np.zeros((0, 25)), FeatureKind.MCEP_LOW25))
        assert main(["eval", "--reference", reference, "--converted", str(empty)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {reference}, {empty}: cannot evaluate empty sequences\n"
        assert captured.out == ""

    def test_eval_of_a_signaling_nan_prints_only_the_error(self, corpus, tmp_path):
        """In a fresh interpreter with Python's default warning filters,
        where a numpy RuntimeWarning would print on stderr."""
        reference = str(corpus / "src.mcep.ftr")
        converted = tmp_path / "snan.ftr"
        body = np.zeros((2, 25), dtype="<u4")
        body[1, 3] = 0x7FA00000
        write_ftr(converted, FeatureSequence(np.zeros((2, 25)), FeatureKind.MCEP_LOW25))
        converted.write_bytes(converted.read_bytes()[:16] + body.tobytes())
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(cyclevc.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-c", "import sys; from cyclevc.cli import main; sys.exit(main())",
             "eval", "--reference", reference, "--converted", str(converted)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert run.returncode == 1
        assert run.stderr == f"error: {converted}: feature data contains non-finite entries\n"
        assert run.stdout == ""

    @pytest.mark.parametrize(
        "stream, columns, kind", [("f0", 1, "F0"), ("ap", 5, "APERIODICITY")]
    )
    def test_eval_of_streams_that_are_not_mel_cepstra_is_an_error(
        self, corpus, capsys, stream, columns, kind
    ):
        """Two F0 tracks would score 0 dB and two aperiodicity files a
        plausible number; eval names the file instead."""
        path = str(corpus / f"src.{stream}.ftr")
        assert main(["eval", "--reference", path, "--converted", path]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {columns}-column {kind}, not mel-cepstra\n"
        assert captured.out == ""

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


def with_stat(stats_text: str, key: str, value: str) -> str:
    """A stats file's text with its key line set to value."""
    return "".join(
        f"{key} {value}\n" if line.startswith(f"{key} ") else line
        for line in stats_text.splitlines(keepends=True)
    )


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


def text_params(path) -> np.ndarray:
    """The values of an MLP1 text, one float() per token, in the flat
    layout: every weight block, then every bias, in layer order."""
    lines = path.read_text(encoding="utf-8").splitlines()
    blocks, pos = {"weight": [], "bias": []}, 4
    while pos < len(lines):
        tag, _, rows = lines[pos].split()[:3]
        rows = int(rows) if tag == "weight" else 1
        blocks[tag] += [float(v) for row in lines[pos + 1 : pos + 1 + rows] for v in row.split()]
        pos += 1 + rows
    return np.array(blocks["weight"] + blocks["bias"])


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
        (model / "d_x.mlp.f8").write_text("not a model\n")
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
        (model / f"{filename}.f8").write_text("not a model\n")
        assert main(convert_argv(corpus, model, tmp_path, direction)) == 1
        assert str(model / f"{filename}.f8") in capsys.readouterr().err

    @pytest.mark.parametrize("direction, filename", [("xy", "g.mlp"), ("yx", "f.mlp")])
    def test_a_generator_with_non_finite_output_names_its_file_and_stage(
        self, corpus, tmp_path, capsys, direction, filename
    ):
        """A bundle saved by hand whose converting generator has every
        weight at 1e308: finite parameters, non-finite output."""
        huge = init_mlp((75, 8, 75), seed=1)
        huge = Mlp(huge.layer_dims, tuple(np.full_like(w, 1e308) for w in huge.weights), huge.biases)
        networks = {role: init_mlp((75, 8, 75) if role in ("G", "F") else (75, 8, 1), seed=2)
                    for role in ("G", "F", "D_X", "D_Y")}
        networks[filename[0].upper()] = huge
        model = tmp_path / "model"
        save_model_bundle(model, "cyclegan", networks)
        assert main(convert_argv(corpus, model, tmp_path / "out", direction)) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {model / filename}: stage generator: non-finite output\n"
        assert not (tmp_path / "out").exists()

    def test_an_old_manifest_is_one_error_line(self, corpus, bundles, tmp_path, capsys):
        """A bundle whose manifest still names its files must be trained again."""
        model = tmp_path / "model"
        shutil.copytree(bundles["cyclegan"], model)
        (model / "manifest.txt").write_text("VCMODEL1\nmethod cyclegan\n" + "".join(
            f"network {role} {role.lower()}.mlp\n" for role in ("G", "F", "D_X", "D_Y")
        ))
        assert main(convert_argv(corpus, model, tmp_path / "out")) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {model / 'manifest.txt'}: not a VCMODEL2 manifest\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

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

    def test_an_overflowing_f0_stage_names_the_f0_file_and_the_stage(
        self, corpus, bundles, tmp_path, capsys
    ):
        """A source log-F0 std of 1e-6 maps every voiced frame far beyond
        float64's range."""
        stats = tmp_path / "src.stats"
        stats.write_text(with_stat((corpus / "src.stats").read_text(), "logf0_std", "1e-06"))
        argv = convert_argv(corpus, bundles["cyclegan"], tmp_path / "out")
        argv[argv.index("--src-stats") + 1] = str(stats)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {corpus / 'src.f0.ftr'}, {stats}, {corpus / 'tgt.stats'}: "
            "stage transform-f0: a voiced frame's F0 maps to 0 or infinity\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_an_f0_stage_that_unvoices_a_frame_names_the_f0_file_and_the_stage(
        self, corpus, bundles, tmp_path, capsys
    ):
        """A source log-F0 mean of 2000 puts every voiced frame some 10,000
        source stds below it, where the target F0 underflows to exactly 0:
        the frames would turn unvoiced."""
        stats = tmp_path / "src.stats"
        stats.write_text(with_stat((corpus / "src.stats").read_text(), "logf0_mean", "2000.0"))
        argv = convert_argv(corpus, bundles["cyclegan"], tmp_path / "out")
        argv[argv.index("--src-stats") + 1] = str(stats)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {corpus / 'src.f0.ftr'}, {stats}, {corpus / 'tgt.stats'}: "
            "stage transform-f0: a voiced frame's F0 maps to 0 or infinity\n"
        )
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, std, named, cause",
        [
            ("--tgt-stats", "1e300", ["--tgt-stats"],
             "stage mlpg: static-stream variances must be finite (identity window must bind)"),
            ("--src-stats", "1e-320", ["--mcep", "--src-stats"],
             "stage normalize-source: feature data contains non-finite entries"),
        ],
        ids=["target-variance-overflows", "source-std-subnormal"],
    )
    def test_a_stats_file_that_breaks_a_stage_is_named_with_the_stage(
        self, corpus, bundles, tmp_path, capsys, flag, std, named, cause
    ):
        """Valid stats whose numbers overflow a stage: a target std of 1e300
        squares to an infinite variance, and a source std of 1e-320 divides
        the frames beyond float64. Each error names the stage and its
        inputs, and no numpy warning reaches stderr."""
        text = (corpus / ("tgt.stats" if flag == "--tgt-stats" else "src.stats")).read_text()
        stats = tmp_path / "edited.stats"
        stats.write_text(with_stat(text, "norm_std", " ".join([std] * 75)))
        argv = convert_argv(corpus, bundles["cyclegan"], tmp_path / "out")
        argv[argv.index(flag) + 1] = str(stats)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        captured = capsys.readouterr()
        names = ", ".join(argv[argv.index(f) + 1] for f in named)
        assert captured.err == f"error: {names}: {cause}\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_an_output_beyond_float32_is_one_error_and_no_file(
        self, corpus, bundles, tmp_path, capsys
    ):
        """One voiced frame at 1e9 Hz, with log-F0 stds of 0.05 and 0.3,
        converts to about 5e43 Hz: finite in float64, infinite in the
        float32 of FTR1. The mcep output, written first, must not be
        written either."""
        f0 = read_ftr(corpus / "src.f0.ftr").data.copy()
        f0[3, 0] = 1e9
        f0_path = tmp_path / "loud.f0.ftr"
        write_ftr(f0_path, FeatureSequence(f0, FeatureKind.F0))
        argv = convert_argv(corpus, bundles["mse-parallel"], tmp_path / "out")
        argv[argv.index("--f0") + 1] = str(f0_path)
        for flag, name, std in (("--src-stats", "src", "0.05"), ("--tgt-stats", "tgt", "0.3")):
            stats = tmp_path / f"{name}.stats"
            stats.write_text(with_stat((corpus / f"{name}.stats").read_text(), "logf0_std", std))
            argv[argv.index(flag) + 1] = str(stats)
        (tmp_path / "out").mkdir()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {tmp_path / 'out' / 'out.f0.ftr'}: "
            "feature data exceeds the float32 range of FTR1\n"
        )
        assert captured.out == ""
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "edit, cause",
        [
            (lambda text: text + "logf0_man 5.0\n", "line 7 has unknown key 'logf0_man'"),
            (
                lambda text: "\n".join(
                    " ".join(line.split()[:11]) if line.startswith("norm_") else line
                    for line in text.splitlines()
                ),
                "malformed stats file: normalization stats have 10 dims, expected 75",
            ),
            (
                lambda text: with_stat(text, "norm_std", " ".join(["1.0"] * 74)),
                "malformed stats file: mean and std must have equal length",
            ),
            (
                lambda text: with_stat(text, "norm_mean", " ".join(["inf"] + ["0.0"] * 74)),
                "malformed stats file: stats must be finite",
            ),
            (
                lambda text: with_stat(text, "norm_std", " ".join(["0.0"] + ["1.0"] * 74)),
                "malformed stats file: std must be strictly positive",
            ),
            (
                lambda text: with_stat(text, "logf0_std", "0.0"),
                "malformed stats file: log-F0 std must be strictly positive",
            ),
            (
                lambda text: with_stat(text, "logf0_voiced_count", "0"),
                "malformed stats file: voiced_count must be >= 1",
            ),
        ],
        ids=["unknown-key", "ten-dims", "74-stds", "infinite-mean", "zero-std", "zero-logf0-std",
             "no-voiced-frame"],
    )
    def test_a_bad_stats_file_is_named(self, corpus, bundles, tmp_path, capsys, edit, cause):
        stats = tmp_path / "src.stats"
        stats.write_text(edit((corpus / "src.stats").read_text()))
        argv = convert_argv(corpus, bundles["cyclegan"], tmp_path / "out")
        argv[argv.index("--src-stats") + 1] = str(stats)
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {stats}: {cause}")
        assert not (tmp_path / "out").exists()

    def test_non_utf8_stats_error_names_the_file(self, corpus, bundles, tmp_path, capsys):
        stats = tmp_path / "src.stats"
        stats.write_bytes(b"\xff" + (corpus / "src.stats").read_bytes())
        argv = convert_argv(corpus, bundles["cyclegan"], tmp_path)
        argv[argv.index("--src-stats") + 1] = str(stats)
        assert main(argv) == 1
        assert f"{stats}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["cyclegan", "gan-parallel", "mse-parallel"])
    def test_images_load_the_parameters_the_text_holds(self, bundles, method):
        """Each network loads from its image with the values its MLP1 text
        holds, parsed with one float() per token."""
        images = sorted(bundles[method].glob("*.mlp.f8"))
        texts = sorted(bundles[method].glob("*.mlp"))
        assert [p.name for p in images] == [f"{p.name}.f8" for p in texts]
        _, networks = load_model_bundle(bundles[method])
        assert sorted(f"{role.lower()}.mlp" for role in networks) == [p.name for p in texts]
        for role, net in networks.items():
            want = text_params(bundles[method] / f"{role.lower()}.mlp")
            assert net.params.tobytes() == want.tobytes()

    def test_reverse_direction_on_parallel_bundle_reads_no_network(
        self, corpus, bundles, tmp_path, capsys
    ):
        model = tmp_path / "model"
        shutil.copytree(bundles["gan-parallel"], model)
        for path in model.glob("*.mlp.f8"):
            path.unlink()
        assert main(convert_argv(corpus, model, tmp_path, "yx")) == 1
        assert "one-way mapping" in capsys.readouterr().err


class TestConvertOutputs:
    """convert checks its three outputs as a set before it writes any."""

    def test_outputs_that_name_one_file_are_refused(self, corpus, bundles, tmp_path, capsys):
        """All three outputs at one path would leave only the aperiodicity."""
        out = tmp_path / "o.ftr"
        argv = convert_argv(corpus, bundles["mse-parallel"], tmp_path)
        for flag in ("--out-mcep", "--out-f0", "--out-ap"):
            argv[argv.index(flag) + 1] = str(out)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}: names an earlier output; nothing was written\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_an_output_in_a_missing_directory_writes_no_output(
        self, corpus, bundles, tmp_path, capsys
    ):
        """--out-ap is written last; the outputs before it must not be written either."""
        ap = tmp_path / "nodir" / "o.ap.ftr"
        argv = convert_argv(corpus, bundles["mse-parallel"], tmp_path)
        argv[argv.index("--out-ap") + 1] = str(ap)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {ap}: no such directory; nothing was written\n"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


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

    def test_streams_of_other_widths_name_both_files(self, corpus, tmp_path, capsys):
        a, b = str(corpus / "src.mcep.ftr"), str(corpus / "src.ap.ftr")
        out = tmp_path / "path.csv"
        assert main(["align", "--a", a, "--b", b, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {a}, {b}: dims differ: 25 vs 5\n"
        assert captured.out == ""
        assert not out.exists()

    def test_an_empty_sequence_names_both_files(self, corpus, tmp_path, capsys):
        empty = tmp_path / "empty.ftr"
        write_ftr(empty, FeatureSequence(np.zeros((0, 25))))
        b = str(corpus / "src.mcep.ftr")
        out = tmp_path / "path.csv"
        assert main(["align", "--a", str(empty), "--b", b, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {empty}, {b}: both sequences need at least one frame\n"
        )
        assert captured.out == ""
        assert not out.exists()

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
