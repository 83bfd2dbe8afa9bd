"""Tests for speaker stats, the conversion chain, synthetic data, and persistence."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import platform
import subprocess
import sys
import textwrap
import warnings
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

import cyclevc
from cyclevc import pipeline
from cyclevc.errors import (
    DimensionMismatchError,
    FormatError,
    InsufficientDataError,
    NonFiniteError,
)
from cyclevc.features import (
    FeatureKind,
    FeatureSequence,
    LogF0Stats,
    NormStats,
    compute_deltas,
    normalize,
    split_mcep,
)
from cyclevc.mlpg import GaussianTrajectory, mlpg_generate
from cyclevc.net import forward, init_mlp, save_mlp
from cyclevc.pipeline import (
    MixtureSpec,
    SpeakerSpec,
    SpeakerStats,
    SyntheticSpec,
    augment_lower,
    compute_speaker_stats,
    convert_utterance,
    generate_dataset,
    load_model_bundle,
    load_speaker_stats,
    mel_cepstral_distortion,
    prepare_parallel_frames,
    read_manifest,
    save_model_bundle,
    save_speaker_stats,
    write_loss_csv,
)

_MCD_CONST = 10.0 / math.log(10.0)


def make_speaker(rng: np.random.Generator, frames: int = 60, f0_base: float = 5.0):
    mcep = FeatureSequence(rng.normal(size=(frames, 49)), FeatureKind.MCEP49)
    f0 = np.exp(rng.normal(f0_base, 0.2, size=(frames, 1)))
    f0[rng.random((frames, 1)) < 0.2] = 0.0
    f0[:3] = 150.0  # guarantee enough voiced frames
    ap = FeatureSequence(rng.random((frames, 5)), FeatureKind.APERIODICITY)
    return mcep, FeatureSequence(f0, FeatureKind.F0), ap


class TestSpeakerStats:
    def test_duplicated_file_changes_nothing(self):
        rng = np.random.default_rng(0)
        mcep, f0, _ = make_speaker(rng)
        once = compute_speaker_stats([mcep], [f0])
        twice = compute_speaker_stats([mcep, mcep], [f0, f0])
        # summation order differs between T and 2T entries, so compare tightly
        # rather than bitwise
        np.testing.assert_allclose(twice.norm.mean, once.norm.mean, atol=1e-12)
        np.testing.assert_allclose(twice.norm.std, once.norm.std, rtol=1e-12)
        assert twice.logf0.mean == pytest.approx(once.logf0.mean, abs=1e-12)
        assert twice.logf0.voiced_count == 2 * once.logf0.voiced_count

    def test_prescribed_moments_recovered(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(400, 49))
        # re-center and re-scale column 0 to exact moments
        data[:, 0] = (data[:, 0] - data[:, 0].mean()) / data[:, 0].std()
        data[:, 0] = 3.0 + 2.0 * data[:, 0]
        mcep = FeatureSequence(data, FeatureKind.MCEP49)
        _, f0, _ = make_speaker(rng, frames=400)
        stats = compute_speaker_stats([mcep], [f0])
        assert stats.norm.mean[0] == pytest.approx(3.0, abs=1e-9)
        assert stats.norm.std[0] == pytest.approx(2.0, abs=1e-9)

    def test_no_files_rejected(self):
        with pytest.raises(InsufficientDataError):
            compute_speaker_stats([], [])

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        mcep, f0, _ = make_speaker(rng)
        stats = compute_speaker_stats([mcep], [f0])
        path = tmp_path / "speaker.stats"
        save_speaker_stats(path, stats)
        back = load_speaker_stats(path)
        assert np.array_equal(back.norm.mean, stats.norm.mean)
        assert np.array_equal(back.norm.std, stats.norm.std)
        assert back.logf0 == stats.logf0

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.stats"
        path.write_text("something else\n")
        with pytest.raises(FormatError):
            load_speaker_stats(path)

    def test_repeated_key_names_the_file_line_and_key(self, tmp_path):
        rng = np.random.default_rng(2)
        mcep, f0, _ = make_speaker(rng)
        path = tmp_path / "speaker.stats"
        save_speaker_stats(path, compute_speaker_stats([mcep], [f0]))
        text = path.read_text()
        path.write_text(text + "logf0_mean 9.5\n")
        line_no = len(text.splitlines()) + 1
        with pytest.raises(FormatError, match=rf"speaker\.stats: line {line_no} repeats logf0_mean"):
            load_speaker_stats(path)

    def test_unknown_key_names_the_file_line_and_key(self, tmp_path):
        """A misspelled key would otherwise be ignored."""
        rng = np.random.default_rng(2)
        mcep, f0, _ = make_speaker(rng)
        path = tmp_path / "speaker.stats"
        save_speaker_stats(path, compute_speaker_stats([mcep], [f0]))
        text = path.read_text()
        path.write_text(text + "logf0_man 5.0\n")
        line_no = len(text.splitlines()) + 1
        with pytest.raises(FormatError) as caught:
            load_speaker_stats(path)
        assert str(caught.value) == (
            f"{path}: line {line_no} has unknown key 'logf0_man': 'logf0_man 5.0'"
        )

    def test_normalization_stats_of_another_width_name_the_file(self, tmp_path):
        """Ten values each: the stats of no 75-dim augmented frame."""
        path = tmp_path / "speaker.stats"
        path.write_text(
            "VCSTATS1\nnorm_mean" + " 0.0" * 10 + "\nnorm_std" + " 1.0" * 10
            + "\nlogf0_mean 5.0\nlogf0_std 0.2\nlogf0_voiced_count 10\n"
        )
        with pytest.raises(FormatError) as caught:
            load_speaker_stats(path)
        assert str(caught.value) == (
            f"{path}: malformed stats file: normalization stats have 10 dims, expected 75"
        )

    def test_non_utf8_file_error_names_the_file(self, tmp_path):
        rng = np.random.default_rng(2)
        mcep, f0, _ = make_speaker(rng)
        path = tmp_path / "speaker.stats"
        save_speaker_stats(path, compute_speaker_stats([mcep], [f0]))
        path.write_bytes(path.read_bytes().replace(b"logf0_mean", b"logf0_mean\xff"))
        with pytest.raises(FormatError, match="speaker.stats.*not UTF-8"):
            load_speaker_stats(path)


class TestParallelPreparation:
    def test_warped_lengths_match(self):
        rng = np.random.default_rng(3)
        src_m, src_f, _ = make_speaker(rng, frames=40)
        tgt_m, tgt_f, _ = make_speaker(rng, frames=55)
        src_stats = compute_speaker_stats([src_m], [src_f])
        tgt_stats = compute_speaker_stats([tgt_m], [tgt_f])
        pairs = prepare_parallel_frames([src_m], [tgt_m], src_stats, tgt_stats)
        assert pairs.x.frames == pairs.y.frames >= 55
        assert pairs.x.dim == pairs.y.dim == 75

    def test_list_length_mismatch(self):
        rng = np.random.default_rng(4)
        m, f, _ = make_speaker(rng)
        stats = compute_speaker_stats([m], [f])
        with pytest.raises(DimensionMismatchError):
            prepare_parallel_frames([m, m], [m], stats, stats)


def _empty_input_calls():
    rng = np.random.default_rng(5)
    mcep, f0, _ = make_speaker(rng)
    stats = compute_speaker_stats([mcep], [f0])
    return {
        "compute_deltas": lambda: compute_deltas(FeatureSequence(np.zeros((0, 25)))),
        "mlpg_generate": lambda: mlpg_generate(
            GaussianTrajectory(means=np.zeros((0, 75)), variances=np.ones(75))
        ),
        "prepare_parallel_frames": lambda: prepare_parallel_frames([], [], stats, stats),
        "compute_speaker_stats": lambda: compute_speaker_stats([mcep], []),
    }


@pytest.mark.parametrize(
    "name, error, message",
    [
        ("compute_deltas", InsufficientDataError, "compute_deltas needs at least one frame"),
        ("mlpg_generate", ValueError, "need at least one frame"),
        ("prepare_parallel_frames", InsufficientDataError, "no parallel utterances given"),
        ("compute_speaker_stats", InsufficientDataError, "no F0 files given"),
    ],
)
def test_empty_input_is_refused_with_its_typed_error(name, error, message):
    with pytest.raises(ValueError) as raised:
        _empty_input_calls()[name]()
    assert raised.type is error
    assert str(raised.value) == message


class TestConvertUtterance:
    def _stats_for(self, mcep, f0):
        return compute_speaker_stats([mcep], [f0])

    def test_identity_generator_round_trips_statics(self):
        """With G = identity and MLPG off, the statics survive unchanged."""
        rng = np.random.default_rng(5)
        mcep, f0, ap = make_speaker(rng)
        stats = self._stats_for(mcep, f0)
        result = convert_utterance(
            lambda batch: batch, stats, stats, mcep, f0, ap, use_mlpg=False
        )
        np.testing.assert_allclose(result.mcep.data, mcep.data, atol=1e-10)
        assert result.shift_db < 1e-9

    def test_identity_generator_with_mlpg_is_near_zero_distortion(self):
        """MLPG sees self-consistent deltas, so it reproduces the statics."""
        rng = np.random.default_rng(6)
        mcep, f0, ap = make_speaker(rng)
        stats = self._stats_for(mcep, f0)
        result = convert_utterance(
            lambda batch: batch, stats, stats, mcep, f0, ap, use_mlpg=True
        )
        assert result.shift_db < 0.5

    def test_pass_through_streams_are_bit_identical(self):
        rng = np.random.default_rng(7)
        mcep, f0, ap = make_speaker(rng)
        src_stats = self._stats_for(mcep, f0)
        tgt_m, tgt_f, _ = make_speaker(rng, f0_base=5.5)
        tgt_stats = self._stats_for(tgt_m, tgt_f)
        net = init_mlp((75, 8, 75), seed=3)
        from cyclevc.net import forward

        result = convert_utterance(
            lambda batch: forward(net, batch)[0],
            src_stats, tgt_stats, mcep, f0, ap,
        )
        assert np.array_equal(result.mcep.data[:, 25:], mcep.data[:, 25:])
        assert np.array_equal(result.aperiodicity.data, ap.data)
        assert result.mcep.frames == result.f0.frames == mcep.frames
        np.testing.assert_array_equal(result.f0.data > 0, f0.data > 0)

    def test_trace_reports_stage_order(self):
        rng = np.random.default_rng(8)
        mcep, f0, ap = make_speaker(rng)
        stats = self._stats_for(mcep, f0)
        stages = []
        convert_utterance(
            lambda batch: batch, stats, stats, mcep, f0, ap,
            use_mlpg=True, trace=stages.append,
        )
        assert stages == [
            "split-mcep", "compute-deltas", "normalize-source", "generator",
            "denormalize-target", "mlpg", "postfilter", "merge-mcep",
            "transform-f0", "copy-aperiodicity", "shift-db",
        ]

    @pytest.mark.parametrize("frames", [300, 512, 513, 600, 1018, 1023, 1024, 2000, 4001])
    def test_the_generator_sees_balanced_in_order_row_blocks(self, frames):
        """ceil(T / 512) calls, each of 512 rows or fewer and, past 512
        frames, 256 or more, their sizes within one of each other;
        together they are the normalized utterance in order, so up to 512
        frames it is one call."""
        rng = np.random.default_rng(11)
        mcep, f0, ap = make_speaker(rng, frames=frames)
        stats = self._stats_for(mcep, f0)
        blocks = []

        def recording(batch):
            blocks.append(batch.copy())
            return batch

        convert_utterance(recording, stats, stats, mcep, f0, ap)
        sizes = [len(block) for block in blocks]
        assert len(sizes) == -(-frames // pipeline.GENERATOR_BLOCK)
        assert max(sizes) <= pipeline.GENERATOR_BLOCK
        assert min(sizes) >= min(frames, pipeline.GENERATOR_BLOCK // 2)
        assert max(sizes) - min(sizes) <= 1
        z = normalize(augment_lower(mcep), stats.norm).data
        assert np.array_equal(np.concatenate(blocks), z)

    def test_blocked_generator_output_agrees_with_one_forward_call(self):
        """The default-size net on 2,000 frames, in blocks, against one
        forward over the whole normalized utterance."""
        rng = np.random.default_rng(12)
        mcep, f0, ap = make_speaker(rng, frames=2000)
        stats = self._stats_for(mcep, f0)
        net = init_mlp((75, 128, 256, 256, 128, 75), seed=3)
        outputs = []

        def recording(batch):
            outputs.append(forward(net, batch)[0])
            return outputs[-1]

        convert_utterance(recording, stats, stats, mcep, f0, ap)
        assert len(outputs) == 4
        whole = forward(net, normalize(augment_lower(mcep), stats.norm).data)[0]
        blocked = np.concatenate(outputs)
        assert np.max(np.abs(blocked - whole)) <= 1e-12 * np.max(np.abs(whole))

    def test_a_wrong_width_block_is_refused_before_the_concatenation(self):
        """On 1,100 frames (blocks of 366, 367 and 367) the second block
        comes back 10 wide: the shape check names it, not numpy's concatenate."""
        rng = np.random.default_rng(13)
        mcep, f0, ap = make_speaker(rng, frames=1100)
        stats = self._stats_for(mcep, f0)
        calls = []

        def second_block_narrow(batch):
            calls.append(len(batch))
            return batch[:, :10] if len(calls) == 2 else batch

        with pytest.raises(
            DimensionMismatchError,
            match=r"^stage generator: generator returned shape \(367, 10\), expected \(367, 75\)$",
        ):
            convert_utterance(second_block_narrow, stats, stats, mcep, f0, ap)
        assert calls == [366, 367]

    @pytest.mark.parametrize(
        "stream, frames", [("F0", 50), ("aperiodicity", 70)], ids=["short-f0", "long-ap"]
    )
    def test_streams_of_other_lengths_are_refused_before_any_stage(self, stream, frames):
        rng = np.random.default_rng(9)
        mcep, f0, ap = make_speaker(rng)
        stats = self._stats_for(mcep, f0)
        other = make_speaker(np.random.default_rng(10), frames=frames)
        f0, ap = (other[1], ap) if stream == "F0" else (f0, other[2])
        stages = []
        with pytest.raises(
            DimensionMismatchError, match=f"^{stream} has {frames} frames, mcep 60$"
        ):
            convert_utterance(lambda batch: batch, stats, stats, mcep, f0, ap, trace=stages.append)
        assert stages == []

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), -0.1, True])
    def test_a_bad_postfilter_beta_is_refused_before_any_stage(self, beta):
        rng = np.random.default_rng(9)
        mcep, f0, ap = make_speaker(rng)
        stats = self._stats_for(mcep, f0)
        stages = []
        with pytest.raises(ValueError, match=rf"^beta must be finite and >= 0, got {beta}$"):
            convert_utterance(
                lambda batch: batch, stats, stats, mcep, f0, ap,
                postfilter_beta=beta, trace=stages.append,
            )
        assert stages == []

    def test_generator_shape_checked(self):
        rng = np.random.default_rng(9)
        mcep, f0, ap = make_speaker(rng)
        stats = self._stats_for(mcep, f0)
        with pytest.raises(DimensionMismatchError):
            convert_utterance(
                lambda batch: batch[:, :10], stats, stats, mcep, f0, ap
            )

    @pytest.mark.parametrize(
        "generator",
        [lambda b: b * 1e308 * 1e308, lambda b: b * 1e308 * 1e308 * 0.0],
        ids=["inf", "nan"],
    )
    def test_a_non_finite_generator_output_names_the_stage_and_warns_nothing(self, generator):
        """The generator overflows inside itself; its numpy warnings are
        off, and the check right after it says which stage failed."""
        rng = np.random.default_rng(9)
        mcep, f0, ap = make_speaker(rng)
        stats = self._stats_for(mcep, f0)
        stages = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^stage generator: non-finite output$"):
                convert_utterance(generator, stats, stats, mcep, f0, ap, trace=stages.append)
        assert stages[-1] == "generator"

    def test_an_f0_transform_that_unvoices_a_frame_names_the_stage(self):
        """A source log-F0 mean of 2000 maps every voiced frame's F0 to 0."""
        rng = np.random.default_rng(9)
        mcep, f0, ap = make_speaker(rng)
        stats = self._stats_for(mcep, f0)
        src = dataclasses.replace(stats, logf0=dataclasses.replace(stats.logf0, mean=2000.0))
        with pytest.raises(NonFiniteError) as caught:
            convert_utterance(lambda batch: batch, src, stats, mcep, f0, ap)
        assert str(caught.value) == "stage transform-f0: a voiced frame's F0 maps to 0 or infinity"
        assert isinstance(caught.value.__cause__, NonFiniteError)

    def test_target_variances_that_overflow_name_the_mlpg_stage_and_warn_nothing(self):
        """A target std of 1e300 squares to an infinite variance, which MLPG
        refuses; the square's overflow warning stays off, as in every stage."""
        rng = np.random.default_rng(9)
        mcep, f0, ap = make_speaker(rng)
        stats = self._stats_for(mcep, f0)
        tgt = dataclasses.replace(stats, norm=NormStats(stats.norm.mean, np.full(75, 1e300)))
        stages = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^stage mlpg: static-stream variances"):
                convert_utterance(
                    lambda batch: batch / 10, stats, tgt, mcep, f0, ap, trace=stages.append
                )
        assert stages[-1] == "mlpg"


_FAULTS_PER_CONVERSION = textwrap.dedent("""
    import resource
    import numpy as np
    from cyclevc.features import FeatureKind, FeatureSequence
    from cyclevc.net import forward, init_mlp
    from cyclevc.pipeline import compute_speaker_stats, convert_utterance

    rng = np.random.default_rng(0)
    mcep = FeatureSequence(rng.normal(size=(1000, 49)), FeatureKind.MCEP49)
    f0 = FeatureSequence(np.full((1000, 1), 150.0), FeatureKind.F0)
    ap = FeatureSequence(rng.random((1000, 5)), FeatureKind.APERIODICITY)
    stats = compute_speaker_stats([mcep], [f0])
    net = init_mlp((75, 128, 256, 256, 128, 75), seed=3)
    marks = []
    for _ in range(5):
        marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        convert_utterance(lambda batch: forward(net, batch)[0], stats, stats, mcep, f0, ap)
    marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
    # The first two calls grow the heap; the first also binds LAPACK.
    print((marks[-1] - marks[2]) / (len(marks) - 3))
""")


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the heap pad is a glibc mallopt setting",
)
def test_conversion_does_not_refault_the_heap_each_utterance():
    """convert_utterance at the default generator and T=1000, in a fresh
    interpreter so nothing has set the heap pad: once warm, a conversion
    reuses the heap instead of faulting its pages in again (1,000-2,000
    faults per call without the pad)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(Path(cyclevc.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_CONVERSION],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    assert float(run.stdout) < 200


class TestMelCepstralDistortion:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(10)
        seq = FeatureSequence(rng.normal(size=(6, 25)), FeatureKind.MCEP_LOW25)
        assert mel_cepstral_distortion(seq, seq) == 0.0

    def test_single_coefficient_delta(self):
        a = np.zeros((1, 25))
        b = np.zeros((1, 25))
        b[0, 3] = 1.0
        val = mel_cepstral_distortion(
            FeatureSequence(a, FeatureKind.MCEP_LOW25),
            FeatureSequence(b, FeatureKind.MCEP_LOW25),
        )
        assert val == pytest.approx(_MCD_CONST * math.sqrt(2.0), rel=1e-12)

    def test_coefficient_zero_excluded(self):
        a = np.zeros((4, 25))
        b = np.zeros((4, 25))
        b[:, 0] = 99.0
        val = mel_cepstral_distortion(
            FeatureSequence(a, FeatureKind.MCEP_LOW25),
            FeatureSequence(b, FeatureKind.MCEP_LOW25),
        )
        assert val == 0.0

    def test_symmetric(self):
        rng = np.random.default_rng(11)
        a = FeatureSequence(rng.normal(size=(5, 25)), FeatureKind.MCEP_LOW25)
        b = FeatureSequence(rng.normal(size=(5, 25)), FeatureKind.MCEP_LOW25)
        assert mel_cepstral_distortion(a, b) == pytest.approx(
            mel_cepstral_distortion(b, a), rel=1e-12
        )

    def test_full_width_inputs_reduced_to_lower(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(3, 49))
        b = a.copy()
        b[:, 30] += 100.0  # higher-order difference must not count
        val = mel_cepstral_distortion(
            FeatureSequence(a, FeatureKind.MCEP49),
            FeatureSequence(b, FeatureKind.MCEP49),
        )
        assert val == 0.0

    @pytest.mark.parametrize(
        "kind, dim",
        [
            (FeatureKind.F0, 1),
            (FeatureKind.APERIODICITY, 5),
            (FeatureKind.AUGMENTED75, 75),
            (FeatureKind.MCEP_HIGH24, 24),
            (FeatureKind.GENERIC, 1),
        ],
    )
    def test_streams_that_are_not_mel_cepstra_are_refused(self, kind, dim):
        """The same file on both sides would score 0 dB if it were let through."""
        seq = FeatureSequence(np.ones((4, dim)), kind)
        cepstra = FeatureSequence(np.ones((4, 25)), FeatureKind.MCEP_LOW25)
        message = f"^{{}}: {dim}-column {kind.name}, not mel-cepstra$"
        with pytest.raises(DimensionMismatchError, match=message.format("reference")):
            mel_cepstral_distortion(seq, seq)
        with pytest.raises(DimensionMismatchError, match=message.format("converted")):
            mel_cepstral_distortion(cepstra, seq)

    def test_generic_streams_are_accepted(self):
        a = FeatureSequence(np.zeros((3, 2)))
        b = FeatureSequence(np.array([[0.0, 1.0]] * 3))
        assert mel_cepstral_distortion(a, b) == pytest.approx(_MCD_CONST * math.sqrt(2.0))

    def test_unequal_lengths_are_aligned(self):
        rng = np.random.default_rng(13)
        base = rng.normal(size=(6, 25))
        stretched = np.repeat(base, 2, axis=0)
        val = mel_cepstral_distortion(
            FeatureSequence(base, FeatureKind.MCEP_LOW25),
            FeatureSequence(stretched, FeatureKind.MCEP_LOW25),
        )
        assert val == pytest.approx(0.0, abs=1e-12)


class TestSyntheticData:
    def _spec(self, seed: int = 9, frames: int = 500) -> SyntheticSpec:
        rng = np.random.default_rng(42)
        def mixture(center):
            means = center + rng.normal(0, 0.5, size=(3, 25))
            return MixtureSpec(
                weights=np.array([0.5, 0.3, 0.2]),
                means=means,
                stds=np.full((3, 25), 0.2),
            )
        return SyntheticSpec(
            seed=seed,
            speakers=(
                SpeakerSpec(name="a", frames=frames, mixture=mixture(-2.0),
                            logf0_mean=4.8, logf0_std=0.2),
                SpeakerSpec(name="b", frames=frames, mixture=mixture(2.0),
                            logf0_mean=5.3, logf0_std=0.15),
            ),
        )

    def test_deterministic_per_seed(self):
        spec = self._spec()
        first = generate_dataset(spec)
        second = generate_dataset(spec)
        for name in ("a", "b"):
            for stream in ("mcep", "f0", "ap"):
                assert np.array_equal(
                    first[name][stream].data, second[name][stream].data
                )

    def test_sample_mean_near_mixture_mean(self):
        """Static sample means stay within 3 standard errors of the spec."""
        spec = self._spec(frames=2000)
        data = generate_dataset(spec)
        for spk in spec.speakers:
            statics = data[spk.name]["mcep"].data[:, :25]
            expected = spk.mixture.overall_mean
            # conservative per-dim scale bound: component spread + within-std
            scale = np.sqrt((spk.mixture.stds**2).max() + 4 * 0.5**2)
            bound = 3.0 * scale / math.sqrt(spk.frames)
            assert np.abs(statics.mean(axis=0) - expected).max() < 5 * bound

    def test_speakers_separate_as_specified(self):
        spec = self._spec(frames=1000)
        data = generate_dataset(spec)
        mean_a = data["a"]["mcep"].data[:, :25].mean(axis=0)
        mean_b = data["b"]["mcep"].data[:, :25].mean(axis=0)
        spec_dist = np.linalg.norm(
            spec.speakers[0].mixture.overall_mean - spec.speakers[1].mixture.overall_mean
        )
        assert np.linalg.norm(mean_a - mean_b) == pytest.approx(spec_dist, rel=0.1)

    def test_json_round_trip(self, tmp_path):
        doc = {
            "seed": 5,
            "aperiodicity_dim": 4,
            "speakers": [
                {
                    "name": "x",
                    "frames": 10,
                    "mixture": {
                        "weights": [1.0],
                        "means": [[0.0] * 25],
                        "stds": [[1.0] * 25],
                    },
                    "logf0_mean": 5.0,
                    "logf0_std": 0.1,
                }
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        spec = SyntheticSpec.from_json(path)
        assert spec.seed == 5
        assert spec.speakers[0].voiced_fraction == 0.85  # default filled in
        data = generate_dataset(spec)
        assert data["x"]["ap"].dim == 4

    @staticmethod
    def _doc_parts():
        """A one-speaker spec document, its speaker and its mixture."""
        mixture = {"weights": [1.0], "means": [[0.0] * 25], "stds": [[1.0] * 25]}
        speaker = {"name": "x", "frames": 10, "mixture": mixture,
                   "logf0_mean": 5.0, "logf0_std": 0.1}
        return {"seed": 1, "speakers": [speaker]}, speaker, mixture

    def test_bad_spec_rejected(self, tmp_path):
        """A missing key, and a key at any level that names no setting: a
        misspelled optional key would otherwise leave its default in use."""
        path = tmp_path / "bad.json"
        path.write_text("{\"seed\": 1}")
        with pytest.raises(FormatError):
            SyntheticSpec.from_json(path)

        doc = self._doc_parts
        top, speaker, mixture = doc()
        path.write_text(json.dumps(top))
        SyntheticSpec.from_json(path)
        for level, where, key in [
            (0, "the spec", "aperiodicty_dim"),
            (1, "speakers[0]", "voiced_fration"),
            (2, "speakers[0].mixture", "weight"),
        ]:
            parts = doc()
            parts[level][key] = 0.5
            path.write_text(json.dumps(parts[0]))
            with pytest.raises(FormatError) as caught:
                SyntheticSpec.from_json(path)
            assert str(caught.value) == f"{path}: unknown key {key!r} in {where}"

    @pytest.mark.parametrize(
        "level, key, value",
        [
            (1, "logf0_mean", math.nan),
            (1, "logf0_std", math.inf),
            (1, "high_band_std", math.nan),
            (2, "weights", [math.nan]),
            (2, "means", [[math.nan] + [0.0] * 24]),
            (2, "stds", [[1.0] * 24 + [math.nan]]),
            (0, "aperiodicity_dim", 0),
            (0, "aperiodicity_dim", -2),
            (1, "frames", 50.7),
            (1, "frames", "300"),
            (0, "seed", 1.5),
            (0, "seed", True),
            (1, "voiced_fraction", 1.5),
            (1, "high_band_std", -1),
            (1, "logf0_std", 0),
            (2, "stds", [[1.0] * 24 + [0.0]]),
        ],
    )
    def test_bad_value_is_a_format_error_naming_the_file(self, tmp_path, level, key, value):
        """Refused by the spec types before any frame is drawn. json writes
        NaN and Infinity as the literals its reader accepts."""
        parts = self._doc_parts()
        parts[level][key] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(parts[0]))
        with pytest.raises(FormatError) as caught:
            SyntheticSpec.from_json(path)
        assert str(caught.value).startswith(f"{path}: malformed synthetic spec: ")
        assert key in str(caught.value)

    @pytest.mark.parametrize(
        "level, key, value, message",
        [
            (2, "weights", [10**400], "weights must hold finite numbers, got 1000"),
            (1, "logf0_mean", 10**400, "logf0_mean must be a finite number, got 1000"),
            (2, "weights", ["1.0"], "weights must hold finite numbers, got '1.0'"),
            (2, "stds", [[True] + [1.0] * 24], "stds must hold finite numbers, got True"),
        ],
        ids=["integer-too-large-in-mixture", "integer-too-large-in-setting",
             "string-in-mixture", "bool-in-mixture"],
    )
    def test_a_spec_number_must_be_a_finite_real(self, tmp_path, level, key, value, message):
        """JSON integers too large for a float, strings and booleans are
        refused with the field named, where they used to overflow
        uncaught, give numpy's message or load as numbers."""
        parts = self._doc_parts()
        parts[level][key] = value
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(parts[0]))
        with pytest.raises(FormatError) as caught:
            SyntheticSpec.from_json(path)
        assert str(caught.value).startswith(f"{path}: malformed synthetic spec: {message}")

    def test_speaker_spec_refuses_a_non_finite_setting(self):
        mixture = MixtureSpec(weights=[1.0], means=np.zeros((1, 25)), stds=np.ones((1, 25)))
        with pytest.raises(ValueError, match="logf0_std must be a finite number, got nan"):
            SpeakerSpec(name="a", frames=10, mixture=mixture, logf0_mean=5.0,
                        logf0_std=math.nan)

    def test_mixture_weights_validated(self):
        # The second sum is off by 5e-7, beyond what Generator.choice accepts.
        for weights in ([0.9, 0.3], [0.5, 0.5000005]):
            with pytest.raises(ValueError, match="^weights must be nonnegative and sum to 1$"):
                MixtureSpec(
                    weights=np.array(weights),
                    means=np.zeros((2, 25)),
                    stds=np.ones((2, 25)),
                )


class TestModelBundles:
    def test_round_trip(self, tmp_path):
        nets = {
            "G": init_mlp((75, 8, 75), seed=0),
            "F": init_mlp((75, 8, 75), seed=1),
            "D_X": init_mlp((75, 8, 1), seed=2),
            "D_Y": init_mlp((75, 8, 1), seed=3),
        }
        save_model_bundle(tmp_path / "m", "cyclegan", nets)
        method, loaded = load_model_bundle(tmp_path / "m")
        assert method == "cyclegan"
        assert set(loaded) == set(nets)
        for role, net in nets.items():
            assert all(
                np.array_equal(a, b)
                for a, b in zip(loaded[role].weights, net.weights)
            )

    @pytest.mark.parametrize(
        "method, files",
        [("cyclegan", ("g", "f", "d_x", "d_y")), ("gan-parallel", ("g", "d")),
         ("mse-parallel", ("g",))],
        ids=["cyclegan", "gan-parallel", "mse-parallel"],
    )
    def test_bundle_layout(self, tmp_path, method, files):
        """The manifest states the method; each network is named by its role."""
        nets = {role: init_mlp((3, 2, 1 if role.startswith("D") else 3), seed=k)
                for k, role in enumerate(pipeline.BUNDLE_ROLES[method])}
        save_model_bundle(tmp_path, method, nets)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["manifest.txt", *(f"{name}.mlp" for name in files),
             *(f"{name}.mlp.f8" for name in files)]
        )
        assert (tmp_path / "manifest.txt").read_bytes() == f"VCMODEL2\nmethod {method}\n".encode()
        assert read_manifest(tmp_path) == (
            method, {role: tmp_path / f"{name}.mlp" for role, name in zip(nets, files)}
        )

    def test_role_set_enforced(self, tmp_path):
        with pytest.raises(ValueError):
            save_model_bundle(
                tmp_path / "m", "cyclegan", {"G": init_mlp((3, 2, 3), seed=0)}
            )

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(FormatError):
            load_model_bundle(tmp_path)

    def test_manifest_names_files_without_parsing_them(self, tmp_path):
        save_model_bundle(tmp_path, "gan-parallel", {
            "G": init_mlp((75, 8, 75), seed=0), "D": init_mlp((75, 8, 1), seed=1),
        })
        (tmp_path / "d.mlp.f8").write_text("not a model\n")
        assert read_manifest(tmp_path) == (
            "gan-parallel", {"G": tmp_path / "g.mlp", "D": tmp_path / "d.mlp"}
        )
        with pytest.raises(FormatError, match="d.mlp.f8"):
            load_model_bundle(tmp_path)

    @pytest.mark.parametrize(
        "text, cause",
        [(b"VCMODEL1\nmethod mse-parallel\nnetwork G g.mlp\n", "not a VCMODEL2 manifest"),
         (b"VCMODEL2\nmethod mse-parallel\nnetwork G g.mlp extra\n", "not a VCMODEL2 manifest"),
         (b"VCMODEL2\nmethod cyclegan\nnetwork G g.mlp\nnetwork F f.mlp\n",
          "not a VCMODEL2 manifest"),
         (b"VCMODEL2\nmethod unknown\n", "unknown method 'unknown'"),
         (b"VCMODEL2\nmethod mse-parallel\nnetwork G g.mlp\nnetwork G other.mlp\n",
          "not a VCMODEL2 manifest"),
         (b"VCMODEL2\nmethod mse-parallel\n\nmethod cyclegan\n", "not a VCMODEL2 manifest"),
         (b"VCMODEL1\nmethod mse-parallel\xff\nnetwork G g.mlp\n", "not UTF-8")],
        ids=["magic", "unparsable-line", "missing-roles", "unknown-method",
             "repeated-network", "repeated-method", "not-utf8"],
    )
    def test_manifest_checks(self, tmp_path, text, cause):
        (tmp_path / "manifest.txt").write_bytes(text)
        with pytest.raises(FormatError, match=f"manifest.txt: {cause}"):
            read_manifest(tmp_path)

    def test_a_failed_overwrite_leaves_no_manifest(self, tmp_path, monkeypatch):
        """A save that fails after its first network must not leave the old
        manifest naming a mix of the new G and the old F, D_X and D_Y."""
        old = {role: init_mlp((3, 2, 3 if role in "GF" else 1), seed=k)
               for k, role in enumerate(("G", "F", "D_X", "D_Y"))}
        save_model_bundle(tmp_path, "cyclegan", old)
        new = {role: init_mlp(net.layer_dims, seed=10 + k)
               for k, (role, net) in enumerate(old.items())}
        saved = []

        def failing_save(path, net):
            if saved:
                raise OSError("disk full")
            saved.append(path)
            save_mlp(path, net)

        monkeypatch.setattr(pipeline, "save_mlp", failing_save)
        with pytest.raises(OSError, match="disk full"):
            save_model_bundle(tmp_path, "cyclegan", new)
        with pytest.raises(FormatError, match="missing model manifest"):
            load_model_bundle(tmp_path)

    def test_loss_csv_format(self, tmp_path):
        path = tmp_path / "losses.csv"
        losses = namedtuple("Losses", "alpha beta")
        write_loss_csv(path, [losses(1.5, 2.0), losses(0.25, 0.125)])
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,alpha,beta"
        assert lines[1] == "1,1.5,2.0"
        assert lines[2] == "2,0.25,0.125"
