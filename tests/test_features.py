"""Tests for the frame-feature data model, deltas, normalization, F0, and I/O."""

from __future__ import annotations

import math
import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclevc.errors import (
    DimensionMismatchError,
    FormatError,
    InsufficientDataError,
    NonFiniteError,
)
from cyclevc.features import (
    AUGMENTED_DIM,
    DELTA_WINDOWS,
    FeatureKind,
    FeatureSequence,
    HIGH_DIM,
    LOW_DIM,
    LogF0Stats,
    MCEP_DIM,
    NormStats,
    compute_deltas,
    denormalize,
    fit_logf0_stats,
    fit_norm_stats,
    merge_mcep,
    normalize,
    read_ftr,
    split_mcep,
    transform_f0,
    write_ftr,
)


def _mcep(rng: np.random.Generator, frames: int = 8) -> FeatureSequence:
    return FeatureSequence(rng.normal(size=(frames, MCEP_DIM)), FeatureKind.MCEP49)


class TestFeatureSequence:
    def test_kind_width_enforced(self):
        with pytest.raises(DimensionMismatchError):
            FeatureSequence(np.zeros((3, 10)), FeatureKind.MCEP49)

    def test_f0_is_single_column(self):
        with pytest.raises(DimensionMismatchError):
            FeatureSequence(np.zeros((3, 2)), FeatureKind.F0)
        seq = FeatureSequence(np.zeros((3, 1)), FeatureKind.F0)
        assert seq.dim == 1

    def test_rejects_non_finite(self):
        data = np.zeros((2, 4))
        data[1, 2] = np.nan
        with pytest.raises(NonFiniteError):
            FeatureSequence(data)
        data[1, 2] = np.inf
        with pytest.raises(NonFiniteError):
            FeatureSequence(data)

    def test_empty_sequence_allowed(self):
        seq = FeatureSequence(np.zeros((0, 5)))
        assert seq.frames == 0 and seq.dim == 5


class TestSplitMerge:
    def test_widths(self):
        rng = np.random.default_rng(0)
        lower, higher = split_mcep(_mcep(rng))
        assert lower.dim == LOW_DIM and lower.kind is FeatureKind.MCEP_LOW25
        assert higher.dim == HIGH_DIM and higher.kind is FeatureKind.MCEP_HIGH24

    def test_column_assignment(self):
        """One frame counting 0..48 lands as lower 0..24, higher 25..48."""
        frame = np.arange(MCEP_DIM, dtype=np.float64).reshape(1, -1)
        lower, higher = split_mcep(FeatureSequence(frame, FeatureKind.MCEP49))
        np.testing.assert_array_equal(lower.data[0], np.arange(25))
        np.testing.assert_array_equal(higher.data[0], np.arange(25, 49))

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(1)
        seq = _mcep(rng, frames=20)
        merged = merge_mcep(*split_mcep(seq))
        assert np.array_equal(merged.data, seq.data)
        assert merged.kind is FeatureKind.MCEP49

    def test_higher_columns_pass_through(self):
        """Merging converted lower with untouched higher keeps columns 25..48."""
        rng = np.random.default_rng(2)
        seq = _mcep(rng)
        lower, higher = split_mcep(seq)
        converted = FeatureSequence(lower.data + 1.0, FeatureKind.MCEP_LOW25)
        merged = merge_mcep(converted, higher)
        assert np.array_equal(merged.data[:, LOW_DIM:], seq.data[:, LOW_DIM:])

    def test_empty_inputs(self):
        lower = FeatureSequence(np.zeros((0, LOW_DIM)), FeatureKind.MCEP_LOW25)
        higher = FeatureSequence(np.zeros((0, HIGH_DIM)), FeatureKind.MCEP_HIGH24)
        merged = merge_mcep(lower, higher)
        assert merged.frames == 0 and merged.dim == MCEP_DIM

    def test_frame_count_mismatch(self):
        lower = FeatureSequence(np.zeros((3, LOW_DIM)), FeatureKind.MCEP_LOW25)
        higher = FeatureSequence(np.zeros((4, HIGH_DIM)), FeatureKind.MCEP_HIGH24)
        with pytest.raises(DimensionMismatchError):
            merge_mcep(lower, higher)


def gathered_deltas(data: np.ndarray) -> np.ndarray:
    """compute_deltas as one clamped-index gather per window entry, each
    window summed from zeros in its order."""
    t = data.shape[0]
    idx = np.arange(t)
    blocks = []
    for win in DELTA_WINDOWS:
        block = np.zeros_like(data)
        for offset, coef in win:
            block += coef * data[np.clip(idx + offset, 0, t - 1)]
        blocks.append(block)
    return np.concatenate(blocks, axis=1)


class TestComputeDeltas:
    @pytest.mark.parametrize("frames", [1, 2, 3, 5, 300, 2000])
    def test_bit_identical_to_the_gather(self, frames):
        data = np.random.default_rng(frames).normal(size=(frames, LOW_DIM))
        aug = compute_deltas(FeatureSequence(data, FeatureKind.MCEP_LOW25))
        assert aug.data.tobytes() == gathered_deltas(data).tobytes()

    def test_output_width_and_order(self):
        rng = np.random.default_rng(3)
        statics = FeatureSequence(rng.normal(size=(6, LOW_DIM)), FeatureKind.MCEP_LOW25)
        aug = compute_deltas(statics)
        assert aug.dim == AUGMENTED_DIM
        assert aug.kind is FeatureKind.AUGMENTED75
        # first block is the statics themselves (identity window)
        np.testing.assert_array_equal(aug.data[:, :LOW_DIM], statics.data)

    def test_constant_sequence_has_zero_deltas(self):
        statics = FeatureSequence(
            np.tile(np.linspace(-1, 1, LOW_DIM), (5, 1)), FeatureKind.MCEP_LOW25
        )
        aug = compute_deltas(statics)
        np.testing.assert_array_equal(aug.data[:, LOW_DIM:], 0.0)

    def test_linear_ramp_delta(self):
        """Interior deltas of c_t = t*v equal v under the +/-0.5 kernel."""
        velocity = np.linspace(0.5, 2.0, LOW_DIM)
        data = np.arange(7).reshape(-1, 1) * velocity
        aug = compute_deltas(FeatureSequence(data, FeatureKind.MCEP_LOW25))
        interior = aug.data[1:-1, LOW_DIM : 2 * LOW_DIM]
        np.testing.assert_allclose(interior, np.tile(velocity, (5, 1)), rtol=1e-12)
        # interior second differences of a ramp vanish
        np.testing.assert_allclose(
            aug.data[1:-1, 2 * LOW_DIM :], 0.0, atol=1e-12
        )

    def test_edge_replication(self):
        """Boundary frames use the nearest real frame in place of t-1/t+1."""
        data = np.array([[1.0], [3.0], [4.0]])
        aug = compute_deltas(FeatureSequence(data))
        # frame 0: delta = -0.5*x[0] + 0.5*x[1] = 1.0 (x[-1] replicated to x[0])
        assert aug.data[0, 1] == pytest.approx(1.0)
        # frame 2: delta = -0.5*x[1] + 0.5*x[2] = 0.5
        assert aug.data[2, 1] == pytest.approx(0.5)
        # frame 0: delta-delta = x[0] - 2*x[0] + x[1] = 2.0
        assert aug.data[0, 2] == pytest.approx(2.0)

    def test_single_frame(self):
        aug = compute_deltas(FeatureSequence(np.array([[2.0]])))
        np.testing.assert_array_equal(aug.data, [[2.0, 0.0, 0.0]])

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_frame_count_preserved(self, frames):
        rng = np.random.default_rng(frames)
        aug = compute_deltas(FeatureSequence(rng.normal(size=(frames, 3))))
        assert aug.frames == frames


class TestNormalization:
    def test_hand_example(self):
        stats = NormStats(mean=np.array([2.0]), std=np.array([4.0]))
        out = normalize(FeatureSequence(np.array([[10.0]])), stats)
        np.testing.assert_array_equal(out.data, [[2.0]])

    def test_fit_uses_population_std(self):
        seq = FeatureSequence(np.array([[4.0], [6.0]]))
        stats = fit_norm_stats(seq)
        assert stats.mean[0] == pytest.approx(5.0)
        assert stats.std[0] == pytest.approx(1.0)  # population, not sample

    def test_zscored_output_moments(self):
        rng = np.random.default_rng(4)
        seq = FeatureSequence(rng.normal(3.0, 2.5, size=(200, 6)))
        out = normalize(seq, fit_norm_stats(seq))
        np.testing.assert_allclose(out.data.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.data.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_is_floored(self):
        seq = FeatureSequence(np.full((5, 2), 7.0))
        stats = fit_norm_stats(seq)
        assert (stats.std == 1e-8).all()

    def test_fit_needs_two_frames(self):
        with pytest.raises(InsufficientDataError):
            fit_norm_stats(FeatureSequence(np.zeros((1, 3))))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_denormalize_inverts_normalize(self, seed):
        rng = np.random.default_rng(seed)
        seq = FeatureSequence(rng.normal(0, 10, size=(12, 4)))
        stats = fit_norm_stats(seq)
        back = denormalize(normalize(seq, stats), stats)
        np.testing.assert_allclose(back.data, seq.data, atol=1e-10)

    def test_dim_mismatch(self):
        stats = NormStats(mean=np.zeros(3), std=np.ones(3))
        with pytest.raises(DimensionMismatchError):
            normalize(FeatureSequence(np.zeros((2, 4))), stats)


class TestLogF0:
    def _track(self, values) -> FeatureSequence:
        return FeatureSequence(np.asarray(values, dtype=np.float64).reshape(-1, 1),
                               FeatureKind.F0)

    def test_two_voiced_frames(self):
        stats = fit_logf0_stats(self._track([math.e**4, math.e**6]))
        assert stats.mean == pytest.approx(5.0)
        assert stats.std == pytest.approx(1.0)
        assert stats.voiced_count == 2

    def test_unvoiced_frames_excluded(self):
        stats = fit_logf0_stats(self._track([math.e**5, math.e**5, 0.0]))
        assert stats.mean == pytest.approx(5.0)
        assert stats.voiced_count == 2
        assert stats.std == 1e-8  # degenerate track hits the floor

    def test_single_voiced_frame_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_logf0_stats(self._track([100.0, 0.0]))

    def test_all_unvoiced_rejected(self):
        with pytest.raises(InsufficientDataError):
            fit_logf0_stats(self._track([0.0, 0.0, 0.0]))

    def test_transform_hand_example(self):
        src = LogF0Stats(mean=4.8, std=0.2, voiced_count=10)
        tgt = LogF0Stats(mean=5.3, std=0.3, voiced_count=10)
        out = transform_f0(self._track([math.e**5.0]), src, tgt)
        assert out.data[0, 0] == pytest.approx(math.e**5.6, rel=1e-12)

    def test_identity_transform(self):
        rng = np.random.default_rng(5)
        track = self._track(np.exp(rng.normal(5.0, 0.2, size=30)))
        stats = fit_logf0_stats(track)
        out = transform_f0(track, stats, stats)
        np.testing.assert_allclose(out.data, track.data, rtol=1e-9)

    def test_mean_maps_to_mean(self):
        src = LogF0Stats(mean=4.5, std=0.25, voiced_count=5)
        tgt = LogF0Stats(mean=5.1, std=0.4, voiced_count=5)
        out = transform_f0(self._track([math.e**4.5]), src, tgt)
        assert out.data[0, 0] == pytest.approx(math.e**5.1, rel=1e-12)

    def test_voicing_mask_preserved(self):
        rng = np.random.default_rng(6)
        values = np.exp(rng.normal(5.0, 0.3, size=50))
        values[rng.random(50) < 0.4] = 0.0
        values[:2] = [200.0, 210.0]  # ensure enough voiced frames
        track = self._track(values)
        src = fit_logf0_stats(track)
        tgt = LogF0Stats(mean=5.5, std=0.1, voiced_count=20)
        out = transform_f0(track, src, tgt)
        np.testing.assert_array_equal(out.data > 0, track.data > 0)
        assert (out.data[track.data == 0] == 0).all()

    @pytest.mark.parametrize(
        "src_mean, src_std", [(math.log(110.0), 1e-5), (5.0, 1e-6)], ids=["to-zero", "to-inf"]
    )
    def test_a_voiced_frame_mapped_to_zero_or_infinity_is_an_error(self, src_mean, src_std):
        """90 Hz lies far below the source mean in source stds, so its F0
        underflows to 0 and the frame would turn unvoiced; above the mean
        (to-inf) it overflows."""
        src = LogF0Stats(mean=src_mean, std=src_std, voiced_count=10)
        tgt = LogF0Stats(mean=5.0, std=0.2, voiced_count=10)
        with pytest.raises(NonFiniteError, match="maps to 0 or infinity"):
            transform_f0(self._track([100.0, 0.0, 90.0]), src, tgt)

    def test_self_transform_hits_target_stats(self):
        """Converting the fitting track itself reproduces the target moments."""
        rng = np.random.default_rng(7)
        values = np.exp(rng.normal(4.9, 0.22, size=400))
        values[rng.random(400) < 0.15] = 0.0
        track = self._track(values)
        src = fit_logf0_stats(track)
        tgt = LogF0Stats(mean=5.4, std=0.12, voiced_count=100)
        out = transform_f0(track, src, tgt)
        voiced = np.log(out.data[out.data > 0])
        assert voiced.mean() == pytest.approx(5.4, abs=1e-9)
        assert voiced.std() == pytest.approx(0.12, abs=1e-9)


class TestFtrFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(9, MCEP_DIM)).astype(np.float32).astype(np.float64)
        seq = FeatureSequence(data, FeatureKind.MCEP49)
        path = tmp_path / "x.ftr"
        write_ftr(path, seq)
        back = read_ftr(path)
        assert back.kind is FeatureKind.MCEP49
        assert np.array_equal(back.data, seq.data)

    def test_header_layout(self, tmp_path):
        seq = FeatureSequence(np.array([[1.5, -2.0]], dtype=np.float64))
        path = tmp_path / "x.ftr"
        write_ftr(path, seq)
        raw = path.read_bytes()
        magic, frames, dim, kind = struct.unpack("<4sIII", raw[:16])
        assert magic == b"FTR1"
        assert (frames, dim) == (1, 2)
        assert raw[16:] == np.array([1.5, -2.0], dtype="<f4").tobytes()

    def test_empty_sequence(self, tmp_path):
        path = tmp_path / "empty.ftr"
        write_ftr(path, FeatureSequence(np.zeros((0, 7))))
        back = read_ftr(path)
        assert back.frames == 0 and back.dim == 7

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ftr"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(FormatError):
            read_ftr(path)

    @pytest.mark.parametrize(
        "raw, cause",
        [
            (b"FTR1" + bytes(8), "truncated FTR1 header"),
            (struct.pack("<4sIII", b"FTR1", 0, 1, 99), "unknown kind code 99"),
        ],
        ids=["twelve-byte-header", "unknown-kind"],
    )
    def test_a_bad_header_names_the_file(self, tmp_path, raw, cause):
        path = tmp_path / "bad.ftr"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: {cause}$"):
            read_ftr(path)

    def test_truncated_body(self, tmp_path):
        path = tmp_path / "trunc.ftr"
        write_ftr(path, FeatureSequence(np.ones((4, 3))))
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError):
            read_ftr(path)

    def test_a_signaling_nan_is_a_non_finite_error_without_a_warning(self, tmp_path):
        """Casting a float32 signaling NaN to float64 raises numpy's invalid
        flag; only the typed error may reach the caller."""
        path = tmp_path / "snan.ftr"
        header = struct.pack("<4sIII", b"FTR1", 2, 1, FeatureKind.GENERIC.value)
        path.write_bytes(header + np.array([0, 0x7FA00000], dtype="<u4").tobytes())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=f"^{re.escape(str(path))}: "):
                read_ftr(path)

    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_a_value_beyond_float32_is_refused_before_the_file_opens(self, tmp_path, value):
        """float32 would store it as infinite, which read_ftr refuses; the
        cast's overflow warning must not reach the caller either."""
        path = tmp_path / "big.ftr"
        seq = FeatureSequence(np.array([[1.0], [value]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                NonFiniteError, match=f"^{re.escape(str(path))}: .*exceeds the float32 range"
            ):
                write_ftr(path, seq)
        assert not path.exists()

    @pytest.mark.parametrize("value", [1e-46, -1e-46])
    def test_a_nonzero_value_float32_stores_as_zero_is_refused_before_the_file_opens(
        self, tmp_path, value
    ):
        """1e-46 lies below float32's smallest subnormal (about 1.4e-45):
        the voiced frame of an F0 track would read back unvoiced."""
        path = tmp_path / "tiny.f0.ftr"
        seq = FeatureSequence(np.array([[value], [0.0], [120.0]]), FeatureKind.F0)
        with pytest.raises(
            NonFiniteError, match=f"^{re.escape(str(path))}: .*nonzero value FTR1 stores as 0"
        ):
            write_ftr(path, seq)
        assert not path.exists()

    @pytest.mark.parametrize(
        "frames, dim, kind, body, error",
        [
            (2, 1, FeatureKind.F0, [100.0, np.nan], NonFiniteError),
            (1, 3, FeatureKind.MCEP49, [1.0, 2.0, 3.0], DimensionMismatchError),
            (4, 0, FeatureKind.GENERIC, [], DimensionMismatchError),
        ],
        ids=["nan-frame", "mcep49-width-3", "width-0"],
    )
    def test_content_error_names_the_file(self, tmp_path, frames, dim, kind, body, error):
        """A well-formed file whose frames FeatureSequence rejects raises
        that error's own type, prefixed with the path."""
        path = tmp_path / "bad.ftr"
        header = struct.pack("<4sIII", b"FTR1", frames, dim, kind.value)
        path.write_bytes(header + np.array(body, dtype="<f4").tobytes())
        with pytest.raises(error, match=f"^{re.escape(str(path))}: "):
            read_ftr(path)
