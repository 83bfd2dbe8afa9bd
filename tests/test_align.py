"""Tests for dynamic time warping: oracle equivalence and path validity.

``reference_dtw`` keeps the scalar row-by-row recurrence that the wavefront
in ``cyclevc.align`` replaced; the two must agree exactly, path and cost.
"""

from __future__ import annotations

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from cyclevc import align
from cyclevc.align import AlignmentPath, dtw_align, paired_frames
from cyclevc.errors import DimensionMismatchError, InsufficientDataError, NonFiniteError
from cyclevc.features import LOW_DIM, FeatureSequence
from cyclevc.pipeline import mel_cepstral_distortion


def brute_force_cost(a: np.ndarray, b: np.ndarray) -> float:
    """Minimum path cost by exhaustive recursion over all monotone paths."""
    dist = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)

    @lru_cache(maxsize=None)
    def best(i: int, j: int) -> float:
        if i == 0 and j == 0:
            return dist[0, 0]
        candidates = []
        if i > 0 and j > 0:
            candidates.append(best(i - 1, j - 1))
        if i > 0:
            candidates.append(best(i - 1, j))
        if j > 0:
            candidates.append(best(i, j - 1))
        return dist[i, j] + min(candidates)

    return best(a.shape[0] - 1, b.shape[0] - 1)


def reference_dtw(a: np.ndarray, b: np.ndarray) -> tuple[tuple[tuple[int, int], ...], float]:
    """The scalar recurrence: rolling plain-python rows, strict < tests
    (ties prefer diagonal, then a-advance), one addition per cell."""
    dist = cdist(a, b, metric="sqeuclidean")
    ta, tb = dist.shape
    back = [bytearray(tb) for _ in range(ta)]
    prev = dist[0].tolist()
    for j in range(1, tb):
        prev[j] += prev[j - 1]
        back[0][j] = 2
    for i in range(1, ta):
        d = dist[i].tolist()
        cur = [prev[0] + d[0]] + [0.0] * (tb - 1)
        back[i][0] = 1
        for j in range(1, tb):
            best = prev[j - 1]
            code = 0
            if prev[j] < best:
                best = prev[j]
                code = 1
            if cur[j - 1] < best:
                best = cur[j - 1]
                code = 2
            cur[j] = best + d[j]
            back[i][j] = code
        prev = cur

    pairs = [(ta - 1, tb - 1)]
    i, j = ta - 1, tb - 1
    while (i, j) != (0, 0):
        code = back[i][j]
        if code == 0:
            i, j = i - 1, j - 1
        elif code == 1:
            i -= 1
        else:
            j -= 1
        pairs.append((i, j))
    pairs.reverse()
    return tuple(pairs), prev[tb - 1]


def assert_matches_reference(a: np.ndarray, b: np.ndarray) -> None:
    """Both orientations, so every shape runs with ta > tb and ta < tb."""
    for x, y in ((a, b), (b, a)):
        path = dtw_align(FeatureSequence(x), FeatureSequence(y))
        pairs, cost = reference_dtw(x, y)
        assert path.pairs == pairs
        assert path.cost == cost


class TestMatchesScalarRecurrence:
    """Exact agreement with the scalar recurrence, no tolerance."""

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_shapes(self, ta, tb, seed):
        rng = np.random.default_rng(seed)
        assert_matches_reference(rng.normal(size=(ta, 3)), rng.normal(size=(tb, 3)))

    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_tie_heavy_inputs(self, ta, tb, seed):
        """Small-integer frames make equal predecessor costs common, so
        the order and strictness of the comparisons decide the path."""
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 3, size=(ta, 1)).astype(np.float64)
        b = rng.integers(0, 3, size=(tb, 1)).astype(np.float64)
        assert_matches_reference(a, b)

    @pytest.mark.parametrize("ta, tb", [(1, 1), (1, 9), (2, 1), (37, 5)])
    def test_degenerate_and_thin_grids(self, ta, tb):
        rng = np.random.default_rng(ta * 100 + tb)
        assert_matches_reference(rng.normal(size=(ta, 2)), rng.normal(size=(tb, 2)))

    def test_long_utterances(self):
        rng = np.random.default_rng(7)
        assert_matches_reference(rng.normal(size=(700, 25)), rng.normal(size=(560, 25)))


class TestDtwAlign:
    def test_self_alignment_is_diagonal(self):
        rng = np.random.default_rng(0)
        a = FeatureSequence(rng.normal(size=(6, 3)))
        path = dtw_align(a, a)
        assert path.cost == 0.0
        assert path.pairs == tuple((t, t) for t in range(6))

    def test_known_small_case(self):
        """b stretches a's first frame; the zero-cost path is forced."""
        a = FeatureSequence(np.array([[0.0], [1.0]]))
        b = FeatureSequence(np.array([[0.0], [0.0], [1.0]]))
        path = dtw_align(a, b)
        assert path.pairs == ((0, 0), (0, 1), (1, 2))
        assert path.cost == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        for trial in range(60):
            ta = int(rng.integers(1, 8))
            tb = int(rng.integers(1, 8))
            a = rng.normal(size=(ta, 2))
            b = rng.normal(size=(tb, 2))
            path = dtw_align(FeatureSequence(a), FeatureSequence(b))
            expected = brute_force_cost(a, b)
            assert path.cost == pytest.approx(expected, rel=1e-12), (
                f"trial {trial}: {path.cost} vs {expected}"
            )

    def test_reported_cost_matches_path(self):
        """The cost field equals the sum of frame distances along the pairs."""
        rng = np.random.default_rng(2)
        a = rng.normal(size=(9, 4))
        b = rng.normal(size=(7, 4))
        path = dtw_align(FeatureSequence(a), FeatureSequence(b))
        total = sum(((a[i] - b[j]) ** 2).sum() for i, j in path.pairs)
        assert path.cost == pytest.approx(total, rel=1e-12)

    def test_path_validity(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            ta = int(rng.integers(1, 12))
            tb = int(rng.integers(1, 12))
            a = FeatureSequence(rng.normal(size=(ta, 3)))
            b = FeatureSequence(rng.normal(size=(tb, 3)))
            path = dtw_align(a, b)
            path.validate(ta, tb)  # raises on any malformed step

    def test_dim_mismatch(self):
        a = FeatureSequence(np.zeros((3, 2)))
        b = FeatureSequence(np.zeros((3, 5)))
        with pytest.raises(DimensionMismatchError):
            dtw_align(a, b)

    def test_empty_sequence(self):
        a = FeatureSequence(np.zeros((0, 2)))
        b = FeatureSequence(np.zeros((3, 2)))
        with pytest.raises(InsufficientDataError):
            dtw_align(a, b)

    @pytest.mark.parametrize("align", [dtw_align, mel_cepstral_distortion])
    @pytest.mark.parametrize("ta, tb", [(6, 4), (5, 5)])
    def test_overflowing_distances_raise(self, align, ta, tb):
        """Squared distances of frames near 1e160 overflow to inf; that is
        a typed error, not an IndexError from a backtrace that walked off
        the grid, nor a path that costs inf."""
        rng = np.random.default_rng(ta * 10 + tb)
        a = FeatureSequence(rng.normal(size=(ta, 25)) * 1e160)
        b = FeatureSequence(rng.normal(size=(tb, 25)) * 1e160)
        with pytest.raises(NonFiniteError, match="overflowed"):
            align(a, b)

    def test_cost_matrix_is_the_only_grid_sized_array(self):
        """The cumulative cost lives in the distance matrix itself: no
        back-pointer matrix or second grid-sized buffer is allocated."""
        rng = np.random.default_rng(6)
        a = FeatureSequence(rng.normal(size=(300, 25)))
        b = FeatureSequence(rng.normal(size=(400, 25)))
        dtw_align(a, b)  # warm: imports and first-call set-up
        tracemalloc.start()
        try:
            dtw_align(a, b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * 300 * 400 * 8


class TestDistanceKernel:
    """DTW takes its distances from scipy's squared-Euclidean kernel; the
    fallback, public cdist, must give the same alignment bit for bit."""

    @pytest.mark.parametrize("sliced", [False, True])
    @pytest.mark.parametrize("ta, tb", [(40, 33), (1, 17), (17, 1)])
    def test_fallback_gives_the_same_alignment(self, monkeypatch, ta, tb, sliced):
        """sliced runs on column views like the data[:, :LOW_DIM] that
        prepare_parallel_frames aligns."""
        rng = np.random.default_rng(ta * 100 + tb)
        a, b = rng.normal(size=(ta, 49)), rng.normal(size=(tb, 49))
        if sliced:
            a, b = a[:, :LOW_DIM], b[:, :LOW_DIM]
        seq_a, seq_b = FeatureSequence(a), FeatureSequence(b)
        # FeatureSequence keeps the views: rows stay 49 columns apart.
        assert seq_a.data.strides[0] == seq_b.data.strides[0] == 49 * 8
        kernel = dtw_align(seq_a, seq_b)
        monkeypatch.setattr(align, "_sqeuclidean_kernel", lambda: align._public_cdist)
        fallback = dtw_align(seq_a, seq_b)
        assert fallback.pairs == kernel.pairs
        assert np.float64(fallback.cost).tobytes() == np.float64(kernel.cost).tobytes()

    def test_kernel_is_looked_up_once(self):
        rng = np.random.default_rng(8)
        for ta in (5, 9, 13):
            dtw_align(FeatureSequence(rng.normal(size=(ta, 3))),
                      FeatureSequence(rng.normal(size=(7, 3))))
        assert align._sqeuclidean_kernel.cache_info().misses == 1


class TestAlignmentPath:
    def test_validate_rejects_bad_start(self):
        path = AlignmentPath(pairs=((1, 0), (2, 1)), cost=0.0)
        with pytest.raises(ValueError):
            path.validate(3, 2)

    def test_validate_rejects_skips(self):
        path = AlignmentPath(pairs=((0, 0), (2, 1)), cost=0.0)
        with pytest.raises(ValueError):
            path.validate(3, 2)


class TestPairedFrames:
    def test_identity_path_returns_inputs(self):
        rng = np.random.default_rng(4)
        a = FeatureSequence(rng.normal(size=(5, 3)))
        b = FeatureSequence(rng.normal(size=(5, 3)))
        path = AlignmentPath(pairs=tuple((t, t) for t in range(5)), cost=0.0)
        wa, wb = paired_frames(a, b, path)
        assert np.array_equal(wa.data, a.data)
        assert np.array_equal(wb.data, b.data)

    def test_duplicating_path(self):
        a = FeatureSequence(np.array([[1.0], [2.0]]))
        b = FeatureSequence(np.array([[5.0], [6.0]]))
        path = AlignmentPath(pairs=((0, 0), (0, 1), (1, 1)), cost=0.0)
        wa, wb = paired_frames(a, b, path)
        np.testing.assert_array_equal(wa.data, [[1.0], [1.0], [2.0]])
        np.testing.assert_array_equal(wb.data, [[5.0], [6.0], [6.0]])
        assert wa.frames == len(path.pairs) == wb.frames

    def test_alignment_equalizes_warped_lengths(self):
        rng = np.random.default_rng(5)
        a = FeatureSequence(rng.normal(size=(11, 2)))
        b = FeatureSequence(rng.normal(size=(6, 2)))
        wa, wb = paired_frames(a, b, dtw_align(a, b))
        assert wa.frames == wb.frames >= max(a.frames, b.frames)
