"""Tests for trajectory generation: banded solve vs dense oracle, post-filter."""

from __future__ import annotations

import numpy as np
import pytest

from cyclevc.errors import DimensionMismatchError
from cyclevc.features import DELTA_WINDOWS, FeatureKind, FeatureSequence, compute_deltas
from cyclevc.mlpg import GaussianTrajectory, mlpg_generate, postfilter


def dense_window_matrix(win, frames: int) -> np.ndarray:
    """Reference window matrix built entry by entry with edge clamping."""
    mat = np.zeros((frames, frames))
    for t in range(frames):
        for offset, coeff in win:
            mat[t, min(max(t + offset, 0), frames - 1)] += coeff
    return mat


def dense_mlpg(means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """Per-dimension weighted least squares by a dense general solve."""
    frames = means.shape[0]
    statics = means.shape[1] // len(DELTA_WINDOWS)
    out = np.zeros((frames, statics))
    mats = [dense_window_matrix(win, frames) for win in DELTA_WINDOWS]
    for s in range(statics):
        a = np.zeros((frames, frames))
        rhs = np.zeros(frames)
        for w, mat in enumerate(mats):
            precision = 1.0 / variances[w * statics + s]
            if precision == 0.0:
                continue
            a += precision * (mat.T @ mat)
            rhs += precision * (mat.T @ means[:, w * statics + s])
        out[:, s] = np.linalg.solve(a, rhs)
    return out


class TestGaussianTrajectory:
    def test_width_must_divide(self):
        with pytest.raises(DimensionMismatchError):
            GaussianTrajectory(means=np.zeros((4, 7)), variances=np.ones(7))

    def test_variances_must_be_positive(self):
        with pytest.raises(ValueError):
            GaussianTrajectory(means=np.zeros((4, 3)), variances=np.array([1.0, 0.0, 1.0]))

    def test_infinite_variance_allowed(self):
        traj = GaussianTrajectory(
            means=np.zeros((4, 3)), variances=np.array([1.0, np.inf, np.inf])
        )
        assert traj.static_dim == 1


class TestMlpgGenerate:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            frames = int(rng.integers(1, 21))
            statics = int(rng.integers(1, 6))
            means = rng.normal(size=(frames, statics * 3))
            variances = rng.uniform(0.1, 4.0, size=statics * 3)
            traj = GaussianTrajectory(means=means, variances=variances)
            banded = mlpg_generate(traj).data
            dense = dense_mlpg(means, variances)
            assert np.abs(banded - dense).max() <= 1e-8, f"trial {trial}"

    def test_recovers_delta_expansion(self):
        """Means that truly came from a static sequence are recovered exactly."""
        rng = np.random.default_rng(1)
        statics = FeatureSequence(rng.normal(size=(15, 4)))
        expanded = compute_deltas(statics)
        traj = GaussianTrajectory(
            means=expanded.data, variances=np.ones(expanded.dim)
        )
        recovered = mlpg_generate(traj).data
        assert np.abs(recovered - statics.data).max() <= 1e-8

    def test_infinite_delta_variance_returns_statics(self):
        """Zero-weight delta streams leave only the static constraint."""
        rng = np.random.default_rng(2)
        means = rng.normal(size=(10, 6))
        variances = np.array([1.0, 1.0, np.inf, np.inf, np.inf, np.inf])
        traj = GaussianTrajectory(means=means, variances=variances)
        out = mlpg_generate(traj).data
        np.testing.assert_allclose(out, means[:, :2], atol=1e-12)

    def test_output_is_local_minimum(self):
        """Nudging any output entry cannot decrease the quadratic objective."""
        rng = np.random.default_rng(3)
        means = rng.normal(size=(8, 3))
        variances = rng.uniform(0.5, 2.0, size=3)
        traj = GaussianTrajectory(means=means, variances=variances)
        solution = mlpg_generate(traj).data

        mats = [dense_window_matrix(win, 8) for win in DELTA_WINDOWS]

        def objective(c: np.ndarray) -> float:
            total = 0.0
            for w, mat in enumerate(mats):
                resid = mat @ c - means[:, w]
                total += float(resid @ resid) / variances[w]
            return total

        base = objective(solution[:, 0])
        for t in range(8):
            for delta in (1e-3, -1e-3):
                nudged = solution[:, 0].copy()
                nudged[t] += delta
                assert objective(nudged) >= base

    def test_dimension_independence(self):
        """Solving dims jointly equals solving each dim separately."""
        rng = np.random.default_rng(4)
        means = rng.normal(size=(12, 9))
        variances = rng.uniform(0.2, 3.0, size=9)
        joint = mlpg_generate(GaussianTrajectory(means=means, variances=variances)).data
        for s in range(3):
            cols = [s, 3 + s, 6 + s]
            single = mlpg_generate(
                GaussianTrajectory(means=means[:, cols], variances=variances[cols])
            ).data
            np.testing.assert_allclose(joint[:, s : s + 1], single, atol=1e-12)

    def test_single_frame(self):
        means = np.array([[2.0, 9.9, -3.3]])
        out = mlpg_generate(GaussianTrajectory(means=means, variances=np.ones(3)))
        # with T=1 every window collapses onto the single frame
        assert out.frames == 1

    def test_full_width_gets_mcep_kind(self):
        rng = np.random.default_rng(5)
        traj = GaussianTrajectory(means=rng.normal(size=(4, 75)), variances=np.ones(75))
        assert mlpg_generate(traj).kind is FeatureKind.MCEP_LOW25


class TestPostfilter:
    def test_zero_beta_is_identity(self):
        rng = np.random.default_rng(6)
        seq = FeatureSequence(rng.normal(size=(5, 25)), FeatureKind.MCEP_LOW25)
        out = postfilter(seq, 0.0)
        assert np.array_equal(out.data, seq.data)

    def test_hand_example(self):
        frame = np.zeros((1, 25))
        frame[0, :3] = [1.0, 2.0, 4.0]
        out = postfilter(FeatureSequence(frame, FeatureKind.MCEP_LOW25), 0.5)
        assert out.data[0, 0] == 1.0
        assert out.data[0, 1] == 2.0
        assert out.data[0, 2] == 6.0

    def test_composition(self):
        rng = np.random.default_rng(7)
        seq = FeatureSequence(rng.normal(size=(4, 25)), FeatureKind.MCEP_LOW25)
        beta = 0.3
        twice = postfilter(postfilter(seq, beta), beta)
        once = postfilter(seq, (1 + beta) ** 2 - 1)
        np.testing.assert_allclose(twice.data, once.data, rtol=1e-12)

    def test_negative_beta_rejected(self):
        seq = FeatureSequence(np.zeros((2, 25)), FeatureKind.MCEP_LOW25)
        with pytest.raises(ValueError):
            postfilter(seq, -0.1)
