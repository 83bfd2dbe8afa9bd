"""Tests for trajectory generation: banded solve vs dense oracle, post-filter."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from cyclevc import mlpg, net
from cyclevc.errors import DimensionMismatchError
from cyclevc.features import DELTA_WINDOWS, FeatureKind, FeatureSequence, compute_deltas
from cyclevc.mlpg import (
    _MAX_OFFSET,
    GaussianTrajectory,
    _window_rows,
    check_beta,
    mlpg_generate,
    postfilter,
)


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


def full_band_mlpg(means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """The banded solve with the band summed over all T frames, as
    mlpg_generate did before it summed a short template."""
    from scipy.linalg import solveh_banded

    t = means.shape[0]
    s = means.shape[1] // len(DELTA_WINDOWS)
    precisions = 1.0 / variances
    k = _MAX_OFFSET
    bandwidth = min(2 * k, t - 1)
    ab = np.zeros((s, bandwidth + 1, t))
    rhs = np.zeros((s, t))
    for w, win in enumerate(DELTA_WINDOWS):
        p = precisions[w * s : (w + 1) * s, None]
        rows = _window_rows(win, t)
        mu = means[:, w * s : (w + 1) * s].T * p
        for d1 in range(-k, k + 1):
            lo = max(0, -d1)
            hi = max(lo, t - max(d1, 0))
            rhs[:, lo + d1 : hi + d1] += rows[lo:hi, d1 + k] * mu[:, lo:hi]
            for d2 in range(d1, min(k, d1 + bandwidth) + 1):
                hi = max(lo, t - max(d2, 0))
                ab[:, bandwidth - (d2 - d1), lo + d2 : hi + d2] += p * (
                    rows[lo:hi, d1 + k] * rows[lo:hi, d2 + k]
                )
    out = np.empty((t, s))
    for dim in range(s):
        out[:, dim] = solveh_banded(ab[dim], rhs[dim], lower=False)
    return out


@pytest.mark.parametrize("frames", [*range(1, 8), 50])
def test_window_rows_are_the_window_matrix_band(frames):
    """Each row holds W[t, t-K..t+K] of the entry-by-entry window matrix,
    zero off either edge, for short sequences and for a long one whose
    interior rows repeat the template's middle row."""
    k = _MAX_OFFSET
    for win in DELTA_WINDOWS:
        mat = dense_window_matrix(win, frames)
        expected = np.zeros((frames, 2 * k + 1))
        for t in range(frames):
            for j in range(2 * k + 1):
                if 0 <= t + j - k < frames:
                    expected[t, j] = mat[t, t + j - k]
        assert _window_rows(win, frames).tobytes() == expected.tobytes()


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

    def test_bit_identical_to_the_full_length_band(self):
        """The template band gives the bytes of the band summed over every
        frame: short sequences, the 4K + 1 template itself, and long ones."""
        rng = np.random.default_rng(8)
        for frames in [*range(1, 41), 1000]:
            means = rng.normal(size=(frames, 75))
            variances = rng.uniform(0.1, 4.0, size=75)
            variances[30] = np.inf
            out = mlpg_generate(GaussianTrajectory(means=means, variances=variances)).data
            assert out.tobytes() == full_band_mlpg(means, variances).tobytes(), f"T={frames}"

    def test_overflowing_right_hand_side_is_refused(self):
        """Means of 1e10 over a static variance of 1e-300 overflow the
        right-hand side to inf, which the solve refuses as solveh_banded does."""
        means = np.full((6, 3), 1e10)
        variances = np.array([1e-300, 1.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^array must not contain infs or NaNs$"):
                mlpg_generate(GaussianTrajectory(means=means, variances=variances))

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

    @pytest.mark.parametrize("frames", [1, 2, 3, 5, 200, 1000])
    @pytest.mark.parametrize("delta_off", [False, True])
    def test_scipy_lapack_agrees_with_numpy_lapack(self, frames, delta_off, monkeypatch):
        """Where numpy links no 64-bit-integer LAPACK the solves go through
        scipy's; both give the same trajectory to 1e-12 relative, for pbsv
        bands, the 2-row ptsv band (T = 2) and the 1-row one (T = 1)."""
        if net._lapack_band_solvers() is None:
            pytest.skip("numpy links no 64-bit-integer LAPACK")
        rng = np.random.default_rng(frames)
        means = rng.normal(size=(frames, 75))
        variances = rng.uniform(0.1, 4.0, size=75)
        if delta_off:
            variances[30] = np.inf
        traj = GaussianTrajectory(means=means, variances=variances)
        numpy_path = mlpg_generate(traj).data
        monkeypatch.setattr(net, "_lapack_band_solvers", lambda: None)
        scipy_path = mlpg_generate(traj).data
        np.testing.assert_allclose(scipy_path, numpy_path, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("scipy_path", [False, True])
    def test_a_matrix_that_is_not_positive_definite_names_its_minor(self, scipy_path, monkeypatch):
        """A static precision of 1e-12 against a delta-delta one of 1e12 in
        dimension 3 leaves its 300-frame system not numerically positive
        definite. Both paths name the minor as solveh_banded does, counted
        within the dimension: the stacked system's own index would be 1200."""
        if not scipy_path and net._lapack_band_solvers() is None:
            pytest.skip("numpy links no 64-bit-integer LAPACK")
        if scipy_path:
            monkeypatch.setattr(net, "_lapack_band_solvers", lambda: None)
        variances = np.ones(75)
        variances[3], variances[53] = 1e12, 1e-12
        traj = GaussianTrajectory(
            means=np.random.default_rng(6).normal(size=(300, 75)), variances=variances
        )
        with pytest.raises(LinAlgError, match="^300th leading minor not positive definite$"):
            mlpg_generate(traj)

    def test_a_cached_prefix_names_the_same_minor(self, monkeypatch):
        """With the factor of a 1,000-frame band of the same precisions kept,
        which is positive definite, the 300-frame band's tail is not: its
        replay falls back to the utterance's own band, which names minor 300."""
        monkeypatch.setattr(mlpg, "_factor", None)
        variances = np.ones(75)
        variances[3], variances[53] = 1e12, 1e-12
        rng = np.random.default_rng(6)
        mlpg_generate(GaussianTrajectory(means=rng.normal(size=(1000, 75)), variances=variances))
        assert mlpg._factor is not None
        traj = GaussianTrajectory(means=rng.normal(size=(300, 75)), variances=variances)
        with pytest.raises(LinAlgError, match="^300th leading minor not positive definite$"):
            mlpg_generate(traj)

    @pytest.mark.parametrize("frames", [5, 200, 300])
    @pytest.mark.parametrize("scipy_path", [False, True])
    def test_a_shorter_utterance_reuses_the_kept_factor(self, frames, scipy_path, monkeypatch):
        """After a 300-frame utterance, one of frames <= 300 against the same
        precisions makes no pbtrf call over a band of its own length, and
        one stacked pbtrs solves all 25 dimensions."""
        sizes, solves = [], []
        if scipy_path:
            import scipy.linalg

            lookup = scipy.linalg.get_lapack_funcs
            pbtrf, pbtrs, ptsv = lookup(("pbtrf", "pbtrs", "ptsv"), dtype=np.float64)
            monkeypatch.setattr(net, "_lapack_band_solvers", lambda: None)
            monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", lambda names, dtype: (
                lambda ab, **kw: sizes.append(ab.shape[1]) or pbtrf(ab, **kw),
                lambda ab, b, **kw: solves.append(1) or pbtrs(ab, b, **kw),
                ptsv,
            ))
        else:
            solvers = net._lapack_band_solvers()
            if solvers is None:
                pytest.skip("numpy links no 64-bit-integer LAPACK")
            pbtrf, pbtrs, ptsv = solvers
            monkeypatch.setattr(net, "_lapack_band_solvers", lambda: (
                lambda *args: sizes.append(args[1]._obj.value) or pbtrf(*args),
                lambda *args: solves.append(1) or pbtrs(*args),
                ptsv,
            ))
        monkeypatch.setattr(mlpg, "_factor", None)
        rng = np.random.default_rng(frames)
        variances = rng.uniform(0.1, 4.0, size=75)
        mlpg_generate(GaussianTrajectory(means=rng.normal(size=(300, 75)), variances=variances))
        assert sizes == [25 * 300] and len(solves) == 1
        sizes.clear(), solves.clear()
        means = rng.normal(size=(frames, 75))
        out = mlpg_generate(GaussianTrajectory(means=means, variances=variances)).data
        assert 25 * frames not in sizes and len(solves) == 1
        assert out.tobytes() == full_band_mlpg(means, variances).tobytes()

    @pytest.mark.parametrize("order", ["increasing", "decreasing", "mixed", "two-speakers"])
    def test_the_kept_factor_gives_the_bytes_of_the_full_band(self, order, monkeypatch):
        """Utterances of 1..40, 1,000 and 2,500 frames against one set of
        precisions in rising, falling and mixed order, and in mixed order
        against two sets in turn, give the bytes of a solve of their own band."""
        monkeypatch.setattr(mlpg, "_factor", None)
        rng = np.random.default_rng(9)
        speakers = [rng.uniform(0.1, 4.0, size=75) for _ in range(2)]
        speakers[1][40] = np.inf
        lengths = [*range(1, 41), 1000, 2500]
        if order == "decreasing":
            lengths.reverse()
        elif order != "increasing":
            lengths = list(rng.permutation(lengths))
        for i, frames in enumerate(lengths):
            variances = speakers[i % 2 if order == "two-speakers" else 0]
            means = rng.normal(size=(frames, 75))
            out = mlpg_generate(GaussianTrajectory(means=means, variances=variances)).data
            assert out.tobytes() == full_band_mlpg(means, variances).tobytes(), f"T={frames}"

    @pytest.mark.parametrize("fault", ["window-info", "diagonal"])
    def test_a_tail_that_does_not_check_out_falls_back(self, fault, monkeypatch):
        """A per-dimension window that does not stop with info 2, or a
        replayed pivot that is not the kept one, sends the utterance to a
        factor of its own band, with the same bytes."""
        lapack = mlpg._band_lapack()

        class Faulty:
            def __getattr__(self, name):
                return getattr(lapack, name)

            def pbtrf(self, band):
                info = lapack.pbtrf(band)
                sizes.append(band.size // 3)
                if fault == "window-info" and sizes[-8:] == [3] * 8:
                    info = 0  # the eighth dimension's window
                if fault == "diagonal" and band.shape == (25, 3, 3):
                    band[7, 0, 2] = np.nextafter(band[7, 0, 2], np.inf)
                return info

        sizes = []
        monkeypatch.setattr(mlpg, "_factor", None)
        monkeypatch.setattr(mlpg, "_band_lapack", Faulty)
        rng = np.random.default_rng(10)
        variances = rng.uniform(0.1, 4.0, size=75)
        mlpg_generate(GaussianTrajectory(means=rng.normal(size=(300, 75)), variances=variances))
        means = rng.normal(size=(200, 75))
        out = mlpg_generate(GaussianTrajectory(means=means, variances=variances)).data
        assert sizes[-1] == 25 * 200
        assert out.tobytes() == full_band_mlpg(means, variances).tobytes()

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

    @pytest.mark.parametrize("dim", [1, 2])
    def test_fewer_than_three_columns_pass_through(self, dim):
        """Only coefficients 2.. are scaled, so narrower sequences come back as given."""
        seq = FeatureSequence(np.random.default_rng(8).normal(size=(4, dim)))
        assert postfilter(seq, 0.5).data.tobytes() == seq.data.tobytes()

    def test_composition(self):
        rng = np.random.default_rng(7)
        seq = FeatureSequence(rng.normal(size=(4, 25)), FeatureKind.MCEP_LOW25)
        beta = 0.3
        twice = postfilter(postfilter(seq, beta), beta)
        once = postfilter(seq, (1 + beta) ** 2 - 1)
        np.testing.assert_allclose(twice.data, once.data, rtol=1e-12)

    def test_negative_beta_rejected(self):
        """And a non-finite one, which would otherwise fail later with a
        message that names neither the setting nor a file."""
        seq = FeatureSequence(np.zeros((2, 25)), FeatureKind.MCEP_LOW25)
        for beta in (-0.1, math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"^beta must be finite and >= 0, got {beta}$"):
                postfilter(seq, beta)

    @pytest.mark.parametrize(
        "beta, shown",
        [("0.5", "'0.5'"), (10**400, "100000000000000000...0000000000000000000")],
        ids=["string", "too-large-for-a-float"],
    )
    def test_beta_must_be_a_real_number(self, beta, shown):
        """Refused with the setting's name, not numpy's TypeError."""
        message = f"^beta must be finite and >= 0, got {re.escape(shown)}$"
        with pytest.raises(ValueError, match=message):
            check_beta(beta)
