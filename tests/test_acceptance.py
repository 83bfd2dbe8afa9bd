"""Acceptance suite: one test per shipped guarantee.

Each test prints a single ``PASS criterion N: ...`` line when it holds (run
with ``pytest -s`` to watch them appear; without ``-s`` pytest shows the
lines only for failures). Tests that wrap expensive work also enforce a
wall-clock budget so a speed regression fails loudly instead of hanging.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import time

import numpy as np
import pytest

from cyclevc.align import dtw_align
from cyclevc.baselines import (
    MseBaselineConfig,
    ParallelTrainSet,
    gan_baseline_generator_objective,
    train_mse_baseline,
)
from cyclevc.cli import main
from cyclevc.cyclegan import (
    CycleGanConfig,
    build_model,
    discriminator_objective,
    generator_objective,
    train,
)
from cyclevc.features import (
    FeatureKind,
    FeatureSequence,
    LogF0Stats,
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
from cyclevc.mlpg import GaussianTrajectory, mlpg_generate
from cyclevc.net import Gradients, Mlp, backward, forward, init_mlp, load_mlp, save_mlp
from cyclevc.pipeline import (
    SyntheticSpec,
    augment_lower,
    convert_utterance,
    load_speaker_stats,
)


@contextlib.contextmanager
def reported(line: str):
    """Emit one PASS/FAIL line for the check running inside the block."""
    try:
        yield
    except BaseException:
        print(f"FAIL {line}")
        raise
    print(f"PASS {line}")


@contextlib.contextmanager
def budget(seconds: float):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"exceeded {seconds:.0f}s budget: took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 1: analytic gradients against central finite differences
# ---------------------------------------------------------------------------

def _with_param(net: Mlp, field: str, layer: int, idx, delta: float) -> Mlp:
    arrays = [a.copy() for a in getattr(net, field)]
    arrays[layer][idx] += delta
    return Mlp(
        layer_dims=net.layer_dims,
        weights=tuple(arrays) if field == "weights" else net.weights,
        biases=tuple(arrays) if field == "biases" else net.biases,
    )


def _numeric_grads(loss_of_net, net: Mlp, step: float = 1e-5) -> Gradients:
    """Central differences of a scalar loss over every weight and bias."""
    grads = {"weights": [], "biases": []}
    for field in ("weights", "biases"):
        for layer in range(net.n_layers):
            g = np.zeros_like(getattr(net, field)[layer])
            for idx in np.ndindex(*g.shape):
                up = loss_of_net(_with_param(net, field, layer, idx, +step))
                down = loss_of_net(_with_param(net, field, layer, idx, -step))
                g[idx] = (up - down) / (2 * step)
            grads[field].append(g)
    return Gradients(weights=tuple(grads["weights"]), biases=tuple(grads["biases"]))


def _worst_rel(analytic: Gradients, numeric: Gradients) -> float:
    a, n = analytic.flat(), numeric.flat()
    floor = np.full_like(a, 1e-6)
    return float((np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n), floor])).max())


def test_criterion_1_gradients_match_finite_differences():
    with reported("criterion 1: analytic gradients match finite differences (rel err <= 1e-4)"), \
            budget(30.0):
        rng = np.random.default_rng(99)
        worst = 0.0

        # Plain MSE regression through a small net.
        net = init_mlp((5, 7, 5), seed=21)
        xb, yb = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        pred, cache = forward(net, xb)
        analytic, _ = backward(net, cache, 2.0 * (pred - yb) / pred.size)

        def mse_of(m: Mlp) -> float:
            return float(np.mean((forward(m, xb)[0] - yb) ** 2))

        worst = max(worst, _worst_rel(analytic, _numeric_grads(mse_of, net)))

        for form in ("lsgan", "log"):
            config = CycleGanConfig(hidden_dims=(6,), loss_form=form, seed=5)
            model = build_model(4, config)
            xg, yg = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))

            # Generator side: pure adversarial (weight 0) and the full
            # objective with both reconstruction paths (weight 10).
            for weight in (0.0, 10.0):
                _, grads_g, grads_f = generator_objective(model, xg, yg, weight, form)
                for name, grads in (("g", grads_g), ("f", grads_f)):
                    def gen_total(m: Mlp, _n=name, _w=weight) -> float:
                        swapped = dataclasses.replace(model, **{_n: m})
                        return generator_objective(swapped, xg, yg, _w, form)[0].total

                    numeric = _numeric_grads(gen_total, getattr(model, name))
                    worst = max(worst, _worst_rel(grads, numeric))

            # Discriminator side, one score head at a time.
            _, _, grads_dx, grads_dy = discriminator_objective(model, xg, yg, form)

            def disc_x_loss(m: Mlp) -> float:
                return discriminator_objective(
                    dataclasses.replace(model, d_x=m), xg, yg, form
                )[0]

            def disc_y_loss(m: Mlp) -> float:
                return discriminator_objective(
                    dataclasses.replace(model, d_y=m), xg, yg, form
                )[1]

            worst = max(worst, _worst_rel(grads_dx, _numeric_grads(disc_x_loss, model.d_x)))
            worst = max(worst, _worst_rel(grads_dy, _numeric_grads(disc_y_loss, model.d_y)))

        assert worst <= 1e-4, f"worst relative gradient error {worst:.3e}"


# ---------------------------------------------------------------------------
# Criterion 2: banded trajectory solver against a dense reference
# ---------------------------------------------------------------------------

#: The static, delta and delta-delta kernels, written out here so that the
#: reference does not move with the program's own copy.
_WINDOWS = (
    ((0, 1.0),),
    ((-1, -0.5), (1, 0.5)),
    ((-1, 1.0), (0, -2.0), (1, 1.0)),
)


def _dense_window_matrix(win, frames: int) -> np.ndarray:
    mat = np.zeros((frames, frames))
    for t in range(frames):
        for offset, coeff in win:
            mat[t, min(max(t + offset, 0), frames - 1)] += coeff
    return mat


def _dense_mlpg(means: np.ndarray, variances: np.ndarray) -> np.ndarray:
    frames = means.shape[0]
    statics = means.shape[1] // len(_WINDOWS)
    mats = [_dense_window_matrix(win, frames) for win in _WINDOWS]
    out = np.zeros((frames, statics))
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


def test_criterion_2_banded_solver_matches_dense_reference():
    with reported("criterion 2: banded trajectory solver matches dense solve (<= 1e-8)"), \
            budget(10.0):
        rng = np.random.default_rng(7)
        for trial in range(200):
            frames = int(rng.integers(1, 21))
            statics = int(rng.integers(1, 6))
            means = rng.normal(size=(frames, statics * 3))
            variances = rng.uniform(0.1, 4.0, size=statics * 3)
            banded = mlpg_generate(GaussianTrajectory(means=means, variances=variances)).data
            dense = _dense_mlpg(means, variances)
            assert np.abs(banded - dense).max() <= 1e-8, f"trial {trial}"

        # Means that really are a delta expansion give back their statics.
        statics = FeatureSequence(0.1 * np.cumsum(rng.normal(size=(40, 3)), axis=0))
        expanded = compute_deltas(statics)
        traj = GaussianTrajectory(means=expanded.data, variances=np.full(9, 0.5))
        recovered = mlpg_generate(traj).data
        assert np.abs(recovered - statics.data).max() <= 1e-8


# ---------------------------------------------------------------------------
# Criterion 3: alignment against literal path enumeration
# ---------------------------------------------------------------------------

def _enumerated_min_cost(dist: np.ndarray) -> float:
    """Minimum cumulative cost found by walking every monotone path."""
    t_a, t_b = dist.shape
    best = math.inf
    stack = [(0, 0, float(dist[0, 0]))]
    while stack:
        i, j, acc = stack.pop()
        if i == t_a - 1 and j == t_b - 1:
            best = min(best, acc)
            continue
        for ni, nj in ((i + 1, j + 1), (i + 1, j), (i, j + 1)):
            if ni < t_a and nj < t_b:
                stack.append((ni, nj, acc + dist[ni, nj]))
    return best


def test_criterion_3_alignment_matches_path_enumeration():
    with reported("criterion 3: DTW cost equals exhaustive path enumeration"), budget(10.0):
        rng = np.random.default_rng(11)
        for trial in range(200):
            t_a, t_b = int(rng.integers(1, 8)), int(rng.integers(1, 8))
            a = FeatureSequence(rng.normal(size=(t_a, 2)))
            b = FeatureSequence(rng.normal(size=(t_b, 2)))
            dist = ((a.data[:, None, :] - b.data[None, :, :]) ** 2).sum(axis=2)
            assert math.isclose(
                dtw_align(a, b).cost,
                _enumerated_min_cost(dist),
                rel_tol=1e-12,
                abs_tol=1e-12,
            ), f"trial {trial}"

        same = FeatureSequence(rng.normal(size=(30, 4)))
        assert dtw_align(same, same).cost == 0.0


# ---------------------------------------------------------------------------
# Criterion 4: F0 transform lands on the target statistics
# ---------------------------------------------------------------------------

def test_criterion_4_f0_transform_hits_target_statistics():
    with reported("criterion 4: F0 transform reaches target log stats (<= 1e-9), mask intact"):
        rng = np.random.default_rng(17)
        voiced = rng.random(500) < 0.8
        f0 = np.where(voiced, np.exp(rng.normal(4.9, 0.25, size=500)), 0.0)
        track = FeatureSequence(f0[:, None], FeatureKind.F0)

        src = fit_logf0_stats(track)
        tgt = LogF0Stats(mean=5.35, std=0.19, voiced_count=src.voiced_count)
        out = transform_f0(track, src, tgt)
        refit = fit_logf0_stats(out)

        assert abs(refit.mean - tgt.mean) <= 1e-9
        assert abs(refit.std - tgt.std) <= 1e-9
        assert np.array_equal(out.data[:, 0] > 0.0, voiced)
        assert np.array_equal(out.data[~voiced, 0], f0[~voiced])


# ---------------------------------------------------------------------------
# Criteria 5 and 7 share a synthetic two-speaker corpus
# ---------------------------------------------------------------------------

def _toy_speaker(name, center, axis_seed, logf0_mean, logf0_std):
    """Cluster-concentrated mixture: tight components spread along random axes."""
    means = center + 2.0 * np.random.default_rng(axis_seed).normal(size=(3, 25))
    return {
        "name": name,
        "frames": 2000,
        "mixture": {
            "weights": [0.4, 0.35, 0.25],
            "means": means.tolist(),
            "stds": np.full((3, 25), 0.05).tolist(),
        },
        "logf0_mean": logf0_mean,
        "logf0_std": logf0_std,
        "voiced_fraction": 0.9,
    }


def _toy_spec_doc():
    return {
        "seed": 2024,
        "aperiodicity_dim": 5,
        "speakers": [
            _toy_speaker("spk_a", -1.5, 10, 4.7, 0.18),
            _toy_speaker("spk_b", 1.5, 20, 5.4, 0.12),
        ],
    }


@pytest.fixture(scope="module")
def toy_corpus(tmp_path_factory):
    """Generated corpus plus fitted stats files, built once via the CLI."""
    root = tmp_path_factory.mktemp("toy")
    spec = root / "spec.json"
    spec.write_text(json.dumps(_toy_spec_doc()), encoding="utf-8")
    assert main(["gen-synthetic", "--spec", str(spec), "--out-dir", str(root)]) == 0
    for name in ("spk_a", "spk_b"):
        assert main([
            "stats",
            "--mcep", str(root / f"{name}.mcep.ftr"),
            "--f0", str(root / f"{name}.f0.ftr"),
            "--out", str(root / f"{name}.stats"),
        ]) == 0
    return root


def test_criterion_5_toy_nonparallel_conversion(toy_corpus):
    with reported("criterion 5: toy nonparallel conversion moves source onto target"), \
            budget(300.0):
        stats_a = load_speaker_stats(toy_corpus / "spk_a.stats")
        stats_b = load_speaker_stats(toy_corpus / "spk_b.stats")
        mcep_a = read_ftr(toy_corpus / "spk_a.mcep.ftr")
        mcep_b = read_ftr(toy_corpus / "spk_b.mcep.ftr")

        x = normalize(augment_lower(mcep_a), stats_a.norm)
        y = normalize(augment_lower(mcep_b), stats_b.norm)
        config = CycleGanConfig(epochs=100, seed=123, hidden_dims=(32,))
        model, history = train(build_model(x.dim, config), x, y, config)

        assert history[-1].cycle < 0.10 * history[0].cycle, (
            history[0].cycle, history[-1].cycle,
        )

        result = convert_utterance(
            generator=lambda batch: forward(model.g, batch)[0],
            src_stats=stats_a,
            tgt_stats=stats_b,
            mcep=mcep_a,
            f0=read_ftr(toy_corpus / "spk_a.f0.ftr"),
            aperiodicity=read_ftr(toy_corpus / "spk_a.ap.ftr"),
        )

        spec = SyntheticSpec.from_json(toy_corpus / "spec.json")
        target_mean = spec.speakers[1].mixture.overall_mean
        before = float(np.linalg.norm(mcep_a.data[:, :25].mean(axis=0) - target_mean))
        after = float(np.linalg.norm(result.mcep.data[:, :25].mean(axis=0) - target_mean))
        assert after <= 0.20 * before, (before, after)


# ---------------------------------------------------------------------------
# Criterion 6: parallel baselines
# ---------------------------------------------------------------------------

def test_criterion_6_parallel_baselines():
    with reported("criterion 6: baselines fit a linear task and weight their terms sanely"):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 0.5, size=(6, 6))
        b = rng.normal(0, 0.1, size=6)
        x = rng.normal(size=(1000, 6))
        data = ParallelTrainSet(x=FeatureSequence(x), y=FeatureSequence(x @ a.T + b))
        config = MseBaselineConfig(epochs=60, seed=4, hidden_dims=(128,), batch_frames=32)
        _, history = train_mse_baseline(data, config)
        assert history[-1] < 1e-2, history[-1]

        gen = init_mlp((4, 8, 4), seed=10)
        disc = init_mlp((4, 6, 1), seed=11)
        xb, yb = rng.normal(size=(16, 4)), rng.normal(size=(16, 4))
        _, _, mixed = gan_baseline_generator_objective(gen, disc, xb, yb, 1e6, "lsgan")
        out, cache = forward(gen, xb)
        pure, _ = backward(gen, cache, 2.0 * (out - yb) / out.size)
        v1, v2 = mixed.flat(), pure.flat() * 1e6
        cosine = float(v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2)))
        assert cosine > 0.99, cosine


# ---------------------------------------------------------------------------
# Criterion 7: stream integrity and end-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_7_conversion_integrity_and_determinism(toy_corpus, tmp_path):
    with reported("criterion 7: untouched streams copied exactly, full run byte-deterministic"):
        # Re-generating from the same document reproduces the corpus bit for bit.
        regen = tmp_path / "regen"
        assert main([
            "gen-synthetic", "--spec", str(toy_corpus / "spec.json"),
            "--out-dir", str(regen),
        ]) == 0
        for stream in ("spk_a.mcep.ftr", "spk_a.f0.ftr", "spk_a.ap.ftr"):
            assert (regen / stream).read_bytes() == (toy_corpus / stream).read_bytes()

        def train_into(out_dir):
            assert main([
                "train", "--method", "cyclegan",
                "--src-mcep", str(toy_corpus / "spk_a.mcep.ftr"),
                "--tgt-mcep", str(toy_corpus / "spk_b.mcep.ftr"),
                "--src-stats", str(toy_corpus / "spk_a.stats"),
                "--tgt-stats", str(toy_corpus / "spk_b.stats"),
                "--out-dir", str(out_dir),
                "--epochs", "2", "--hidden", "8", "--seed", "7",
            ]) == 0

        def convert_into(model_dir, out_dir):
            out_dir.mkdir(parents=True, exist_ok=True)
            assert main([
                "convert", "--model-dir", str(model_dir),
                "--src-stats", str(toy_corpus / "spk_a.stats"),
                "--tgt-stats", str(toy_corpus / "spk_b.stats"),
                "--mcep", str(toy_corpus / "spk_a.mcep.ftr"),
                "--f0", str(toy_corpus / "spk_a.f0.ftr"),
                "--ap", str(toy_corpus / "spk_a.ap.ftr"),
                "--out-mcep", str(out_dir / "out.mcep.ftr"),
                "--out-f0", str(out_dir / "out.f0.ftr"),
                "--out-ap", str(out_dir / "out.ap.ftr"),
            ]) == 0

        runs = (tmp_path / "run1", tmp_path / "run2")
        for run in runs:
            train_into(run / "model")
            convert_into(run / "model", run / "out")

        first, second = runs
        for rel in (
            "model/losses.csv", "model/g.mlp",
            "out/out.mcep.ftr", "out/out.f0.ftr", "out/out.ap.ftr",
        ):
            assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel

        src_mcep = read_ftr(toy_corpus / "spk_a.mcep.ftr")
        out_mcep = read_ftr(first / "out" / "out.mcep.ftr")
        out_f0 = read_ftr(first / "out" / "out.f0.ftr")
        assert out_mcep.frames == src_mcep.frames
        assert out_f0.frames == src_mcep.frames
        assert np.array_equal(out_mcep.data[:, 25:], src_mcep.data[:, 25:])
        assert (first / "out" / "out.ap.ftr").read_bytes() == (
            toy_corpus / "spk_a.ap.ftr"
        ).read_bytes()


# ---------------------------------------------------------------------------
# Criterion 8: on-disk round-trips
# ---------------------------------------------------------------------------

def test_criterion_8_round_trips(tmp_path):
    with reported("criterion 8: feature, model, split/merge, and norm round-trips are lossless"):
        rng = np.random.default_rng(23)

        # FTR1 stores 32-bit frames; representable values survive exactly.
        data = rng.normal(size=(17, 9)).astype(np.float32).astype(np.float64)
        seq = FeatureSequence(data)
        write_ftr(tmp_path / "a.ftr", seq)
        back = read_ftr(tmp_path / "a.ftr")
        assert back.kind is seq.kind
        assert np.array_equal(back.data, seq.data)

        # Network persistence is decimal text: exact for doubles. It holds
        # through the binary image saved beside the text and, with the
        # image deleted, through the text parse.
        base = init_mlp((5, 8, 3), seed=31)
        net = Mlp(
            layer_dims=base.layer_dims,
            weights=tuple(w * np.pi for w in base.weights),
            biases=tuple(b + 1.0 / 3.0 for b in base.biases),
        )
        save_mlp(tmp_path / "net.mlp", net)
        through_image = load_mlp(tmp_path / "net.mlp")
        (tmp_path / "net.mlp.f8").unlink()
        for loaded in (through_image, load_mlp(tmp_path / "net.mlp")):
            assert all(np.array_equal(w, v) for w, v in zip(loaded.weights, net.weights))
            assert all(np.array_equal(w, v) for w, v in zip(loaded.biases, net.biases))

        # split/merge reassembles the exact 49-dim array.
        mcep = FeatureSequence(rng.normal(size=(12, 49)), FeatureKind.MCEP49)
        lower, higher = split_mcep(mcep)
        assert np.array_equal(merge_mcep(lower, higher).data, mcep.data)

        # normalize/denormalize invert each other within the documented 1e-10.
        feats = FeatureSequence(3.0 * rng.normal(size=(40, 7)) + 1.0)
        stats = fit_norm_stats(feats)
        round_tripped = denormalize(normalize(feats, stats), stats)
        assert np.abs(round_tripped.data - feats.data).max() <= 1e-10
