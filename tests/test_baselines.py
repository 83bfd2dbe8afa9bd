"""Tests for the two parallel trainers: MSE regression and GAN+MSE."""

from __future__ import annotations

import numpy as np
import pytest

from cyclevc.baselines import (
    GanBaselineConfig,
    GanLosses,
    MseBaselineConfig,
    MseLosses,
    ParallelTrainSet,
    gan_baseline_generator_objective,
    mse_loss,
    train_gan_baseline,
    train_mse_baseline,
)
from cyclevc.cyclegan import fit, score_loss
from cyclevc.errors import DimensionMismatchError, NonFiniteError
from cyclevc.features import FeatureSequence
from cyclevc.net import Mlp, apply_update, backward, forward, init_mlp, init_optimizer


def linear_task(rng: np.random.Generator, frames: int, dim: int = 6) -> ParallelTrainSet:
    """y = Ax + b with a well-conditioned random map."""
    a = rng.normal(0, 0.5, size=(dim, dim))
    b = rng.normal(0, 0.1, size=dim)
    x = rng.normal(size=(frames, dim))
    y = x @ a.T + b
    return ParallelTrainSet(x=FeatureSequence(x), y=FeatureSequence(y))


class TestParallelTrainSet:
    def test_frame_count_must_match(self):
        x = FeatureSequence(np.zeros((3, 2)))
        y = FeatureSequence(np.zeros((4, 2)))
        with pytest.raises(DimensionMismatchError):
            ParallelTrainSet(x=x, y=y)

    def test_dims_must_match(self):
        x = FeatureSequence(np.zeros((3, 2)))
        y = FeatureSequence(np.zeros((3, 5)))
        with pytest.raises(DimensionMismatchError):
            ParallelTrainSet(x=x, y=y)


class TestMseLoss:
    def test_zero_for_equal(self):
        a = np.ones((3, 4))
        assert mse_loss(a, a.copy())[0] == 0.0

    def test_hand_example(self):
        pred = np.array([[0.0, 0.0]])
        target = np.array([[3.0, 4.0]])
        assert mse_loss(pred, target)[0] == pytest.approx(12.5)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(0)
        pred = rng.normal(size=(4, 3))
        target = rng.normal(size=(4, 3))
        base = mse_loss(pred, target)[0]
        scaled = mse_loss(target + 3.0 * (pred - target), target)[0]
        assert scaled == pytest.approx(9.0 * base)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mse_loss(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_value_is_the_np_mean_form_bit_for_bit(self):
        rng = np.random.default_rng(18)
        for scale in (1e-3, 1.0, 30.0, 1e3):
            pred, target = scale * rng.normal(size=(2, 128, 75))
            assert mse_loss(pred, target)[0] == float(np.mean((pred - target) ** 2))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        pred, target = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        _, grad = mse_loss(pred, target)
        step = 1e-6
        numeric = np.zeros_like(pred)
        for idx in np.ndindex(*pred.shape):
            plus, minus = pred.copy(), pred.copy()
            plus[idx] += step
            minus[idx] -= step
            numeric[idx] = (mse_loss(plus, target)[0] - mse_loss(minus, target)[0]) / (2 * step)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)


class TestMseBaseline:
    def test_loss_decreases_on_identity_task(self):
        rng = np.random.default_rng(1)
        x = FeatureSequence(rng.normal(size=(200, 5)))
        data = ParallelTrainSet(x=x, y=x)
        config = MseBaselineConfig(epochs=10, seed=3, hidden_dims=(16,), batch_frames=32)
        _, history = train_mse_baseline(data, config)
        assert history[-1].mse < history[0].mse

    def test_linear_task_reaches_threshold(self):
        rng = np.random.default_rng(2)
        data = linear_task(rng, frames=1000)
        config = MseBaselineConfig(epochs=60, seed=4, hidden_dims=(128,), batch_frames=32)
        _, history = train_mse_baseline(data, config)
        assert history[-1].mse < 1e-2

    def test_epoch_average_mostly_monotone(self):
        """At the default learning rate, allow at most 2 up-ticks in 60 epochs."""
        rng = np.random.default_rng(3)
        data = linear_task(rng, frames=500)
        config = MseBaselineConfig(epochs=60, seed=5, hidden_dims=(32,), batch_frames=32)
        _, history = train_mse_baseline(data, config)
        upticks = sum(1 for a, b in zip(history, history[1:]) if b > a)
        assert upticks <= 2

    def test_determinism(self):
        rng = np.random.default_rng(4)
        data = linear_task(rng, frames=120)
        config = MseBaselineConfig(epochs=5, seed=6, hidden_dims=(8,))
        net_a, hist_a = train_mse_baseline(data, config)
        net_b, hist_b = train_mse_baseline(data, config)
        assert hist_a == hist_b
        assert all(np.array_equal(x, y) for x, y in zip(net_a.weights, net_b.weights))

    def test_history_length_is_epoch_count(self):
        rng = np.random.default_rng(5)
        data = linear_task(rng, frames=64)
        config = MseBaselineConfig(epochs=7, seed=7, hidden_dims=(4,))
        _, history = train_mse_baseline(data, config)
        assert len(history) == 7


class TestGanBaseline:
    def test_gradient_check(self):
        """Generator gradients of adv + w*mse match finite differences."""
        rng = np.random.default_rng(6)
        gen = init_mlp((3, 5, 3), seed=8)
        disc = init_mlp((3, 4, 1), seed=9)
        xb = rng.normal(size=(3, 3))
        yb = rng.normal(size=(3, 3))
        mse_weight = 2.5

        _, _, grads = gan_baseline_generator_objective(
            gen, disc, forward(gen, xb), yb, mse_weight, "lsgan"
        )

        step = 1e-5
        for layer in range(gen.n_layers):
            numeric = np.zeros_like(gen.weights[layer])
            for idx in np.ndindex(*numeric.shape):
                vals = []
                for delta in (step, -step):
                    weights = [w.copy() for w in gen.weights]
                    weights[layer][idx] += delta
                    candidate = Mlp(gen.layer_dims, tuple(weights), gen.biases)
                    adv, mse, _ = gan_baseline_generator_objective(
                        candidate, disc, forward(candidate, xb), yb, mse_weight, "lsgan"
                    )
                    vals.append(adv + mse_weight * mse)
                numeric[idx] = (vals[0] - vals[1]) / (2 * step)
            a = grads.weights[layer]
            rel = np.abs(a - numeric) / np.maximum.reduce(
                [np.abs(a), np.abs(numeric), np.full_like(a, 1e-6)]
            )
            assert rel.max() <= 1e-4

    def test_huge_mse_weight_aligns_with_pure_mse(self):
        """mse_weight 1e6 makes the update direction essentially pure MSE."""
        rng = np.random.default_rng(7)
        gen = init_mlp((4, 8, 4), seed=10)
        disc = init_mlp((4, 6, 1), seed=11)
        xb = rng.normal(size=(16, 4))
        yb = rng.normal(size=(16, 4))

        _, _, mixed = gan_baseline_generator_objective(gen, disc, forward(gen, xb), yb, 1e6, "lsgan")
        out, cache = forward(gen, xb)
        pure, _ = backward(gen, cache, 2.0 * (out - yb) / out.size)
        v1 = mixed.flat()
        v2 = pure.flat() * 1e6
        cosine = float(v1 @ v2 / (np.linalg.norm(v1) * np.linalg.norm(v2)))
        assert cosine > 0.99

    def test_zero_mse_weight_is_pure_adversarial(self):
        rng = np.random.default_rng(8)
        gen = init_mlp((3, 5, 3), seed=12)
        disc = init_mlp((3, 4, 1), seed=13)
        xb = rng.normal(size=(4, 3))
        yb = rng.normal(size=(4, 3))
        _, _, grads0 = gan_baseline_generator_objective(
            gen, disc, forward(gen, xb), yb, 0.0, "lsgan"
        )

        fake, cache = forward(gen, xb)
        d_out, d_cache = forward(disc, fake)
        d_grad = 2.0 * (d_out - 1.0) / xb.shape[0]
        _, fake_grad = backward(disc, d_cache, d_grad)
        adv_only, _ = backward(gen, cache, fake_grad)
        for a, e in zip(grads0.weights, adv_only.weights):
            np.testing.assert_allclose(a, e, rtol=1e-10, atol=1e-12)

    def test_determinism_and_finite_history(self):
        rng = np.random.default_rng(9)
        data = linear_task(rng, frames=96, dim=4)
        config = GanBaselineConfig(epochs=4, seed=14, hidden_dims=(6,), batch_frames=32)
        gen_a, _, hist_a = train_gan_baseline(data, config)
        gen_b, _, hist_b = train_gan_baseline(data, config)
        assert hist_a == hist_b
        assert all(np.array_equal(x, y) for x, y in zip(gen_a.weights, gen_b.weights))
        for row in hist_a:
            assert all(np.isfinite(v) for v in row)


#: Each parallel trainer with its config type, by --method name.
PARALLEL_TRAINERS = {
    "mse-parallel": (train_mse_baseline, MseBaselineConfig),
    "gan-parallel": (train_gan_baseline, GanBaselineConfig),
}


@pytest.mark.parametrize("method", PARALLEL_TRAINERS)
def test_non_finite_losses_stop_training_at_their_step(method):
    """At lr 1e153 the first Adam step throws the generator's outputs so
    far that the second step's MSE overflows to inf; fit stops there. The
    overflow warning is silenced so that the loss check is what stops it."""
    trainer, config_type = PARALLEL_TRAINERS[method]
    data = linear_task(np.random.default_rng(0), 64, dim=4)
    config = config_type(lr_generator=1e153, hidden_dims=(4,), batch_frames=32, epochs=2)
    with np.errstate(over="ignore"), pytest.raises(
        NonFiniteError, match=r"^epoch 1, step 2: non-finite losses"
    ):
        trainer(data, config)


# ---------------------------------------------------------------------------
# The trainers against reference steps that share no forward and take every
# backward in full, input gradient included.
# ---------------------------------------------------------------------------

def reference_gan_baseline(data: ParallelTrainSet, config: GanBaselineConfig):
    gen = config.init_net(data.dim, data.dim, "G")
    disc = config.init_net(data.dim, 1, "D")

    def step(nets, idx):
        gen, disc, opt_g, opt_d = nets
        xb, yb = data.x.data[idx], data.y.data[idx]
        fake, _ = forward(gen, xb)
        d_real, cache_r = forward(disc, yb)
        d_fake, cache_f = forward(disc, fake)
        loss_real, g_real = score_loss(d_real, 1.0, config.loss_form)
        loss_fake, g_fake = score_loss(d_fake, 0.0, config.loss_form)
        grads_d = backward(disc, cache_r, g_real)[0] + backward(disc, cache_f, g_fake)[0]
        disc = apply_update(disc, grads_d, opt_d)

        pred, cache_g = forward(gen, xb)
        d_pred, cache_d = forward(disc, pred)
        adv, g_adv = score_loss(d_pred, 1.0, config.loss_form)
        _, g_pred = backward(disc, cache_d, g_adv)
        mse, g_mse = mse_loss(pred, yb)
        grads, _ = backward(gen, cache_g, g_pred + config.mse_weight * g_mse)
        gen = apply_update(gen, grads, opt_g)
        losses = GanLosses(loss_real + loss_fake, adv, mse, adv + config.mse_weight * mse)
        return (gen, disc, opt_g, opt_d), losses

    opts = init_optimizer(gen, config.lr_generator), init_optimizer(disc, config.lr_discriminator)
    (gen, disc, _, _), history = fit(step, (gen, disc, *opts), config, data.frames)
    return gen, disc, history


def reference_mse_baseline(data: ParallelTrainSet, config: MseBaselineConfig):
    def step(nets, idx):
        net, opt = nets
        pred, cache = forward(net, data.x.data[idx])
        loss, g_mse = mse_loss(pred, data.y.data[idx])
        grads, _ = backward(net, cache, g_mse)
        return (apply_update(net, grads, opt), opt), MseLosses(loss)

    net = config.init_net(data.dim, data.dim, "G")
    (net, _), history = fit(step, (net, init_optimizer(net, config.lr_generator)), config, data.frames)
    return net, history


@pytest.mark.parametrize("loss_form", ["lsgan", "log"])
def test_gan_baseline_matches_its_reference_bit_for_bit(loss_form):
    data = linear_task(np.random.default_rng(10), frames=96, dim=4)
    config = GanBaselineConfig(
        epochs=3, seed=15, hidden_dims=(6, 5), batch_frames=32, mse_weight=0.6,
        lr_discriminator=0.01, loss_form=loss_form,
    )
    gen, disc, history = train_gan_baseline(data, config)
    ref_gen, ref_disc, ref_history = reference_gan_baseline(data, config)
    assert history == ref_history
    assert gen.params.tobytes() == ref_gen.params.tobytes()
    assert disc.params.tobytes() == ref_disc.params.tobytes()


def test_mse_baseline_matches_its_reference_bit_for_bit():
    data = linear_task(np.random.default_rng(11), frames=96, dim=4)
    config = MseBaselineConfig(epochs=3, seed=16, hidden_dims=(6, 5), batch_frames=32)
    net, history = train_mse_baseline(data, config)
    ref_net, ref_history = reference_mse_baseline(data, config)
    assert history == ref_history
    assert net.params.tobytes() == ref_net.params.tobytes()
