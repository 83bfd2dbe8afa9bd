"""Tests for the feed-forward engine: forward, backward, updates, persistence."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from cyclevc.errors import DimensionMismatchError, NonFiniteError
from cyclevc.net import (
    Gradients,
    Mlp,
    apply_update,
    backward,
    forward,
    init_mlp,
    init_optimizer,
    load_mlp,
    save_mlp,
)


def numeric_gradient(loss_fn, net: Mlp, step: float = 1e-5) -> Gradients:
    """Central finite differences of loss_fn(net) over every parameter."""
    grad_w = []
    for layer in range(net.n_layers):
        g = np.zeros_like(net.weights[layer])
        for idx in np.ndindex(*g.shape):
            g[idx] = _central_diff(loss_fn, net, "weights", layer, idx, step)
        grad_w.append(g)
    grad_b = []
    for layer in range(net.n_layers):
        g = np.zeros_like(net.biases[layer])
        for idx in np.ndindex(*g.shape):
            g[idx] = _central_diff(loss_fn, net, "biases", layer, idx, step)
        grad_b.append(g)
    return Gradients(weights=tuple(grad_w), biases=tuple(grad_b))


def _central_diff(loss_fn, net, field, layer, idx, step):
    plus = _perturbed(net, field, layer, idx, step)
    minus = _perturbed(net, field, layer, idx, -step)
    return (loss_fn(plus) - loss_fn(minus)) / (2 * step)


def _perturbed(net: Mlp, field: str, layer: int, idx, delta: float) -> Mlp:
    arrays = [a.copy() for a in getattr(net, field)]
    arrays[layer][idx] += delta
    kwargs = {field: tuple(arrays)}
    return Mlp(
        layer_dims=net.layer_dims,
        weights=kwargs.get("weights", net.weights),
        biases=kwargs.get("biases", net.biases),
        hidden_activation=net.hidden_activation,
        output_activation=net.output_activation,
    )


def assert_gradients_close(analytic: Gradients, numeric: Gradients, tol: float = 1e-4):
    a = analytic.flat()
    n = numeric.flat()
    rel = np.abs(a - n) / np.maximum.reduce([np.abs(a), np.abs(n), np.full_like(a, 1e-6)])
    assert rel.max() <= tol, f"worst relative error {rel.max():.3e}"


class TestInit:
    def test_weight_shapes_match_layer_dims(self):
        net = init_mlp((75, 128, 256, 256, 128, 75), seed=0)
        shapes = [w.shape for w in net.weights]
        assert shapes == [(128, 75), (256, 128), (256, 256), (128, 256), (75, 128)]
        assert all((b == 0).all() for b in net.biases)

    def test_same_seed_same_parameters(self):
        a = init_mlp((5, 8, 3), seed=42)
        b = init_mlp((5, 8, 3), seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_different_seeds_differ(self):
        a = init_mlp((5, 8, 3), seed=42)
        b = init_mlp((5, 8, 3), seed=43)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_fan_scaled_bounds(self):
        net = init_mlp((30, 20, 10), seed=1)
        for w, (fan_out, fan_in) in zip(net.weights, [(20, 30), (10, 20)]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(w).max() <= limit

    def test_too_few_dims(self):
        with pytest.raises(ValueError):
            init_mlp((4,), seed=0)


class TestForward:
    def test_single_layer_dot_product(self):
        net = Mlp(
            layer_dims=(2, 1),
            weights=(np.array([[1.0, 1.0]]),),
            biases=(np.zeros(1),),
        )
        out, _ = forward(net, np.array([[3.0, 4.0]]))
        assert out[0, 0] == 7.0

    def test_zero_net(self):
        """Zero weights: hidden sigmoids sit at 0.5, linear output is 0."""
        net = Mlp(
            layer_dims=(3, 4, 2),
            weights=(np.zeros((4, 3)), np.zeros((2, 4))),
            biases=(np.zeros(4), np.zeros(2)),
        )
        out, cache = forward(net, np.array([[1.0, -2.0, 0.5]]))
        np.testing.assert_array_equal(cache.activations[1], 0.5)
        np.testing.assert_array_equal(out, 0.0)

    def test_batch_rows_independent(self):
        rng = np.random.default_rng(6)
        net = init_mlp((4, 6, 3), seed=3)
        batch = rng.normal(size=(10, 4))
        out, _ = forward(net, batch)
        perm = rng.permutation(10)
        out_perm, _ = forward(net, batch[perm])
        assert np.array_equal(out_perm, out[perm])

    def test_width_mismatch(self):
        net = init_mlp((4, 6, 3), seed=3)
        with pytest.raises(DimensionMismatchError):
            forward(net, np.zeros((2, 5)))

    def test_extreme_inputs_saturate_without_warnings(self):
        """exp(-z) overflows for z << 0; the sigmoid must still give exactly
        0 there (and exactly 1 for z >> 0) and raise no RuntimeWarning."""
        identity = Mlp(
            layer_dims=(2, 2, 1),
            weights=(np.eye(2), np.ones((1, 2))),
            biases=(np.zeros(2), np.zeros(1)),
        )
        batch = np.array([[1e3, -1e3], [-1e3, 1e3], [750.0, -750.0]])
        net = init_mlp((2, 16, 8, 3), seed=13)
        wide = np.random.default_rng(14).normal(size=(64, 2)) * 1e3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, cache = forward(identity, batch)
            out, _ = forward(net, wide)
        np.testing.assert_array_equal(cache.activations[1], [[1, 0], [0, 1], [1, 0]])
        assert np.isfinite(out).all()


class TestBackward:
    def test_hand_input_gradient(self):
        net = Mlp(
            layer_dims=(2, 1),
            weights=(np.array([[1.0, 1.0]]),),
            biases=(np.zeros(1),),
        )
        _, cache = forward(net, np.array([[3.0, 4.0]]))
        _, input_grad = backward(net, cache, np.array([[1.0]]))
        np.testing.assert_array_equal(input_grad, [[1.0, 1.0]])

    def test_zero_output_gradient(self):
        net = init_mlp((3, 5, 2), seed=4)
        batch = np.random.default_rng(0).normal(size=(4, 3))
        _, cache = forward(net, batch)
        grads, input_grad = backward(net, cache, np.zeros((4, 2)))
        assert (grads.flat() == 0).all()
        assert (input_grad == 0).all()

    def test_mse_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        net = init_mlp((4, 7, 5, 3), seed=11)
        batch = rng.normal(size=(4, 4))
        target = rng.normal(size=(4, 3))

        def loss(candidate: Mlp) -> float:
            out, _ = forward(candidate, batch)
            return float(np.mean((out - target) ** 2))

        out, cache = forward(net, batch)
        grads, _ = backward(net, cache, 2.0 * (out - target) / out.size)
        assert_gradients_close(grads, numeric_gradient(loss, net))

    def test_frozen_backward_skips_parameter_gradients_only(self):
        net = init_mlp((3, 6, 4, 1), seed=15)
        batch = np.random.default_rng(16).normal(size=(5, 3))
        out, cache = forward(net, batch)
        _, full = backward(net, cache, out - 1.0)
        grads, frozen = backward(net, cache, out - 1.0, param_grads=False)
        assert grads is None
        np.testing.assert_array_equal(frozen, full)

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        net = init_mlp((3, 6, 2), seed=12)
        batch = rng.normal(size=(2, 3))
        target = rng.normal(size=(2, 2))

        out, cache = forward(net, batch)
        _, input_grad = backward(net, cache, 2.0 * (out - target) / out.size)

        step = 1e-5
        numeric = np.zeros_like(batch)
        for idx in np.ndindex(*batch.shape):
            plus = batch.copy()
            minus = batch.copy()
            plus[idx] += step
            minus[idx] -= step
            fp = np.mean((forward(net, plus)[0] - target) ** 2)
            fm = np.mean((forward(net, minus)[0] - target) ** 2)
            numeric[idx] = (fp - fm) / (2 * step)
        np.testing.assert_allclose(input_grad, numeric, rtol=1e-4, atol=1e-8)


class TestApplyUpdate:
    def _scalar_net(self, value: float = 1.0) -> Mlp:
        return Mlp(
            layer_dims=(1, 1),
            weights=(np.array([[value]]),),
            biases=(np.zeros(1),),
        )

    def _grads(self, g_w: float, g_b: float = 0.0) -> Gradients:
        return Gradients(weights=(np.array([[g_w]]),), biases=(np.array([g_b]),))

    def test_sgd_step(self):
        net = self._scalar_net(1.0)
        opt = init_optimizer(net, method="sgd", learning_rate=0.001)
        updated, _ = apply_update(net, self._grads(2.0), opt)
        assert updated.weights[0][0, 0] == pytest.approx(1.0 - 0.002)

    def test_sgd_zero_gradient_is_identity(self):
        net = self._scalar_net(0.7)
        opt = init_optimizer(net, method="sgd", learning_rate=0.1)
        updated, _ = apply_update(net, self._grads(0.0), opt)
        assert updated.weights[0][0, 0] == 0.7

    def test_adam_first_step_is_signed_learning_rate(self):
        """Step 1 bias correction cancels: move = -lr*g/(|g|+eps) ~ -lr*sign(g)."""
        for g in (3.7, -0.004, 120.0):
            net = self._scalar_net(0.5)
            opt = init_optimizer(net, method="adam", learning_rate=0.001)
            updated, _ = apply_update(net, self._grads(g), opt)
            moved = updated.weights[0][0, 0] - 0.5
            assert moved == pytest.approx(-0.001 * g / (abs(g) + 1e-8), rel=1e-12)
            assert moved == pytest.approx(-0.001 * np.sign(g), rel=1e-4)

    def test_adam_matches_reference_implementation(self):
        """Several steps against an inline transcription of the update rule."""
        rng = np.random.default_rng(9)
        net = self._scalar_net(0.3)
        opt = init_optimizer(net, method="adam", learning_rate=0.01)
        p, m, v = 0.3, 0.0, 0.0
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for t in range(1, 8):
            g = float(rng.normal())
            net, opt = apply_update(net, self._grads(g), opt)
            m = beta1 * m + (1 - beta1) * g
            v = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            p -= 0.01 * m_hat / (np.sqrt(v_hat) + eps)
            assert net.weights[0][0, 0] == pytest.approx(p, rel=1e-12)

    def test_non_finite_gradient_aborts(self):
        net = self._scalar_net()
        opt = init_optimizer(net)
        with pytest.raises(NonFiniteError):
            apply_update(net, self._grads(np.inf), opt)
        deep = init_mlp((3, 4, 2), seed=17)
        grads = Gradients(
            weights=tuple(np.zeros_like(w) for w in deep.weights),
            biases=(np.zeros(4), np.array([0.0, np.nan])),
        )
        with pytest.raises(NonFiniteError, match="layer 1"):
            apply_update(deep, grads, init_optimizer(deep))

    def test_update_leaves_the_input_net_untouched(self):
        net = init_mlp((3, 5, 2), seed=18)
        before = net.params.copy()
        grads = Gradients(
            weights=tuple(np.ones_like(w) for w in net.weights),
            biases=tuple(np.ones_like(b) for b in net.biases),
        )
        for method in ("adam", "sgd"):
            updated, _ = apply_update(net, grads, init_optimizer(net, method=method))
            assert not np.shares_memory(updated.params, net.params)
            assert not np.array_equal(updated.params, before)
        np.testing.assert_array_equal(net.params, before)
        with pytest.raises(ValueError):
            net.weights[0][0, 0] = 1.0

    def test_optimizer_moments_are_separate_buffers(self):
        net = init_mlp((3, 5, 2), seed=19)
        opt = init_optimizer(net)
        assert opt.m.shape == opt.v.shape == net.params.shape
        assert not np.shares_memory(opt.m, opt.v)

    def test_shape_mismatch(self):
        net = self._scalar_net()
        opt = init_optimizer(net)
        bad = Gradients(weights=(np.zeros((2, 2)),), biases=(np.zeros(1),))
        with pytest.raises(DimensionMismatchError):
            apply_update(net, bad, opt)

    def test_training_is_deterministic(self):
        def run():
            rng = np.random.default_rng(10)
            net = init_mlp((3, 5, 2), seed=5)
            opt = init_optimizer(net, learning_rate=0.01)
            for _ in range(20):
                batch = rng.normal(size=(4, 3))
                target = rng.normal(size=(4, 2))
                out, cache = forward(net, batch)
                grads, _ = backward(net, cache, 2 * (out - target) / out.size)
                net, opt = apply_update(net, grads, opt)
            return net

        a, b = run(), run()
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))


class TestPersistence:
    def test_round_trip_is_exact(self, tmp_path):
        net = init_mlp((4, 9, 2), seed=21)
        # bake in some post-training values with many significant digits
        trained = Mlp(
            layer_dims=net.layer_dims,
            weights=tuple(w * np.pi for w in net.weights),
            biases=tuple(b + 1.0 / 3.0 for b in net.biases),
        )
        path = tmp_path / "net.mlp"
        save_mlp(path, trained)
        back = load_mlp(path)
        assert back.layer_dims == trained.layer_dims
        assert all(np.array_equal(x, y) for x, y in zip(back.weights, trained.weights))
        assert all(np.array_equal(x, y) for x, y in zip(back.biases, trained.biases))

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "garbage.mlp"
        path.write_text("not a model\n")
        with pytest.raises(Exception):
            load_mlp(path)
