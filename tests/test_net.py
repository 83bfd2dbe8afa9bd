"""Tests for the feed-forward engine: forward, backward, updates, persistence."""

from __future__ import annotations

import ctypes
import hashlib
import os
import sys
import threading
import warnings

import numpy as np
import pytest

from cyclevc import cyclegan as cyclegan_module
from cyclevc import net as net_module
from cyclevc.cyclegan import CycleGanConfig, build_model, train
from cyclevc.errors import DimensionMismatchError, FormatError, NonFiniteError
from cyclevc.features import FeatureSequence
from cyclevc.net import (
    Gradients,
    Mlp,
    OptimizerState,
    apply_update,
    backward,
    forward,
    init_mlp,
    init_optimizer,
    load_mlp,
    save_mlp,
)
from cyclevc.pipeline import BUNDLE_ROLES, save_model_bundle


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

    @pytest.mark.parametrize(
        "dims, message",
        [
            ((4, 4.9, 2), "layer_dims[1] must be an integer, got 4.9"),
            ((4, True, 2), "layer_dims[1] must be an integer, got True"),
            ((4, 0, 2), "layer_dims[1] must be >= 1, got 0"),
        ],
        ids=["fraction", "bool", "zero"],
    )
    def test_widths_must_be_positive_integers(self, dims, message):
        """A width used to go through int(), so 4.9 built width 4 and True width 1."""
        with pytest.raises(ValueError) as caught:
            init_mlp(dims, seed=0)
        assert str(caught.value) == message


class TestMlpChecks:
    """What Mlp refuses in the arrays it is given, for layer widths 2, 3, 1."""

    @pytest.mark.parametrize(
        "weights, biases",
        [
            ((np.zeros((3, 3)), np.zeros((1, 3))), (np.zeros(3), np.zeros(1))),
            ((np.zeros((3, 2)), np.zeros((1, 3))), (np.zeros(3),)),
            (
                (np.zeros((3, 2)), np.zeros((1, 3)), np.zeros((1, 1))),
                (np.zeros(3), np.zeros(1), np.zeros(1)),
            ),
        ],
        ids=["wrong-shaped-weight", "missing-bias", "extra-layer"],
    )
    def test_arrays_that_do_not_fit_the_widths_are_refused(self, weights, biases):
        with pytest.raises(DimensionMismatchError):
            Mlp(layer_dims=(2, 3, 1), weights=weights, biases=biases)

    def test_a_nan_in_the_last_bias_names_its_layer(self):
        weights = (np.zeros((3, 2)), np.zeros((1, 3)))
        with pytest.raises(NonFiniteError, match="^layer 1 parameters are not finite$"):
            Mlp(layer_dims=(2, 3, 1), weights=weights, biases=(np.zeros(3), np.array([np.nan])))


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
        np.testing.assert_array_equal(cache[1], 0.5)
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
        np.testing.assert_array_equal(cache[1], [[1, 0], [0, 1], [1, 0]])
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

    @pytest.mark.parametrize("dims", [(3, 1), (3, 6, 4, 2)])
    def test_backward_without_input_gradient_gives_the_same_parameter_gradients(self, dims):
        net = init_mlp(dims, seed=17)
        batch = np.random.default_rng(18).normal(size=(5, 3))
        out, cache = forward(net, batch)
        full, _ = backward(net, cache, out - 1.0)
        grads, input_grad = backward(net, cache, out - 1.0, input_grad=False)
        assert input_grad is None
        assert grads.flat().tobytes() == full.flat().tobytes()

    def test_backward_that_returns_nothing_is_refused(self):
        net = init_mlp((3, 4, 1), seed=19)
        out, cache = forward(net, np.ones((2, 3)))
        with pytest.raises(ValueError, match="computes nothing"):
            backward(net, cache, out, param_grads=False, input_grad=False)

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

    def test_adam_first_step_is_signed_learning_rate(self):
        """Step 1 bias correction cancels: move = -lr*g/(|g|+eps) ~ -lr*sign(g)."""
        for g in (3.7, -0.004, 120.0):
            net = self._scalar_net(0.5)
            opt = init_optimizer(net, learning_rate=0.001)
            updated = apply_update(net, self._grads(g), opt)
            moved = updated.weights[0][0, 0] - 0.5
            assert moved == pytest.approx(-0.001 * g / (abs(g) + 1e-8), rel=1e-12)
            assert moved == pytest.approx(-0.001 * np.sign(g), rel=1e-4)

    def test_adam_matches_reference_implementation(self):
        """Several steps against an inline transcription of the update rule."""
        rng = np.random.default_rng(9)
        net = self._scalar_net(0.3)
        opt = init_optimizer(net, learning_rate=0.01)
        p, m, v = 0.3, 0.0, 0.0
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        for t in range(1, 8):
            g = float(rng.normal())
            net = apply_update(net, self._grads(g), opt)
            assert opt.step_count == t
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
        updated = apply_update(net, grads, init_optimizer(net))
        assert not np.shares_memory(updated.params, net.params)
        assert not np.array_equal(updated.params, before)
        np.testing.assert_array_equal(net.params, before)
        with pytest.raises(ValueError):
            net.weights[0][0, 0] = 1.0

    @pytest.mark.parametrize(
        "rate", [np.nan, np.inf, True, "0.1", 10**400],
        ids=["nan", "inf", "bool", "string", "too-large-for-a-float"],
    )
    def test_learning_rate_must_be_a_finite_real(self, rate):
        with pytest.raises(ValueError, match="^learning rate must be > 0$"):
            init_optimizer(self._scalar_net(), rate)

    @pytest.mark.parametrize("step_count", [1.5, True, "1"], ids=["float", "bool", "string"])
    def test_step_count_must_be_an_integer(self, step_count):
        opt = init_optimizer(self._scalar_net())
        with pytest.raises(ValueError, match="^step_count must be an integer, got "):
            OptimizerState(opt.learning_rate, opt.m, opt.v, step_count=step_count)

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
                net = apply_update(net, grads, opt)
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
        # Saved first, so the MLP1 text stays beside the garbage image.
        path = tmp_path / "garbage.mlp"
        save_mlp(path, init_mlp((4, 9, 2), seed=21))
        (tmp_path / "garbage.mlp.f8").write_text("not a model\n")
        with pytest.raises(FormatError, match="garbage.mlp.f8: not a MLPF8"):
            load_mlp(path)

    @pytest.mark.parametrize(
        "old, new, cause",
        [
            (b"hidden_activation sigmoid", b"hidden_activation tanh", "activations"),
            (np.float64(0.5).tobytes(), np.float64(np.nan).tobytes(), "not finite"),
            (b"layer_dims 2 3 1", b"layer_dims 2 4 1", "holds 104 parameter bytes, expected 136"),
            (b"sigmoid\n", b"sigmoid ", "malformed model header"),
            (b"layer_dims 2 3 1", b"layer_dims 2 x 1", "malformed model header"),
        ],
        ids=["activation", "nan-weight", "count-not-in-header", "three-line-header",
             "non-integer-width"],
    )
    def test_malformed_file_error_names_the_file(self, tmp_path, old, new, cause):
        """Each edit goes into the saved image, the one file load_mlp reads."""
        net = Mlp(
            layer_dims=(2, 3, 1),
            weights=(np.full((3, 2), 0.5), np.full((1, 3), 0.25)),
            biases=(np.zeros(3), np.zeros(1)),
        )
        path, image = tmp_path / "bad.mlp", tmp_path / "bad.mlp.f8"
        save_mlp(path, net)
        data = image.read_bytes()
        assert old in data
        image.write_bytes(data.replace(old, new, 1))
        with pytest.raises(FormatError, match=f"bad.mlp.f8: .*{cause}"):
            load_mlp(path)


#: Edge cases of the float64 text round trip: a negative zero, the smallest
#: subnormal, another subnormal, the largest finite values, ordinary values.
EXTREMES = (
    -0.0, 5e-324, 2.2250738585072014e-309,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, -1.0 / 3.0, np.pi,
)


def extreme_net() -> Mlp:
    first = np.array(EXTREMES[:6]).reshape(3, 2)
    last = np.array([EXTREMES[6:] + (0.0,)])
    return Mlp(
        layer_dims=(2, 3, 1), weights=(first, last), biases=(np.array(EXTREMES[3:6]), np.zeros(1))
    )


def reference_text(net: Mlp) -> str:
    """An MLP1 document as written with one repr(float(v)) per value."""
    lines = [
        "MLP1",
        "layer_dims " + " ".join(str(d) for d in net.layer_dims),
        "hidden_activation sigmoid",
        "output_activation linear",
    ]
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        lines.append(f"weight {layer} {w.shape[0]} {w.shape[1]}")
        lines.extend(" ".join(repr(float(v)) for v in row) for row in w)
        lines.append(f"bias {layer} {b.shape[0]}")
        lines.append(" ".join(repr(float(v)) for v in b))
    return "\n".join(lines) + "\n"


def reference_params(path) -> np.ndarray:
    """An MLP1 body parsed with one float() per token, in the flat layout."""
    lines = open(path, encoding="utf-8").read().splitlines()
    weights, biases, pos = [], [], 4
    while pos < len(lines):
        tag, _, rows = lines[pos].split()[:3]
        rows = int(rows) if tag == "weight" else 1
        block = [[float(v) for v in row.split()] for row in lines[pos + 1 : pos + 1 + rows]]
        (weights if tag == "weight" else biases).append(np.array(block).ravel())
        pos += 1 + rows
    return np.concatenate(weights + biases)


class TestTextFormat:
    def test_writer_matches_per_value_repr(self, tmp_path):
        for net in (extreme_net(), init_mlp((5, 7, 3), seed=4)):
            save_mlp(tmp_path / "net.mlp", net)
            assert (tmp_path / "net.mlp").read_bytes() == reference_text(net).encode()

    def test_extremes_reload_bit_identical(self, tmp_path):
        net = extreme_net()
        path = tmp_path / "net.mlp"
        save_mlp(path, net)
        assert load_mlp(path).params.tobytes() == net.params.tobytes()
        assert reference_params(path).tobytes() == net.params.tobytes()

    def test_trained_bundle_parses_like_float(self, tmp_path):
        rng = np.random.default_rng(8)
        x = FeatureSequence(rng.normal(size=(64, 6)))
        y = FeatureSequence(rng.normal(1.0, 0.5, size=(48, 6)))
        config = CycleGanConfig(hidden_dims=(9, 7), batch_frames=16, epochs=2, seed=3)
        model, _ = train(build_model(6, config), x, y, config)
        save_model_bundle(
            tmp_path, "cyclegan", {"G": model.g, "F": model.f, "D_X": model.d_x, "D_Y": model.d_y}
        )
        for role in BUNDLE_ROLES["cyclegan"]:
            path = tmp_path / f"{role.lower()}.mlp"
            assert load_mlp(path).params.tobytes() == reference_params(path).tobytes()


def pi_net(seed: int = 21) -> Mlp:
    base = init_mlp((4, 9, 2), seed=seed)
    return Mlp(
        layer_dims=base.layer_dims,
        weights=tuple(w * np.pi for w in base.weights),
        biases=tuple(b + 1.0 / 3.0 for b in base.biases),
    )


class TestBinaryImage:
    def test_image_is_header_then_little_endian_params(self, tmp_path):
        net = pi_net()
        save_mlp(tmp_path / "net.mlp", net)
        header = b"MLPF8\nlayer_dims 4 9 2\nhidden_activation sigmoid\noutput_activation linear\n"
        image = (tmp_path / "net.mlp.f8").read_bytes()
        assert image[: len(header)] == header
        assert image[len(header) :] == net.params.astype("<f8").tobytes()

    def test_the_image_alone_loads(self, tmp_path):
        net = pi_net()
        save_mlp(tmp_path / "net.mlp", net)
        (tmp_path / "net.mlp").unlink()
        loaded = load_mlp(tmp_path / "net.mlp")
        assert loaded.params.tobytes() == net.params.tobytes()
        assert loaded.params.flags.writeable is False

    def test_an_edited_text_does_not_change_what_loads(self, tmp_path):
        path = tmp_path / "net.mlp"
        save_mlp(path, pi_net())
        save_mlp(tmp_path / "other.mlp", pi_net(seed=22))
        path.write_bytes((tmp_path / "other.mlp").read_bytes())
        assert load_mlp(path).params.tobytes() == pi_net().params.tobytes()

    @pytest.mark.parametrize(
        "damage, cause",
        [
            ("missing", "missing model image; save or train it again"),
            ("truncated", "holds 512 parameter bytes, expected 520"),
            ("over-long", "holds 528 parameter bytes, expected 520"),
            ("digest-first", "not a MLPF8 model image"),
        ],
        ids=["missing", "truncated", "over-long", "digest-first"],
    )
    def test_a_damaged_image_is_a_format_error(self, tmp_path, damage, cause):
        """digest-first is the layout of images saved beside an MLP1 text
        that load_mlp used to parse: a SHA-256 of the text, then the params."""
        path, image = tmp_path / "net.mlp", tmp_path / "net.mlp.f8"
        save_mlp(path, pi_net())
        if damage == "missing":
            image.unlink()
        elif damage == "truncated":
            image.write_bytes(image.read_bytes()[:-8])
        elif damage == "over-long":
            image.write_bytes(image.read_bytes() + bytes(8))
        else:
            image.write_bytes(hashlib.sha256(path.read_bytes()).digest() + pi_net().params.tobytes())
        with pytest.raises(FormatError, match=f"net.mlp.f8: {cause}"):
            load_mlp(path)

    @pytest.mark.parametrize("width", [0, -1])
    def test_a_zero_width_in_the_header_names_the_image(self, tmp_path, width):
        """Widths 2, 0, 1 hold one parameter, the last bias, and the image
        holds 8 bytes, so the width check is what refuses it; widths 2, -1, 1
        are refused by it too, before they size the body."""
        path, image = tmp_path / "net.mlp", tmp_path / "net.mlp.f8"
        header = (
            f"MLPF8\nlayer_dims 2 {width} 1\nhidden_activation sigmoid\noutput_activation linear\n"
        ).encode()
        image.write_bytes(header + np.float64(0.5).tobytes())
        with pytest.raises(FormatError) as caught:
            load_mlp(path)
        assert str(caught.value) == f"{image}: layer widths must be >= 1, got (2, {width}, 1)"

    def test_a_failed_image_write_keeps_the_previous_net(self, tmp_path, monkeypatch):
        path = tmp_path / "net.mlp"
        save_mlp(path, pi_net())
        text = path.read_bytes()

        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(net_module.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_mlp(path, pi_net(seed=22))
        monkeypatch.undo()
        assert load_mlp(path).params.tobytes() == pi_net().params.tobytes()
        assert path.read_bytes() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.mlp", "net.mlp.f8"]

    def test_a_failed_text_write_keeps_the_previous_text(self, tmp_path, monkeypatch):
        """The MLP1 text goes through a temporary file too: a failed second
        write leaves the old text's bytes and no temporary file."""
        path = tmp_path / "net.mlp"
        save_mlp(path, pi_net())
        text = path.read_bytes()
        replace, calls = net_module.os.replace, []

        def fail_second(*args):
            calls.append(args)
            if len(calls) == 2:
                raise OSError("disk full")
            replace(*args)

        monkeypatch.setattr(net_module.os, "replace", fail_second)
        with pytest.raises(OSError, match="disk full"):
            save_mlp(path, pi_net(seed=22))
        monkeypatch.undo()
        assert path.read_bytes() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.mlp", "net.mlp.f8"]

    def test_non_utf8_file_error_names_the_file(self, tmp_path):
        path, image = tmp_path / "net.mlp", tmp_path / "net.mlp.f8"
        save_mlp(path, pi_net())
        lines = image.read_bytes().split(b"\n")
        lines[1] += b"\xff"
        image.write_bytes(b"\n".join(lines))
        with pytest.raises(FormatError, match="net.mlp.f8.*not UTF-8"):
            load_mlp(path)


def maps_scan_controls() -> list[tuple]:
    """The reference lookup: every file mapped into this process whose
    name holds "openblas", opened with RTLD_NOLOAD, with the (get, set)
    pair of the first of net._OPENBLAS_SETTERS it exports."""
    with open("/proc/self/maps", encoding="utf-8", errors="replace") as fh:
        paths = {
            fields[5] for fields in (line.rstrip("\n").split(maxsplit=5) for line in fh)
            if len(fields) == 6 and "openblas" in os.path.basename(fields[5]).lower()
        }
    controls = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        for name in net_module._OPENBLAS_SETTERS:
            get = getattr(lib, name.replace("set", "get", 1), None)
            set_ = getattr(lib, name, None)
            if get is not None and set_ is not None:
                controls.append((get, set_))
                break
    return controls


def addresses(controls) -> list[tuple[int, int]]:
    return [tuple(ctypes.cast(fn, ctypes.c_void_p).value for fn in pair) for pair in controls]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="the lookup is Linux-only")
class TestOpenblasThreadControl:
    def test_finds_the_pair_the_maps_scan_finds(self):
        found = net_module._openblas_thread_control()
        assert found is not None
        assert addresses([found]) == addresses(maps_scan_controls())
        assert [found[0]()] == [get() for get, _ in maps_scan_controls()]

    def test_no_resolving_setter_finds_none(self, monkeypatch):
        monkeypatch.setattr(net_module, "_OPENBLAS_SETTERS", ("no_such_set_num_threads",))
        assert net_module._openblas_thread_control() is None

    def test_a_failed_open_finds_none_and_training_runs_inline(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("cannot open")

        monkeypatch.setattr(net_module.ctypes, "CDLL", refuse)
        assert net_module._openblas_thread_control() is None

        threads = []
        gradients = cyclegan_module.discriminator_gradients

        def spy(*args):
            threads.append(threading.current_thread().name)
            return gradients(*args)

        monkeypatch.setattr(cyclegan_module, "discriminator_gradients", spy)
        rng = np.random.default_rng(5)
        config = CycleGanConfig(hidden_dims=(16, 8), batch_frames=32, epochs=1, seed=2)
        train(build_model(6, config), FeatureSequence(rng.normal(size=(64, 6))),
              FeatureSequence(rng.normal(size=(48, 6))), config)
        assert threads and set(threads) == {threading.current_thread().name}
