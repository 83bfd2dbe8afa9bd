"""Tests for the two-generator adversarial trainer and its losses."""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import cyclevc
from cyclevc.cyclegan import (
    CycleGanConfig,
    CycleGanModel,
    LOSS_FORMS,
    build_model,
    discriminator_objective,
    fit,
    generator_objective,
    l1_loss,
    score_loss,
    train,
    train_step,
    TrainerState,
)
from cyclevc.baselines import MseLosses
from cyclevc.errors import DimensionMismatchError, InsufficientDataError, NonFiniteError
from cyclevc.features import FeatureSequence
from cyclevc.net import Mlp, forward, sigmoid_inplace


def tiny_model(seed: int = 0, dim: int = 3) -> CycleGanModel:
    config = CycleGanConfig(hidden_dims=(5, 4), seed=seed)
    return build_model(dim, config)


_P07 = 1.0 / (1.0 + math.exp(-0.7))

#: Case name -> (form, d_real, d_fake, disc loss, gen loss, abs tolerance).
#: At -30 the sigmoid is below 1e-13, and at +-1e4 it is exactly 0 or 1;
#: the log-form losses there are still exact: -log sigmoid(d) = log(1 + e^-d).
LOSS_CASES = {
    "lsgan-exact_targets": ("lsgan", [1.0], [0.0], 0.0, 1.0, 0.0),
    "lsgan-midpoint": ("lsgan", [0.5], [0.5], 0.5, 0.25, 0.0),  # disc 0.25 + 0.25
    "lsgan-generator_target_reached": ("lsgan", [0.3], [1.0], 1.49, 0.0, 0.0),
    "lsgan-batch_mean": ("lsgan", [1.0, 0.0], [0.0, 0.0], 0.5, 1.0, 0.0),
    "log-uninformative_discriminator": ("log", [0.0], [0.0], 2 * math.log(2), math.log(2), 0.0),
    "log-confident_discriminator": (
        "log", [30.0], [-30.0], 0.0, 30.0 + math.log1p(math.exp(-30.0)), 1e-10
    ),
    "log-batch_of_one_is_pointwise": (
        "log", [0.7], [0.7], -(math.log(_P07) + math.log(1 - _P07)), -math.log(_P07), 0.0
    ),
    "log-saturated_scores_give_exact_losses": ("log", [-1e4], [1e4], 2e4, 0.0, 0.0),
}


@pytest.mark.parametrize(
    "form, d_real, d_fake, disc, gen, tol", list(LOSS_CASES.values()), ids=list(LOSS_CASES)
)
def test_adversarial_loss_values(form, d_real, d_fake, disc, gen, tol):
    d_real, d_fake = np.array(d_real), np.array(d_fake)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        real_loss, g_real = score_loss(d_real, 1.0, form)
        fake_loss, g_fake = score_loss(d_fake, 0.0, form)
        gen_loss, g_gen = score_loss(d_fake, 1.0, form)
    disc_loss = real_loss + fake_loss
    assert disc_loss == pytest.approx(disc, rel=1e-12, abs=tol)
    assert gen_loss == pytest.approx(gen, rel=1e-12, abs=tol)
    assert g_real.shape == d_real.shape and g_fake.shape == g_gen.shape == d_fake.shape
    assert np.isfinite(g_real).all() and np.isfinite(g_fake).all() and np.isfinite(g_gen).all()


@pytest.mark.parametrize("form", LOSS_FORMS)
def test_adversarial_loss_gradients_match_finite_differences(form):
    rng = np.random.default_rng(3)
    # Scores at +-40 saturate the sigmoid; the loss must still bend with them.
    saturated = np.array([[40.0], [-40.0]])
    d_real = np.concatenate([rng.normal(size=(5, 1)), saturated])
    d_fake = np.concatenate([rng.normal(size=(4, 1)), saturated])
    _, g_real = score_loss(d_real, 1.0, form)
    _, g_fake = score_loss(d_fake, 0.0, form)
    _, g_gen = score_loss(d_fake, 1.0, form)

    def numeric(loss, x, step=1e-6):
        out = np.zeros_like(x)
        for idx in np.ndindex(*x.shape):
            plus, minus = x.copy(), x.copy()
            plus[idx] += step
            minus[idx] -= step
            out[idx] = (loss(plus) - loss(minus)) / (2 * step)
        return out

    checks = (
        (g_real, numeric(lambda r: score_loss(r, 1.0, form)[0], d_real)),
        (g_fake, numeric(lambda f: score_loss(f, 0.0, form)[0], d_fake)),
        (g_gen, numeric(lambda f: score_loss(f, 1.0, form)[0], d_fake)),
    )
    for analytic, expected in checks:
        np.testing.assert_allclose(analytic, expected, rtol=1e-6, atol=1e-9)


def reference_losses(d_real, d_fake, form):
    """The discriminator's and the generator's adversarial losses as four
    formulas, one per form and role, the way they were written before
    score_loss; kept as the reference that score_loss must reproduce."""

    def sigmoid(raw):
        p = np.array(raw, dtype=np.float64)
        sigmoid_inplace(p)
        return p

    n_real, n_fake = d_real.shape[0], d_fake.shape[0]
    if form == "lsgan":
        disc = float(np.mean((d_real - 1.0) ** 2) + np.mean(d_fake**2))
        disc_grads = 2.0 * (d_real - 1.0) / n_real, 2.0 * d_fake / n_fake
        gen = float(np.mean((d_fake - 1.0) ** 2)), 2.0 * (d_fake - 1.0) / n_fake
    else:
        disc = float(np.mean(np.logaddexp(0.0, -d_real)) + np.mean(np.logaddexp(0.0, d_fake)))
        disc_grads = -(1.0 - sigmoid(d_real)) / n_real, sigmoid(d_fake) / n_fake
        gen = float(np.mean(np.logaddexp(0.0, -d_fake))), -(1.0 - sigmoid(d_fake)) / n_fake
    return (disc, *disc_grads), gen


#: Saturated (+-40), overflowing (+-1e4), signed-zero and ordinary scores.
EDGE_SCORES = [40.0, -40.0, 1e4, -1e4, -0.0, 0.0, 0.7, -2.5]


@pytest.mark.parametrize("form", LOSS_FORMS)
def test_score_loss_reproduces_the_reference_formulas(form):
    """Bit for bit, on each edge score alone and on all of them at once,
    except that a zero may change sign: where the sigmoid rounds to exactly
    1, the reference's -(1 - p) is -0.0 and score_loss's p - 1 is +0.0.
    Float equality ignores only that sign."""
    scores = np.array(EDGE_SCORES).reshape(-1, 1)
    for d_real in [*np.split(scores, len(scores)), scores]:
        d_fake = d_real[::-1]
        (disc, g_real, g_fake), (gen, g_gen) = reference_losses(d_real, d_fake, form)
        real_loss, real_grad = score_loss(d_real, 1.0, form)
        fake_loss, fake_grad = score_loss(d_fake, 0.0, form)
        assert real_loss + fake_loss == disc
        assert np.array_equal(real_grad, g_real) and np.array_equal(fake_grad, g_fake)
        gen_loss, gen_grad = score_loss(d_fake, 1.0, form)
        assert gen_loss == gen and np.array_equal(gen_grad, g_gen)


@pytest.mark.parametrize("form", LOSS_FORMS)
def test_loss_values_are_the_np_mean_forms_bit_for_bit(form):
    """On 128-frame batches of scores and of 75-dim frames, at several
    scales: score_loss toward either target and l1_loss."""
    rng = np.random.default_rng(17)
    for scale in (1e-3, 1.0, 30.0, 1e3):
        scores = scale * rng.normal(size=(128, 1))
        for target in (0.0, 1.0):
            if form == "lsgan":
                reference = float(np.mean((scores - target) ** 2))
            else:
                reference = float(np.mean(np.logaddexp(0.0, -scores if target else scores)))
            assert score_loss(scores, target, form)[0] == reference
        rec, ref = scale * rng.normal(size=(2, 128, 75))
        assert l1_loss(rec, ref)[0] == float(np.mean(np.sum(np.abs(rec - ref), axis=1)))


def test_score_loss_refuses_an_unknown_form():
    """Any form but lsgan used to be scored as log."""
    with pytest.raises(ValueError, match=r"^unknown loss_form 'bogus'$"):
        score_loss(np.zeros((2, 1)), 1.0, "bogus")


class TestCycleLoss:
    """l1_loss, one cycle direction's loss and its gradient."""

    def test_perfect_reconstruction(self):
        x = np.ones((4, 3))
        assert l1_loss(x.copy(), x)[0] == 0.0

    def test_hand_example(self):
        x = np.array([[1.0, 2.0]])
        fgx = np.array([[0.0, 4.0]])
        assert l1_loss(fgx, x)[0] == pytest.approx(3.0)

    def test_symmetric_in_direction_roles(self):
        """generator_objective's cycle is the X->Y->X loss plus the Y->X->Y
        one, bit for bit."""
        rng = np.random.default_rng(0)
        model = tiny_model(seed=4)
        x, y = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        report, _, _ = generator_objective(model, x, y, 10.0, "lsgan")
        fgx = forward(model.f, forward(model.g, x)[0])[0]
        gfy = forward(model.g, forward(model.f, y)[0])[0]
        assert report.cycle == l1_loss(fgx, x)[0] + l1_loss(gfy, y)[0]

    def test_non_negative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x, fgx = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
            assert l1_loss(fgx, x)[0] >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError, match="reconstruction batches must match"):
            l1_loss(np.zeros((4, 3)), np.zeros((3, 3)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x, fgx = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        _, grad = l1_loss(fgx, x)
        step = 1e-6
        numeric = np.zeros_like(fgx)
        for idx in np.ndindex(*fgx.shape):
            plus, minus = fgx.copy(), fgx.copy()
            plus[idx] += step
            minus[idx] -= step
            numeric[idx] = (l1_loss(plus, x)[0] - l1_loss(minus, x)[0]) / (2 * step)
        np.testing.assert_allclose(grad, numeric, rtol=1e-6, atol=1e-9)


class TestFullObjective:
    """The generator-side total adv_g + adv_f + cycle_weight * cycle, as
    generator_objective reports it."""

    def _report(self, cycle_weight):
        rng = np.random.default_rng(12)
        x, y = rng.normal(size=(6, 3)), rng.normal(size=(6, 3))
        report, _, _ = generator_objective(tiny_model(seed=15), x, y, cycle_weight, "lsgan")
        return report

    def test_weighted_sum(self):
        r = self._report(10.0)
        assert r.cycle > 0.0
        assert r.total == pytest.approx(r.adv_g + r.adv_f + 10.0 * r.cycle, rel=1e-12)

    def test_zero_weight_is_pure_adversarial(self):
        r = self._report(0.0)
        assert r.total == pytest.approx(r.adv_g + r.adv_f, rel=1e-12)

    def test_linear_in_weight(self):
        base, tripled = self._report(1.0), self._report(3.0)
        assert tripled.total - tripled.adv_g - tripled.adv_f == pytest.approx(
            3 * (base.total - base.adv_g - base.adv_f), rel=1e-12
        )


class TestGeneratorGradients:
    """Finite-difference checks of the full chained generator objective."""

    def _numeric(self, model, x, y, cycle_weight, loss_form, net_name, step=1e-5):
        net = getattr(model, net_name)

        def replaced(candidate: Mlp) -> CycleGanModel:
            return CycleGanModel(
                g=candidate if net_name == "g" else model.g,
                f=candidate if net_name == "f" else model.f,
                d_x=model.d_x,
                d_y=model.d_y,
            )

        grad_w = []
        for layer in range(net.n_layers):
            g = np.zeros_like(net.weights[layer])
            for idx in np.ndindex(*g.shape):
                vals = []
                for delta in (step, -step):
                    weights = [w.copy() for w in net.weights]
                    weights[layer][idx] += delta
                    candidate = Mlp(net.layer_dims, tuple(weights), net.biases)
                    report, _, _ = generator_objective(
                        replaced(candidate), x, y, cycle_weight, loss_form
                    )
                    vals.append(report.total)
                g[idx] = (vals[0] - vals[1]) / (2 * step)
            grad_w.append(g)
        return grad_w

    @pytest.mark.parametrize("loss_form", ["lsgan", "log"])
    def test_chained_gradients_match_finite_differences(self, loss_form):
        rng = np.random.default_rng(2)
        model = tiny_model(seed=7)
        x = rng.normal(size=(3, 3))
        y = rng.normal(size=(3, 3))
        _, grads_g, grads_f = generator_objective(model, x, y, 10.0, loss_form)
        for net_name, analytic in (("g", grads_g), ("f", grads_f)):
            numeric = self._numeric(model, x, y, 10.0, loss_form, net_name)
            for a, n in zip(analytic.weights, numeric):
                rel = np.abs(a - n) / np.maximum.reduce(
                    [np.abs(a), np.abs(n), np.full_like(a, 1e-6)]
                )
                assert rel.max() <= 1e-4

    def test_zero_cycle_weight_drops_cycle_term(self):
        """At weight 0 the generator gradients ignore reconstruction error."""
        rng = np.random.default_rng(3)
        model = tiny_model(seed=8)
        x = rng.normal(size=(4, 3))
        y = rng.normal(size=(4, 3))
        report, grads_g, _ = generator_objective(model, x, y, 0.0, "lsgan")
        assert report.total == pytest.approx(report.adv_g + report.adv_f)

        # adversarial-only gradient computed independently through D_Y
        out, cache = forward(model.g, x)
        d_out, d_cache = forward(model.d_y, out)
        from cyclevc.net import backward

        b = x.shape[0]
        d_grad = 2.0 * (d_out - 1.0) / b
        _, fake_grad = backward(model.d_y, d_cache, d_grad)
        expected, _ = backward(model.g, cache, fake_grad)
        for a, e in zip(grads_g.weights, expected.weights):
            np.testing.assert_allclose(a, e, rtol=1e-10, atol=1e-12)


class TestDiscriminatorObjective:
    def test_matches_loss_functions(self):
        rng = np.random.default_rng(4)
        model = tiny_model(seed=9)
        x = rng.normal(size=(5, 3))
        y = rng.normal(size=(5, 3))
        loss_x, loss_y, _, _ = discriminator_objective(model, x, y, "lsgan")
        d_real_x = forward(model.d_x, x)[0].ravel()
        d_fake_x = forward(model.d_x, forward(model.f, y)[0])[0].ravel()
        expected_x = score_loss(d_real_x, 1.0, "lsgan")[0] + score_loss(d_fake_x, 0.0, "lsgan")[0]
        assert loss_x == pytest.approx(expected_x, rel=1e-12)
        d_real_y = forward(model.d_y, y)[0].ravel()
        d_fake_y = forward(model.d_y, forward(model.g, x)[0])[0].ravel()
        expected_y = score_loss(d_real_y, 1.0, "lsgan")[0] + score_loss(d_fake_y, 0.0, "lsgan")[0]
        assert loss_y == pytest.approx(expected_y, rel=1e-12)

    @pytest.mark.parametrize("loss_form", LOSS_FORMS)
    def test_discriminator_gradients_match_finite_differences(self, loss_form):
        rng = np.random.default_rng(5)
        model = tiny_model(seed=10)
        x = rng.normal(size=(3, 3))
        y = rng.normal(size=(3, 3))
        _, _, grads_dx, grads_dy = discriminator_objective(model, x, y, loss_form)

        step = 1e-5
        for disc_name, analytic in (("d_x", grads_dx), ("d_y", grads_dy)):
            net = getattr(model, disc_name)
            for layer in range(net.n_layers):
                numeric = np.zeros_like(net.weights[layer])
                for idx in np.ndindex(*numeric.shape):
                    vals = []
                    for delta in (step, -step):
                        weights = [w.copy() for w in net.weights]
                        weights[layer][idx] += delta
                        candidate = Mlp(net.layer_dims, tuple(weights), net.biases)
                        patched = CycleGanModel(
                            g=model.g,
                            f=model.f,
                            d_x=candidate if disc_name == "d_x" else model.d_x,
                            d_y=candidate if disc_name == "d_y" else model.d_y,
                        )
                        lx, ly, _, _ = discriminator_objective(patched, x, y, loss_form)
                        vals.append(lx if disc_name == "d_x" else ly)
                    numeric[idx] = (vals[0] - vals[1]) / (2 * step)
                a = analytic.weights[layer]
                rel = np.abs(a - numeric) / np.maximum.reduce(
                    [np.abs(a), np.abs(numeric), np.full_like(a, 1e-6)]
                )
                assert rel.max() <= 1e-4


class TestTraining:
    def _dataset(self, rng, frames, dim=3, shift=0.0):
        return FeatureSequence(rng.normal(shift, 1.0, size=(frames, dim)))

    def test_step_count_per_epoch(self):
        rng = np.random.default_rng(6)
        config = CycleGanConfig(hidden_dims=(4,), epochs=2, batch_frames=128, seed=1)
        model = build_model(3, config)
        x = self._dataset(rng, 256)
        y = self._dataset(rng, 256)
        model, history = train(model, x, y, config)
        assert len(history) == 2  # one report per epoch, 2 steps inside each

    def test_loss_history_is_deterministic(self):
        rng = np.random.default_rng(7)
        x = self._dataset(rng, 64)
        y = self._dataset(rng, 64, shift=1.0)
        config = CycleGanConfig(hidden_dims=(4,), epochs=3, batch_frames=32, seed=5)

        def run():
            model = build_model(3, config)
            _, history = train(model, x, y, config)
            return [(r.adv_g, r.adv_f, r.disc_x, r.disc_y, r.cycle) for r in history]

        assert run() == run()

    def test_discriminator_step_reduces_its_loss(self):
        """With a small lr, one discriminator update descends on the same batch."""
        rng = np.random.default_rng(8)
        config = CycleGanConfig(
            hidden_dims=(6,), seed=2, lr_discriminator=1e-4, cycle_weight=0.0
        )
        model = build_model(3, config)
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(8, 3))
        state = TrainerState.fresh(model, config)
        before_x, before_y, _, _ = discriminator_objective(model, x, y, "lsgan")
        stepped, _ = train_step(model, x, y, config, state)
        # generators moved too; recompute with the original generators so the
        # comparison isolates the discriminator update
        rewound = CycleGanModel(g=model.g, f=model.f, d_x=stepped.d_x, d_y=stepped.d_y)
        after_x, after_y, _, _ = discriminator_objective(rewound, x, y, "lsgan")
        assert after_x <= before_x + 1e-12
        assert after_y <= before_y + 1e-12

    def test_empty_dataset_rejected(self):
        config = CycleGanConfig(hidden_dims=(4,), seed=0)
        model = build_model(3, config)
        empty = FeatureSequence(np.zeros((0, 3)))
        data = FeatureSequence(np.zeros((4, 3)))
        with pytest.raises(InsufficientDataError):
            train(model, empty, data, config)

    def test_dim_mismatch_rejected(self):
        config = CycleGanConfig(hidden_dims=(4,), seed=0)
        model = build_model(3, config)
        data = FeatureSequence(np.zeros((4, 5)))
        with pytest.raises(DimensionMismatchError):
            train(model, data, data, config)

    def test_an_overflowing_epoch_mean_is_an_error(self):
        """Every step's losses are finite, but their sum overflows: fit
        names the epoch, and no step, since no step is at fault."""
        config = CycleGanConfig(batch_frames=1, epochs=1)
        with np.errstate(over="ignore"), pytest.raises(
            NonFiniteError, match=r"^non-finite mean losses of epoch 1: MseLosses\(mse=inf\)$"
        ):
            fit(lambda nets, idx: (nets, MseLosses(1e308)), None, config, 2)


_FAULTS_PER_STEP = textwrap.dedent("""
    import resource
    import numpy as np
    from cyclevc import cyclegan
    from cyclevc.features import FeatureSequence

    marks = []
    step = cyclegan.train_step
    def counted(*args):
        marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
        return step(*args)
    cyclegan.train_step = counted
    config = cyclegan.CycleGanConfig(epochs=1, seed=3)
    rng = np.random.default_rng(0)
    x = FeatureSequence(rng.normal(size=(128 * 10, 75)))
    y = FeatureSequence(rng.normal(size=(128 * 10, 75)))
    cyclegan.train(cyclegan.build_model(75, config), x, y, config)
    # The first two steps allocate the optimizer moments and grow the heap.
    print((marks[-1] - marks[2]) / (len(marks) - 3))
""")


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the heap pad is a glibc mallopt setting",
)
def test_library_training_does_not_refault_the_heap_each_step():
    """cyclegan.train at the default net, in a fresh interpreter so no
    earlier test has set the heap pad: once warm, a step reuses the heap
    instead of faulting its pages in again (about 3000 faults per step)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = str(Path(cyclevc.__file__).resolve().parents[1])
    run = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_STEP],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    assert float(run.stdout) < 300
