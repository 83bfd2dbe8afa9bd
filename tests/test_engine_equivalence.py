"""The flat-parameter engine against a reference copy of the original one.

The reference below is the training step as first written: per-array
weight and bias tuples, scipy's ``expit`` for the hidden sigmoid, full
backward passes (parameter gradients included) through the frozen
discriminators, and an Adam step that builds new moment arrays. It is
self-contained on purpose, so later changes to ``cyclevc`` cannot move
the reference along with the code under test.

Tolerance: the engine's sigmoid is 1/(1+exp(-z)) with numpy's exp, which
on some CPUs (AVX-512 builds) differs from the C library exp behind
``expit`` by one ulp on a few percent of inputs. Everything else runs the
same floating-point operations in the same order. So parameters and loss
terms agree to a few ulp, and both are held to 1e-12 relative.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import expit

from cyclevc.cyclegan import CycleGanConfig, TrainerState, build_model, train_step

_LOG_CLAMP = 1e-12
_ROLES = ("g", "f", "d_x", "d_y")
_TOL = 1e-12


def _forward(layers, batch):
    acts = [batch]
    for k, (w, b) in enumerate(layers):
        z = acts[-1] @ w.T + b
        acts.append(z if k == len(layers) - 1 else expit(z))
    return acts


def _backward(layers, acts, g):
    """Weight gradients, bias gradients and the input gradient."""
    n = len(layers)
    gw, gb = [None] * n, [None] * n
    for k in range(n - 1, -1, -1):
        a_out = acts[k + 1]
        gz = g if k == n - 1 else g * a_out * (1.0 - a_out)
        gw[k] = gz.T @ acts[k]
        gb[k] = gz.sum(axis=0)
        g = gz @ layers[k][0]
    return gw + gb, g


def _add(a, b):
    return [x + y for x, y in zip(a, b)]


def _disc(layers, real, fake, form):
    """Discriminator loss and parameter gradients, generated frames constant."""
    acts_r, acts_f = _forward(layers, real), _forward(layers, fake)
    d_real, d_fake = acts_r[-1], acts_f[-1]
    n_real, n_fake = d_real.shape[0], d_fake.shape[0]
    if form == "lsgan":
        loss = np.mean((d_real - 1.0) ** 2) + np.mean(d_fake**2)
        g_real, g_fake = 2.0 * (d_real - 1.0) / n_real, 2.0 * d_fake / n_fake
    else:
        p_real, p_fake = expit(d_real), expit(d_fake)
        loss = -(
            np.mean(np.log(np.maximum(p_real, _LOG_CLAMP)))
            + np.mean(np.log(np.maximum(1.0 - p_fake, _LOG_CLAMP)))
        )
        g_real, g_fake = -(1.0 - p_real) / n_real, p_fake / n_fake
    grads_r, _ = _backward(layers, acts_r, g_real)
    grads_f, _ = _backward(layers, acts_f, g_fake)
    return float(loss), _add(grads_r, grads_f)


def _gen_adv(d_fake, form):
    """Generator adversarial loss and its gradient wrt the raw fake scores."""
    n = d_fake.shape[0]
    if form == "lsgan":
        return float(np.mean((d_fake - 1.0) ** 2)), 2.0 * (d_fake - 1.0) / n
    loss = float(-np.mean(np.log(np.maximum(expit(d_fake), _LOG_CLAMP))))
    return loss, -(1.0 - expit(d_fake)) / n


def _half_cycle(gen, other, disc, batch, weight, form):
    """batch -> gen -> other, scored by disc: (adv loss, cycle term,
    grads of other, output gradient into gen, gen's activations)."""
    acts_gen = _forward(gen, batch)
    acts_d = _forward(disc, acts_gen[-1])
    adv, g_adv = _gen_adv(acts_d[-1], form)
    _, g_into_d = _backward(disc, acts_d, g_adv)
    acts_other = _forward(other, acts_gen[-1])
    rec = acts_other[-1]
    cyc = float(np.mean(np.sum(np.abs(rec - batch), axis=1)))
    grads_other, g_into_other = _backward(
        other, acts_other, weight * np.sign(rec - batch) / rec.shape[0]
    )
    return adv, cyc, grads_other, g_into_d + g_into_other, acts_gen


def _adam(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    bc1, bc2 = 1.0 - beta1**t, 1.0 - beta2**t
    new_p, new_m, new_v = [], [], []
    for p, g, mk, vk in zip(params, grads, m, v):
        mk = beta1 * mk + (1.0 - beta1) * g
        vk = beta2 * vk + (1.0 - beta2) * g * g
        new_p.append(p - lr * (mk / bc1) / (np.sqrt(vk / bc2) + eps))
        new_m.append(mk)
        new_v.append(vk)
    return new_p, new_m, new_v


def _reference_step(params, moments, t, x, y, config):
    """One discriminator update, then one joint generator update.

    params maps a role to its weights followed by its biases; moments maps
    it to (m, v) lists in the same order. Returns the new params and
    moments plus the six loss terms in LossReport order."""
    form, lam = config.loss_form, config.cycle_weight
    layers = {r: list(zip(p[: len(p) // 2], p[len(p) // 2 :])) for r, p in params.items()}
    params, moments = dict(params), dict(moments)

    fake_y = _forward(layers["g"], x)[-1]
    fake_x = _forward(layers["f"], y)[-1]
    disc_x, grads_dx = _disc(layers["d_x"], x, fake_x, form)
    disc_y, grads_dy = _disc(layers["d_y"], y, fake_y, form)
    for role, grads in (("d_x", grads_dx), ("d_y", grads_dy)):
        p, m, v = _adam(params[role], grads, *moments[role], t, config.lr_discriminator)
        params[role], moments[role] = p, (m, v)
        layers[role] = list(zip(p[: len(p) // 2], p[len(p) // 2 :]))

    adv_g, cyc_fwd, grads_f_fwd, g_out_g, acts_g1 = _half_cycle(
        layers["g"], layers["f"], layers["d_y"], x, lam, form)
    adv_f, cyc_bwd, grads_g_bwd, g_out_f, acts_f2 = _half_cycle(
        layers["f"], layers["g"], layers["d_x"], y, lam, form)
    grads_g_fwd, _ = _backward(layers["g"], acts_g1, g_out_g)
    grads_f_bwd, _ = _backward(layers["f"], acts_f2, g_out_f)
    for role, grads in (("g", _add(grads_g_fwd, grads_g_bwd)),
                        ("f", _add(grads_f_fwd, grads_f_bwd))):
        p, m, v = _adam(params[role], grads, *moments[role], t, config.lr_generator)
        params[role], moments[role] = p, (m, v)

    cycle = cyc_fwd + cyc_bwd
    losses = (adv_g, adv_f, disc_x, disc_y, cycle, adv_g + adv_f + lam * cycle)
    return params, moments, losses


def _rel(new, ref) -> float:
    return float(np.abs(new - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("loss_form", ["lsgan", "log"])
def test_train_step_matches_the_reference_engine(loss_form):
    config = CycleGanConfig(loss_form=loss_form, seed=7)
    model = build_model(75, config)
    state = TrainerState.fresh(model, config)
    params = {r: [a.copy() for a in (*getattr(model, r).weights, *getattr(model, r).biases)]
              for r in _ROLES}
    moments = {r: ([np.zeros_like(a) for a in p], [np.zeros_like(a) for a in p])
               for r, p in params.items()}
    rng = np.random.default_rng(11)
    # Three steps: the first has Adam's bias correction cancel exactly,
    # later ones reuse the moments the previous step left behind.
    for t in (1, 2, 3):
        x, y = rng.normal(size=(128, 75)), rng.normal(size=(128, 75))
        model, report = train_step(model, x, y, config, state)
        params, moments, ref_losses = _reference_step(params, moments, t, x, y, config)
        for role in _ROLES:
            net = getattr(model, role)
            for new, ref in zip((*net.weights, *net.biases), params[role]):
                assert new.shape == ref.shape
                assert _rel(new, ref) <= _TOL, f"step {t}, {role}"
        np.testing.assert_allclose(tuple(report), ref_losses, rtol=_TOL, atol=0)
