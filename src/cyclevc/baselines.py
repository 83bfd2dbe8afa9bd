"""The two parallel-VC baselines: an MSE-trained regressor and a
least-squares GAN whose generator gets an auxiliary MSE term.

Both train on DTW-aligned frame pairs (row k of x corresponds to row k of
y) in the speakers' normalized feature spaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatchError
from .cyclegan import TrainConfig, adversarial_term, discriminator_gradients, fit, loss_mean
from .features import FeatureSequence
from .net import Gradients, Mlp, apply_update, backward, forward, init_optimizer


@dataclass(frozen=True)
class ParallelTrainSet:
    """Aligned frame pairs: x[k] maps to y[k]."""

    x: FeatureSequence
    y: FeatureSequence

    def __post_init__(self) -> None:
        if self.x.frames != self.y.frames:
            raise DimensionMismatchError(
                f"aligned sets need equal frame counts, got {self.x.frames}/{self.y.frames}"
            )
        if self.x.dim != self.y.dim:
            raise DimensionMismatchError(
                f"aligned sets need equal dims, got {self.x.dim}/{self.y.dim}"
            )

    @property
    def frames(self) -> int:
        return self.x.frames

    @property
    def dim(self) -> int:
        return self.x.dim


@dataclass(frozen=True)
class MseBaselineConfig(TrainConfig):
    epochs: int = 60


@dataclass(frozen=True)
class GanBaselineConfig(TrainConfig):
    mse_weight: float = 1.0
    lr_discriminator: float = 0.0001
    loss_form: str = "lsgan"


class MseLosses(NamedTuple):
    """An mse-parallel step's (or epoch's mean) loss: its losses.csv column."""

    mse: float


class GanLosses(NamedTuple):
    """A gan-parallel step's (or epoch's mean) losses; total = adv + mse_weight * mse."""

    disc: float
    adv: float
    mse: float
    total: float


def mse_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean over all entries of the squared difference, and its gradient
    wrt pred."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionMismatchError(
            f"pred shape {pred.shape} does not match target {target.shape}"
        )
    diff = pred - target
    return loss_mean(diff**2), 2.0 * diff / pred.size


def train_mse_baseline(
    data: ParallelTrainSet, config: MseBaselineConfig = MseBaselineConfig()
) -> tuple[Mlp, list[MseLosses]]:
    """Mini-batch Adam on plain MSE; returns the net and per-epoch mean MSE."""
    net = config.init_net(data.dim, data.dim, "G")
    opt = init_optimizer(net, config.lr_generator)

    def step(net, idx):
        xb = data.x.data[idx]
        yb = data.y.data[idx]
        pred, cache = forward(net, xb)
        loss, g_mse = mse_loss(pred, yb)
        grads, _ = backward(net, cache, g_mse, input_grad=False)
        return apply_update(net, grads, opt), MseLosses(loss)

    return fit(step, net, config, data.frames)


def gan_baseline_generator_objective(
    gen: Mlp,
    disc: Mlp,
    generated: tuple[np.ndarray, tuple[np.ndarray, ...]],
    y_batch: np.ndarray,
    mse_weight: float,
    loss_form: str = "lsgan",
) -> tuple[float, float, Gradients]:
    """Generator loss (adversarial + weighted MSE) and its gradients, given
    generated = forward(gen, x_batch). Returns (adv term, mse term,
    generator gradients); disc is frozen.
    """
    pred, cache_g = generated
    adv, g_through_d = adversarial_term(disc, pred, loss_form)
    mse, g_mse = mse_loss(pred, y_batch)
    g_out = g_through_d + mse_weight * g_mse
    grads, _ = backward(gen, cache_g, g_out, input_grad=False)
    return adv, mse, grads


def train_gan_baseline(
    data: ParallelTrainSet, config: GanBaselineConfig = GanBaselineConfig()
) -> tuple[Mlp, Mlp, list[GanLosses]]:
    """Adversarially trained regressor on aligned pairs.

    The discriminator sees y as real and G(x) as fake; the generator
    minimizes its adversarial term plus mse_weight * MSE(G(x), y).
    Discriminator first, then generator, once each per batch, on one
    forward of G(x). Returns (generator, discriminator, per-epoch losses).
    """
    gen = config.init_net(data.dim, data.dim, "G")
    disc = config.init_net(data.dim, 1, "D")
    opt_g = init_optimizer(gen, config.lr_generator)
    opt_d = init_optimizer(disc, config.lr_discriminator)

    def step(nets, idx):
        gen, disc = nets
        xb = data.x.data[idx]
        yb = data.y.data[idx]

        # Discriminator update on (real y, fake G(x)).
        generated = forward(gen, xb)
        disc_loss, grads_d = discriminator_gradients(disc, yb, generated[0], config.loss_form)
        disc = apply_update(disc, grads_d, opt_d)

        # Generator update against the refreshed discriminator.
        adv, mse, grads = gan_baseline_generator_objective(
            gen, disc, generated, yb, config.mse_weight, config.loss_form
        )
        gen = apply_update(gen, grads, opt_g)
        losses = GanLosses(disc_loss, adv, mse, adv + config.mse_weight * mse)
        return (gen, disc), losses

    (gen, disc), history = fit(step, (gen, disc), config, data.frames)
    return gen, disc, history
