"""The two parallel-VC baselines: an MSE-trained regressor and a
least-squares GAN whose generator gets an auxiliary MSE term.

Both train on DTW-aligned frame pairs (row k of x corresponds to row k of
y) in the speakers' normalized feature spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InsufficientDataError
from .cyclegan import LOSS_FORMS, discriminator_gradients, epoch_batches, generator_loss
from .features import FeatureSequence
from .net import Gradients, Mlp, apply_update, backward, forward, init_mlp, init_optimizer
from .seeding import derive_rng, derive_seed


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
class MseBaselineConfig:
    learning_rate: float = 0.001
    batch_frames: int = 128
    epochs: int = 60
    seed: int = 0
    hidden_dims: tuple[int, ...] = (128, 256, 256, 128)

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be > 0")
        if self.batch_frames < 1 or self.epochs < 1:
            raise ValueError("batch_frames and epochs must be >= 1")


@dataclass(frozen=True)
class GanBaselineConfig:
    mse_weight: float = 1.0
    lr_generator: float = 0.001
    lr_discriminator: float = 0.0001
    batch_frames: int = 128
    epochs: int = 400
    seed: int = 0
    loss_form: str = "lsgan"
    hidden_dims: tuple[int, ...] = (128, 256, 256, 128)

    def __post_init__(self) -> None:
        if self.mse_weight < 0:
            raise ValueError("mse_weight must be >= 0")
        if self.lr_generator <= 0 or self.lr_discriminator <= 0:
            raise ValueError("learning rates must be > 0")
        if self.batch_frames < 1 or self.epochs < 1:
            raise ValueError("batch_frames and epochs must be >= 1")
        if self.loss_form not in LOSS_FORMS:
            raise ValueError(f"unknown loss_form {self.loss_form!r}")


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over all entries of the squared difference."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise DimensionMismatchError(
            f"pred shape {pred.shape} does not match target {target.shape}"
        )
    return float(np.mean((pred - target) ** 2))


def _mse_output_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    return 2.0 * (pred - target) / pred.size


def train_mse_baseline(
    data: ParallelTrainSet, config: MseBaselineConfig = MseBaselineConfig()
) -> tuple[Mlp, list[float]]:
    """Mini-batch Adam on plain MSE; returns the net and per-epoch mean MSE."""
    if data.frames < 1:
        raise InsufficientDataError("training set is empty")
    net = init_mlp(
        (data.dim, *config.hidden_dims, data.dim),
        derive_seed(config.seed, "init.G"),
    )
    opt = init_optimizer(net, config.learning_rate)
    shuffle_rng = derive_rng(config.seed, "train.shuffle")

    history: list[float] = []
    for _ in range(config.epochs):
        losses = []
        for (idx,) in epoch_batches(shuffle_rng, config.batch_frames, data.frames):
            xb = data.x.data[idx]
            yb = data.y.data[idx]
            pred, cache = forward(net, xb)
            losses.append(mse_loss(pred, yb))
            grads, _ = backward(net, cache, _mse_output_grad(pred, yb))
            net, opt = apply_update(net, grads, opt)
        history.append(float(np.mean(losses)))
    return net, history


def gan_baseline_generator_objective(
    gen: Mlp,
    disc: Mlp,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    mse_weight: float,
    loss_form: str = "lsgan",
) -> tuple[float, float, Gradients]:
    """Generator loss (adversarial + weighted MSE) and its gradients.

    Returns (adversarial term, mse term, generator gradients). The
    discriminator is treated as frozen.
    """
    pred, cache_g = forward(gen, x_batch)
    d_fake, cache_d = forward(disc, pred)
    adv, g_adv = generator_loss(d_fake, loss_form)
    mse = mse_loss(pred, y_batch)
    _, g_through_d = backward(disc, cache_d, g_adv, param_grads=False)
    g_out = g_through_d + mse_weight * _mse_output_grad(pred, y_batch)
    grads, _ = backward(gen, cache_g, g_out)
    return adv, mse, grads


def train_gan_baseline(
    data: ParallelTrainSet, config: GanBaselineConfig = GanBaselineConfig()
) -> tuple[Mlp, Mlp, list[dict[str, float]]]:
    """Adversarially trained regressor on aligned pairs.

    The discriminator sees y as real and G(x) as fake; the generator
    minimizes its adversarial term plus mse_weight * MSE(G(x), y).
    Discriminator first, then generator, once each per batch. Returns
    (generator, discriminator, per-epoch mean losses).
    """
    if data.frames < 1:
        raise InsufficientDataError("training set is empty")
    gen = init_mlp(
        (data.dim, *config.hidden_dims, data.dim),
        derive_seed(config.seed, "init.G"),
    )
    disc = init_mlp(
        (data.dim, *config.hidden_dims, 1),
        derive_seed(config.seed, "init.D"),
    )
    opt_g = init_optimizer(gen, config.lr_generator)
    opt_d = init_optimizer(disc, config.lr_discriminator)
    shuffle_rng = derive_rng(config.seed, "train.shuffle")

    history: list[dict[str, float]] = []
    for _ in range(config.epochs):
        sums = {"disc": 0.0, "adv": 0.0, "mse": 0.0, "total": 0.0}
        steps = 0
        for (idx,) in epoch_batches(shuffle_rng, config.batch_frames, data.frames):
            xb = data.x.data[idx]
            yb = data.y.data[idx]

            # Discriminator update on (real y, fake G(x)).
            fake, _ = forward(gen, xb)
            disc_loss, grads_d = discriminator_gradients(disc, yb, fake, config.loss_form)
            disc, opt_d = apply_update(disc, grads_d, opt_d)

            # Generator update against the refreshed discriminator.
            adv, mse, grads = gan_baseline_generator_objective(
                gen, disc, xb, yb, config.mse_weight, config.loss_form
            )
            gen, opt_g = apply_update(gen, grads, opt_g)

            sums["disc"] += disc_loss
            sums["adv"] += adv
            sums["mse"] += mse
            sums["total"] += adv + config.mse_weight * mse
            steps += 1
        history.append({k: v / steps for k, v in sums.items()})
    return gen, disc, history
