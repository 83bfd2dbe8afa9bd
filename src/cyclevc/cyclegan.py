"""Cycle-consistent adversarial training over unpaired frame features.

Two generators map between the speakers' normalized 75-dim feature spaces
(G: X->Y, F: Y->X) and two discriminators try to tell generated frames
from real ones. Generators minimize their adversarial terms plus a
cycle-consistency L1 penalty weighted by lambda; discriminators maximize
their adversarial objectives. Each training step updates the
discriminators first, then both generators jointly, on one mini-batch of
randomly drawn frames per speaker (no alignment anywhere).

Loss forms: "lsgan" (default) regresses raw discriminator outputs toward
1 for real and 0 for fake; "log" squashes them through a sigmoid and uses
the non-saturating log loss for the generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .errors import DimensionMismatchError, InsufficientDataError, NonFiniteError
from .features import FeatureSequence
from .net import Gradients, Mlp, OptimizerState, apply_update, backward, forward, init_optimizer
from .seeding import derive_rng

_LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class CycleGanModel:
    """The (G, F, D_X, D_Y) quadruple."""

    g: Mlp      # X -> Y
    f: Mlp      # Y -> X
    d_x: Mlp    # X -> scalar score
    d_y: Mlp    # Y -> scalar score

    def __post_init__(self) -> None:
        dim = self.g.d_in
        if not (self.g.d_out == dim and self.f.d_in == dim and self.f.d_out == dim):
            raise DimensionMismatchError(
                "generators must map the feature space onto itself with a shared width"
            )
        if self.d_x.d_in != dim or self.d_y.d_in != dim:
            raise DimensionMismatchError("discriminator input width must match generators")
        if self.d_x.d_out != 1 or self.d_y.d_out != 1:
            raise DimensionMismatchError("discriminators must output a single score")

    @property
    def feature_dim(self) -> int:
        return self.g.d_in


@dataclass(frozen=True)
class CycleGanConfig:
    cycle_weight: float = 10.0
    lr_generator: float = 0.001
    lr_discriminator: float = 0.0001
    batch_frames: int = 128
    epochs: int = 400
    seed: int = 0
    loss_form: str = "lsgan"
    hidden_dims: tuple[int, ...] = (128, 256, 256, 128)

    def __post_init__(self) -> None:
        if self.cycle_weight < 0:
            raise ValueError("cycle_weight must be >= 0")
        if self.lr_generator <= 0 or self.lr_discriminator <= 0:
            raise ValueError("learning rates must be > 0")
        if self.batch_frames < 1:
            raise ValueError("batch_frames must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.loss_form not in ("lsgan", "log"):
            raise ValueError(f"unknown loss_form {self.loss_form!r}")


@dataclass(frozen=True)
class LossReport:
    """Per-step (or per-epoch mean) loss terms.

    adv_g/adv_f are the generators' adversarial losses, disc_x/disc_y the
    discriminators' minimization losses, cycle the unweighted two-direction
    reconstruction loss, total the generator-side objective
    adv_g + adv_f + cycle_weight * cycle.
    """

    adv_g: float
    adv_f: float
    disc_x: float
    disc_y: float
    cycle: float
    total: float

    def __post_init__(self) -> None:
        vals = (self.adv_g, self.adv_f, self.disc_x, self.disc_y, self.cycle, self.total)
        if not all(np.isfinite(v) for v in vals):
            raise NonFiniteError(f"non-finite loss report: {vals}")
        if self.cycle < 0:
            raise ValueError("cycle loss cannot be negative")

    @staticmethod
    def mean(reports: list["LossReport"]) -> "LossReport":
        n = len(reports)
        return LossReport(
            adv_g=sum(r.adv_g for r in reports) / n,
            adv_f=sum(r.adv_f for r in reports) / n,
            disc_x=sum(r.disc_x for r in reports) / n,
            disc_y=sum(r.disc_y for r in reports) / n,
            cycle=sum(r.cycle for r in reports) / n,
            total=sum(r.total for r in reports) / n,
        )


@dataclass
class TrainerState:
    """Optimizer states for all four networks."""

    opt_g: OptimizerState
    opt_f: OptimizerState
    opt_dx: OptimizerState
    opt_dy: OptimizerState

    @staticmethod
    def fresh(model: CycleGanModel, config: CycleGanConfig) -> "TrainerState":
        return TrainerState(
            opt_g=init_optimizer(model.g, "adam", config.lr_generator),
            opt_f=init_optimizer(model.f, "adam", config.lr_generator),
            opt_dx=init_optimizer(model.d_x, "adam", config.lr_discriminator),
            opt_dy=init_optimizer(model.d_y, "adam", config.lr_discriminator),
        )


def build_model(feature_dim: int, config: CycleGanConfig) -> CycleGanModel:
    """Seeded construction of the four networks from the shared config."""
    from .net import init_mlp
    from .seeding import derive_seed

    gen_dims = (feature_dim, *config.hidden_dims, feature_dim)
    disc_dims = (feature_dim, *config.hidden_dims, 1)
    return CycleGanModel(
        g=init_mlp(gen_dims, derive_seed(config.seed, "init.G")),
        f=init_mlp(gen_dims, derive_seed(config.seed, "init.F")),
        d_x=init_mlp(disc_dims, derive_seed(config.seed, "init.D_X")),
        d_y=init_mlp(disc_dims, derive_seed(config.seed, "init.D_Y")),
    )


# ---------------------------------------------------------------------------
# Losses. All take raw (linear) discriminator outputs and return scalars to
# be minimized; the gradient helpers return d(loss)/d(raw output).
# ---------------------------------------------------------------------------

def adversarial_loss_log(d_real: np.ndarray, d_fake: np.ndarray) -> tuple[float, float]:
    """Log-form adversarial losses from raw discriminator outputs.

    Outputs are squashed to (0,1) by a sigmoid before the log, with the log
    arguments clamped at 1e-12. The discriminator loss is the negated
    classic objective; the generator loss is the non-saturating variant
    -mean log D(fake).
    """
    p_real = expit(np.asarray(d_real, dtype=np.float64))
    p_fake = expit(np.asarray(d_fake, dtype=np.float64))
    disc = -(
        np.mean(np.log(np.maximum(p_real, _LOG_CLAMP)))
        + np.mean(np.log(np.maximum(1.0 - p_fake, _LOG_CLAMP)))
    )
    gen = -np.mean(np.log(np.maximum(p_fake, _LOG_CLAMP)))
    return float(disc), float(gen)


def adversarial_loss_lsgan(d_real: np.ndarray, d_fake: np.ndarray) -> tuple[float, float]:
    """Least-squares adversarial losses from raw discriminator outputs.

    disc = mean (D(real)-1)^2 + mean D(fake)^2, gen = mean (D(fake)-1)^2.
    """
    d_real = np.asarray(d_real, dtype=np.float64)
    d_fake = np.asarray(d_fake, dtype=np.float64)
    disc = np.mean((d_real - 1.0) ** 2) + np.mean(d_fake**2)
    gen = np.mean((d_fake - 1.0) ** 2)
    return float(disc), float(gen)


def _disc_output_grads(d_real, d_fake, loss_form):
    """d(disc loss)/d(raw outputs), matching the loss functions above."""
    n_real = d_real.shape[0]
    n_fake = d_fake.shape[0]
    if loss_form == "lsgan":
        return 2.0 * (d_real - 1.0) / n_real, 2.0 * d_fake / n_fake
    p_real = expit(d_real)
    p_fake = expit(d_fake)
    return -(1.0 - p_real) / n_real, p_fake / n_fake


def _gen_loss(d_fake, loss_form):
    """Generator's adversarial loss from raw fake scores."""
    if loss_form == "lsgan":
        return float(np.mean((d_fake - 1.0) ** 2))
    return float(-np.mean(np.log(np.maximum(expit(d_fake), _LOG_CLAMP))))


def _gen_output_grad(d_fake, loss_form):
    """d(gen loss)/d(raw fake outputs)."""
    n = d_fake.shape[0]
    if loss_form == "lsgan":
        return 2.0 * (d_fake - 1.0) / n
    return -(1.0 - expit(d_fake)) / n


def cycle_loss(
    x_batch: np.ndarray,
    fgx_batch: np.ndarray,
    y_batch: np.ndarray,
    gfy_batch: np.ndarray,
) -> float:
    """Two-direction cycle-consistency loss.

    Per-frame L1 distance between each input and its round-trip
    reconstruction, averaged over each batch, the two directions summed.
    """
    if x_batch.shape != fgx_batch.shape or y_batch.shape != gfy_batch.shape:
        raise DimensionMismatchError("reconstruction batches must match their inputs")
    fwd = np.mean(np.sum(np.abs(fgx_batch - x_batch), axis=1))
    bwd = np.mean(np.sum(np.abs(gfy_batch - y_batch), axis=1))
    return float(fwd + bwd)


def _l1_grad(rec: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """d(mean-over-batch per-frame L1)/d(rec); sign(0) taken as 0."""
    return np.sign(rec - ref) / rec.shape[0]


def full_objective(losses: LossReport, cycle_weight: float) -> float:
    """Generator-side total: adv_G + adv_F + cycle_weight * cycle."""
    return losses.adv_g + losses.adv_f + cycle_weight * losses.cycle


# ---------------------------------------------------------------------------
# Objective evaluation with gradients
# ---------------------------------------------------------------------------

def discriminator_gradients(
    disc: Mlp, real: np.ndarray, fake: np.ndarray, loss_form: str
) -> tuple[float, Gradients]:
    """One discriminator's loss on real vs generated frames and its
    parameter gradients; the generated frames are constants here."""
    d_real, cache_r = forward(disc, real)
    d_fake, cache_f = forward(disc, fake)
    loss_fn = adversarial_loss_lsgan if loss_form == "lsgan" else adversarial_loss_log
    loss, _ = loss_fn(d_real, d_fake)
    g_real, g_fake = _disc_output_grads(d_real, d_fake, loss_form)
    grads_r, _ = backward(disc, cache_r, g_real)
    grads_f, _ = backward(disc, cache_f, g_fake)
    return loss, grads_r + grads_f


def discriminator_objective(
    model: CycleGanModel, x_batch: np.ndarray, y_batch: np.ndarray, loss_form: str
) -> tuple[float, float, Gradients, Gradients]:
    """Discriminator losses and their parameter gradients on one batch.

    Generated frames are treated as constants here (no gradient flows back
    into the generators). Returns (disc_x_loss, disc_y_loss, grads for D_X,
    grads for D_Y).
    """
    fake_y, _ = forward(model.g, x_batch)
    fake_x, _ = forward(model.f, y_batch)
    loss_x, grads_dx = discriminator_gradients(model.d_x, x_batch, fake_x, loss_form)
    loss_y, grads_dy = discriminator_gradients(model.d_y, y_batch, fake_y, loss_form)
    return loss_x, loss_y, grads_dx, grads_dy


def generator_objective(
    model: CycleGanModel,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    cycle_weight: float,
    loss_form: str,
) -> tuple[LossReport, Gradients, Gradients]:
    """Generator-side objective and exact gradients for G and F.

    Both cycle directions contribute: X -> G -> F compared against x, and
    Y -> F -> G compared against y. Adversarial terms flow through the
    (frozen) discriminators back into the generators without computing
    discriminator parameter gradients.
    """
    # Forward direction: x -> fake_y -> rec_x, scored by D_Y.
    fake_y, cache_g1 = forward(model.g, x_batch)
    d_fake_y, cache_dy = forward(model.d_y, fake_y)
    adv_g = _gen_loss(d_fake_y, loss_form)
    _, g_into_dy = backward(
        model.d_y, cache_dy, _gen_output_grad(d_fake_y, loss_form), param_grads=False
    )
    rec_x, cache_f1 = forward(model.f, fake_y)
    grads_f_fwd, g_into_f = backward(
        model.f, cache_f1, cycle_weight * _l1_grad(rec_x, x_batch)
    )
    grads_g_fwd, _ = backward(model.g, cache_g1, g_into_dy + g_into_f)

    # Backward direction: y -> fake_x -> rec_y, scored by D_X.
    fake_x, cache_f2 = forward(model.f, y_batch)
    d_fake_x, cache_dx = forward(model.d_x, fake_x)
    adv_f = _gen_loss(d_fake_x, loss_form)
    _, g_into_dx = backward(
        model.d_x, cache_dx, _gen_output_grad(d_fake_x, loss_form), param_grads=False
    )
    rec_y, cache_g2 = forward(model.g, fake_x)
    grads_g_bwd, g_into_g = backward(
        model.g, cache_g2, cycle_weight * _l1_grad(rec_y, y_batch)
    )
    grads_f_bwd, _ = backward(model.f, cache_f2, g_into_dx + g_into_g)

    cycle = cycle_loss(x_batch, rec_x, y_batch, rec_y)
    report = LossReport(
        adv_g=adv_g,
        adv_f=adv_f,
        disc_x=0.0,
        disc_y=0.0,
        cycle=cycle,
        total=adv_g + adv_f + cycle_weight * cycle,
    )
    return report, grads_g_fwd + grads_g_bwd, grads_f_fwd + grads_f_bwd


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def train_step(
    model: CycleGanModel,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    config: CycleGanConfig,
    state: TrainerState,
) -> tuple[CycleGanModel, TrainerState, LossReport]:
    """One alternating update: discriminators first, then both generators."""
    disc_x_loss, disc_y_loss, grads_dx, grads_dy = discriminator_objective(
        model, x_batch, y_batch, config.loss_form
    )
    new_dx, opt_dx = apply_update(model.d_x, grads_dx, state.opt_dx)
    new_dy, opt_dy = apply_update(model.d_y, grads_dy, state.opt_dy)
    model = CycleGanModel(g=model.g, f=model.f, d_x=new_dx, d_y=new_dy)

    gen_report, grads_g, grads_f = generator_objective(
        model, x_batch, y_batch, config.cycle_weight, config.loss_form
    )
    new_g, opt_g = apply_update(model.g, grads_g, state.opt_g)
    new_f, opt_f = apply_update(model.f, grads_f, state.opt_f)
    model = CycleGanModel(g=new_g, f=new_f, d_x=model.d_x, d_y=model.d_y)

    report = LossReport(
        adv_g=gen_report.adv_g,
        adv_f=gen_report.adv_f,
        disc_x=disc_x_loss,
        disc_y=disc_y_loss,
        cycle=gen_report.cycle,
        total=gen_report.total,
    )
    return model, TrainerState(opt_g=opt_g, opt_f=opt_f, opt_dx=opt_dx, opt_dy=opt_dy), report


def train(
    model: CycleGanModel,
    x_data: FeatureSequence,
    y_data: FeatureSequence,
    config: CycleGanConfig,
) -> tuple[CycleGanModel, list[LossReport]]:
    """Full training run over per-speaker normalized features.

    Each epoch reshuffles both datasets with a seeded stream and walks them
    without replacement; batch k of speaker X is paired with batch k of
    speaker Y purely positionally (the data is nonparallel, nothing is
    aligned). Returns the trained model and one mean LossReport per epoch.
    """
    if x_data.frames < 1 or y_data.frames < 1:
        raise InsufficientDataError("both training datasets must be nonempty")
    if x_data.dim != model.feature_dim or y_data.dim != model.feature_dim:
        raise DimensionMismatchError(
            f"model expects width {model.feature_dim}, got {x_data.dim}/{y_data.dim}"
        )
    batch = min(config.batch_frames, x_data.frames, y_data.frames)
    steps = max(1, min(x_data.frames, y_data.frames) // batch)
    shuffle_rng = derive_rng(config.seed, "train.shuffle")
    state = TrainerState.fresh(model, config)

    history: list[LossReport] = []
    for _ in range(config.epochs):
        x_order = shuffle_rng.permutation(x_data.frames)
        y_order = shuffle_rng.permutation(y_data.frames)
        step_reports = []
        for k in range(steps):
            xb = x_data.data[x_order[k * batch : (k + 1) * batch]]
            yb = y_data.data[y_order[k * batch : (k + 1) * batch]]
            model, state, report = train_step(model, xb, yb, config, state)
            step_reports.append(report)
        history.append(LossReport.mean(step_reports))
    return model, history


def convert_frames(
    model: CycleGanModel, x: FeatureSequence, direction: str = "xy"
) -> FeatureSequence:
    """Map normalized frames through G ("xy") or F ("yx")."""
    if direction not in ("xy", "yx"):
        raise ValueError(f"direction must be 'xy' or 'yx', got {direction!r}")
    net = model.g if direction == "xy" else model.f
    if x.dim != net.d_in:
        raise DimensionMismatchError(f"expected width {net.d_in}, got {x.dim}")
    out, _ = forward(net, x.data)
    return FeatureSequence(out, x.kind)
