"""Cycle-consistent adversarial training over unpaired frame features.

Two generators map between the speakers' normalized 75-dim feature spaces
(G: X->Y, F: Y->X) and two discriminators try to tell generated frames
from real ones. Generators minimize their adversarial terms plus a
cycle-consistency L1 penalty weighted by lambda; discriminators maximize
their adversarial objectives. Each training step updates the
discriminators first, then both generators jointly, on one mini-batch of
randomly drawn frames per speaker (no alignment anywhere).

Both adversarial loss forms, "lsgan" (default) and "log", are score_loss.
"""

from __future__ import annotations

import math
import reprlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import net
from .errors import (
    DimensionMismatchError,
    InsufficientDataError,
    NonFiniteError,
    check_integer,
    finite_real,
    located,
)
from .features import FeatureSequence
from .net import (
    Gradients,
    Mlp,
    OptimizerState,
    apply_update,
    backward,
    forward,
    init_mlp,
    init_optimizer,
    keep_heap_top,
    sigmoid_inplace,
)
from .seeding import derive_rng, derive_seed

#: The adversarial loss forms every trainer and the CLI accept.
LOSS_FORMS = ("lsgan", "log")


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
class TrainConfig:
    """The settings every trainer shares; each method's config extends it."""

    lr_generator: float = 0.001
    batch_frames: int = 128
    epochs: int = 400
    seed: int = 0
    hidden_dims: tuple[int, ...] = (128, 256, 256, 128)

    def __post_init__(self) -> None:
        for name, value in ((f.name, getattr(self, f.name)) for f in fields(self)):
            rate, weight = name.startswith("lr_"), name.endswith("_weight")
            if (rate or weight) and not finite_real(value):
                raise ValueError(f"{name} must be finite, got {reprlib.repr(value)}")
            if rate and value <= 0:
                raise ValueError("learning rates must be > 0")
            if weight and value < 0:
                raise ValueError(f"{name} must be >= 0")
            if name == "loss_form" and value not in LOSS_FORMS:
                raise ValueError(f"unknown loss_form {value!r}")
        check_integer("batch_frames", self.batch_frames, 1)
        check_integer("epochs", self.epochs, 1)
        check_integer("seed", self.seed)
        for layer, width in enumerate(self.hidden_dims):
            check_integer(f"hidden_dims[{layer}]", width, 1)

    def init_net(self, d_in: int, d_out: int, role: str) -> Mlp:
        """A fresh d_in -> hidden_dims -> d_out network, seeded by its role."""
        return init_mlp((d_in, *self.hidden_dims, d_out), derive_seed(self.seed, f"init.{role}"))


@dataclass(frozen=True)
class CycleGanConfig(TrainConfig):
    cycle_weight: float = 10.0
    lr_discriminator: float = 0.0001
    loss_form: str = "lsgan"


class LossReport(NamedTuple):
    """Per-step (or per-epoch mean) loss terms: cyclegan's losses.csv columns.

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


@dataclass(frozen=True)
class TrainerState:
    """Optimizer states for all four networks; each train_step advances them."""

    opt_g: OptimizerState
    opt_f: OptimizerState
    opt_dx: OptimizerState
    opt_dy: OptimizerState

    @staticmethod
    def fresh(model: CycleGanModel, config: CycleGanConfig) -> "TrainerState":
        return TrainerState(
            opt_g=init_optimizer(model.g, config.lr_generator),
            opt_f=init_optimizer(model.f, config.lr_generator),
            opt_dx=init_optimizer(model.d_x, config.lr_discriminator),
            opt_dy=init_optimizer(model.d_y, config.lr_discriminator),
        )


def build_model(feature_dim: int, config: CycleGanConfig) -> CycleGanModel:
    """Seeded construction of the four networks from the shared config."""
    return CycleGanModel(
        g=config.init_net(feature_dim, feature_dim, "G"),
        f=config.init_net(feature_dim, feature_dim, "F"),
        d_x=config.init_net(feature_dim, 1, "D_X"),
        d_y=config.init_net(feature_dim, 1, "D_Y"),
    )


# ---------------------------------------------------------------------------
# Losses. Each returns the scalar to be minimized and its gradient with
# respect to its first argument.
# ---------------------------------------------------------------------------

def loss_mean(values: np.ndarray) -> float:
    """np.mean of a float64 array, the same bytes, without its Python wrapper."""
    return float(np.add.reduce(values, axis=None) / values.size)


def score_loss(scores: np.ndarray, target: float, form: str) -> tuple[float, np.ndarray]:
    """The loss that pulls raw discriminator scores toward target (1 for
    real frames, 0 for generated ones) and its gradient wrt the scores.

    lsgan: mean (d - t)^2. log: the sigmoid cross-entropy, mean log(1 +
    e^-d) toward 1 and mean log(1 + e^d) toward 0, exact and finite for
    scores of any size, with gradient (sigmoid(d) - t) / n.
    """
    n = scores.shape[0]
    if form == "lsgan":
        diff = scores - target
        return loss_mean(diff**2), 2.0 * diff / n
    if form != "log":
        raise ValueError(f"unknown loss_form {form!r}")
    p = np.array(scores, dtype=np.float64)
    sigmoid_inplace(p)
    return loss_mean(np.logaddexp(0.0, -scores if target else scores)), (p - target) / n


def l1_loss(rec: np.ndarray, ref: np.ndarray) -> tuple[float, np.ndarray]:
    """The cycle-consistency loss of one direction, the per-frame L1
    distance between a round-trip reconstruction and its input averaged
    over the batch, and its gradient wrt rec; sign(0) taken as 0."""
    if rec.shape != ref.shape:
        raise DimensionMismatchError("reconstruction batches must match their inputs")
    diff = rec - ref
    return loss_mean(np.add.reduce(np.abs(diff), axis=1)), np.sign(diff) / rec.shape[0]


# ---------------------------------------------------------------------------
# Objective evaluation with gradients
# ---------------------------------------------------------------------------

#: Per training thread, the executor whose one worker runs the second lane
#: of each step while train() runs; unset, the lanes run inline.
_lanes = threading.local()

#: The network functions both lanes call, as this module bound them. A
#: wrapper put in their place (a tracer, a profiler, a test spy) may keep
#: state that is not safe across threads, so the lanes then run inline.
_LANE_CALLS = (forward, backward, apply_update)

#: numpy's error state, per thread, for both lanes of training steps and
#: for epoch means: fit and apply_update report what it silences.
_STEP_ERRSTATE = {"over": "ignore", "invalid": "ignore"}


#: Held by the one _lane_worker body that runs lanes and sets the BLAS count.
_LANE_OWNER = threading.Lock()


@contextmanager
def _lane_worker():
    """For the body, run second lanes on one worker thread, with the
    OpenBLAS that net._openblas_thread_control finds on half its thread
    count, so that the two lanes use the cores one lane used before.

    The lanes run inline, and BLAS is left alone, where a function in
    _LANE_CALLS has been replaced, no control was found or the count is
    below two: lanes on a BLAS that still spawns its full thread count
    oversubscribe the cores and run slower than one lane, and on one BLAS
    thread two lanes only add thread handoffs. The count is process-wide,
    so one body at a time owns the lanes (_LANE_OWNER), and a body that
    overlaps the owner runs inline too. The worker stops before the
    previous count comes back, and the owner lets go after that, also on
    an exception.
    """
    own = globals()
    owner = _LANE_OWNER.acquire(blocking=False)
    control = net._openblas_thread_control() if owner else None
    count = control[0]() if control else 0
    if count < 2 or any(own[fn.__name__] is not fn for fn in _LANE_CALLS):
        if owner:
            _LANE_OWNER.release()
        yield
        return
    # Imported here: concurrent.futures costs about 4 ms to import, and
    # only training uses it.
    from concurrent.futures import ThreadPoolExecutor

    set_threads = control[1]
    set_threads(count // 2)
    try:
        with ThreadPoolExecutor(1, "cyclevc-lane", lambda: np.seterr(**_STEP_ERRSTATE)) as pool:
            _lanes.pool = pool
            yield
    finally:
        _lanes.pool = None
        set_threads(count)
        _LANE_OWNER.release()


def _run_lanes(first, second):
    """(first(), second()): second on the lane worker while first runs on
    the calling thread, or both inline, first then second, outside
    _lane_worker.

    The two lanes share no mutable state, so they give the same bytes
    either way; they overlap wherever numpy releases the GIL. If a lane
    raises, its error propagates only once both lanes are done, and
    first's error wins, as inline.
    """
    pool = getattr(_lanes, "pool", None)
    if pool is None:
        return first(), second()
    pending = pool.submit(second)
    try:
        done = first()
    finally:
        pending.exception()  # waits for the worker lane; raises nothing
    return done, pending.result()


def discriminator_gradients(
    disc: Mlp, real: np.ndarray, fake: np.ndarray, loss_form: str
) -> tuple[float, Gradients]:
    """One discriminator's loss on real vs generated frames and its
    parameter gradients; the generated frames are constants here."""
    d_real, cache_r = forward(disc, real)
    d_fake, cache_f = forward(disc, fake)
    loss_real, g_real = score_loss(d_real, 1.0, loss_form)
    loss_fake, g_fake = score_loss(d_fake, 0.0, loss_form)
    grads, _ = backward(disc, cache_r, g_real, input_grad=False)
    grads += backward(disc, cache_f, g_fake, input_grad=False)[0]
    return loss_real + loss_fake, grads


def discriminator_objective(
    model: CycleGanModel, x_batch: np.ndarray, y_batch: np.ndarray, loss_form: str
) -> tuple[float, float, Gradients, Gradients]:
    """Discriminator losses and their parameter gradients on one batch.

    Generated frames are treated as constants here (no gradient flows back
    into the generators). The two halves, F(y) scored by D_X and G(x)
    scored by D_Y, run as two lanes (see _run_lanes). Returns (disc_x_loss,
    disc_y_loss, grads for D_X, grads for D_Y).
    """
    (loss_x, grads_dx), (loss_y, grads_dy) = _run_lanes(
        lambda: discriminator_gradients(
            model.d_x, x_batch, forward(model.f, y_batch)[0], loss_form
        ),
        lambda: discriminator_gradients(
            model.d_y, y_batch, forward(model.g, x_batch)[0], loss_form
        ),
    )
    return loss_x, loss_y, grads_dx, grads_dy


def adversarial_term(disc: Mlp, fake: np.ndarray, loss_form: str) -> tuple[float, np.ndarray]:
    """A generator's adversarial loss on its frames fake, scored by the
    frozen disc (no parameter gradients), and its gradient wrt fake: the
    scores pulled toward 1, for log the non-saturating loss."""
    d_fake, cache = forward(disc, fake)
    adv, g_adv = score_loss(d_fake, 1.0, loss_form)
    _, g_fake = backward(disc, cache, g_adv, param_grads=False)
    return adv, g_fake


def _cycle_direction(
    gen: Mlp,
    back: Mlp,
    disc: Mlp,
    batch: np.ndarray,
    cycle_weight: float,
    loss_form: str,
) -> tuple[float, float, Gradients, Gradients]:
    """One cycle direction, batch -> gen -> back, with gen's output scored
    by the frozen disc. Returns the adversarial loss, the L1 cycle loss,
    and the parameter gradients for gen and for back."""
    fake, cache_gen = forward(gen, batch)
    adv, g_into_disc = adversarial_term(disc, fake, loss_form)
    rec, cache_back = forward(back, fake)
    cycle, g_cycle = l1_loss(rec, batch)
    grads_back, g_into_back = backward(back, cache_back, cycle_weight * g_cycle)
    grads_gen, _ = backward(gen, cache_gen, g_into_disc + g_into_back, input_grad=False)
    return adv, cycle, grads_gen, grads_back


def generator_objective(
    model: CycleGanModel,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    cycle_weight: float,
    loss_form: str,
) -> tuple[LossReport, Gradients, Gradients]:
    """Generator-side objective and exact gradients for G and F.

    Both cycle directions contribute: X -> G -> F compared against x, and
    Y -> F -> G compared against y, each generator's output scored by the
    frozen discriminator (adversarial_term). The two directions run as two
    lanes (see _run_lanes); each network's gradient is the forward
    direction's plus the backward direction's.
    """
    xyx, yxy = _run_lanes(
        lambda: _cycle_direction(model.g, model.f, model.d_y, x_batch, cycle_weight, loss_form),
        lambda: _cycle_direction(model.f, model.g, model.d_x, y_batch, cycle_weight, loss_form),
    )
    adv_g, cycle_x, grads_g_fwd, grads_f_fwd = xyx
    adv_f, cycle_y, grads_f_bwd, grads_g_bwd = yxy
    cycle = cycle_x + cycle_y
    report = LossReport(
        adv_g=adv_g,
        adv_f=adv_f,
        disc_x=0.0,
        disc_y=0.0,
        cycle=cycle,
        total=adv_g + adv_f + cycle_weight * cycle,
    )
    grads_g_fwd += grads_g_bwd
    grads_f_fwd += grads_f_bwd
    return report, grads_g_fwd, grads_f_fwd


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def epoch_batches(rng: np.random.Generator, batch_frames: int, *frame_counts: int):
    """One epoch of mini-batches over one or more datasets.

    Draws one permutation per dataset from rng, in argument order, then
    yields, for each step, a tuple with the next slice of every
    permutation. The batch size is capped by the smallest dataset, and an
    epoch walks the smallest dataset once without replacement, so batch k
    of one dataset is paired with batch k of another purely by position.
    Also sets the training heap pad (net.keep_heap_top).
    """
    keep_heap_top()
    batch = min(batch_frames, *frame_counts)
    steps = min(frame_counts) // batch
    orders = [rng.permutation(n) for n in frame_counts]
    for k in range(steps):
        yield tuple(order[k * batch : (k + 1) * batch] for order in orders)


def fit(step, nets, config: TrainConfig, *frame_counts: int):
    """The epoch loop of every trainer, over datasets of the given frame
    counts. Each epoch draws epoch_batches from one seeded shuffle stream
    and calls step(nets, *indices) -> (nets, record) per batch, a record
    being a NamedTuple of float losses named as their losses.csv columns.
    Returns the last nets and, per epoch, a record of the step's type: np.mean
    of the stacked records, the steps summed in order, or pairwise for
    one-column records. A non-finite record or epoch mean raises
    NonFiniteError; one from a step or its record gets the step's 1-based
    "epoch E, step S: " in front. Steps and means run under _STEP_ERRSTATE.
    """
    if min(frame_counts) < 1:
        raise InsufficientDataError("every training dataset must be nonempty")
    shuffle_rng = derive_rng(config.seed, "train.shuffle")
    history = []
    with np.errstate(**_STEP_ERRSTATE):
        for epoch in range(1, config.epochs + 1):
            records = []
            batches = epoch_batches(shuffle_rng, config.batch_frames, *frame_counts)
            for k, indices in enumerate(batches, 1):
                with located(f"epoch {epoch}, step {k}", NonFiniteError):
                    nets, record = step(nets, *indices)
                    if not all(map(math.isfinite, record)):
                        raise NonFiniteError(f"non-finite losses: {record}")
                records.append(record)
            history.append(type(record)._make(np.mean(np.array(records), axis=0).tolist()))
            if not all(map(math.isfinite, history[-1])):
                raise NonFiniteError(f"non-finite mean losses of epoch {epoch}: {history[-1]}")
    return nets, history


def train_step(
    model: CycleGanModel,
    x_batch: np.ndarray,
    y_batch: np.ndarray,
    config: CycleGanConfig,
    state: TrainerState,
) -> tuple[CycleGanModel, LossReport]:
    """One alternating update: discriminators first, then both generators.

    Each phase runs as two lanes (see _run_lanes): its objective, then the
    two networks' Adam updates, which advance state in place.
    """
    disc_x_loss, disc_y_loss, grads_dx, grads_dy = discriminator_objective(
        model, x_batch, y_batch, config.loss_form
    )
    new_dx, new_dy = _run_lanes(
        lambda: apply_update(model.d_x, grads_dx, state.opt_dx),
        lambda: apply_update(model.d_y, grads_dy, state.opt_dy),
    )
    model = CycleGanModel(g=model.g, f=model.f, d_x=new_dx, d_y=new_dy)
    del grads_dx, grads_dy  # not held through the generator phase

    gen_report, grads_g, grads_f = generator_objective(
        model, x_batch, y_batch, config.cycle_weight, config.loss_form
    )
    new_g, new_f = _run_lanes(
        lambda: apply_update(model.g, grads_g, state.opt_g),
        lambda: apply_update(model.f, grads_f, state.opt_f),
    )
    model = CycleGanModel(g=new_g, f=new_f, d_x=model.d_x, d_y=model.d_y)

    report = gen_report._replace(disc_x=disc_x_loss, disc_y=disc_y_loss)
    return model, report


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

    Each step's second lane runs on a worker thread the run owns, or
    inline (see _lane_worker); the results are the same bytes either way.
    """
    if x_data.dim != model.feature_dim or y_data.dim != model.feature_dim:
        raise DimensionMismatchError(
            f"model expects width {model.feature_dim}, got {x_data.dim}/{y_data.dim}"
        )

    state = TrainerState.fresh(model, config)

    def step(model, x_idx, y_idx):
        return train_step(model, x_data.data[x_idx], y_data.data[y_idx], config, state)

    with _lane_worker():
        return fit(step, model, config, x_data.frames, y_data.frames)
