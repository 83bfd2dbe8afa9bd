"""The epoch loop all three trainers share (cyclegan.fit) and their shared
config base: each method's history is, per epoch, the mean of its steps'
loss records, as a record of the step's own type.

Every epoch here has 12 steps. From 8 steps on, np.mean over a 1-d array
sums pairwise and so can differ in the last bit from adding the steps in
order. fit adds the steps in order for multi-column records and takes
np.mean of one-column ones; the test checks that each trainer's data
shows that difference in some epoch, so a swapped mean rule fails it.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from cyclevc import baselines, cyclegan
from cyclevc.baselines import (
    GanBaselineConfig,
    GanLosses,
    MseBaselineConfig,
    MseLosses,
    ParallelTrainSet,
    train_gan_baseline,
    train_mse_baseline,
)
from cyclevc.cyclegan import CycleGanConfig, LossReport, build_model, train
from cyclevc.features import FeatureSequence

EPOCHS, STEPS, BATCH, DIM = 6, 12, 8, 4


def frames(seed: int, shift: float = 0.0) -> FeatureSequence:
    rng = np.random.default_rng(seed)
    return FeatureSequence(rng.normal(shift, 1.0, size=(STEPS * BATCH, DIM)))


def epochs_of(records: list) -> list[list]:
    assert len(records) == EPOCHS * STEPS
    return [records[k : k + STEPS] for k in range(0, len(records), STEPS)]


def sequential_mean(values) -> float:
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def assert_rules_differ_somewhere(columns: list[list[float]]) -> None:
    """Some epoch column's pairwise mean differs from its in-order mean."""
    assert any(float(np.mean(col)) != sequential_mean(col) for col in columns)


def run_cyclegan():
    config = CycleGanConfig(hidden_dims=(6,), batch_frames=BATCH, epochs=EPOCHS, seed=2)
    return train(build_model(DIM, config), frames(1), frames(2, 1.0), config)[-1]


def run_gan_parallel():
    config = GanBaselineConfig(
        mse_weight=0.7, hidden_dims=(6,), batch_frames=BATCH, epochs=EPOCHS, seed=3
    )
    return train_gan_baseline(ParallelTrainSet(frames(4), frames(5)), config)[-1]


def run_mse_parallel():
    config = MseBaselineConfig(hidden_dims=(6,), batch_frames=BATCH, epochs=EPOCHS, seed=4)
    return train_mse_baseline(ParallelTrainSet(frames(6), frames(7)), config)[-1]


#: Each method: the module whose fit its trainer calls, its record type,
#: and a short run that returns its history.
TRAINERS = {
    "cyclegan": (cyclegan, LossReport, run_cyclegan),
    "gan-parallel": (baselines, GanLosses, run_gan_parallel),
    "mse-parallel": (baselines, MseLosses, run_mse_parallel),
}


@pytest.mark.parametrize("method", TRAINERS)
def test_history_is_the_mean_of_each_epochs_step_records(monkeypatch, method):
    module, record_type, run = TRAINERS[method]
    records = []
    fit = module.fit

    def recording_fit(step, *args):
        def recorded_step(*step_args):
            nets, record = step(*step_args)
            records.append(record)
            return nets, record

        return fit(recorded_step, *args)

    monkeypatch.setattr(module, "fit", recording_fit)
    history = run()

    epochs = epochs_of(records)
    assert {type(r) for r in records} == {record_type}
    if record_type is MseLosses:
        expected = [MseLosses(float(np.mean([r.mse for r in epoch]))) for epoch in epochs]
    else:
        expected = [record_type(*map(sequential_mean, zip(*epoch))) for epoch in epochs]
    assert history == expected
    assert [type(h) for h in history] == [record_type] * EPOCHS
    assert_rules_differ_somewhere([list(col) for epoch in epochs for col in zip(*epoch)])


#: Every learning rate and loss weight, by config.
RATES_AND_WEIGHTS = [
    (CycleGanConfig, "lr_generator"),
    (CycleGanConfig, "lr_discriminator"),
    (CycleGanConfig, "cycle_weight"),
    (GanBaselineConfig, "lr_generator"),
    (GanBaselineConfig, "lr_discriminator"),
    (GanBaselineConfig, "mse_weight"),
    (MseBaselineConfig, "lr_generator"),
]


@pytest.mark.parametrize(
    "config_type, field", [case for case in RATES_AND_WEIGHTS if case[1].startswith("lr_")]
)
def test_every_learning_rate_must_be_positive(config_type, field):
    with pytest.raises(ValueError, match="learning rates must be > 0"):
        config_type(**{field: 0.0})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, True])
@pytest.mark.parametrize("config_type, field", RATES_AND_WEIGHTS)
def test_every_rate_and_weight_must_be_finite(config_type, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        config_type(**{field: value})


@pytest.mark.parametrize(
    "value, shown",
    [("0.1", "'0.1'"), (10**400, "100000000000000000...0000000000000000000")],
    ids=["string", "too-large-for-a-float"],
)
@pytest.mark.parametrize("config_type, field", RATES_AND_WEIGHTS)
def test_every_rate_and_weight_must_be_a_real_number(config_type, field, value, shown):
    """Refused with the field's name, not a bare TypeError or OverflowError."""
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {re.escape(shown)}$"):
        config_type(**{field: value})


@pytest.mark.parametrize(
    "config_type, field, message",
    [
        (CycleGanConfig, "cycle_weight", "cycle_weight must be >= 0"),
        (GanBaselineConfig, "mse_weight", "mse_weight must be >= 0"),
    ],
)
def test_negative_weights_are_refused(config_type, field, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        config_type(**{field: -0.5})


@pytest.mark.parametrize("config_type", [CycleGanConfig, GanBaselineConfig])
def test_unknown_loss_form_is_refused(config_type):
    with pytest.raises(ValueError, match=r"^unknown loss_form 'wgan'$"):
        config_type(loss_form="wgan")


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"hidden_dims": (4.9,)}, "hidden_dims[0] must be an integer, got 4.9"),
        ({"hidden_dims": (True,)}, "hidden_dims[0] must be an integer, got True"),
        ({"hidden_dims": (8, 0)}, "hidden_dims[1] must be >= 1, got 0"),
        ({"epochs": 1.5}, "epochs must be an integer, got 1.5"),
        ({"epochs": True}, "epochs must be an integer, got True"),
        ({"batch_frames": 2.5}, "batch_frames must be an integer, got 2.5"),
        ({"batch_frames": 0}, "batch_frames must be >= 1, got 0"),
        ({"seed": 0.5}, "seed must be an integer, got 0.5"),
        ({"seed": 2**63}, "seed must fit in a signed 64-bit integer, got 9223372036854775808"),
    ],
    ids=[
        "fractional-width", "bool-width", "zero-width", "fractional-epochs", "bool-epochs",
        "fractional-batch", "zero-batch", "fractional-seed", "seed-beyond-int64",
    ],
)
@pytest.mark.parametrize("config_type", [CycleGanConfig, GanBaselineConfig, MseBaselineConfig])
def test_every_integer_setting_is_checked(config_type, settings, message):
    """Before this check a fractional width trained int() of it, a bool
    width trained width 1, and fractional epochs or batch sizes failed in
    range() after the networks were built."""
    with pytest.raises(ValueError) as caught:
        config_type(**settings)
    assert str(caught.value) == message
