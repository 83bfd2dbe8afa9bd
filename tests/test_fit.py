"""The epoch loop all three trainers share (cyclegan.fit) and their shared
config base: each method's per-epoch losses are the mean its own loop
used to take, bit for bit.

Every epoch here has 12 steps. From 8 steps on, np.mean over a 1-d array
sums pairwise and so can differ in the last bit from adding the steps in
order; each test checks that its data shows that difference in some epoch,
so a swapped mean rule fails it.
"""

from __future__ import annotations

from dataclasses import astuple, fields

import numpy as np
import pytest

from cyclevc import baselines, cyclegan
from cyclevc.baselines import (
    GAN_LOSS_COLUMNS,
    GanBaselineConfig,
    MseBaselineConfig,
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


def spy(monkeypatch, module, name: str, seen: list, pick):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        out = original(*args, **kwargs)
        seen.append(pick(out))
        return out

    monkeypatch.setattr(module, name, wrapper)


def test_cyclegan_mean_adds_the_steps_in_order(monkeypatch):
    reports = []
    spy(monkeypatch, cyclegan, "train_step", reports, lambda out: out[2])
    config = CycleGanConfig(hidden_dims=(6,), batch_frames=BATCH, epochs=EPOCHS, seed=2)
    _, history = train(build_model(DIM, config), frames(1), frames(2, 1.0), config)

    names = [f.name for f in fields(LossReport)]
    expected = [
        LossReport(*(sequential_mean([getattr(r, n) for r in epoch]) for n in names))
        for epoch in epochs_of(reports)
    ]
    assert history == expected
    assert_rules_differ_somewhere(
        [[getattr(r, n) for r in epoch] for epoch in epochs_of(reports) for n in names]
    )


def test_gan_parallel_mean_adds_the_steps_in_order(monkeypatch):
    disc, gen = [], []
    spy(monkeypatch, baselines, "discriminator_gradients", disc, lambda out: out[0])
    spy(monkeypatch, baselines, "gan_baseline_generator_objective", gen, lambda out: out[:2])
    config = GanBaselineConfig(
        mse_weight=0.7, hidden_dims=(6,), batch_frames=BATCH, epochs=EPOCHS, seed=3
    )
    _, _, history = train_gan_baseline(ParallelTrainSet(frames(4), frames(5)), config)

    rows = [(d, adv, mse, adv + 0.7 * mse) for d, (adv, mse) in zip(disc, gen)]
    expected = [
        dict(zip(GAN_LOSS_COLUMNS, (sequential_mean(col) for col in zip(*epoch))))
        for epoch in epochs_of(rows)
    ]
    assert history == expected
    assert_rules_differ_somewhere([list(col) for epoch in epochs_of(rows) for col in zip(*epoch)])


def test_mse_parallel_mean_is_numpys(monkeypatch):
    losses = []
    spy(monkeypatch, baselines, "mse_loss", losses, lambda out: out)
    config = MseBaselineConfig(hidden_dims=(6,), batch_frames=BATCH, epochs=EPOCHS, seed=4)
    _, history = train_mse_baseline(ParallelTrainSet(frames(6), frames(7)), config)

    assert history == [float(np.mean(epoch)) for epoch in epochs_of(losses)]
    assert_rules_differ_somewhere(epochs_of(losses))


@pytest.mark.parametrize(
    "config_type, field",
    [
        (CycleGanConfig, "lr_generator"),
        (CycleGanConfig, "lr_discriminator"),
        (GanBaselineConfig, "lr_generator"),
        (GanBaselineConfig, "lr_discriminator"),
        (MseBaselineConfig, "lr_generator"),
    ],
)
def test_every_learning_rate_must_be_positive(config_type, field):
    with pytest.raises(ValueError, match="learning rates must be > 0"):
        config_type(**{field: 0.0})
