"""Network passes per training step, counted on the names the trainers
call: a gan-parallel step shares one generator forward between its two
phases, and the backwards whose input gradient nobody reads skip it."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from cyclevc import baselines, cyclegan
from cyclevc.baselines import GanBaselineConfig, ParallelTrainSet, train_gan_baseline
from cyclevc.cyclegan import CycleGanConfig, build_model, train
from cyclevc.features import FeatureSequence

BATCH, DIM = 16, 4


def frames(seed: int) -> FeatureSequence:
    return FeatureSequence(np.random.default_rng(seed).normal(size=(BATCH, DIM)))


@pytest.fixture
def passes(monkeypatch):
    """Counts of forward, backward and input-gradient-free backward calls
    made through the names baselines and cyclegan bind. A replaced name
    makes cyclegan run its two lanes inline, so one counter sees both."""
    counts = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            if kwargs.get("input_grad") is False:
                counts["backward without input gradient"] += 1
            return fn(*args, **kwargs)

        return call

    for module in (baselines, cyclegan):
        for name in ("forward", "backward"):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return counts


def test_a_gan_parallel_step_makes_four_forwards_and_four_backwards(passes):
    config = GanBaselineConfig(epochs=1, hidden_dims=(5,), batch_frames=BATCH)
    train_gan_baseline(ParallelTrainSet(frames(1), frames(2)), config)
    assert passes == {"forward": 4, "backward": 4, "backward without input gradient": 3}


def test_a_cyclegan_step_makes_twelve_forwards_and_ten_backwards(passes):
    config = CycleGanConfig(epochs=1, hidden_dims=(5,), batch_frames=BATCH)
    train(build_model(DIM, config), frames(3), frames(4), config)
    assert passes == {"forward": 12, "backward": 10, "backward without input gradient": 6}
