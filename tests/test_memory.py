"""Working-set guards: the heap that one conversion and one training step
allocate at their peak, as tracemalloc counts it. numpy reports each array
buffer to tracemalloc, so the counts are the same on every run."""

from __future__ import annotations

import tracemalloc

import numpy as np

from cyclevc.cyclegan import CycleGanConfig, TrainerState, build_model, train_step
from cyclevc.features import FeatureKind, FeatureSequence
from cyclevc.net import forward, init_mlp
from cyclevc.pipeline import compute_speaker_stats, convert_utterance

MB = 1e6


def traced_peak(call) -> int:
    """Bytes allocated at call's peak, beyond what was allocated when it began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_a_long_conversion_holds_one_generator_block_of_activations():
    """T=2000 at the default generator: 8.6 MB in row blocks, 16.7 MB when
    the forward cached every layer's activations for all 2,000 frames."""
    rng = np.random.default_rng(0)
    mcep = FeatureSequence(rng.normal(size=(2000, 49)), FeatureKind.MCEP49)
    f0 = FeatureSequence(np.full((2000, 1), 150.0), FeatureKind.F0)
    ap = FeatureSequence(rng.random((2000, 5)), FeatureKind.APERIODICITY)
    stats = compute_speaker_stats([mcep], [f0])
    net = init_mlp((75, 128, 256, 256, 128, 75), seed=3)

    def convert():
        convert_utterance(lambda batch: forward(net, batch)[0], stats, stats, mcep, f0, ap)

    convert()  # binds LAPACK and sets the heap pad
    assert traced_peak(convert) < 12 * MB


def test_a_training_step_frees_each_phase_s_gradients():
    """One default-size cyclegan step after a warm-up step: 9.7 MB with the
    gradients summed in place and the discriminator gradients dropped before
    the generator phase, 11.9 MB when both were kept and each sum was a new vector."""
    config = CycleGanConfig()
    model = build_model(75, config)
    state = TrainerState.fresh(model, config)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(config.batch_frames, 75))
    y = rng.normal(size=(config.batch_frames, 75))
    model = train_step(model, x, y, config, state)[0]  # warm-up; the second step is measured
    assert traced_peak(lambda: train_step(model, x, y, config, state)) < 10.5 * MB
