"""Working-set guards: the heap that one conversion and one training step
allocate at their peak, as tracemalloc counts it. numpy reports each array
buffer to tracemalloc, so the counts are the same on every run."""

from __future__ import annotations

import tracemalloc

import numpy as np

from cyclevc.cyclegan import (
    CycleGanConfig,
    TrainerState,
    build_model,
    discriminator_gradients,
    train_step,
)
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


def stage_peaks(call) -> dict:
    """Bytes allocated at each stage's peak during call(trace), beyond what
    was allocated when the stage began, by the stage labels trace gets."""
    peaks, stage = {}, [None]

    def trace(label):
        """Ends the running stage: its peak, beyond what was allocated at the start."""
        peaks[stage[0]] = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        stage[0] = label

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(trace)
        trace(None)
    finally:
        tracemalloc.stop()
    return peaks


def default_conversion(frames: int):
    """convert(trace=None): one convert_utterance of a synthetic utterance
    of frames frames through the default-size generator."""
    rng = np.random.default_rng(0)
    mcep = FeatureSequence(rng.normal(size=(frames, 49)), FeatureKind.MCEP49)
    f0 = FeatureSequence(np.full((frames, 1), 150.0), FeatureKind.F0)
    ap = FeatureSequence(rng.random((frames, 5)), FeatureKind.APERIODICITY)
    stats = compute_speaker_stats([mcep], [f0])
    net = init_mlp((75, 128, 256, 256, 128, 75), seed=3)

    def convert(trace=None):
        convert_utterance(lambda batch: forward(net, batch)[0], stats, stats, mcep, f0, ap,
                          trace=trace)

    return convert


def test_a_long_conversion_holds_one_generator_block_of_activations():
    """T=2000 at the default generator: 6.3 MB, the generator stage's peak,
    with the generator on four row blocks of 500 and the static+delta
    features dropped before it; 7.4 MB on three blocks of 666 or 667, 8.6 MB
    when the features stayed alive too, 16.7 MB when the forward cached
    every layer's activations for all 2,000 frames. The mlpg stage peaks at
    6.1 MB with their normalized copy dropped after the generator and the
    target speaker's band factor kept from the warm-up; 8.2 MB when both
    stayed alive and each call factored its own band."""
    convert = default_conversion(2000)
    convert()  # binds LAPACK, sets the heap pad and keeps the band factor
    assert traced_peak(convert) < 8 * MB
    assert stage_peaks(convert)["mlpg"] < 7 * MB


def test_no_generator_block_is_over_512_rows():
    """T=1018 at the default generator: the generator stage peaks at 4.8 MB
    on two blocks of 509 rows, 8.0 MB on one block of all 1,018 rows (more
    than three blocks of a 2,000-frame utterance take)."""
    convert = default_conversion(1018)
    convert()
    assert stage_peaks(convert)["generator"] < 6 * MB


def test_a_training_step_frees_each_phase_s_gradients():
    """One default-size cyclegan step after a warm-up step: 9.7 MB with the
    gradients summed in place and the discriminator gradients dropped before
    the generator phase, 11.9 MB when both were kept and each sum was a new
    vector. The step's peak lies outside the discriminator phase; each
    discriminator holds one forward cache at a time, as the next test checks."""
    config = CycleGanConfig()
    model = build_model(75, config)
    state = TrainerState.fresh(model, config)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(config.batch_frames, 75))
    y = rng.normal(size=(config.batch_frames, 75))
    model = train_step(model, x, y, config, state)[0]  # warm-up; the second step is measured
    assert traced_peak(lambda: train_step(model, x, y, config, state)) < 10.5 * MB


def test_a_discriminator_holds_one_forward_cache_at_a_time():
    """One default-size discriminator_gradients call: 3.6 MB with the real
    batch scored and backpropagated before the fake batch's forward, 4.4 MB
    when both batches' forward caches were alive at once."""
    config = CycleGanConfig()
    model = build_model(75, config)
    rng = np.random.default_rng(0)
    real = rng.normal(size=(config.batch_frames, 75))
    fake = forward(model.g, real)[0]

    def gradients():
        discriminator_gradients(model.d_y, real, fake, config.loss_form)

    gradients()
    assert traced_peak(gradients) < 4 * MB
