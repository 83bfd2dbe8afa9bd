"""Tests for the two-lane training step: the lanes on a worker thread give
the same bytes as inline, the BLAS thread count is split between them and
comes back, they stay inline where they cannot gain or are not safe, and a
lane's error surfaces unchanged once both lanes are done."""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import threading
import time

import numpy as np
import pytest

from cyclevc import cyclegan, net
from cyclevc.cyclegan import CycleGanConfig, build_model, train
from cyclevc.errors import NonFiniteError
from cyclevc.features import FeatureSequence

requires_blas_control = pytest.mark.skipif(
    net._openblas_thread_control() is None, reason="no OpenBLAS thread control is loaded"
)


def blas_threads() -> int:
    get, _ = net._openblas_thread_control()
    return get()


def lane_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("cyclevc-lane")]


def on_worker(names: list[str]) -> bool:
    return any(name.startswith("cyclevc-lane") for name in names)


def problem(batch: int, loss_form: str, hidden=(128, 256, 256, 128), epochs: int = 2):
    """A config and data with one step per epoch at the given batch."""
    config = CycleGanConfig(
        batch_frames=batch, epochs=epochs, seed=11, loss_form=loss_form, hidden_dims=hidden
    )
    rng = np.random.default_rng(batch)
    x = FeatureSequence(rng.normal(size=(batch, 75)))
    y = FeatureSequence(rng.normal(size=(batch + 5, 75)))
    return config, x, y


def trained_digest(config, x, y) -> str:
    model, history = train(build_model(75, config), x, y, config)
    digest = hashlib.sha256()
    for network in (model.g, model.f, model.d_x, model.d_y):
        digest.update(network.params.tobytes())
    digest.update(repr(history).encode())
    return digest.hexdigest()


@pytest.fixture
def blas_at():
    """Sets the OpenBLAS thread count; the count found before comes back
    after the test."""
    get, set_ = net._openblas_thread_control()
    previous = get()
    yield set_
    set_(previous)


@pytest.fixture
def lane_names(monkeypatch):
    """The name of the thread each discriminator_gradients call runs on;
    D_X's runs in the calling thread's lane and D_Y's in the worker's."""
    names = []
    gradients = cyclegan.discriminator_gradients

    def spy(*args):
        names.append(threading.current_thread().name)
        return gradients(*args)

    monkeypatch.setattr(cyclegan, "discriminator_gradients", spy)
    return names


@requires_blas_control
@pytest.mark.parametrize("loss_form", ["lsgan", "log"])
@pytest.mark.parametrize("batch", [128, 2048])
def test_lanes_give_the_bytes_of_inline_lanes(monkeypatch, blas_at, lane_names, batch, loss_form):
    """Two steps at batch 128; one at 2048, which costs 16 times as much."""
    config, x, y = problem(batch, loss_form, epochs=2 if batch == 128 else 1)
    blas_at(2)
    with_lanes = trained_digest(config, x, y)
    assert on_worker(lane_names)

    lane_names.clear()
    blas_at(1)
    inline_one_thread = trained_digest(config, x, y)
    assert lane_names and not on_worker(lane_names)

    blas_at(2)
    with monkeypatch.context() as patch:
        patch.setattr(net, "_openblas_thread_control", lambda: None)
        lane_names.clear()
        no_blas_control = trained_digest(config, x, y)
        assert lane_names and not on_worker(lane_names)

    assert inline_one_thread == with_lanes
    assert no_blas_control == with_lanes


@requires_blas_control
def test_lanes_give_the_same_bytes_under_frequent_thread_switches(monkeypatch, blas_at):
    """A 10 us switch interval interleaves the lanes' Python code far more
    often than the default 5 ms; the lanes share no mutable state, so the
    bytes must not move."""
    config, x, y = problem(128, "log")
    blas_at(2)
    with monkeypatch.context() as patch:
        patch.setattr(net, "_openblas_thread_control", lambda: None)
        inline = trained_digest(config, x, y)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        switched = trained_digest(config, x, y)
    finally:
        sys.setswitchinterval(interval)
    assert switched == inline


@requires_blas_control
@pytest.mark.parametrize("count", [2, 3, 4])
def test_training_halves_the_blas_threads_and_restores_them(monkeypatch, blas_at, count):
    """Each lane gets half the threads one lane had, so two lanes use the
    cores the parent step used; a small net runs on the lanes too."""
    blas_at(count)
    during, names = [], []
    gradients = cyclegan.discriminator_gradients

    def spy(*args):
        during.append(blas_threads())
        names.append(threading.current_thread().name)
        return gradients(*args)

    monkeypatch.setattr(cyclegan, "discriminator_gradients", spy)
    config, x, y = problem(32, "lsgan", hidden=(16, 8))
    train(build_model(75, config), x, y, config)
    assert on_worker(names)
    assert during and set(during) == {count // 2}
    assert blas_threads() == count
    assert not lane_threads()


@requires_blas_control
@pytest.mark.parametrize("count", [2, 3, 4])
def test_overlapping_runs_give_the_bytes_of_lone_runs_and_restore_the_count(blas_at, count):
    """Two runs with different seeds, started together in two threads. The
    count is process-wide, so one run at a time owns the lanes and the
    count, and a run that overlaps it runs inline: whichever order the runs
    enter and exit in, the count from before comes back."""
    blas_at(count)
    config, x, y = problem(64, "lsgan", hidden=(64, 64), epochs=10)
    configs = [dataclasses.replace(config, seed=seed) for seed in (21, 22)]
    alone = [trained_digest(c, x, y) for c in configs]
    start, digests = threading.Barrier(2), {}

    def run(i):
        start.wait(timeout=60)
        digests[i] = trained_digest(configs[i], x, y)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert [digests.get(i) for i in range(2)] == alone
    assert blas_threads() == count
    assert not lane_threads()


@requires_blas_control
def test_a_run_that_overlaps_the_lane_owner_runs_inline_with_blas_untouched(
    monkeypatch, blas_at
):
    """The order is forced: A enters the lanes, B enters, A leaves, then B
    leaves. Had B halved the count A left at 2, it would restore 2 after A
    restored 4."""
    blas_at(4)
    config, x, y = problem(64, "lsgan", hidden=(64, 64), epochs=3)
    configs = {"A": dataclasses.replace(config, seed=21), "B": dataclasses.replace(config, seed=22)}
    alone = {name: trained_digest(c, x, y) for name, c in configs.items()}
    a_entered, b_entered = threading.Event(), threading.Event()
    threads, digests, seen = {}, {}, {}
    fit = cyclegan.fit

    def ordered_fit(*args):
        """Runs inside each run's _lane_worker, before its first step."""
        name = threading.current_thread().name
        if name == "A":
            a_entered.set()
            assert b_entered.wait(timeout=60)
        else:
            assert a_entered.wait(timeout=60)
            b_entered.set()
            threads["A"].join(timeout=120)  # A's lanes are gone, its count back
        seen[name] = (getattr(cyclegan._lanes, "pool", None) is not None, blas_threads())
        return fit(*args)

    def run(name):
        digests[name] = trained_digest(configs[name], x, y)

    monkeypatch.setattr(cyclegan, "fit", ordered_fit)
    threads.update((name, threading.Thread(target=run, args=(name,), name=name)) for name in "AB")
    threads["A"].start()
    # B starts once A is inside its lanes: started together, B could take
    # the lanes first.
    assert a_entered.wait(timeout=60)
    threads["B"].start()
    for thread in threads.values():
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads.values())
    assert digests == alone
    assert seen == {"A": (True, 2), "B": (False, 4)}
    assert blas_threads() == 4
    assert not lane_threads()


@requires_blas_control
def test_a_run_that_raises_hands_the_lanes_on(monkeypatch, blas_at, lane_names):
    """The owner lets go of the lanes once the count is back, also when the
    run raises, so the next run takes them."""
    blas_at(2)
    config, x, y = problem(32, "lsgan", hidden=(16, 8))

    def failing(*args):
        raise NonFiniteError("non-finite losses")

    with monkeypatch.context() as patch:
        patch.setattr(cyclegan, "train_step", failing)
        with pytest.raises(NonFiniteError):
            train(build_model(75, config), x, y, config)
    assert blas_threads() == 2
    train(build_model(75, config), x, y, config)
    assert on_worker(lane_names)


@requires_blas_control
def test_one_blas_thread_runs_the_lanes_inline_with_blas_untouched(blas_at, lane_names):
    blas_at(1)
    config, x, y = problem(32, "lsgan", hidden=(16, 8))
    train(build_model(75, config), x, y, config)
    assert lane_names and set(lane_names) == {threading.current_thread().name}
    assert blas_threads() == 1


@requires_blas_control
@pytest.mark.parametrize("wrapped", ["forward", "backward", "apply_update"])
def test_wrapped_network_functions_run_the_lanes_inline(monkeypatch, blas_at, wrapped):
    """A wrapper around a function both lanes call (as a tracer installs)
    may not be safe across threads, so every call stays on the caller."""
    blas_at(2)
    config, x, y = problem(32, "log", hidden=(16, 8))
    with_lanes = trained_digest(config, x, y)
    names = []
    inner = getattr(cyclegan, wrapped)

    def wrapper(*args, **kwargs):
        names.append(threading.current_thread().name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(cyclegan, wrapped, wrapper)
    assert trained_digest(config, x, y) == with_lanes
    assert names and set(names) == {threading.current_thread().name}
    assert blas_threads() == 2


@requires_blas_control
@pytest.mark.parametrize("failing_lane", ["worker", "caller"])
def test_a_lane_error_keeps_its_type_and_waits_for_the_other_lane(
    monkeypatch, blas_at, failing_lane
):
    """D_X's gradients are the calling thread's lane and D_Y's the
    worker's. The failing lane raises at once, while the other one still
    runs; the error leaves the step only after that."""
    blas_at(2)
    config, x, y = problem(128, "lsgan", epochs=1)
    model = build_model(75, config)
    failing, slow = (model.d_y, model.d_x) if failing_lane == "worker" else (model.d_x, model.d_y)
    events = []
    gradients = cyclegan.discriminator_gradients

    def flaky(disc, *args):
        if disc is failing:
            events.append(("raise", threading.current_thread().name))
            raise NonFiniteError("non-finite gradient in layer 2")
        if disc is slow:
            time.sleep(0.2)
            events.append(("finish", threading.current_thread().name))
        return gradients(disc, *args)

    step = cyclegan.train_step

    def watched(*args):
        try:
            return step(*args)
        except NonFiniteError:
            events.append(("leave the step", threading.current_thread().name))
            raise

    monkeypatch.setattr(cyclegan, "discriminator_gradients", flaky)
    monkeypatch.setattr(cyclegan, "train_step", watched)
    before = blas_threads()
    with pytest.raises(NonFiniteError, match=r"^epoch 1, step 1: non-finite gradient in layer 2$"):
        train(model, x, y, config)
    assert [kind for kind, _ in events] == ["raise", "finish", "leave the step"]
    worker_event = dict(events)["raise" if failing_lane == "worker" else "finish"]
    assert worker_event.startswith("cyclevc-lane")
    assert blas_threads() == before
    assert not lane_threads()
