"""Input checks, one parametrized test per module: each case makes one
check refuse its input and asserts the error's type and its whole message."""

from __future__ import annotations

import re

import numpy as np
import pytest

from cyclevc import mlpg
from cyclevc.align import AlignmentPath
from cyclevc.cyclegan import CycleGanModel
from cyclevc.errors import DimensionMismatchError
from cyclevc.features import (
    FeatureKind,
    FeatureSequence,
    LogF0Stats,
    NormStats,
    denormalize,
    fit_logf0_stats,
    merge_mcep,
    split_mcep,
    transform_f0,
)
from cyclevc.net import backward, forward, init_mlp
from cyclevc.pipeline import MixtureSpec, save_model_bundle


def refuses(call, error: type[Exception], message: str) -> None:
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is error


@pytest.mark.parametrize("call, message", [
    (lambda: AlignmentPath((), 0.0).validate(1, 1), "empty alignment path"),
    (lambda: AlignmentPath(((0, 0), (1, 1)), 0.0).validate(3, 2),
     "path must end at (2, 1), ends at (1, 1)"),
], ids=["empty", "wrong-end"])
def test_align_refuses(call, message):
    refuses(call, ValueError, message)


def _model(g=(4, 3, 4), f=(4, 3, 4), d_x=(4, 3, 1), d_y=(4, 3, 1)) -> CycleGanModel:
    return CycleGanModel(*(init_mlp(dims, seed=0) for dims in (g, f, d_x, d_y)))


@pytest.mark.parametrize("call, message", [
    (lambda: _model(f=(5, 3, 5)),
     "generators must map the feature space onto itself with a shared width"),
    (lambda: _model(d_x=(3, 3, 1)), "discriminator input width must match generators"),
    (lambda: _model(d_y=(4, 3, 2)), "discriminators must output a single score"),
], ids=["generator-widths", "discriminator-input", "discriminator-outputs"])
def test_cyclegan_refuses(call, message):
    refuses(call, DimensionMismatchError, message)


def _sequence(width: int, kind: FeatureKind = FeatureKind.GENERIC) -> FeatureSequence:
    return FeatureSequence(np.ones((3, width)), kind)


@pytest.mark.parametrize("call, error, message", [
    (lambda: FeatureSequence(np.ones(3)), DimensionMismatchError,
     "feature data must be 2-D (frames x dims), got shape (3,)"),
    (lambda: LogF0Stats(mean=float("nan"), std=1.0, voiced_count=2), ValueError,
     "log-F0 stats must be finite"),
    (lambda: split_mcep(_sequence(25, FeatureKind.MCEP_LOW25)), DimensionMismatchError,
     "split_mcep expects MCEP49, got MCEP_LOW25"),
    (lambda: merge_mcep(_sequence(24, FeatureKind.MCEP_HIGH24),
                        _sequence(25, FeatureKind.MCEP_LOW25)), DimensionMismatchError,
     "merge_mcep expects (MCEP_LOW25, MCEP_HIGH24), got (MCEP_HIGH24, MCEP_LOW25)"),
    (lambda: denormalize(_sequence(3), NormStats(np.zeros(4), np.ones(4))),
     DimensionMismatchError, "sequence width 3 does not match stats width 4"),
    (lambda: fit_logf0_stats(_sequence(1)), DimensionMismatchError,
     "fit_logf0_stats expects a 1-dim F0 track"),
    (lambda: transform_f0(_sequence(1), *[LogF0Stats(5.0, 0.2, 2)] * 2), DimensionMismatchError,
     "transform_f0 expects a 1-dim F0 track"),
], ids=["1-d", "nan-log-f0-mean", "split-not-mcep49", "merge-kinds", "denormalize-width",
        "fit-not-f0", "transform-not-f0"])
def test_features_refuse(call, error, message):
    refuses(call, error, message)


def _overflowing_band():
    """Delta-delta precisions of 1e308 overflow the band, while means of
    1e-10 keep the right-hand side finite."""
    variances = np.ones(3)
    variances[2] = 1e-308
    with np.errstate(over="ignore", invalid="ignore"):
        mlpg.mlpg_generate(mlpg.GaussianTrajectory(np.full((6, 3), 1e-10), variances))


@pytest.mark.parametrize("call, error, message", [
    (lambda: mlpg.GaussianTrajectory(np.zeros(3), np.ones(3)), DimensionMismatchError,
     "means must be a T x (S*W) matrix"),
    (lambda: mlpg.GaussianTrajectory(np.zeros((2, 3)), np.ones(6)), DimensionMismatchError,
     "variances length 6 must equal means width 3"),
    (lambda: mlpg.GaussianTrajectory(np.full((2, 3), np.nan), np.ones(3)), ValueError,
     "means must be finite"),
    (_overflowing_band, ValueError, "array must not contain infs or NaNs"),
    (lambda: mlpg._address(np.zeros(3, dtype=np.float32), 3), ValueError,
     "LAPACK takes float64 arrays in C order, of the sizes it is given"),
], ids=["1-d-means", "variance-count", "nan-mean", "band-overflow", "float32"])
def test_mlpg_refuses(call, error, message):
    refuses(call, error, message)


_NET = init_mlp((4, 3, 2), seed=0)
_CACHE = forward(_NET, np.ones((5, 4)))[1]


@pytest.mark.parametrize("cache, gradient, message", [
    (_CACHE[:-1], np.ones((5, 2)), "cache holds 1 layers, net has 2"),
    ((_CACHE[0], _CACHE[1][:, :2], _CACHE[2]), np.ones((5, 2)),
     "cache activation 1 has width 2, net expects 3"),
    (_CACHE, np.ones((5, 3)), "output_gradient shape (5, 3) does not match output shape (5, 2)"),
], ids=["layer-count", "activation-width", "gradient-shape"])
def test_net_backward_refuses(cache, gradient, message):
    refuses(lambda: backward(_NET, cache, gradient), DimensionMismatchError, message)


@pytest.mark.parametrize("call, error, message", [
    (lambda: MixtureSpec(weights=[1.0], means=np.zeros((1, 24)), stds=np.ones((1, 25))),
     DimensionMismatchError, "means/stds must be 1 x 25, got (1, 24)/(1, 25)"),
    (lambda: save_model_bundle("unused", "vae", {}), ValueError, "unknown method 'vae'"),
], ids=["mixture-means", "unknown-method"])
def test_pipeline_refuses(call, error, message):
    refuses(call, error, message)
