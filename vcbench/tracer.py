"""Spans around calls into cyclevc's public functions, from outside.

cyclevc modules bind imported names at import time (``cyclegan`` holds its
own reference to ``net.forward``, ``pipeline`` to ``mlpg.mlpg_generate``,
and so on), so wrapping a function means replacing every module attribute
that refers to it. ``Tracer.installed`` does that for all loaded
``cyclevc`` modules and puts the originals back on exit.

A span is recorded only inside a root span (``Tracer.root``), so calls the
benchmark makes while checking outputs stay out of the trace. Spans live
in memory until ``write_spans`` is called at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(args, kwargs, _result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


#: Traced functions, each with the work count its calls record (or None).
TARGETS: dict[str, Callable | None] = {
    "cli.main": None,
    "pipeline.load_model_bundle": None,
    "pipeline.save_model_bundle": None,
    "pipeline.write_loss_csv": None,
    "pipeline.compute_speaker_stats": None,
    "pipeline.convert_utterance": None,
    "pipeline.prepare_parallel_frames": None,
    "pipeline.mel_cepstral_distortion": None,
    "cyclegan.train": None,
    "cyclegan.train_step": None,
    "cyclegan.discriminator_objective": None,
    "cyclegan.generator_objective": None,
    "baselines.train_gan_baseline": None,
    "baselines.gan_baseline_generator_objective": None,
    "net.forward": lambda a, k, r: len(_arg(a, k, 1, "batch")),
    "net.backward": None,
    "net.apply_update": None,
    "net.save_mlp": _file_bytes,
    "net.load_mlp": _file_bytes,
    "mlpg.mlpg_generate": lambda a, k, r: _arg(a, k, 0, "traj").frames,
    "mlpg.postfilter": None,
    "align.dtw_align": lambda a, k, r: _arg(a, k, 0, "a").frames * _arg(a, k, 1, "b").frames,
    "align.paired_frames": None,
    "features.compute_deltas": None,
    "features.normalize": None,
    "features.denormalize": None,
    "features.split_mcep": None,
    "features.merge_mcep": None,
    "features.transform_f0": None,
    "features.read_ftr": _file_bytes,
    "features.write_ftr": _file_bytes,
}

#: Name of the count each counted target records.
COUNT_NAMES = {
    "net.forward": "rows",
    "net.save_mlp": "bytes",
    "net.load_mlp": "bytes",
    "mlpg.mlpg_generate": "frames",
    "align.dtw_align": "cells",
    "features.read_ftr": "bytes",
    "features.write_ftr": "bytes",
}

STEP_SPAN = "cyclegan.train_step"


class Tracer:
    """Records spans as [name, start, end, parent index, op id, count]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._roots = 0

    def _wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1], self._op, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        wrapper.__vcbench_original__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Replace every binding of each target in the cyclevc modules."""
        wrappers = {}
        for name, count in TARGETS.items():
            mod_name, fn_name = name.rsplit(".", 1)
            fn = getattr(importlib.import_module(f"cyclevc.{mod_name}"), fn_name)
            wrappers[id(fn)] = self._wrap(name, fn, count)
        patched = []
        try:
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "cyclevc" and not mod_name.startswith("cyclevc."):
                    continue
                for attr, value in list(vars(mod).items()):
                    wrapper = wrappers.get(id(value))
                    if wrapper is not None and wrapper.__vcbench_original__ is value:
                        setattr(mod, attr, wrapper)
                        patched.append((mod, attr, value))
            yield self
        finally:
            for mod, attr, value in reversed(patched):
                setattr(mod, attr, value)

    @contextmanager
    def root(self, name: str):
        """Open a root span, numbered in order; target calls inside it are
        recorded under that number."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        span = [name, 0.0, 0.0, None, self._roots, None]
        self._op = self._roots
        self._roots += 1
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()
            self._op = None

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        selfs = own[:]
        for k, span in enumerate(self.spans):
            if span[3] is not None:
                selfs[span[3]] -= own[k]
        return selfs

    def step_ids(self) -> list[int | None]:
        """Index of the enclosing training-step span of each span, if any."""
        steps: list[int | None] = []
        for k, span in enumerate(self.spans):
            parent = span[3]
            inherited = steps[parent] if parent is not None else None
            steps.append(k if span[0] == STEP_SPAN else inherited)
        return steps

    def summary(self, roots: set[str], passes: int = 1) -> dict[str, float]:
        """Per-target calls, self seconds and counts per pass over the trees
        under the given root-span names, plus forwards and backwards per
        training step."""
        selfs = self.self_times()
        steps = self.step_ids()
        keep: list[bool] = []
        out = {}
        for name in TARGETS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            if name in COUNT_NAMES:
                out[f"{name}.{COUNT_NAMES[name]}"] = 0
        per_step = {"net.forward": 0, "net.backward": 0}
        step_spans = 0
        for k, (name, _, _, parent, _, count) in enumerate(self.spans):
            keep.append(name in roots if parent is None else keep[parent])
            if not keep[k] or parent is None:
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += selfs[k]
            if count is not None:
                out[f"{name}.{COUNT_NAMES[name]}"] += count
            if name == STEP_SPAN:
                step_spans += 1
            elif name in per_step and steps[k] is not None:
                per_step[name] += 1
        out = {key: value / passes for key, value in out.items()}
        out["cyclegan.forwards_per_step"] = per_step["net.forward"] / step_spans if step_spans else 0.0
        out["cyclegan.backwards_per_step"] = per_step["net.backward"] / step_spans if step_spans else 0.0
        return out

    def write_spans(self, path) -> None:
        """One JSON object per span; times are seconds from the first span."""
        if not self.spans:
            return
        t0 = self.spans[0][1]
        steps = self.step_ids()
        with open(path, "w", encoding="utf-8") as fh:
            for k, (name, start, end, parent, op_id, count) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": k, "name": name, "start": start - t0, "end": end - t0,
                    "parent": parent, "op": op_id, "step": steps[k], "count": count,
                }) + "\n")
