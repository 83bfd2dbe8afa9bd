"""Tests of the benchmark harness itself, on tiny versions of its workloads.

Run with ``PYTHONPATH=src python -m pytest -q vcbench/tests``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT / "src"), str(ROOT)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import cyclevc.pipeline  # noqa: E402
from vcbench import checks, run  # noqa: E402
from vcbench.corpus import Cut, Plan, cut_utterances, layout, spec_doc  # noqa: E402
from vcbench.tracer import Tracer  # noqa: E402
from vcbench.workloads import (  # noqa: E402
    WORKLOADS,
    Context,
    ConvertBatch,
    ConvertCli,
    Op,
    TrainCycleGan,
)


class TinyTrain(TrainCycleGan):
    FILES = 2
    FRAMES = 300


class TinyBatch(ConvertBatch):
    UTTERANCES = 3
    TRAIN_FRAMES = 256
    MIN_FRAMES, MAX_FRAMES = 20, 60


class TinyCli(ConvertCli):
    UTTERANCES = 2
    TRAIN_FRAMES = 256
    MIN_FRAMES, MAX_FRAMES = 20, 60


def installed_wrappers() -> list[str]:
    """Module attributes of cyclevc that currently hold a tracer wrapper."""
    return [
        f"{mod_name}.{attr}"
        for mod_name, mod in list(sys.modules.items())
        if mod_name == "cyclevc" or mod_name.startswith("cyclevc.")
        for attr, value in vars(mod).items()
        if hasattr(value, "__vcbench_original__")
    ]


@pytest.fixture(scope="module")
def batch_setup(tmp_path_factory):
    workload = TinyBatch()
    setup_dir = tmp_path_factory.mktemp("batch") / "setup"
    workload.prepare(7, setup_dir)
    return workload, setup_dir


def _context(workload, setup_dir, tmp_path):
    return Context(workload.plan(7), setup_dir, tmp_path / "out")


def test_generator_is_byte_deterministic_per_seed(tmp_path):
    workload = TinyTrain()
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        workload.prepare(seed, tmp_path / name)
    assert run.tree_digest(tmp_path / "a") == run.tree_digest(tmp_path / "b")
    assert run.tree_digest(tmp_path / "a") != run.tree_digest(tmp_path / "c")
    assert json.dumps(spec_doc(workload.plan(3))) != json.dumps(spec_doc(workload.plan(4)))


def test_generator_refuses_cuts_past_the_corpus(tmp_path):
    plan = layout(1, {"train_src": [("src", 50)]})
    cyclevc.cli.main(["gen-synthetic", "--spec", str(_write_spec(plan, tmp_path)),
                      "--out-dir", str(tmp_path / "corpus")])
    overlong = Plan(1, {"utts": (Cut("utts_00", "src", 30, 21),)})
    with pytest.raises(ValueError, match="refusing to cut"):
        cut_utterances(overlong, tmp_path / "corpus", tmp_path / "utts")
    assert not (tmp_path / "utts").exists()


def _write_spec(plan, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_doc(plan)), encoding="utf-8")
    return path


def test_untraced_run_installs_no_wrappers(batch_setup, tmp_path):
    workload, setup_dir = batch_setup
    seen = []

    class Probed(TinyBatch):
        def pass_ops(self, ctx):
            probe = Op("probe", 0, lambda: seen.append(installed_wrappers()), lambda _: [])
            return super().pass_ops(ctx) + [probe]

    records, _ = run.run_phase(Probed(), _context(workload, setup_dir, tmp_path), passes=1)
    assert not any(r.problems for r in records)
    assert seen == [[]]

    tracer = Tracer()
    with tracer.installed():
        run.run_phase(Probed(), _context(workload, setup_dir, tmp_path), passes=1, tracer=tracer)
    assert "cyclevc.cli.forward" in seen[1] and "cyclevc.pipeline.mlpg_generate" in seen[1]
    assert installed_wrappers() == []


def test_self_times_of_a_call_tree_sum_to_its_wall(batch_setup, tmp_path):
    workload, setup_dir = batch_setup
    tracer = Tracer()
    with tracer.installed():
        records, _ = run.run_phase(workload, _context(workload, setup_dir, tmp_path),
                                   passes=1, tracer=tracer)
    assert not any(r.problems for r in records)
    selfs = tracer.self_times()
    root_of = []
    for k, span in enumerate(tracer.spans):
        root_of.append(k if span[3] is None else root_of[span[3]])
    for k, span in enumerate(tracer.spans):
        if span[3] is None:
            tree = sum(s for s, r in zip(selfs, root_of) if r == k)
            assert math.isclose(tree, span[2] - span[1], rel_tol=1e-9, abs_tol=1e-12)
    summary = tracer.summary({"bench.op"})
    assert summary["pipeline.convert_utterance.calls"] == TinyBatch.UTTERANCES
    assert summary["mlpg.mlpg_generate.frames"] == sum(
        c.frames for c in workload.plan(7).groups["utts"])
    assert summary["net.load_mlp.calls"] == 4


def test_forward_and_backward_counts_per_training_step(tmp_path):
    workload = TinyTrain()
    workload.prepare(5, tmp_path / "setup")
    tracer = Tracer()
    with tracer.installed():
        records, _ = run.run_phase(workload, Context(workload.plan(5), tmp_path / "setup",
                                                     tmp_path / "out"), passes=1, tracer=tracer)
    assert not any(r.problems for r in records)
    summary = tracer.summary({"bench.op"})
    assert summary["cyclegan.train_step.calls"] == TinyTrain.EPOCHS * 2
    assert summary["cyclegan.forwards_per_step"] == 12
    assert summary["cyclegan.backwards_per_step"] == 10


def test_planted_wrong_conversion_is_a_failed_operation(batch_setup, tmp_path, monkeypatch):
    workload, setup_dir = batch_setup
    honest = cyclevc.pipeline.convert_utterance

    def perturbed(**kwargs):
        result = honest(**kwargs)
        result.mcep.data[:, 3] += 1e-6
        return result

    monkeypatch.setattr(cyclevc.pipeline, "convert_utterance", perturbed)
    records, _ = run.run_phase(workload, _context(workload, setup_dir, tmp_path), passes=1)
    failed = [r for r in records if r.problems]
    # Only the utterances checked against the dense reference can see a
    # perturbation of the converted columns.
    assert len(failed) == TinyBatch.REFERENCE_CHECKS
    assert all("dense reference" in p for r in failed for p in r.problems)


def test_planted_copied_stream_change_is_a_failed_operation(batch_setup, tmp_path, monkeypatch):
    workload, setup_dir = batch_setup
    honest = cyclevc.pipeline.convert_utterance

    def perturbed(**kwargs):
        result = honest(**kwargs)
        result.mcep.data[:, 40] += 1.0
        return result

    monkeypatch.setattr(cyclevc.pipeline, "convert_utterance", perturbed)
    records, _ = run.run_phase(workload, _context(workload, setup_dir, tmp_path), passes=1)
    assert sum(1 for r in records if r.problems) == TinyBatch.UTTERANCES


def test_cli_failure_exit_code_is_a_failed_operation(tmp_path):
    workload = TinyCli()
    workload.prepare(7, tmp_path / "setup")
    ctx = Context(workload.plan(7), tmp_path / "setup", tmp_path / "out")
    (tmp_path / "setup" / "utts" / f"{ctx.plan.groups['utts'][0].name}.f0.ftr").write_bytes(b"")
    records, _ = run.run_phase(workload, ctx, passes=1)
    assert [bool(r.problems) for r in records] == [True, False]
    assert "exit code 1" in records[0].problems[0]


def test_alignment_check_rejects_wrong_paths_costs_and_mcd():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(4, 25)), rng.normal(size=(3, 25))
    pairs = np.array([(0, 0), (1, 1), (2, 1), (3, 2)])
    diff = a[pairs[:, 0]] - b[pairs[:, 1]]
    cost = float(np.sum(diff**2))
    mcd = float(np.mean(checks.MCD_CONST * np.sqrt(2 * np.sum(diff[:, 1:] ** 2, axis=1))))
    assert checks.alignment_problems(a, b, pairs, cost, mcd) == []
    assert checks.alignment_problems(a, b, pairs, cost * (1 + 1e-6), mcd)
    assert checks.alignment_problems(a, b, pairs, cost, mcd + 1e-6)
    skipping = np.array([(0, 0), (2, 1), (3, 2)])
    assert checks.alignment_problems(a, b, skipping, cost, mcd)


def test_benchmark_json_matches_the_harness():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.per_layer_units()
