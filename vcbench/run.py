#!/usr/bin/env python3
"""Run one cyclevc benchmark workload and print its metrics.

    python3 vcbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. ``--workload all`` runs every
workload in turn, each in a fresh process. ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` the per-layer ones.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every figure by name with its unit, and the same figures plus the
run's provenance are written to ``.bench_work/results/``.

Set-up (interpreter start, ``import cyclevc``, corpus generation, speaker
stats and, for conversion workloads, a one-epoch model) runs in fresh
child processes, several times, and ``setup_s`` is their median.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: End-to-end metrics (--trace 0); each workload defines its operation.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "frames_per_s": "frames/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
}


@dataclass
class Record:
    kind: str
    seconds: float
    frames: int
    problems: list[str]


def limit_blas_threads() -> None:
    """Never run more BLAS threads than this process may use cores."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cores:
            os.environ[var] = str(cores)


def bootstrap() -> None:
    """Import cyclevc from this checkout's sources and vcbench as a package."""
    limit_blas_threads()
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != Path(here)]
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    import numpy as np
    import scipy

    from cyclevc.features import FeatureSequence

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "dtype": FeatureSequence(np.zeros((1, 1))).data.dtype.name,
        "seed": seed,
        "commit": git_commit(),
    }


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def measure_setup(workload: str, seed: int, run_dir: Path) -> tuple[list[float], bool]:
    """Wall time of each fresh set-up process, and whether all of them
    produced byte-identical files. Keeps the first set-up in setup0."""
    times, digests = [], []
    for k in range(SETUP_REPEATS):
        target = run_dir / f"setup{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--prepare", str(target)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        digests.append(tree_digest(target))
        if k:
            shutil.rmtree(target)
    return times, len(set(digests)) == 1


def execute(op, tracer=None) -> Record:
    """Time one operation (inside a root span when traced), then check it."""
    scope = tracer.root("bench.op") if tracer is not None else nullcontext()
    start = time.perf_counter()
    try:
        with scope:
            result = op.run()
    except Exception as exc:  # a crashing operation is a failed one
        return Record(op.kind, time.perf_counter() - start, op.frames,
                      [f"raised {type(exc).__name__}: {exc}"])
    seconds = time.perf_counter() - start
    try:
        problems = op.check(result)
    except Exception as exc:  # so is output the checker cannot even parse
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    return Record(op.kind, seconds, op.frames, problems)


def run_phase(workload, ctx, seconds: float | None = None, passes: int | None = None,
              tracer=None, probe=None) -> tuple[list[Record], int]:
    """Whole passes until the operations have taken ``seconds`` in total,
    or exactly ``passes`` of them. A speed probe, if given, is measured
    before each pass."""
    records: list[Record] = []
    done = 0
    while (done < passes) if passes is not None else (
            done == 0 or sum(r.seconds for r in records) < seconds):
        if probe is not None:
            probe.measure()
        for op in workload.pass_ops(ctx):
            records.append(execute(op, tracer))
        done += 1
    return records, done


def end_to_end(workload, ok: list[Record], setup_times: list[float],
               probe) -> tuple[dict[str, float], dict[str, float]]:
    """(metrics with timings at the probe's reference speed, raw metrics).
    Set-up runs in other processes before the probe, so it stays raw."""
    import numpy as np

    from vcbench.workloads import throughput

    latencies = [1e3 * r.seconds for r in ok if r.kind == workload.primary]
    raw = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "frames_per_s": throughput(ok),
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": float(np.percentile(latencies, 90)),
    }
    slowdown = probe.slowdown(workload.probe_kernels)
    scaled = dict(raw)
    scaled["frames_per_s"] *= slowdown
    scaled["op_ms_p50"] /= slowdown
    scaled["op_ms_p90"] /= slowdown
    return scaled, raw


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric (--trace 1) with its unit."""
    from vcbench.tracer import COUNT_NAMES, TARGETS

    units = {}
    for name in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        if name in COUNT_NAMES:
            units[f"{name}.{COUNT_NAMES[name]}"] = "B" if COUNT_NAMES[name] == "bytes" else "count"
    units.update({
        "cyclegan.forwards_per_step": "count",
        "cyclegan.backwards_per_step": "count",
        "setup.import_s": "s",
        "setup.pipeline.compute_speaker_stats.calls": "count",
        "setup.pipeline.compute_speaker_stats.self_s": "s",
        "trace.op_wall_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


def traced_run(workload, seed: int, seconds: float, run_dir: Path, import_s: float):
    """Set up in-process under the tracer; after one untraced warm-up pass,
    alternate traced and untraced passes until the operations have taken
    ``seconds``. Returns (all records, per-layer metrics per traced pass,
    tracer)."""
    from vcbench.tracer import Tracer
    from vcbench.workloads import Context

    tracer = Tracer()
    setup_dir = run_dir / "setup0"
    with tracer.installed(), tracer.root("bench.setup"):
        workload.prepare(seed, setup_dir)
    plan = workload.plan(seed)
    plain_ctx = Context(plan, setup_dir, run_dir / "out")
    traced_ctx = Context(plan, setup_dir, run_dir / "out")
    warm, _ = run_phase(workload, plain_ctx, passes=1)
    plain: list[Record] = []
    traced: list[Record] = []
    passes = 0
    while not passes or sum(r.seconds for r in plain + traced) < seconds:
        with tracer.installed():
            traced += run_phase(workload, traced_ctx, passes=1, tracer=tracer)[0]
        plain += run_phase(workload, plain_ctx, passes=1)[0]
        passes += 1
    wall_traced = sum(r.seconds for r in traced)
    metrics = tracer.summary({"bench.op"}, passes)
    at_setup = tracer.summary({"bench.setup"})
    for key in ("calls", "self_s"):
        metrics[f"setup.pipeline.compute_speaker_stats.{key}"] = at_setup[
            f"pipeline.compute_speaker_stats.{key}"]
    metrics["setup.import_s"] = import_s
    metrics["trace.op_wall_s"] = wall_traced / passes
    metrics["trace.overhead_ratio"] = wall_traced / sum(r.seconds for r in plain) - 1.0
    return warm + plain + traced, metrics, tracer


def layer_shares(metrics: dict[str, float]) -> dict[str, float]:
    """Share of the traced operation wall spent in each module's own code."""
    shares: dict[str, float] = {}
    for key, value in metrics.items():
        if key.endswith(".self_s") and not key.startswith("setup."):
            module = key.split(".", 1)[0]
            shares[module] = shares.get(module, 0.0) + value / metrics["trace.op_wall_s"]
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cyclevc" / "__init__.py").is_file():
        print(f"error: no cyclevc sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    bootstrap()
    start = time.perf_counter()
    import cyclevc  # noqa: F401  (timed: the import is part of set-up)
    import_s = time.perf_counter() - start

    from vcbench.probe import SpeedProbe
    from vcbench.workloads import WORKLOADS, Context

    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], cwd=ROOT).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.prepare:
        workload.prepare(args.seed, Path(args.prepare))
        return 0

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"run-{tag}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            records, metrics, tracer = traced_run(workload, args.seed, args.seconds, run_dir, import_s)
            tracer.write_spans(results / f"{tag}.spans.jsonl")
            units = per_layer_units()
            setup_agrees = True
        else:
            setup_times, setup_agrees = measure_setup(workload.name, args.seed, run_dir)
            ctx = Context(workload.plan(args.seed), run_dir / "setup0", run_dir / "out")
            probe = SpeedProbe()
            records, _ = run_phase(workload, ctx, args.seconds, probe=probe)
            ok = [r for r in records if not r.problems] or records
            metrics, raw_metrics = end_to_end(workload, ok, setup_times, probe)
            units = END_TO_END_UNITS
    except (RuntimeError, ValueError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"error: {workload.name} could not be set up: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for r in records if r.problems) + (0 if setup_agrees else 1)
    attempted = len(records) + 1
    prov = provenance(args.seed)
    print(f"vcbench {workload.name}: {workload.why}")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")
    print(f"operations: {len(records)} timed ({sum(r.kind == workload.primary for r in records)} "
          f"'{workload.primary}'), {attempted} attempted with set-up, {failed} failed; "
          f"failed_ops_ratio = {failed / attempted:.6g}")
    if not setup_agrees:
        print("  problem: repeated set-ups produced different files")
    for r in [r for r in records if r.problems][:5]:
        print(f"  problem in {r.kind}: {'; '.join(r.problems)}")
    named = {} if args.trace else workload.named_metrics(ok, ctx)
    for name, (value, unit) in named.items():
        print(f"  {name} = {value:.6g} {unit} (raw)")
    if not args.trace:
        print(f"  machine slowdown against the probe reference: "
              f"{probe.slowdown(workload.probe_kernels):.4g} ({', '.join(workload.probe_kernels)})")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if args.trace:
        shares = ", ".join(f"{m} {100 * s:.1f}%" for m, s in layer_shares(metrics).items())
        print(f"  self-time share of traced operations: {shares}")

    report = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov, "attempted": attempted, "failed": failed,
        "failed_ops_ratio": failed / attempted, "named": {k: v[0] for k, v in named.items()},
        "metrics": metrics, "problems": [r.problems for r in records if r.problems],
        "setup_times_s": None if args.trace else setup_times,
        "raw_metrics": None if args.trace else raw_metrics,
        "probe_medians_s": None if args.trace else probe.medians(),
        "operations": [(r.kind, r.seconds, r.frames, not r.problems) for r in records],
    }
    (results / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
