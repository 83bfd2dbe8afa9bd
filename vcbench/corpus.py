"""Workload inputs, made from the workload seed alone.

A plan lays every utterance of a workload end to end on one synthetic
corpus per speaker ("src", "tgt"). The corpora come from a
``cyclevc gen-synthetic`` spec built here; the utterances are then cut
out of them. Utterance lengths are stratified: each of n equal-width
length bands contributes one utterance near its centre, so every seed
sees the same length mix, up to a few frames, and only the content and
order change. That keeps the timings of different seeds comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

LOW_DIM = 25
MCEP_DIM = 49
STREAMS = ("mcep", "f0", "ap")


@dataclass(frozen=True)
class Cut:
    """Frames [start, start + frames) of one speaker's corpus."""

    name: str
    speaker: str
    start: int
    frames: int


@dataclass(frozen=True)
class Plan:
    """Named groups of cuts, laid out contiguously per speaker."""

    seed: int
    groups: dict[str, tuple[Cut, ...]]

    def corpus_frames(self, speaker: str) -> int:
        return sum(c.frames for cuts in self.groups.values() for c in cuts if c.speaker == speaker)

    def cuts(self) -> list[Cut]:
        return [c for cuts in self.groups.values() for c in cuts]


def layout(seed: int, groups: dict[str, list[tuple[str, int]]]) -> Plan:
    """Place (speaker, frames) items one after another on each corpus."""
    ends: dict[str, int] = {}
    placed = {}
    for group, items in groups.items():
        cuts = []
        for k, (speaker, frames) in enumerate(items):
            start = ends.get(speaker, 0)
            cuts.append(Cut(f"{group}_{k:02d}", speaker, start, int(frames)))
            ends[speaker] = start + int(frames)
        placed[group] = tuple(cuts)
    return Plan(seed, placed)


def band_points(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """One value near the centre of each of n equal-width bands of [lo, hi],
    ascending. The seed moves each by at most a twentieth of its band, so
    every seed gets nearly the same amount of work."""
    return lo + (hi - lo) * (np.arange(n) + 0.5 + 0.1 * (rng.random(n) - 0.5)) / n


def stratified_lengths(rng: np.random.Generator, n: int, lo: int, hi: int) -> list[int]:
    """band_points lengths in seeded order."""
    return np.rint(band_points(rng, n, lo, hi)).astype(int)[rng.permutation(n)].tolist()


def fixed_total_lengths(rng: np.random.Generator, n: int, total: int) -> list[int]:
    """n seeded lengths, each within a factor of three of the others, summing to total."""
    weights = 0.5 + rng.random(n)
    lengths = np.floor(weights / weights.sum() * total).astype(int)
    lengths[: total - int(lengths.sum())] += 1
    return lengths.tolist()


def spec_doc(plan: Plan) -> dict:
    """gen-synthetic spec: two 3-component speakers sized to hold every cut."""
    rng = np.random.default_rng([plan.seed, 1])
    speakers = []
    for name, shift, logf0_mean, logf0_std in (("src", -1.0, 4.7, 0.18), ("tgt", 1.0, 5.4, 0.12)):
        weights = 0.5 + rng.random(3)
        means = shift + 0.5 * rng.standard_normal((3, LOW_DIM))
        stds = 0.05 + 0.25 * rng.random((3, LOW_DIM))
        offset = 0.1 * float(rng.standard_normal())
        frames = plan.corpus_frames(name)
        if frames == 0:
            continue
        speakers.append({
            "name": name,
            "frames": frames,
            "mixture": {
                "weights": (weights / weights.sum()).tolist(),
                "means": means.tolist(),
                "stds": stds.tolist(),
            },
            "logf0_mean": logf0_mean + offset,
            "logf0_std": logf0_std,
            "voiced_fraction": 0.85,
        })
    return {"seed": plan.seed, "aperiodicity_dim": 5, "speakers": speakers}


def utterance_path(root: Path, cut: Cut, stream: str) -> Path:
    return Path(root) / f"{cut.name}.{stream}.ftr"


def cut_utterances(plan: Plan, corpus_dir: Path, out_dir: Path) -> None:
    """Write each cut's three streams, read from the generated corpora.

    Refuses, before writing anything, a cut that is empty or runs past the
    end of its speaker's corpus: a short slice would silently become a
    different (or empty) utterance.
    """
    from cyclevc.features import FeatureSequence, read_ftr, write_ftr

    corpora = {
        speaker: {s: read_ftr(Path(corpus_dir) / f"{speaker}.{s}.ftr") for s in STREAMS}
        for speaker in sorted({c.speaker for c in plan.cuts()})
    }
    for cut in plan.cuts():
        available = corpora[cut.speaker]["mcep"].frames
        if cut.frames < 1 or cut.start < 0 or cut.start + cut.frames > available:
            raise ValueError(
                f"refusing to cut {cut.name}: frames {cut.start}..{cut.start + cut.frames} "
                f"of a {available}-frame {cut.speaker} corpus"
            )
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    for cut in plan.cuts():
        for stream in STREAMS:
            seq = corpora[cut.speaker][stream]
            part = seq.data[cut.start : cut.start + cut.frames]
            write_ftr(utterance_path(out_dir, cut, stream), FeatureSequence(part, seq.kind))
