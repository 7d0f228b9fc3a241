"""Workload inputs, made from the seed with `pase.toygen` and cached on disk.

Generation runs in a child process before the measuring process starts a
job (`prepare`), so that its memory and warm state never reach a measured
figure. A corpus directory is complete once its `done.json` exists; every
later run with the same seed and sizes reuses it. Corpora of every seed are
kept; remove `.perfbench_work/` to free the space.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Sizes:
    name: str
    speakers: int
    train_per_speaker: int  # a multiple of batch_size / speakers: equal batches
    train_seconds: float
    probe_per_speaker: int
    probe_seconds: float
    batch_size: int
    rir_count: int
    rir_max_order: int
    contaminate_copies: int  # contaminated copies made of each train utterance


# The full workloads. rir_count and rir_max_order are TrainConfig's defaults.
FULL = Sizes("full", speakers=4, train_per_speaker=6, train_seconds=15.0,
             probe_per_speaker=12, probe_seconds=8.0, batch_size=8,
             rir_count=50, rir_max_order=20, contaminate_copies=4)
# The self-check: every code path and check of FULL, in seconds.
TINY = Sizes("tiny", speakers=2, train_per_speaker=2, train_seconds=3.0,
             probe_per_speaker=2, probe_seconds=3.0, batch_size=2,
             rir_count=2, rir_max_order=6, contaminate_copies=2)
SIZES = {sizes.name: sizes for sizes in (FULL, TINY)}


def _cached(root: str, key: dict, build) -> dict:
    done = os.path.join(root, "done.json")
    if os.path.exists(done):
        with open(done, encoding="utf-8") as fh:
            saved = json.load(fh)
        if saved.get("key") == key:
            return saved["paths"]
    shutil.rmtree(root, ignore_errors=True)
    os.makedirs(root)
    paths = build(root)
    with open(done + ".tmp", "w", encoding="utf-8") as fh:
        json.dump({"key": key, "paths": paths}, fh)
    os.replace(done + ".tmp", done)
    return paths


def train_corpus(work: str, seed: int, sizes: Sizes) -> dict:
    """Clean training speech (train.tsv) and the noise pool (noise.tsv)."""
    from pase.toygen import make_toy_corpus

    def build(root):
        return make_toy_corpus(root, seed=seed, n_speakers=sizes.speakers,
                               train_per_speaker=sizes.train_per_speaker,
                               probe_per_speaker=0, train_seconds=sizes.train_seconds)

    root = os.path.join(work, "corpora", f"train-seed{seed}-{sizes.name}")
    return _cached(root, {"seed": seed, **asdict(sizes)}, build)


def contaminate_manifest(work: str, seed: int, sizes: Sizes) -> dict:
    """The train corpus listed `contaminate_copies` times under distinct ids,
    as when several contaminated copies of a clean corpus are made."""
    paths = dict(train_corpus(work, seed, sizes))
    out = os.path.join(work, "corpora", f"train-seed{seed}-{sizes.name}",
                       f"contaminate-x{sizes.contaminate_copies}.tsv")
    if os.path.exists(out):
        paths["contaminate"] = out
        return paths
    with open(paths["train"], encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh
                if line.strip() and not line.startswith("#")]
    with open(out + ".tmp", "w", encoding="utf-8") as fh:
        for copy in range(sizes.contaminate_copies):
            for utt, spk, wav in rows:
                fh.write(f"{utt}_copy{copy}\t{spk}\t{wav}\n")
    os.replace(out + ".tmp", out)
    paths["contaminate"] = out
    return paths


def probe_corpus(work: str, seed: int, sizes: Sizes) -> dict:
    """The degraded probe set (probe.tsv) and a checkpoint to extract with.

    The checkpoint is one pretraining step on one utterance per speaker:
    extraction does the same work whatever the weights are, so a longer
    training run would only lengthen set-up.
    """
    from pase.config import TrainConfig
    from pase.toygen import make_toy_corpus
    from pase.trainer import pretrain

    def build(root):
        paths = make_toy_corpus(root, seed=seed, n_speakers=sizes.speakers,
                                train_per_speaker=1, probe_per_speaker=sizes.probe_per_speaker,
                                train_seconds=sizes.train_seconds,
                                probe_seconds=sizes.probe_seconds)
        cfg = TrainConfig(clean_manifest=paths["train"], noise_manifest=paths["noise"],
                          checkpoint_dir=os.path.join(root, "ckpt"),
                          batch_size=sizes.speakers, epochs=1, seed=seed,
                          rir_count=TINY.rir_count, rir_max_order=TINY.rir_max_order)
        paths["checkpoint"] = pretrain(cfg)
        for name in os.listdir(cfg.checkpoint_dir):
            if not name.startswith("final"):
                os.remove(os.path.join(cfg.checkpoint_dir, name))
        return paths

    root = os.path.join(work, "corpora", f"probe-seed{seed}-{sizes.name}")
    return _cached(root, {"seed": seed, **asdict(sizes)}, build)


def prepare(workload: str, seed: int, sizes: Sizes, work: str) -> dict:
    """Make (or find) every input of one workload."""
    build = {"pretrain-b8": train_corpus, "extract-probe": probe_corpus,
             "contaminate-all": contaminate_manifest}[workload]
    return build(work, seed, sizes)
