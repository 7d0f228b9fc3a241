"""Training loop, frozen-feature extraction, linear probing, and batch
contamination. Everything is driven by one seeded Generator, so a (config,
seed) pair reproduces checkpoints and loss curves bit for bit.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import workers as W
from .audio_io import (
    CHUNK_SECONDS,
    Chunk,
    Waveform,
    chunk_samples,
    draw_chunk,
    load_manifest,
    read_wav,
    write_wav,
)
from .autodiff import Tensor
from .checkpoint import ADAM_PREFIX, STATS_PREFIX, load_checkpoint, save_checkpoint
from .config import TrainConfig
from .distortion import DistortionConfig, _check_pools, contaminate
from .encoder import Encoder, EncoderConfig, FrozenEncoder
from .errors import (
    ConfigError,
    DegenerateSplit,
    EmptyCorpus,
    MalformedContainer,
    NonFiniteGradient,
    NonFiniteLoss,
    SampleRateMismatch,
)
from .features import HOP_SECONDS, SAMPLE_RATE, require_rate, write_pfea
from .files import write_file
from .optim import Adam, PolySchedule
from .rir import default_rir_pool

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CorpusEntry:
    utterance_id: str
    speaker_id: str
    wave: Waveform


def load_corpus(manifest_path: str, role: str, sample_rate: int) -> list[CorpusEntry]:
    """The manifest's utterances, each of which must be at `sample_rate`;
    `role` names the corpus in the error."""
    entries = []
    for row in load_manifest(manifest_path):
        wave = read_wav(row.path)
        if wave.sample_rate != sample_rate:
            raise SampleRateMismatch(
                f"{row.path}: {wave.sample_rate} Hz in the {role} manifest; the trainer "
                f"only accepts {sample_rate} Hz input (resampling is out of scope)"
            )
        entries.append(CorpusEntry(row.utterance_id, row.speaker_id, wave))
    return entries


@dataclass
class Model:
    encoder: Encoder
    workers: W.WorkerSet
    standardizer: W.TargetStandardizer
    encoder_cfg: EncoderConfig

    def parameters(self):
        return self.encoder.parameters() + self.workers.parameters()

    def arrays(self) -> dict[str, np.ndarray]:
        out = {p.name: p.data for p in self.parameters()}
        out.update(self.encoder.buffers())
        return out


def build_model(enc_cfg: EncoderConfig, rng: np.random.Generator) -> Model:
    encoder = Encoder(enc_cfg, rng)
    workers = W.WorkerSet(enc_cfg.embedding_dim, rng)
    return Model(encoder, workers, W.TargetStandardizer(), enc_cfg)


def model_meta(model: Model) -> dict[str, str]:
    meta = model.encoder_cfg.to_meta()
    meta["workers"] = ",".join(s.name for s in model.workers.roster)
    meta["hop_seconds"] = str(HOP_SECONDS)
    return meta


def save_model(path: str, model: Model, extra_meta: dict | None = None,
               adam: Adam | None = None) -> None:
    arrays = model.arrays()
    if model.standardizer.mean:
        arrays.update(model.standardizer.state())
    if adam is not None:
        arrays[f"{ADAM_PREFIX}step"] = np.asarray([adam.step_count], dtype=np.float32)
        for name, m in adam.m.items():
            arrays[f"{ADAM_PREFIX}m/{name}"] = m
        for name, v in adam.v.items():
            arrays[f"{ADAM_PREFIX}v/{name}"] = v
    meta = model_meta(model)
    if extra_meta:
        meta.update({k: str(v) for k, v in extra_meta.items()})
    save_checkpoint(path, arrays, meta)


class _NoDraws:
    """Stands in for `build_model`'s Generator when every array is
    overwritten next: each draw is zeros, so none costs a random number."""

    @staticmethod
    def standard_normal(shape) -> np.ndarray:
        return np.zeros(shape)


def load_model(path: str) -> tuple[Model, dict[str, str]]:
    arrays, meta = load_checkpoint(path)
    try:
        enc_cfg = EncoderConfig.from_meta(meta)
    except ConfigError as exc:
        raise MalformedContainer(f"{path}: {exc}") from None
    model = build_model(enc_cfg, _NoDraws())
    for name, array in model.arrays().items():  # copied in, so none is a view of the file
        stored = arrays.get(name)
        if stored is None:
            raise MalformedContainer(f"{path}: missing array {name}")
        if stored.shape != array.shape:
            raise MalformedContainer(f"{path}: {name} has shape {stored.shape}, not {array.shape}")
        array[...] = stored
    if any(k.startswith(STATS_PREFIX) for k in arrays):
        try:
            model.standardizer.load_state(arrays)
        except KeyError as exc:
            raise MalformedContainer(f"{path}: missing statistics record {exc.args[0]}") from None
    return model, meta


# --- pretraining -----------------------------------------------------------------


def _stats_chunks(corpus: list[CorpusEntry], per_utt: int, sample_rate: int) -> list[np.ndarray]:
    """Deterministic chunk picks (evenly spaced offsets) for target statistics."""
    want = chunk_samples(sample_rate)
    out = []
    for entry in corpus:
        n = len(entry.wave)
        for j in range(per_utt):
            if n <= want:
                padded = np.zeros(want, dtype=np.float32)
                padded[:n] = entry.wave.samples
                out.append(padded)
                break
            offset = (n - want) * j // max(1, per_utt - 1) if per_utt > 1 else 0
            out.append(np.array(entry.wave.samples[offset : offset + want]))
    return out


def _epoch_batches(n_utts: int, batch_size: int, rng) -> list[np.ndarray]:
    """One epoch = utterance_count random chunk draws, grouped into batches."""
    picks = rng.integers(0, n_utts, size=n_utts)
    batches = [picks[i : i + batch_size] for i in range(0, n_utts, batch_size)]
    if len(batches) > 1 and len(batches[-1]) < 2:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def _with_pools(cfg: TrainConfig, corpus: list[CorpusEntry], rng) -> DistortionConfig:
    """A copy of `cfg.distortion` with the pool of every active reverb, noise
    and overlap distortion built; the reverb pool is the only one that draws
    from `rng`. `cfg` is left unchanged, so a reused config starts the next
    run from the same state. An out-of-range distortion setting raises
    `ConfigError`, and an active distortion whose pool is still empty raises
    `EmptyPool`, here, before any output is written."""
    dist = cfg.distortion
    dist.validate()
    reverb, noise, overlap = replace(dist.reverb), replace(dist.noise), replace(dist.overlap)
    if reverb.enabled:
        reverb.rir_pool = default_rir_pool(rng, cfg.rir_count, cfg.rir_max_order, SAMPLE_RATE)
    if noise.enabled and cfg.noise_manifest:
        noise.noise_pool = [e.wave for e in load_corpus(cfg.noise_manifest, "noise", SAMPLE_RATE)]
    if overlap.enabled:
        overlap_corpus = (
            load_corpus(cfg.overlap_manifest, "overlap_speech", SAMPLE_RATE)
            if cfg.overlap_manifest
            else corpus
        )
        overlap.speech_pool = [(e.wave, e.speaker_id) for e in overlap_corpus]
    dist = replace(dist, reverb=reverb, noise=noise, overlap=overlap)
    _check_pools(dist, None)
    return dist


def _distinct_draw(entry: CorpusEntry, first: Chunk, rng) -> Chunk:
    """Second chunk for the global task; distinct offset when possible."""
    for _ in range(8):
        second = draw_chunk(entry.wave, rng, entry.utterance_id)
        if second.offset_samples != first.offset_samples:
            return second
    return second  # utterance too short for distinct draws; overlapping fallback


def _write_nonfinite_dump(checkpoint_dir: str, step: int, losses: dict[str, Tensor],
                          utterances: list[str], distortions: list, **extra) -> str:
    """The diagnostic file of a step that went non-finite; returns its path."""
    dump = {"step": step, "losses": {k: float(v.data) for k, v in losses.items()},
            "utterances": utterances, "distortions": distortions, **extra}
    path = os.path.join(checkpoint_dir, f"nonfinite_step{step}.json")
    write_file(path, [json.dumps(dump, indent=2).encode("utf-8")])
    return path


def train_step(model: Model, entries: list[CorpusEntry], dist: DistortionConfig, rng,
               adam: Adam, lr: float, cfg: TrainConfig, step: int) -> dict[str, float]:
    """One optimizer step on one batch: two chunks of each entry are drawn and
    contaminated, both views encoded, and the workers' average loss against the
    clean first chunks backpropagated. Returns each worker's loss, then the
    total, with every parameter's `grad` released after the update. A
    non-finite loss or gradient raises before the update, with a dump."""
    chunks_a, chunks_b, dist_a = [], [], []
    for entry in entries:
        a = draw_chunk(entry.wave, rng, entry.utterance_id)
        b = _distinct_draw(entry, a, rng)
        xa, log_a = contaminate(a, dist, rng, speaker_id=entry.speaker_id)
        xb, _ = contaminate(b, dist, rng, speaker_id=entry.speaker_id)
        chunks_a.append((a, xa))
        chunks_b.append((b, xb))
        dist_a.append(log_a)

    xa = Tensor(np.stack([x.samples for _, x in chunks_a])[:, None, :])
    xb = Tensor(np.stack([x.samples for _, x in chunks_b])[:, None, :])
    emb_a = model.encoder.forward(xa, training=True)
    emb_b = model.encoder.forward(xb, training=True)

    utt_ids = [e.utterance_id for e in entries]
    lim = W.lim_sample(utt_ids, emb_a.shape[2], rng, per_element=cfg.lim_triples_per_chunk)
    gim = W.gim_sample(
        utt_ids,
        [c.offset_samples for c, _ in chunks_b],
        [c.offset_samples for c, _ in chunks_a],
        rng,
        per_element=cfg.gim_negatives_per_chunk,
    )
    clean = [c.samples for c, _ in chunks_a]
    losses = model.workers.losses(emb_a, emb_b, clean, model.standardizer, lim, gim)

    total = W.total_loss(list(losses.values()))
    if not np.isfinite(total.data):
        dump_path = _write_nonfinite_dump(cfg.checkpoint_dir, step, losses, utt_ids, dist_a)
        raise NonFiniteLoss(f"step {step}: non-finite total loss, see {dump_path}")

    adam.zero_grad()
    total.backward()
    bad = [p.name for p in adam.params
           if p.grad is not None and not np.isfinite(p.grad).all()]
    if bad:
        dump_path = _write_nonfinite_dump(cfg.checkpoint_dir, step, losses, utt_ids, dist_a,
                                          parameters=bad)
        raise NonFiniteGradient(
            f"step {step}: non-finite gradient of {len(bad)} parameters"
            f" (first {bad[0]}), see {dump_path}"
        )
    adam.step(lr)
    adam.zero_grad()  # the gradients are spent: free them before the next step's forward
    return {**{k: float(v.data) for k, v in losses.items()}, "total": float(total.data)}


def pretrain(cfg: TrainConfig) -> str:
    """Run self-supervised pretraining; returns the final checkpoint path."""
    cfg.validate()
    corpus = load_corpus(cfg.clean_manifest, "clean_speech", SAMPLE_RATE)
    if len(corpus) < 2:
        raise EmptyCorpus(f"need >= 2 utterances, got {len(corpus)}")

    rng = np.random.default_rng(cfg.seed)
    dist = _with_pools(cfg, corpus, rng)

    model = build_model(cfg.encoder, rng)
    log.info("fitting target statistics over %d utterances", len(corpus))
    model.standardizer.fit(
        _stats_chunks(corpus, cfg.stats_chunks_per_utterance, SAMPLE_RATE)
    )

    os.makedirs(cfg.checkpoint_dir, exist_ok=True)
    save_model(os.path.join(cfg.checkpoint_dir, "init.pckp"), model,
               {"step": 0, "epoch": 0})

    steps_per_epoch = len(_epoch_batches(len(corpus), cfg.batch_size, np.random.default_rng(0)))
    total_steps = cfg.epochs * steps_per_epoch
    schedule = PolySchedule(cfg.lr0, total_steps, cfg.schedule_power)
    adam = Adam(model.parameters())
    csv_path = os.path.join(cfg.checkpoint_dir, "losses.csv")
    with open(csv_path, "w", encoding="utf-8") as csv:
        csv.write("step,worker,loss\n")
        step = 0
        for epoch in range(1, cfg.epochs + 1):
            for batch in _epoch_batches(len(corpus), cfg.batch_size, rng):
                entries = [corpus[i] for i in batch]
                if len({e.utterance_id for e in entries}) < 2:
                    entries[-1] = corpus[(batch[-1] + 1) % len(corpus)]
                step += 1
                losses = train_step(model, entries, dist, rng, adam, schedule.lr(step - 1),
                                    cfg, step)
                if step == 1 or step == total_steps or step % cfg.log_interval == 0:
                    for name, value in losses.items():
                        csv.write(f"{step},{name},{value:.8e}\n")
                    csv.flush()
                    log.info("step %d/%d total %.4f", step, total_steps, losses["total"])

            save_model(
                os.path.join(cfg.checkpoint_dir, f"epoch_{epoch:03d}.pckp"),
                model, {"step": step, "epoch": epoch}, adam=adam,
            )

    final_path = os.path.join(cfg.checkpoint_dir, "final.pckp")
    save_model(final_path, model, {"step": step, "epoch": cfg.epochs})
    return final_path


# --- frozen-feature extraction ------------------------------------------------------


def encode_utterance(encoder: Encoder | FrozenEncoder, samples: np.ndarray,
                     sample_rate: int) -> np.ndarray:
    """Eval-mode embedding of a whole 16 kHz utterance via non-overlapping
    2 s windows, each run through `FrozenEncoder.encode`; another
    `sample_rate` raises `SampleRateMismatch`. An `Encoder` is frozen once
    here for all its windows, so it and its `frozen()` form give the same
    bits."""
    require_rate(sample_rate, "the encoder's windows")
    if isinstance(encoder, Encoder):
        encoder = encoder.frozen()
    hop = encoder.cfg.hop_samples
    want = chunk_samples(SAMPLE_RATE)
    n = len(samples)
    n_windows = max(1, int(np.ceil(n / want)))
    padded = np.zeros(n_windows * want, dtype=np.float32)
    padded[:n] = samples
    pieces = [
        encoder.encode(padded[i * want : (i + 1) * want]) for i in range(n_windows)
    ]
    frames = np.concatenate(pieces, axis=0)
    return frames[: n // hop]  # drop frames that cover only padding


def _frozen_encoder(checkpoint_path: str) -> FrozenEncoder:
    """The checkpoint's encoder frozen for inference; the rest of the model
    is dropped."""
    model, _ = load_model(checkpoint_path)
    return model.encoder.frozen()


def extract(checkpoint_path: str, manifest_path: str, out_dir: str) -> list[str]:
    """Write one PFEA embedding file (+ JSON sidecar) per manifest utterance."""
    encoder = _frozen_encoder(checkpoint_path)
    corpus = load_corpus(manifest_path, "clean_speech", SAMPLE_RATE)
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for entry in corpus:
        emb = encode_utterance(encoder, entry.wave.samples, SAMPLE_RATE)
        path = os.path.join(out_dir, entry.utterance_id + ".pfea")
        write_pfea(
            path,
            emb,
            {
                "kind": "embedding",
                "hop": HOP_SECONDS,
                "window": CHUNK_SECONDS,
                "utterance_id": entry.utterance_id,
                "sample_rate": SAMPLE_RATE,
                "dims": int(emb.shape[1]),
            },
        )
        written.append(path)
    return written


# --- linear probe ---------------------------------------------------------------------


PROBE_EPOCHS = 100
PROBE_LR = 1e-2
PROBE_TRAIN_FRACTION = 0.75
PROBE_MIN_PER_CLASS = 4


def probe(checkpoint: str, manifest: str, out_json: str = "", seed: int = 0) -> dict:
    """Train a linear classifier on mean-pooled frozen embeddings; the report
    is also written to `out_json` when that is given."""
    encoder = _frozen_encoder(checkpoint)
    corpus = load_corpus(manifest, "clean_speech", SAMPLE_RATE)

    classes = sorted({e.speaker_id for e in corpus})
    if len(classes) < 2:
        raise DegenerateSplit("probe needs at least two classes")
    per_class = {c: [e for e in corpus if e.speaker_id == c] for c in classes}
    for c, members in per_class.items():
        if len(members) < PROBE_MIN_PER_CLASS:
            raise DegenerateSplit(
                f"class {c!r} has {len(members)} utterances, need {PROBE_MIN_PER_CLASS}"
            )

    feats = {
        e.utterance_id: encode_utterance(encoder, e.wave.samples, SAMPLE_RATE).mean(axis=0)
        for e in corpus
    }
    rng = np.random.default_rng(seed)
    train_x, train_y, test_x, test_y = [], [], [], []
    for ci, c in enumerate(classes):
        members = per_class[c]
        order = rng.permutation(len(members))
        n_train = int(round(PROBE_TRAIN_FRACTION * len(members)))
        n_train = min(max(n_train, 1), len(members) - 1)
        for rank, idx in enumerate(order):
            target_x = train_x if rank < n_train else test_x
            target_y = train_y if rank < n_train else test_y
            target_x.append(feats[members[idx].utterance_id])
            target_y.append(ci)

    x_train = np.stack(train_x).astype(np.float32)
    y_train = np.asarray(train_y)
    x_test = np.stack(test_x).astype(np.float32)
    y_test = np.asarray(test_y)

    # standardize with training statistics, then fit the linear layer
    mu = x_train.mean(axis=0)
    sd = np.maximum(x_train.std(axis=0), 1e-6)
    x_train = (x_train - mu) / sd
    x_test = (x_test - mu) / sd

    k = len(classes)
    w = ad.Parameter("probe/w", np.zeros((k, x_train.shape[1]), dtype=np.float32))
    b = ad.Parameter("probe/b", np.zeros(k, dtype=np.float32))
    adam = Adam([w, b])
    xt = Tensor(x_train)
    for _ in range(PROBE_EPOCHS):
        loss = ad.softmax_cross_entropy(ad.linear(xt, w, b), y_train)
        adam.zero_grad()
        loss.backward()
        adam.step(PROBE_LR)

    def accuracy(x, y):
        with ad.no_grad():
            logits = ad.linear(Tensor(x), w, b).data
        return float((logits.argmax(axis=1) == y).mean()), logits.argmax(axis=1)

    train_acc, _ = accuracy(x_train, y_train)
    test_acc, test_pred = accuracy(x_test, y_test)
    confusion = np.zeros((k, k), dtype=int)
    for truth, pred in zip(y_test, test_pred):
        confusion[truth, pred] += 1

    report = {
        "classes": classes,
        "n_train": len(y_train),
        "n_test": len(y_test),
        "train_accuracy": train_acc,
        "test_accuracy": test_acc,
        "confusion_matrix": confusion.tolist(),
    }
    if out_json:
        write_file(out_json, [json.dumps(report, indent=2, sort_keys=True).encode("utf-8")])
    return report


# --- batch contamination ----------------------------------------------------------------


def contaminate_corpus(cfg: TrainConfig, manifest_path: str, out_dir: str, seed: int) -> str:
    """Offline variant of the online module: one distorted WAV per utterance."""
    corpus = load_corpus(manifest_path, "clean_speech", SAMPLE_RATE)
    rng = np.random.default_rng(seed)
    dist = _with_pools(cfg, corpus, rng)

    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "distortion_log.jsonl")
    with open(log_path, "w", encoding="utf-8") as fh:
        for entry in corpus:
            pseudo = Chunk(
                entry.utterance_id, 0, entry.wave.samples, SAMPLE_RATE, padded=False
            )
            distorted, applied = contaminate(pseudo, dist, rng, speaker_id=entry.speaker_id)
            out_path = os.path.join(out_dir, entry.utterance_id + ".wav")
            write_wav(
                Waveform(distorted.samples, SAMPLE_RATE, entry.wave.encoding),
                out_path,
                encoding=entry.wave.encoding,
            )
            fh.write(
                json.dumps({"utterance_id": entry.utterance_id, "applied": applied})
                + "\n"
            )
    return log_path
