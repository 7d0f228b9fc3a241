"""contaminate-all: `trainer.contaminate_corpus` with all six distortions at
p = 1 over whole 15 s utterances: four contaminated copies of each train
utterance. Every utterance pays every distortion, so the work does not
depend on the seed, and long FFT convolutions stand where pretraining has
2 s chunks. It writes WAVs where the other workloads read them.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
import traceback

import numpy as np

from pase import trainer as T
from pase.audio_io import Chunk, Waveform, write_wav
from pase.config import TrainConfig
from pase.distortion import DISTORTION_ORDER, contaminate, replay_log

import compose
import corpora
from measure import Outcome, summarize, times_of, traced_run
from spans import Tracer

NAME = "contaminate-all"


def _config(ctx, paths: dict) -> TrainConfig:
    cfg = TrainConfig(noise_manifest=paths["noise"], rir_count=ctx.sizes.rir_count,
                      rir_max_order=ctx.sizes.rir_max_order)
    for kind in DISTORTION_ORDER:
        getattr(cfg.distortion, kind).p = 1.0
    return cfg


def _call(ctx, paths: dict, out_dir: str) -> dict:
    """One untraced `contaminate_corpus` call. Set-up ends when it creates
    the output directory; each utterance ends when its WAV is opened for
    writing, the first starts when the distortion log is opened."""
    error = None
    with ctx.marks.armed() as events:
        start = time.perf_counter()
        try:
            T.contaminate_corpus(_config(ctx, paths), paths["contaminate"], out_dir, ctx.seed)
        except Exception:  # a failed job counts against error_rate
            error = traceback.format_exc()
        end = time.perf_counter()
    setup_end = times_of(events, "os.mkdir", lambda p: os.path.normpath(p) == out_dir)
    in_dir = lambda p: os.path.dirname(os.path.normpath(p)) == out_dir  # noqa: E731
    first = times_of(events, "open", lambda p: in_dir(p) and p.endswith(".jsonl"))
    marks = times_of(events, "open", lambda p: in_dir(p) and p.endswith(".wav"))
    utterances = []
    if setup_end and first:
        marks = first[:1] + marks
        utterances = [b - a for a, b in zip(marks, marks[1:])]
    return {"setup": setup_end[0] - start if setup_end else None, "wall": end - start,
            "units": utterances, "error": error}


def _digests(out_dir: str, corpus) -> dict:
    out = {}
    for entry in corpus:
        path = os.path.join(out_dir, entry.utterance_id + ".wav")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[entry.utterance_id] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _score(out: Outcome, label: str, out_dir: str, corpus, reference: dict | None,
           failed: set = frozenset()) -> tuple[dict, set]:
    """An utterance fails when its WAV is missing, when it differs from the
    reference call's (same inputs, same seed), or when it is in `failed`.
    Returns the reference (the given one, or else this call's digests) and
    the failed utterances."""
    digests = _digests(out_dir, corpus)
    bad = {e.utterance_id for e in corpus if e.utterance_id not in digests}
    if reference is not None:
        bad |= {u for u, d in reference.items() if digests.get(u) != d}
    out.attempted += len(corpus)
    out.failed += len(bad | failed)
    same = " and equal to the reference call's" if reference else ""
    out.check(f"{label}: every WAV written{same}", not bad,
              f"{len(bad)}/{len(corpus)} missing or different")
    return (digests if reference is None else reference), bad | failed


def _read_log(out_dir: str) -> dict:
    path = os.path.join(out_dir, "distortion_log.jsonl")
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return {row["utterance_id"]: row["applied"] for row in rows}


def _replay_check(out: Outcome, ctx, paths: dict, out_dir: str, corpus) -> set:
    """Replaying the log with `replay_log` and freshly built pools rewrites
    every WAV byte for byte, with every sample in [-1, 1]. Returns the
    utterances that fail."""
    cfg = _config(ctx, paths)
    compose.build_pools(cfg, corpus, np.random.default_rng(ctx.seed), Tracer())
    log = _read_log(out_dir)
    scratch = os.path.join(ctx.jobs, "contaminate", "replayed.wav")
    bad = set()
    for entry in corpus:
        applied = log.get(entry.utterance_id)
        path = os.path.join(out_dir, entry.utterance_id + ".wav")
        if applied is None or len(applied) != len(DISTORTION_ORDER) or not os.path.exists(path):
            bad.add(entry.utterance_id)
            continue
        chunk = Chunk(entry.utterance_id, 0, entry.wave.samples, entry.wave.sample_rate)
        replayed = replay_log(chunk, cfg.distortion, applied)
        write_wav(Waveform(replayed.samples, entry.wave.sample_rate, entry.wave.encoding),
                  scratch, encoding=entry.wave.encoding)
        with open(scratch, "rb") as a, open(path, "rb") as b:
            same = a.read() == b.read()
        if not (same and np.all(np.abs(replayed.samples) <= 1.0)):
            bad.add(entry.utterance_id)
    out.check("replaying the log rewrites every WAV bit for bit, samples in [-1, 1]",
              not bad, f"{len(bad)}/{len(corpus)} differ")
    return bad


def _corpus(paths: dict):
    corpus = T.load_corpus(paths["contaminate"], "clean_speech", 16000)
    return corpus, [len(e.wave) / e.wave.sample_rate for e in corpus]


def run(ctx) -> Outcome:
    paths = corpora.contaminate_manifest(ctx.work, ctx.seed, ctx.sizes)
    corpus, seconds = _corpus(paths)
    out = Outcome()
    calls, reference, first_bad = [], None, set()
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < ctx.seconds:
        out_dir = os.path.join(ctx.jobs, "contaminate", f"call{len(calls)}")
        calls.append(_call(ctx, paths, out_dir))
        if calls[-1]["error"]:
            sys.stderr.write(calls[-1]["error"])
        reference, bad = _score(out, f"call {len(calls) - 1}", out_dir, corpus, reference)
        if len(calls) == 1:
            first_bad = bad
        else:
            shutil.rmtree(out_dir, ignore_errors=True)
    replay_bad = _replay_check(out, ctx, paths, os.path.join(ctx.jobs, "contaminate", "call0"),
                               corpus)
    out.failed += len(replay_bad - first_bad)
    summarize(out, NAME, calls, len(corpus), "utterances", seconds)
    return out


# --- traced job ---------------------------------------------------------------


def traced_job(cfg: TrainConfig, manifest: str, out_dir: str, seed: int, tracer: Tracer) -> dict:
    """`trainer.contaminate_corpus` rebuilt from the public calls it makes,
    in its order. Each utterance's log is then replayed entry by entry, one
    span per distortion, and must give the written samples bit for bit."""
    start = time.perf_counter()
    tracer.unit = None
    with tracer.span("trainer.setup"):
        sr = cfg.encoder.sample_rate
        with tracer.span("audio_io.load_corpus"):
            corpus = T.load_corpus(manifest, "clean_speech", sr)
        dist = cfg.distortion
        rng = np.random.default_rng(seed)
        compose.build_pools(cfg, corpus, rng, tracer)
    os.makedirs(out_dir, exist_ok=True)
    replay_time, bad = 0.0, set()
    with open(os.path.join(out_dir, "distortion_log.jsonl"), "w", encoding="utf-8") as fh:
        for k, entry in enumerate(corpus):
            tracer.unit = k
            with tracer.span("trainer.contaminate_utterance"):
                pseudo = Chunk(entry.utterance_id, 0, entry.wave.samples, sr, padded=False)
                with tracer.span("distortion.contaminate"):
                    distorted, applied = contaminate(pseudo, dist, rng, speaker_id=entry.speaker_id)
                out_path = os.path.join(out_dir, entry.utterance_id + ".wav")
                with tracer.span("audio_io.write_wav"):
                    write_wav(Waveform(distorted.samples, sr, entry.wave.encoding), out_path,
                              encoding=entry.wave.encoding)
                fh.write(json.dumps({"utterance_id": entry.utterance_id, "applied": applied})
                         + "\n")
            tracer.count("audio_io.write_wav_bytes", os.path.getsize(out_path))
            replay_start = time.perf_counter()
            with tracer.span("probe"):
                replayed = compose.replay_timed(pseudo, dist, applied, tracer)
            replay_time += time.perf_counter() - replay_start
            if not (compose.same_bits(replayed.samples, distorted.samples)
                    and np.all(np.abs(distorted.samples) <= 1.0)):
                bad.add(entry.utterance_id)
    return {"wall": time.perf_counter() - start - replay_time, "bad": bad}


def run_traced(ctx) -> Outcome:
    paths = corpora.contaminate_manifest(ctx.work, ctx.seed, ctx.sizes)
    corpus, _ = _corpus(paths)
    out = Outcome()
    reference = None

    def call(label):
        nonlocal reference
        out_dir = os.path.join(ctx.jobs, "contaminate", label.replace(" ", "-"))
        result = _call(ctx, paths, out_dir)
        if result["error"]:
            sys.stderr.write(result["error"])
        reference, _ = _score(out, label, out_dir, corpus, reference)
        shutil.rmtree(out_dir, ignore_errors=True)
        return result

    def job(tracer, label):
        job_dir = os.path.join(ctx.jobs, "contaminate", f"traced{tracer.job}")
        try:
            result = traced_job(_config(ctx, paths), paths["contaminate"], job_dir, ctx.seed,
                                tracer)
            out.check(f"{label}: replay per distortion equals every written utterance, "
                      "samples in [-1, 1]", not result["bad"],
                      f"{len(result['bad'])}/{len(corpus)} differ")
            _score(out, label, job_dir, corpus, reference, result["bad"])
        finally:
            shutil.rmtree(job_dir, ignore_errors=True)
        return result["wall"]

    return traced_run(ctx, out, call, job, len(corpus), "trainer.contaminate_utterance")
