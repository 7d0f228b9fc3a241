"""extract-probe: `trainer.extract` of a checkpoint over the degraded probe
set (48 utterances of 8 s). Inference only: eval-mode encoder forward, one
2 s window at a time, no tape, backward or optimizer; plus the checkpoint
load and one PFEA write per utterance.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import time
import traceback

import numpy as np

from pase import trainer as T
from pase.features import HOP_SECONDS, read_pfea, write_pfea

import compose
import corpora
from measure import Outcome, summarize, times_of, traced_run
from spans import Tracer

NAME = "extract-probe"


def _call(ctx, paths: dict, out_dir: str) -> dict:
    """One untraced `extract` call. Set-up ends when it creates the output
    directory; each utterance ends when its PFEA file is opened for writing."""
    error = None
    with ctx.marks.armed() as events:
        start = time.perf_counter()
        try:
            T.extract(paths["checkpoint"], paths["probe"], out_dir)
        except Exception:  # a failed job counts against error_rate
            error = traceback.format_exc()
        end = time.perf_counter()
    setup_end = times_of(events, "os.mkdir", lambda p: os.path.normpath(p) == out_dir)
    marks = times_of(events, "open", lambda p: p.endswith(".pfea")
                     and os.path.dirname(os.path.normpath(p)) == out_dir)
    utterances = []
    if setup_end:
        marks = [setup_end[0]] + marks
        utterances = [b - a for a, b in zip(marks, marks[1:])]
    return {"setup": setup_end[0] - start if setup_end else None, "wall": end - start,
            "units": utterances, "error": error}


def _pfea_digests(out_dir: str, corpus, hop: int) -> tuple[dict, set]:
    """Digest of each PFEA payload, and the utterances whose file is
    missing, of the wrong shape or not finite."""
    digests, bad = {}, set()
    for entry in corpus:
        path = os.path.join(out_dir, entry.utterance_id + ".pfea")
        try:
            values, _ = read_pfea(path)
        except Exception:  # a missing or malformed file is one failed utterance
            bad.add(entry.utterance_id)
            continue
        if values.shape != (len(entry.wave) // hop, 256) or not np.all(np.isfinite(values)):
            bad.add(entry.utterance_id)
        digests[entry.utterance_id] = hashlib.sha256(values.tobytes()).hexdigest()
    return digests, bad


def _score(out: Outcome, label: str, call: dict, out_dir: str, corpus, hop: int,
           reference: dict | None) -> dict:
    """An utterance fails when its PFEA is bad or differs from the reference
    call's, which encoded the same input with the same weights."""
    if call["error"]:
        sys.stderr.write(call["error"])
    digests, bad = _pfea_digests(out_dir, corpus, hop)
    differ = {u for u, d in (reference or {}).items() if digests.get(u) != d}
    out.attempted += len(corpus)
    out.failed += len(bad | differ)
    out.check(f"{label}: every PFEA is (n // {hop}, 256) and finite", not bad,
              f"{len(bad)}/{len(corpus)} bad")
    if reference is not None:
        out.check(f"{label}: PFEA payloads equal the reference call's", not differ,
                  f"{len(differ)}/{len(corpus)} differ")
    return digests


def _reencode_check(out: Outcome, ctx, paths: dict, out_dir: str, corpus) -> None:
    """Encoding one utterance again reproduces its file bit for bit."""
    entry = corpus[ctx.seed % len(corpus)]
    try:
        model, _ = T.load_model(paths["checkpoint"])
        emb = T.encode_utterance(model.encoder, entry.wave.samples, model.encoder_cfg.sample_rate)
        values, _ = read_pfea(os.path.join(out_dir, entry.utterance_id + ".pfea"))
        same = compose.same_bits(emb.astype(np.float32), values)
    except Exception:  # a missing file or a failed encode fails the check
        sys.stderr.write(traceback.format_exc())
        same = False
    out.check(f"re-encoding {entry.utterance_id} reproduces its PFEA", same, counts=True)


def _probe_set(paths: dict):
    corpus = T.load_corpus(paths["probe"], "clean_speech", 16000)
    return corpus, [len(e.wave) / e.wave.sample_rate for e in corpus]


def run(ctx) -> Outcome:
    paths = corpora.probe_corpus(ctx.work, ctx.seed, ctx.sizes)
    corpus, seconds = _probe_set(paths)
    hop = int(round(HOP_SECONDS * 16000))
    out = Outcome()
    calls, reference = [], None
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < ctx.seconds:
        out_dir = os.path.join(ctx.jobs, "extract", f"call{len(calls)}")
        calls.append(_call(ctx, paths, out_dir))
        digests = _score(out, f"call {len(calls) - 1}", calls[-1], out_dir, corpus, hop, reference)
        reference = digests if reference is None else reference
        if len(calls) > 1:
            shutil.rmtree(out_dir, ignore_errors=True)
    _reencode_check(out, ctx, paths, os.path.join(ctx.jobs, "extract", "call0"), corpus)
    summarize(out, NAME, calls, len(corpus), "utterances", seconds)
    return out


# --- traced job ---------------------------------------------------------------


def traced_job(checkpoint: str, manifest: str, out_dir: str, tracer: Tracer) -> dict:
    """`trainer.extract` rebuilt from the public calls it makes, in its
    order, with `encode_utterance` taken apart layer by layer."""
    start = time.perf_counter()
    tracer.unit = None
    with tracer.span("trainer.setup"):
        with tracer.span("checkpoint.load"):
            model, _ = T.load_model(checkpoint)
        sr = model.encoder_cfg.sample_rate
        with tracer.span("audio_io.load_corpus"):
            corpus = T.load_corpus(manifest, "clean_speech", sr)
    os.makedirs(out_dir, exist_ok=True)
    for k, entry in enumerate(corpus):
        tracer.unit = k
        with tracer.span("trainer.extract_utterance"):
            with tracer.span("trainer.encode_utterance"):
                emb = compose.encode_utterance(model.encoder, entry.wave.samples, sr, tracer)
            path = os.path.join(out_dir, entry.utterance_id + ".pfea")
            with tracer.span("features.write_pfea"):
                write_pfea(path, emb.astype(np.float32), {
                    "kind": "embedding",
                    "hop": HOP_SECONDS,
                    "window": 2.0,
                    "utterance_id": entry.utterance_id,
                    "sample_rate": sr,
                    "dims": int(emb.shape[1]),
                })
        tracer.count("features.write_pfea_bytes",
                     os.path.getsize(path) + os.path.getsize(path + ".json"))
    return {"wall": time.perf_counter() - start}


def run_traced(ctx) -> Outcome:
    paths = corpora.probe_corpus(ctx.work, ctx.seed, ctx.sizes)
    corpus, _ = _probe_set(paths)
    hop = int(round(HOP_SECONDS * 16000))
    out = Outcome()
    reference = None

    def call(label):
        nonlocal reference
        out_dir = os.path.join(ctx.jobs, "extract", label.replace(" ", "-"))
        result = _call(ctx, paths, out_dir)
        digests = _score(out, label, result, out_dir, corpus, hop, reference)
        reference = digests if reference is None else reference
        shutil.rmtree(out_dir, ignore_errors=True)
        return result

    def job(tracer, label):
        job_dir = os.path.join(ctx.jobs, "extract", f"traced{tracer.job}")
        try:
            result = traced_job(paths["checkpoint"], paths["probe"], job_dir, tracer)
            _score(out, label, {"error": None}, job_dir, corpus, hop, reference)
        finally:
            shutil.rmtree(job_dir, ignore_errors=True)
        return result["wall"]

    return traced_run(ctx, out, call, job, len(corpus), "trainer.extract_utterance")
