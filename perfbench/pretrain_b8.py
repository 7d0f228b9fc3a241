"""pretrain-b8: `trainer.pretrain` at batch size 8 with the default encoder,
the default distortion probabilities and lim/gim densities 24/8.

The train set has a multiple of 8 utterances, so every step has the same
size. One job is one epoch: set-up (corpus, RIR pool, model, target
statistics, `init.pckp`), the steps, the epoch and final checkpoints.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
import time
import traceback

import numpy as np

from pase import trainer as T
from pase import workers as W
from pase.audio_io import chunk_samples, draw_chunk
from pase.autodiff import Tensor
from pase.config import TrainConfig
from pase.distortion import contaminate
from pase.errors import NonFiniteLoss
from pase.optim import Adam, PolySchedule

import compose
import corpora
from measure import Outcome, summarize, times_of, traced_run
from spans import Tracer

NAME = "pretrain-b8"


def _config(ctx, paths: dict, checkpoint_dir: str) -> TrainConfig:
    s = ctx.sizes
    return TrainConfig(
        clean_manifest=paths["train"], noise_manifest=paths["noise"],
        checkpoint_dir=checkpoint_dir, batch_size=s.batch_size, epochs=1,
        seed=ctx.seed, log_interval=1, rir_count=s.rir_count,
        rir_max_order=s.rir_max_order, lim_triples_per_chunk=24,
        gim_negatives_per_chunk=8,
    )


def _steps_per_job(sizes) -> int:
    return sizes.speakers * sizes.train_per_speaker // sizes.batch_size


def _call(ctx, paths: dict, checkpoint_dir: str) -> dict:
    """One untraced `pretrain` call. Step boundaries are the times of its own
    per-step log records; set-up ends when it opens `losses.csv`, right after
    `init.pckp` is written."""
    cfg = _config(ctx, paths, checkpoint_dir)
    csv_path = os.path.join(checkpoint_dir, "losses.csv")
    error = None
    with ctx.marks.armed() as events:
        start = time.perf_counter()
        try:
            T.pretrain(cfg)
        except Exception:  # a failed job counts against error_rate
            error = traceback.format_exc()
        end = time.perf_counter()
    setup_end = times_of(events, "open", lambda p: os.path.normpath(p) == csv_path)
    step_marks = times_of(events, "log", lambda m: m.startswith("step "))
    steps = []
    if setup_end:
        marks = [setup_end[0]] + step_marks
        steps = [b - a for a, b in zip(marks, marks[1:])]
    csv = ""
    if os.path.exists(csv_path):
        with open(csv_path, encoding="utf-8") as fh:
            csv = fh.read()
    shutil.rmtree(checkpoint_dir, ignore_errors=True)
    return {"setup": setup_end[0] - start if setup_end else None, "wall": end - start,
            "units": steps, "csv": csv, "error": error}


def _rows_by_step(csv: str) -> dict[int, list[str]]:
    steps: dict[int, list[str]] = {}
    for line in csv.splitlines()[1:]:
        steps.setdefault(int(line.split(",")[0]), []).append(line)
    return steps


def _score_call(out: Outcome, label: str, call: dict, n_steps: int, reference: str | None) -> None:
    """A step fails when a logged loss is not finite, or when it is logged
    differently from the reference call's, which ran the same inputs and seed."""
    if call["error"]:
        sys.stderr.write(call["error"])
    rows = _rows_by_step(call["csv"])
    expected = _rows_by_step(reference) if reference is not None else rows
    finite = {s for s, lines in rows.items()
              if all(math.isfinite(float(line.split(",")[2])) for line in lines)}
    bad = {s for s in range(1, n_steps + 1) if s not in finite or rows[s] != expected.get(s)}
    out.attempted += n_steps
    out.failed += len(bad)
    out.check(f"{label}: every logged loss finite", len(finite) == n_steps,
              f"{len(finite)}/{n_steps} steps")
    out.check(f"{label}: one log record per step", len(call["units"]) == n_steps, counts=True)
    if reference is not None:
        out.check(f"{label}: losses.csv equals the first call's", call["csv"] == reference)


def run(ctx) -> Outcome:
    paths = corpora.train_corpus(ctx.work, ctx.seed, ctx.sizes)
    n_steps = _steps_per_job(ctx.sizes)
    out = Outcome()
    calls = []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < ctx.seconds:
        calls.append(_call(ctx, paths, os.path.join(ctx.jobs, "pretrain", f"call{len(calls)}")))
    for i, call in enumerate(calls):
        _score_call(out, f"call {i}", call, n_steps, calls[0]["csv"] if i else None)
    summarize(out, NAME, calls, n_steps, "steps")
    return out


# --- traced job ---------------------------------------------------------------


def _save(tracer, path, model, meta, adam=None) -> None:
    with tracer.span("checkpoint.save"):
        T.save_model(path, model, meta, adam=adam)
    tracer.count("checkpoint.save_bytes", os.path.getsize(path))


def _check_composition(out: Outcome, model, corpus, batch_size: int) -> None:
    """The layer-by-layer forward equals `Encoder.forward` bit for bit."""
    want = chunk_samples(model.encoder_cfg.sample_rate)
    x = Tensor(np.stack([np.resize(e.wave.samples, want) for e in corpus[:batch_size]])[:, None, :])
    buffers = {k: v.copy() for k, v in model.encoder.buffers().items()}

    def restore():
        for k, v in model.encoder.buffers().items():
            v[...] = buffers[k]

    reference = model.encoder.forward(x, training=True).data
    restore()
    composed = compose.encoder_forward(model.encoder, x, True, Tracer()).data
    restore()
    out.check("layer-by-layer forward equals Encoder.forward",
              compose.same_bits(reference, composed), counts=True)


def _probes(model, rng, step_inputs, clean, views, tracer, projections, sample_rate) -> int:
    """Per-layer backward, per-target and per-distortion timings of one step;
    returns how many chunks the distortion replay failed to reproduce."""
    encoder = model.encoder
    params = model.parameters()
    state = rng.bit_generator.state
    buffers = {k: v.copy() for k, v in encoder.buffers().items()}
    grads = [p.grad for p in params]
    for p in params:
        p.grad = None
    for kept in step_inputs:
        compose.backward_probes(encoder, kept, tracer, projections)
    for k, v in encoder.buffers().items():
        v[...] = buffers[k]
    for p, g in zip(params, grads):
        p.grad = g
    rng.bit_generator.state = state

    for kind in W.REGRESSION_KINDS:
        with tracer.span(f"features.targets.{kind}"):
            for samples in clean:
                W.regression_targets(samples, kind, sample_rate)

    return sum(not compose.same_bits(compose.replay_timed(chunk, dist, applied, tracer).samples,
                                     distorted.samples)
               for chunk, distorted, applied, dist in views)


def traced_job(cfg: TrainConfig, tracer: Tracer, out: Outcome, projections: dict) -> dict:
    """`trainer.pretrain` rebuilt from the public calls it makes, in its
    order, with a span around each. Probes run between steps, outside the
    step spans, and leave the model, buffers and Generator as they found them."""
    start = time.perf_counter()
    tracer.unit = None
    with tracer.span("trainer.setup"):
        cfg.validate()
        sr = cfg.encoder.sample_rate
        with tracer.span("audio_io.load_corpus"):
            corpus = T.load_corpus(cfg.clean_manifest, "clean_speech", sr)
        rng = np.random.default_rng(cfg.seed)
        compose.build_pools(cfg, corpus, rng, tracer)
        dist = cfg.distortion
        model = T.build_model(cfg.encoder, rng)
        with tracer.span("workers.standardizer_fit"):
            model.standardizer.fit(T._stats_chunks(corpus, cfg.stats_chunks_per_utterance, sr))
        os.makedirs(cfg.checkpoint_dir, exist_ok=True)
        _save(tracer, os.path.join(cfg.checkpoint_dir, "init.pckp"), model, {"step": 0, "epoch": 0})
    probe_start = time.perf_counter()
    _check_composition(out, model, corpus, cfg.batch_size)
    probe_time = time.perf_counter() - probe_start

    steps_per_epoch = len(T._epoch_batches(len(corpus), cfg.batch_size, np.random.default_rng(0)))
    total_steps = cfg.epochs * steps_per_epoch
    schedule = PolySchedule(cfg.lr0, total_steps, cfg.schedule_power)
    adam = Adam(model.parameters())
    regression_specs = [s for s in model.workers.roster if s.kind == "regression"]
    rows = ["step,worker,loss"]
    step = 0
    replay_failed = set()
    for epoch in range(1, cfg.epochs + 1):
        for batch in T._epoch_batches(len(corpus), cfg.batch_size, rng):
            tracer.unit = step + 1
            with tracer.span("trainer.step"):
                entries = [corpus[i] for i in batch]
                if len({e.utterance_id for e in entries}) < 2:
                    entries[-1] = corpus[(batch[-1] + 1) % len(corpus)]
                step += 1
                chunks_a, chunks_b, views = [], [], []
                for entry in entries:
                    with tracer.span("audio_io.draw_chunk"):
                        a = draw_chunk(entry.wave, rng, entry.utterance_id)
                        b = T._distinct_draw(entry, a, rng)
                    with tracer.span("distortion.contaminate"):
                        xa, log_a = contaminate(a, dist, rng, speaker_id=entry.speaker_id)
                        xb, log_b = contaminate(b, dist, rng, speaker_id=entry.speaker_id)
                    chunks_a.append((a, xa))
                    chunks_b.append((b, xb))
                    views += [(a, xa, log_a, dist), (b, xb, log_b, dist)]

                xa = Tensor(np.stack([x.samples for _, x in chunks_a])[:, None, :])
                xb = Tensor(np.stack([x.samples for _, x in chunks_b])[:, None, :])
                kept_a, kept_b = {}, {}
                emb_a = compose.encoder_forward(model.encoder, xa, True, tracer, kept_a)
                emb_b = compose.encoder_forward(model.encoder, xb, True, tracer, kept_b)

                utt_ids = [e.utterance_id for e in entries]
                clean = [c.samples for c, _ in chunks_a]
                losses: dict[str, Tensor] = {}
                for spec in regression_specs:
                    with tracer.span("workers.regression_loss"):
                        losses[spec.name] = W.regression_worker_loss(
                            emb_a, clean, spec, model.workers.heads[spec.name],
                            model.standardizer, sr,
                        )
                with tracer.span("workers.sample"):
                    lim_idx = W.lim_sample(utt_ids, emb_a.shape[2], rng,
                                           per_element=cfg.lim_triples_per_chunk)
                with tracer.span("workers.lim_loss"):
                    losses["lim"] = W.lim_worker_loss(emb_a, lim_idx, model.workers.heads["lim"])
                with tracer.span("workers.sample"):
                    gim_idx = W.gim_sample(
                        utt_ids,
                        [c.offset_samples for c, _ in chunks_b],
                        [c.offset_samples for c, _ in chunks_a],
                        rng,
                        per_element=cfg.gim_negatives_per_chunk,
                    )
                with tracer.span("workers.gim_loss"):
                    losses["gim"] = W.gim_worker_loss(emb_a, emb_b, gim_idx,
                                                      model.workers.heads["gim"])

                total = W.total_loss(list(losses.values()))
                if not np.isfinite(total.data):
                    raise NonFiniteLoss(f"step {step}: non-finite total loss")
                adam.zero_grad()
                with tracer.span("autodiff.backward"):
                    total.backward()
                with tracer.span("optim.adam_step"):
                    adam.step(schedule.lr(step - 1))

            if step == 1 or step == total_steps or step % cfg.log_interval == 0:
                rows += [f"{step},{name},{float(v.data):.8e}" for name, v in losses.items()]
                rows.append(f"{step},total,{float(total.data):.8e}")

            probe_start = time.perf_counter()
            with tracer.span("probe"):
                if _probes(model, rng, (kept_a, kept_b), clean, views, tracer, projections, sr):
                    replay_failed.add(step)
            probe_time += time.perf_counter() - probe_start

        tracer.unit = None
        _save(tracer, os.path.join(cfg.checkpoint_dir, f"epoch_{epoch:03d}.pckp"),
              model, {"step": step, "epoch": epoch}, adam=adam)
    _save(tracer, os.path.join(cfg.checkpoint_dir, "final.pckp"), model,
          {"step": step, "epoch": cfg.epochs})
    return {"csv": "\n".join(rows) + "\n", "wall": time.perf_counter() - start - probe_time,
            "replay_failed": replay_failed}


def run_traced(ctx) -> Outcome:
    paths = corpora.train_corpus(ctx.work, ctx.seed, ctx.sizes)
    n_steps = _steps_per_job(ctx.sizes)
    out = Outcome()
    calls = []
    projections: dict = {}

    def call(label):
        calls.append(_call(ctx, paths, os.path.join(ctx.jobs, "pretrain", f"call{len(calls)}")))
        _score_call(out, label, calls[-1], n_steps, calls[0]["csv"] if len(calls) > 1 else None)
        return calls[-1]

    def job(tracer, label):
        job_dir = os.path.join(ctx.jobs, "pretrain", f"traced{tracer.job}")
        try:
            result = traced_job(_config(ctx, paths, job_dir), tracer, out, projections)
        finally:
            shutil.rmtree(job_dir, ignore_errors=True)
        expected, got = _rows_by_step(calls[-1]["csv"]), _rows_by_step(result["csv"])
        differ = {s for s in range(1, n_steps + 1) if got.get(s) != expected.get(s)}
        out.attempted += n_steps
        out.failed += len(differ | result["replay_failed"])
        out.check(f"{label}: step losses equal losses.csv", result["csv"] == calls[-1]["csv"],
                  f"{len(differ)}/{n_steps} steps differ")
        out.check(f"{label}: distortion replay equals every chunk", not result["replay_failed"],
                  f"steps {sorted(result['replay_failed'])}")
        return result["wall"]

    return traced_run(ctx, out, call, job, n_steps, "trainer.step")
