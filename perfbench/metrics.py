"""The metric names the benchmark prints; BENCHMARK.json lists the same.

Every workload reports every metric. End-to-end metrics are shared, with
the unit of work set by the workload: a training step for pretrain-b8, one
utterance for extract-probe and contaminate-all. A per-layer metric that a
workload does not exercise reads 0 there.
"""

from __future__ import annotations

from pase.distortion import DISTORTION_ORDER
from pase.workers import REGRESSION_KINDS

END_TO_END = (
    ("setup_s", "s"),         # one-time work before the first unit of work
    ("wall_s", "s"),          # one whole job: pretrain, extract or contaminate call
    ("latency_s.p50", "s"),   # one unit of work
    ("latency_s.tail", "s"),  # highest percentile with ten units above it
    ("peak_rss_mb", "MB"),
)

# Per workload, the names ROADMAP and the printed report give the shared metrics.
WORKLOAD_NAMES = {
    "pretrain-b8": {"wall_s": "pretrain_wall_s", "latency_s": "train_step_s"},
    "extract-probe": {"wall_s": "extract_wall_s", "latency_s": "extract_utterance_s",
                      "rtf": "extract_rtf"},
    "contaminate-all": {"wall_s": "contaminate_wall_s", "latency_s": "contaminate_utterance_s",
                        "rtf": "contaminate_rtf"},
}

ENCODER_LAYERS = ("sinc", *(f"block{i}" for i in range(7)), "skip", "qrnn", "emb")

# (metric, unit, aggregation, source)
#   unit:      median over units of work of the summed span time
#   unit_self: the same over self time (span minus its child spans)
#   job:       median over traced jobs of the summed span time
#   count:     median over traced jobs of the summed count
PER_LAYER = (
    ("encoder.forward_s", "s", "unit", "encoder.forward"),
    *((f"encoder.{layer}.{d}_s", "s", "unit", f"encoder.{layer}.{d}")
      for layer in ENCODER_LAYERS for d in ("fwd", "bwd")),
    ("autodiff.backward_s", "s", "unit", "autodiff.backward"),
    ("optim.adam_step_s", "s", "unit", "optim.adam_step"),
    ("workers.regression_loss_s", "s", "unit", "workers.regression_loss"),
    ("workers.lim_loss_s", "s", "unit", "workers.lim_loss"),
    ("workers.gim_loss_s", "s", "unit", "workers.gim_loss"),
    ("workers.sample_s", "s", "unit", "workers.sample"),
    ("workers.standardizer_fit_s", "s", "job", "workers.standardizer_fit"),
    *((f"features.targets_s.{kind}", "s", "unit", f"features.targets.{kind}")
      for kind in REGRESSION_KINDS),
    ("features.write_pfea_s", "s", "unit", "features.write_pfea"),
    ("features.write_pfea_bytes", "bytes", "count", "features.write_pfea_bytes"),
    ("distortion.contaminate_s", "s", "unit", "distortion.contaminate"),
    *((f"distortion.{kind}_s", "s", "unit", f"distortion.{kind}") for kind in DISTORTION_ORDER),
    *((f"distortion.fired.{kind}", "count", "count", f"distortion.fired.{kind}")
      for kind in DISTORTION_ORDER),
    ("rir.pool_s", "s", "job", "rir.pool"),
    ("rir.pool_taps", "count", "count", "rir.pool_taps"),
    ("checkpoint.save_s", "s", "job", "checkpoint.save"),
    ("checkpoint.save_bytes", "bytes", "count", "checkpoint.save_bytes"),
    ("checkpoint.load_s", "s", "job", "checkpoint.load"),
    ("audio_io.load_corpus_s", "s", "job", "audio_io.load_corpus"),
    ("audio_io.draw_chunk_s", "s", "unit", "audio_io.draw_chunk"),
    ("audio_io.write_wav_s", "s", "unit", "audio_io.write_wav"),
    ("audio_io.write_wav_bytes", "bytes", "count", "audio_io.write_wav_bytes"),
    ("trainer.step_s", "s", "unit", "trainer.step"),
    ("trainer.step_self_s", "s", "unit_self", "trainer.step"),
    ("trainer.encode_utterance_s", "s", "unit", "trainer.encode_utterance"),
)

# Tracing overhead: the traced job's end-to-end figures minus those of the
# untraced call made in the same run.
OVERHEAD = (
    ("trace.overhead.setup_s", "s", "setup_s"),
    ("trace.overhead.wall_s", "s", "wall_s"),
    ("trace.overhead.latency_s.p50", "s", "latency_s.p50"),
)


def layer_metrics(tracer) -> dict[str, tuple[float, str]]:
    out = {}
    for name, unit, how, source in PER_LAYER:
        if how == "unit":
            value = tracer.per_unit(source)
        elif how == "unit_self":
            value = tracer.per_unit(source, self_time=True)
        elif how == "job":
            value = tracer.per_job(source)
        else:
            value = tracer.job_count(source)
        out[name] = (value, unit)
    return out


def overhead_metrics(traced: dict, untraced: dict) -> dict[str, tuple[float, str]]:
    return {name: (traced[key] - untraced[key], unit) for name, unit, key in OVERHEAD}


def per_layer_names() -> list[str]:
    return [m[0] for m in PER_LAYER] + [m[0] for m in OVERHEAD]
