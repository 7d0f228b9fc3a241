"""The traced jobs' building blocks: the program's own public calls, made
one layer at a time so that each gets a span.

Each function here repeats the calls of one program function in the same
order and with the same arguments, and the workloads check that the result
equals the program's own bit for bit.
"""

from __future__ import annotations

import numpy as np

from pase import autodiff as ad
from pase import distortion as D
from pase import trainer as T
from pase.audio_io import Waveform, chunk_samples
from pase.autodiff import Tensor
from pase.rir import default_rir_pool

from metrics import ENCODER_LAYERS

PROJECTION_SEED = 20200124


def build_pools(cfg, corpus, rng, tracer) -> None:
    """The distortion pools `pretrain` and `contaminate_corpus` set up, in
    their order, drawing from the same Generator."""
    sr = cfg.encoder.sample_rate
    dist = cfg.distortion
    if dist.reverb.enabled and dist.reverb.p > 0:
        with tracer.span("rir.pool"):
            dist.reverb.rir_pool = default_rir_pool(rng, cfg.rir_count, cfg.rir_max_order, sr)
        tracer.count("rir.pool_taps", sum(len(r.taps) for r in dist.reverb.rir_pool))
    if dist.noise.enabled and dist.noise.p > 0 and cfg.noise_manifest:
        with tracer.span("audio_io.load_corpus"):
            noise_corpus = T.load_corpus(cfg.noise_manifest, "noise", sr)
        dist.noise.noise_pool = [e.wave for e in noise_corpus]
    if dist.overlap.enabled and dist.overlap.p > 0:
        overlap_corpus = corpus
        if cfg.overlap_manifest:
            with tracer.span("audio_io.load_corpus"):
                overlap_corpus = T.load_corpus(cfg.overlap_manifest, "overlap_speech", sr)
        dist.overlap.speech_pool = [(e.wave, e.speaker_id) for e in overlap_corpus]


def encoder_forward(encoder, x: Tensor, training: bool, tracer, kept: dict | None = None) -> Tensor:
    """`Encoder.forward`, one span per layer. `kept` receives each layer's
    input for the backward probes."""
    kept = {} if kept is None else kept
    with tracer.span("encoder.forward"):
        t_out = x.shape[2] // encoder.cfg.hop_samples
        kept["sinc"] = x
        with tracer.span("encoder.sinc.fwd"):
            h = encoder.sinc.forward(x)
        outs = []
        for i, block in enumerate(encoder.blocks):
            kept[f"block{i}"] = h
            with tracer.span(f"encoder.block{i}.fwd"):
                h = block.forward(h, training)
            outs.append(h)
        kept["skip"] = outs
        with tracer.span("encoder.skip.fwd"):
            agg = encoder.skip.forward(outs, encoder.skip_selects, t_out)
        kept["qrnn"] = agg
        with tracer.span("encoder.qrnn.fwd"):
            q = encoder.qrnn.forward(agg)
        kept["emb"] = q
        with tracer.span("encoder.emb.fwd"):
            out = ad.conv1d(q, encoder.emb_w, encoder.emb_b)
    return out


def _leaf(t: Tensor) -> Tensor:
    return Tensor(t.data, requires_grad=True)


def backward_probes(encoder, kept: dict, tracer, projections: dict) -> None:
    """Time each layer's backward alone: rerun the layer on its detached
    input, reduce the output to a scalar with a fixed random projection and
    backpropagate. Training-mode batch norm moves the running buffers and
    every probe adds into parameter gradients; the caller restores both."""
    t_out = kept["sinc"].shape[2] // encoder.cfg.hop_samples
    for layer in ENCODER_LAYERS:
        x = kept[layer]
        if layer == "sinc":  # the waveform needs no gradient, as in training
            out = encoder.sinc.forward(Tensor(x.data))
        elif layer == "skip":
            out = encoder.skip.forward([_leaf(h) for h in x], encoder.skip_selects, t_out)
        elif layer == "qrnn":
            out = encoder.qrnn.forward(_leaf(x))
        elif layer == "emb":
            out = ad.conv1d(_leaf(x), encoder.emb_w, encoder.emb_b)
        else:
            out = encoder.blocks[int(layer[len("block"):])].forward(_leaf(x), True)
        key = (out.shape, out.dtype.str)
        if key not in projections:
            rng = np.random.default_rng(PROJECTION_SEED)
            projections[key] = rng.standard_normal(out.shape).astype(out.dtype)
        scalar = ad.sum_(ad.mul(out, Tensor(projections[key])))
        with tracer.span(f"encoder.{layer}.bwd"):
            scalar.backward()


def encode_utterance(encoder, samples: np.ndarray, sample_rate: int, tracer) -> np.ndarray:
    """`trainer.encode_utterance` with `Encoder.encode` spelled out."""
    hop = encoder.cfg.hop_samples
    want = chunk_samples(sample_rate)
    n = len(samples)
    n_windows = max(1, int(np.ceil(n / want)))
    padded = np.zeros(n_windows * want, dtype=np.float32)
    padded[:n] = samples
    pieces = []
    for i in range(n_windows):
        with ad.no_grad():
            window = padded[i * want : (i + 1) * want]
            x = Tensor(np.asarray(window, dtype=np.float32)[None, None, :])
            out = encoder_forward(encoder, x, False, tracer)
        pieces.append(out.data[0].T.copy())
    frames = np.concatenate(pieces, axis=0)
    return frames[: n // hop]


def _fitted(pool_samples: np.ndarray, n: int, offset: int, sample_rate: int) -> Waveform:
    return Waveform(D._fit_length(pool_samples, n, offset), sample_rate)


def replay_timed(chunk, dist, applied: list[dict], tracer) -> Waveform:
    """`distortion.replay_log`, one span per log entry. It uses the
    module's own helpers so that it follows any change to them."""
    x = Waveform(np.array(chunk.samples, dtype=np.float32), chunk.sample_rate)
    for entry in applied:
        kind = entry["kind"]
        n = len(x.samples)
        with tracer.span(f"distortion.{kind}"):
            if kind == "reverb":
                x = D.apply_reverb(x, dist.reverb.rir_pool[entry["rir_index"]])
            elif kind == "noise":
                noise = dist.noise.noise_pool[entry["noise_index"]]
                x = D.mix_noise(x, _fitted(noise.samples, n, entry["offset"], x.sample_rate),
                                entry["snr_db"])
            elif kind == "freq_mask":
                x = D.apply_freq_mask(x, (entry["f_lo"], entry["f_hi"]))
            elif kind == "temporal_mask":
                x = D.apply_temporal_mask(x, entry["start"], entry["length"])
            elif kind == "clip":
                x = D.apply_clip(x, entry["saturation"])
            elif kind == "overlap":
                other = dist.overlap.speech_pool[entry["speech_index"]][0]
                x = D.apply_overlap(x, _fitted(other.samples, n, entry["offset"], x.sample_rate),
                                    entry["gain_db"])
            else:
                raise ValueError(f"unknown log entry kind {kind!r}")
        tracer.count(f"distortion.fired.{kind}", 1)
    return D._final_clamp(x)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
