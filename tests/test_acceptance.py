"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The training-dependent
criteria share one desk-scale pretraining run (20 utterances, 4 speakers,
roughly 5 minutes of audio, 30 epochs, fixed seed).
"""

import time
from pathlib import Path

import numpy as np
import pytest

import pase.autodiff as ad
import pase.trainer as T
import pase.workers as W
from pase.audio_io import Chunk, Waveform
from pase.autodiff import Tensor
from pase.config import TrainConfig, load_train_config
from pase.distortion import DistortionConfig, apply_freq_mask, contaminate, mix_noise
from pase.encoder import (
    Encoder, EncoderConfig, QRNNLayer, front_end_convs, sinc_bandpass_kernels,
)
from pase.features import LOG_FLOOR, SPECTRAL_MAPS, add_deltas, mel_filterbank, power_spectrum
from pase.rir import ImpulseResponse, generate_rir_image_method
from pase.toygen import make_toy_corpus
from pase.trainer import load_model, pretrain, probe

from oracles import (
    gradcheck,
    measured_snr_db,
    naive_dct2_orthonormal,
    naive_dft_power,
    schroeder_t60,
    sequential_qrnn,
    target_pieces,
)

SR = 16000
DESK_CONFIG = Path(__file__).parent.parent / "configs" / "desk.conf"


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# --- shared pretraining run --------------------------------------------------------


@pytest.fixture(scope="module")
def toy_run(tmp_path_factory):
    """Desk-scale pretraining: 20 utterances, 4 speakers, 30 epochs, fixed seed.

    The run uses the desk recipe in configs/desk.conf (small batches for more
    optimizer steps, a mildly larger initial rate, gentler distortion
    severity); the shipped config defaults stay at the full-scale recipe.
    """
    root = tmp_path_factory.mktemp("acceptance")
    corpus = make_toy_corpus(str(root / "corpus"), seed=0)
    cfg = load_train_config(str(DESK_CONFIG))
    cfg.clean_manifest = corpus["train"]
    cfg.noise_manifest = corpus["noise"]
    cfg.checkpoint_dir = str(root / "ckpt")
    started = time.time()
    final = pretrain(cfg)
    wall = time.time() - started
    return {
        "corpus": corpus,
        "cfg": cfg,
        "final": final,
        "init": str(root / "ckpt" / "init.pckp"),
        "losses": str(root / "ckpt" / "losses.csv"),
        "wall_seconds": wall,
        "root": root,
    }


# --- criterion: gradient suite ----------------------------------------------------


def _case_rng(name: str) -> np.random.Generator:
    """A gradient case's own stream, seeded from its name alone."""
    return np.random.default_rng(list(name.encode()))


def _op_cases():
    """name -> case(rng) -> (build, params).

    Each case draws its inputs from the Generator it is handed, and the
    suite then draws its finite-difference coordinates from that same
    Generator, so adding, removing or reordering cases moves no other
    case's inputs or coordinates.
    """

    def t(rng, *shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    def sq(v):
        return ad.mean(ad.mul(v, v))

    def on_x(op):  # an op of one (2, 3, 10) input
        def case(rng):
            x = t(rng, 2, 3, 10)
            return lambda: sq(op(x)), [x]
        return case

    def on_x_y(op):  # a broadcasting op of (2, 3, 10) and (3, 1)
        def case(rng):
            x, y = t(rng, 2, 3, 10), t(rng, 3, 1)
            return lambda: sq(op(x, y)), [x, y]
        return case

    def prelu(rng):
        x = t(rng, 2, 3, 10)
        alpha = Tensor(rng.uniform(0.1, 0.6, 3), requires_grad=True)
        return lambda: sq(ad.prelu(x, alpha)), [x, alpha]

    def concat(rng):
        flat = t(rng, 6, 5)
        return lambda: sq(ad.concat([flat, flat], axis=1)), [flat]

    def index_rows(rng):
        rows = t(rng, 5, 4)
        return lambda: sq(ad.index(rows, np.array([0, 4, 4, 2]))), [rows]

    def linear(rng):
        flat, w, b = t(rng, 6, 5), t(rng, 4, 5), t(rng, 4)
        return lambda: sq(ad.linear(flat, w, b)), [flat, w, b]

    def conv1d(rng):
        cx, cw, cb = t(rng, 2, 3, 16), t(rng, 4, 3, 5), t(rng, 4)
        return lambda: sq(ad.conv1d(cx, cw, cb, stride=2, padding=2)), [cx, cw, cb]

    def batchnorm_prelu(training):
        def case(rng):
            x = t(rng, 2, 3, 10)
            gamma = Tensor(rng.uniform(0.5, 1.5, 3), requires_grad=True)
            beta = t(rng, 3)
            alpha = Tensor(rng.uniform(0.1, 0.6, 3), requires_grad=True)
            rm, rv = rng.standard_normal(3), rng.uniform(0.5, 2.0, 3)
            return (
                lambda: sq(ad.batchnorm_prelu(x, gamma, beta, alpha, rm.copy(), rv.copy(),
                                              training)),
                [x, gamma, beta, alpha],
            )
        return case

    def fo_pool(rng):
        z, f = t(rng, 2, 4, 9), t(rng, 2, 4, 9)
        return lambda: sq(ad.fo_pool(ad.tanh(z), ad.sigmoid(f))), [z, f]

    def linear_mse(rng):
        flat, w, b = t(rng, 6, 5), t(rng, 4, 5), t(rng, 4)
        target = rng.standard_normal((6, 4))
        return lambda: ad.linear_mse(flat, w, b, target_pieces(target, rows=4)), [flat, w, b]

    def bce_logits_loss(rng):
        logits = t(rng, 6, 2)
        labels = (rng.random((6, 2)) < 0.5).astype(np.float64)
        return lambda: ad.bce_logits_loss(logits, labels), [logits]

    def softmax_cross_entropy(rng):
        logits, labels = t(rng, 7, 4), rng.integers(0, 4, 7)
        return lambda: ad.softmax_cross_entropy(logits, labels), [logits]

    def sinc(rng):
        p_low = Tensor(rng.uniform(100, 2000, 3), requires_grad=True)
        p_band = Tensor(rng.uniform(100, 800, 3), requires_grad=True)
        return (
            lambda: sq(sinc_bandpass_kernels(p_low, p_band, 65)),
            [p_low, p_band],
        )

    def front_end(rng):
        # padding in both convs, a stride in block0's, three items, a waveform
        # that needs a gradient
        x, kernels, w, b = t(rng, 3, 1, 40), t(rng, 4, 1, 7), t(rng, 5, 4, 5), t(rng, 5)
        return lambda: sq(front_end_convs(x, kernels, w, b, 3, 2, 2)), [x, kernels, w, b]

    return {
        "add": on_x_y(lambda x, y: ad.add(x, y)),
        "mul": on_x_y(lambda x, y: ad.mul(x, y)),
        "sigmoid": on_x(lambda x: ad.sigmoid(x)),
        "tanh": on_x(lambda x: ad.tanh(x)),
        "prelu": prelu,
        "mean": on_x(lambda x: ad.mean(x, axis=2)),
        "sum": on_x(lambda x: ad.sum_(x, axis=(0, 2))),
        "reshape": on_x(lambda x: ad.reshape(x, (6, 10))),
        "transpose": on_x(lambda x: ad.transpose(x, (2, 0, 1))),
        "concat": concat,
        "index_narrow": on_x(lambda x: ad.index(x, np.s_[:, :, 2:7])),
        "index_subsample": on_x(lambda x: ad.index(x, np.s_[:, :, ::3])),
        "pad1d": on_x(lambda x: ad.pad1d(x, 2, 1)),
        "index_frames": on_x(
            lambda x: ad.index(x, np.s_[np.array([0, 1, 1]), :, np.array([9, 0, 0])])
        ),
        "index_rows": index_rows,
        "linear": linear,
        "conv1d": conv1d,
        "batchnorm_prelu_train": batchnorm_prelu(True),
        "batchnorm_prelu_eval": batchnorm_prelu(False),
        "fo_pool": fo_pool,
        "linear_mse": linear_mse,
        "bce_logits_loss": bce_logits_loss,
        "softmax_cross_entropy": softmax_cross_entropy,
        "sinc_bandpass_kernels": sinc,
        "front_end_convs": front_end,
    }


def _full_graph_builder(rng):
    """Real architecture in float64 on 0.2 s inputs, two-utterance batch.

    PReLU slopes are set to 1 so the composite loss is smooth: finite
    differences are undefined across an activation kink, and a random
    weight perturbation at h=1e-5 crosses a handful of them in a graph
    this size. The PReLU op itself is FD-checked at slope 0.25 in the
    per-op suite.
    """
    enc = Encoder(EncoderConfig(), rng)
    workers = W.WorkerSet(256, rng)
    for p in enc.parameters() + workers.parameters():
        p.data = p.data.astype(np.float64)
        if p.name.endswith("prelu/alpha"):
            p.data[:] = 1.0

    clean = [rng.uniform(-0.5, 0.5, 3200) for _ in range(2)]
    std = W.TargetStandardizer()
    std.fit([c.astype(np.float32) for c in clean])

    x_a = np.stack(clean)[:, None, :]
    x_b = rng.uniform(-0.5, 0.5, (2, 1, 3200))
    utts = ["a", "b"]
    lim_idx = W.lim_sample(utts, 20, np.random.default_rng(1))
    gim_idx = W.gim_sample(utts, [0, 1], [2, 3], np.random.default_rng(2))

    def build():
        emb_a = enc.forward(Tensor(x_a.copy()), training=True)
        emb_b = enc.forward(Tensor(x_b.copy()), training=True)
        return W.total_loss(list(workers.losses(emb_a, emb_b, clean, std, lim_idx, gim_idx).values()))

    return build, enc.parameters() + workers.parameters()


def test_criterion_gradient_suite():
    started = time.time()
    worst_op = 0.0
    for name, case in _op_cases().items():
        rng = _case_rng(name)
        build, params = case(rng)
        err = gradcheck(build, params, n_coords=8, h=1e-5, rng=rng)
        worst_op = max(worst_op, err)
        assert err < 1e-3, f"op {name}: max rel err {err:.2e}"

    rng = _case_rng("full_graph")
    build, params = _full_graph_builder(rng)
    graph_err = gradcheck(build, params, n_coords=1, h=1e-5, rng=rng)
    elapsed = time.time() - started
    ok = worst_op < 1e-3 and graph_err < 1e-3 and elapsed < 300
    report(
        "gradient-suite",
        ok,
        f"ops {worst_op:.2e}, full graph {graph_err:.2e}, {elapsed:.0f}s",
    )


# --- criterion: QRNN equivalence -----------------------------------------------------


def test_criterion_qrnn_equivalence():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        b = int(rng.integers(1, 4))
        c = int(rng.integers(1, 8))
        h = int(rng.integers(1, 10))
        t = int(rng.integers(2, 50))
        k = int(rng.integers(1, 5))
        layer = QRNNLayer(c, h, rng, "q")
        for p in layer.parameters():  # gates of k frames: the pad follows the weights
            p.data = rng.standard_normal((h, c, k) if p.data.ndim == 3 else p.data.shape)
        x = Tensor(rng.standard_normal((b, c, t)))
        got = layer.forward(x).data
        want = sequential_qrnn(
            x.data,
            layer.w_z.data, layer.b_z.data,
            layer.w_f.data, layer.b_f.data,
            layer.w_o.data, layer.b_o.data,
            k,
        )
        worst = max(worst, float(np.max(np.abs(got - want))))
    report("qrnn-equivalence", worst < 1e-10, f"max |diff| {worst:.2e} over 100 configs")


# --- criterion: distortion statistics --------------------------------------------------


def test_criterion_distortion_statistics():
    rng = np.random.default_rng(0)
    cfg = DistortionConfig()
    cfg.reverb.rir_pool = [
        ImpulseResponse(np.array([1.0, 0.3, 0.1]), SR, 0.3),
        ImpulseResponse(np.array([0.9, 0.0, 0.2, 0.05]), SR, 0.3),
    ]
    cfg.noise.noise_pool = [Waveform(rng.standard_normal(4000).astype(np.float32) * 0.2, SR)]
    cfg.overlap.speech_pool = [
        (Waveform(rng.standard_normal(5000).astype(np.float32) * 0.2, SR), "other")
    ]
    p_true = {"reverb": 0.5, "noise": 0.4, "freq_mask": 0.4,
              "temporal_mask": 0.2, "clip": 0.2, "overlap": 0.1}

    n = 10_000
    counts = dict.fromkeys(p_true, 0)
    gen = np.random.default_rng(2024)
    chunk = Chunk("u", 0, rng.uniform(-0.6, 0.6, 32000).astype(np.float32), SR)
    for _ in range(n):
        _, applied = contaminate(chunk, cfg, gen)
        for entry in applied:
            counts[entry["kind"]] += 1

    detail = []
    ok = True
    for kind, p in p_true.items():
        sigma = np.sqrt(p * (1 - p) / n)
        dev = abs(counts[kind] / n - p)
        ok &= dev <= 3 * sigma
        detail.append(f"{kind} {counts[kind] / n:.3f}")
    report("distortion-statistics", ok, ", ".join(detail))


# --- criterion: acoustic oracles -------------------------------------------------------


def test_criterion_acoustic_oracles():
    rng = np.random.default_rng(1)
    t = np.arange(SR) / SR

    snr_ok = True
    speech = Waveform((0.1 * np.sin(2 * np.pi * 220 * t)).astype(np.float32), SR)
    for snr_req in np.linspace(0.0, 10.0, 11):
        noise = Waveform(rng.standard_normal(SR).astype(np.float32) * 0.05, SR)
        out = mix_noise(speech, noise, float(snr_req))
        measured = measured_snr_db(out.samples, speech.samples)
        snr_ok &= abs(measured - snr_req) <= 0.1

    t60_devs = []
    for target, room, order in (
        (0.3, (4.0, 3.0, 2.5), 40),
        (0.6, (5.0, 4.0, 3.0), 45),
        (0.9, (8.0, 6.0, 4.0), 45),
    ):
        src = (room[0] * 0.31, room[1] * 0.42, room[2] * 0.5)
        mic = (room[0] * 0.71, room[1] * 0.57, room[2] * 0.45)
        ir = generate_rir_image_method(room, src, mic, t60=target, max_order=order)
        estimate = schroeder_t60(ir.taps, SR)
        t60_devs.append(abs(estimate - target) / target)
    t60_ok = max(t60_devs) < 0.25

    stop_ok = True
    for lo, hi in DistortionConfig().freq_mask.band_pool:
        center = 0.5 * (lo + hi)
        sine = Waveform((0.4 * np.sin(2 * np.pi * center * t)).astype(np.float32), SR)
        out = apply_freq_mask(sine, (lo, hi))
        att = 20 * np.log10(
            np.sqrt(np.mean(out.samples[2000:-2000] ** 2))
            / np.sqrt(np.mean(sine.samples[2000:-2000] ** 2))
        )
        stop_ok &= att <= -20.0

    report(
        "acoustic-oracles",
        snr_ok and t60_ok and stop_ok,
        f"snr {snr_ok}, t60 max dev {max(t60_devs) * 100:.0f}%, stopband {stop_ok}",
    )


# --- criterion: feature oracles --------------------------------------------------------


def test_criterion_feature_oracles():
    rng = np.random.default_rng(7)
    frames = rng.uniform(-0.8, 0.8, (4, 400))

    spectrum = power_spectrum(frames)
    lps = SPECTRAL_MAPS["lps"](spectrum)
    fbank = SPECTRAL_MAPS["fbank"](spectrum)
    cepstra = SPECTRAL_MAPS["mfcc"](spectrum)
    weights, _ = mel_filterbank()

    worst = 0.0
    for i in range(frames.shape[0]):
        power = naive_dft_power(frames[i], 512)
        lps_want = np.log(np.maximum(power, LOG_FLOOR))
        fbank_want = np.log(np.maximum(weights @ power, LOG_FLOOR))
        mfcc_want = naive_dct2_orthonormal(fbank_want)[:13]
        for got, want in ((lps[i], lps_want), (fbank[i], fbank_want), (cepstra[i], mfcc_want)):
            worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-9))))
    oracle_ok = worst < 1e-6

    power = np.exp(lps)
    full = power[:, 0] + power[:, -1] + 2.0 * power[:, 1:-1].sum(axis=1)
    parseval = np.max(np.abs(full / 512.0 - (frames**2).sum(axis=1)) / (frames**2).sum(axis=1))
    parseval_ok = parseval < 1e-6

    slope = 0.731
    ramp = (slope * np.arange(50))[:, None] * np.ones((1, 3))
    with_d = add_deltas(ramp)
    delta_err = float(np.max(np.abs(with_d[2:48, 3:6] - slope)))
    deltas_ok = delta_err < 1e-12

    report(
        "feature-oracles",
        oracle_ok and parseval_ok and deltas_ok,
        f"brute force {worst:.1e}, parseval {parseval:.1e}, ramp {delta_err:.1e}",
    )


# --- criterion: shape contract ----------------------------------------------------------


def test_criterion_shape_contract():
    enc = Encoder(EncoderConfig(), np.random.default_rng(0))
    chunk = np.random.default_rng(1).uniform(-0.5, 0.5, 2 * SR).astype(np.float32)
    emb = enc.frozen().encode(chunk)
    shapes_ok = emb.shape == (200, 256)
    dim_ok = W.target_dim("mfcc") == 13 * 3 * 7 == 273
    report("shape-contract", shapes_ok and dim_ok, f"embedding {emb.shape}, mfcc dim {W.target_dim('mfcc')}")


# --- criteria on the shared training run ---------------------------------------------------


def _total_losses_by_step(csv_path):
    totals = {}
    for row in open(csv_path, encoding="utf-8").read().strip().splitlines()[1:]:
        step, worker, loss = row.split(",")
        if worker == "total":
            totals[int(step)] = float(loss)
    return totals


def test_criterion_training_descent(toy_run):
    totals = _total_losses_by_step(toy_run["losses"])
    steps = sorted(totals)
    epochs = toy_run["cfg"].epochs
    steps_per_epoch = max(steps) // epochs
    epoch1 = [totals[s] for s in steps if s <= steps_per_epoch]
    epoch1_mean = float(np.mean(epoch1))
    final = totals[max(steps)]
    descent_ok = final <= 0.7 * epoch1_mean

    # LIM discriminator accuracy on held-out triples: fresh clean chunk
    # draws (offsets never seen in training), eval-mode encoder
    model, _ = load_model(toy_run["final"])
    rows = [
        row.split("\t")
        for row in open(toy_run["corpus"]["train"], encoding="utf-8").read().splitlines()
        if row and not row.startswith("#")
    ]
    rng = np.random.default_rng(99)
    embeddings = []
    utt_ids = []
    from pase.audio_io import draw_chunk, read_wav

    frozen = model.encoder.frozen()  # the bits of Encoder.encode, built once
    for utt, spk, path in rows[:10]:
        wave = read_wav(path)
        chunk = draw_chunk(wave, rng, utt)
        embeddings.append(frozen.encode(chunk.samples))
        utt_ids.append(utt)
    emb = Tensor(np.stack(embeddings).transpose(0, 2, 1))

    hits = 0
    trials = 0
    head = model.workers.heads["lim"]
    for _ in range(40):
        sample = W.lim_sample(utt_ids, emb.shape[2], rng, per_element=4)
        with ad.no_grad():
            anchor = ad.index(emb, np.s_[sample.anchor_elem, :, sample.anchor_frame])
            positive = ad.index(emb, np.s_[sample.anchor_elem, :, sample.positive_frame])
            negative = ad.index(emb, np.s_[sample.negative_elem, :, sample.negative_frame])
            pos_logit = head.forward(ad.concat([anchor, positive], axis=1)).data
            neg_logit = head.forward(ad.concat([anchor, negative], axis=1)).data
        hits += int((pos_logit > 0).sum() + (neg_logit <= 0).sum())
        trials += pos_logit.size + neg_logit.size
    lim_acc = hits / trials

    runtime_ok = toy_run["wall_seconds"] < 1800
    report(
        "training-descent",
        descent_ok and lim_acc > 0.7 and runtime_ok,
        f"final {final:.3f} vs 0.7*epoch1 {0.7 * epoch1_mean:.3f}, "
        f"lim acc {lim_acc:.2f}, wall {toy_run['wall_seconds']:.0f}s",
    )


def test_criterion_probe_lift(toy_run):
    trained = probe(toy_run["final"], toy_run["corpus"]["probe"], seed=0)
    baseline = probe(toy_run["init"], toy_run["corpus"]["probe"], seed=0)
    ok = trained["test_accuracy"] > 0.5 and trained["test_accuracy"] > baseline["test_accuracy"]
    report(
        "probe-lift",
        ok,
        f"pretrained {trained['test_accuracy']:.2f} vs random-init "
        f"{baseline['test_accuracy']:.2f} (chance 0.25, n_test {trained['n_test']})",
    )


def test_criterion_reproducibility(toy_run, tmp_path):
    corpus = toy_run["corpus"]

    def short_cfg(out):
        return TrainConfig(
            clean_manifest=corpus["train"],
            noise_manifest=corpus["noise"],
            checkpoint_dir=str(out),
            epochs=2,
            seed=777,
            rir_count=6,
            rir_max_order=8,
        )

    final_a = pretrain(short_cfg(tmp_path / "a"))
    final_b = pretrain(short_cfg(tmp_path / "b"))
    ckpt_same = open(final_a, "rb").read() == open(final_b, "rb").read()
    csv_same = (
        open(tmp_path / "a" / "losses.csv").read()
        == open(tmp_path / "b" / "losses.csv").read()
    )

    model, _ = load_model(final_a)
    chunk = np.random.default_rng(5).uniform(-0.5, 0.5, 2 * SR).astype(np.float32)
    emb_a = model.encoder.frozen().encode(chunk)
    resaved = str(tmp_path / "resaved.pckp")
    T.save_model(resaved, model)
    model_b, _ = load_model(resaved)
    round_trip = np.array_equal(emb_a, model_b.encoder.frozen().encode(chunk))

    report(
        "reproducibility",
        ckpt_same and csv_same and round_trip,
        f"checkpoints {ckpt_same}, csv {csv_same}, round trip {round_trip}",
    )
