import tracemalloc

import numpy as np
import pytest

import pase.autodiff as ad
import pase.workers as W
from pase.audio_io import Chunk
from pase.autodiff import Tensor
from pase.distortion import DistortionConfig, contaminate
from pase.errors import EmptyList, FrameGridMismatch, SampleRateMismatch, SingleUtteranceBatch

from oracles import reference_fit_statistics, reference_regression_worker_loss, same_bytes

SR = 16000


def test_default_roster_has_twelve_unique_workers():
    roster = W.default_roster()
    assert len(roster) == 12
    names = [s.name for s in roster]
    assert len(set(names)) == 12
    kinds = {s.kind for s in roster}
    assert kinds == {"regression", "lim", "gim"}
    assert sum(s.kind == "regression" for s in roster) == 10


@pytest.mark.parametrize(
    "kind,dim",
    [
        ("wave", 160),
        ("lps", 257 * 3 * 7),
        ("mfcc", 13 * 3 * 7),  # 273, the shape contract
        ("fbank", 40 * 3 * 7),
        ("gammatone", 40 * 3 * 7),
        ("prosody", 4 * 3 * 7),
        ("lps_long", 257 * 3 * 7),
        ("mfcc_long", 13 * 3 * 7),
        ("fbank_long", 40 * 3 * 7),
        ("gammatone_long", 40 * 3 * 7),
    ],
)
def test_target_dims(kind, dim):
    assert W.target_dim(kind) == dim


def test_mfcc_worker_target_dim_is_273():
    assert W.target_dim("mfcc") == 13 * 3 * 7 == 273


def test_regression_targets_shapes(rng):
    samples = rng.uniform(-0.5, 0.5, 32000).astype(np.float32)
    wave_target = W.regression_targets(samples, "wave", SR)
    assert wave_target.shape == (200, 160)
    assert np.array_equal(wave_target.reshape(-1), samples.astype(np.float64))
    mfcc_target = W.regression_targets(samples, "mfcc", SR)
    assert mfcc_target.shape == (200, 273)


def test_targets_depend_only_on_clean_chunk(rng):
    clean = rng.uniform(-0.5, 0.5, 32000).astype(np.float32)
    chunk = Chunk("u", 0, clean, SR)
    cfg = DistortionConfig()
    cfg.reverb.p = cfg.noise.p = cfg.overlap.p = 0.0
    distorted_a, _ = contaminate(chunk, cfg, np.random.default_rng(1))
    distorted_b, _ = contaminate(chunk, cfg, np.random.default_rng(2))
    assert not np.array_equal(distorted_a.samples, distorted_b.samples)
    # the worker target never looks at either distorted variant
    t1 = W.regression_targets(clean, "fbank", SR)
    t2 = W.regression_targets(clean, "fbank", SR)
    assert np.array_equal(t1, t2)


def test_standardizer_round_trip(rng):
    chunks = [rng.uniform(-0.5, 0.5, 32000).astype(np.float32) for _ in range(3)]
    std = W.TargetStandardizer()
    std.fit(chunks)
    raw = W.regression_targets(chunks[0], "mfcc", SR)
    z = std.transform("mfcc", raw, np.empty(raw.shape, np.float32))
    assert z.dtype == np.float32
    assert np.all(np.isfinite(z))

    state = std.state()
    other = W.TargetStandardizer()
    other.load_state(state)
    assert np.array_equal(other.transform("mfcc", raw, np.empty(raw.shape, np.float32)), z)


def test_standardized_corpus_targets_have_unit_scale(rng):
    chunks = [rng.uniform(-0.5, 0.5, 32000).astype(np.float32) for _ in range(4)]
    std = W.TargetStandardizer()
    std.fit(chunks)
    raw = [W.regression_targets(c, "fbank", SR) for c in chunks]
    stacked = np.concatenate([std.transform("fbank", r, np.empty(r.shape, np.float32)) for r in raw])
    assert np.abs(stacked.mean(axis=0)).max() < 1e-3
    assert np.abs(stacked.std(axis=0) - 1.0).max() < 1e-3


@pytest.mark.parametrize(
    "lengths,silent",
    [([32000], False), ([32000] * 7, False), ([32000] * 9, False),
     ([32000, 8005, 8005, 32000], False), ([32000] * 2, True), ([1040] * 2, False)],
    ids=["1", "7", "9", "mixed", "silent", "5-frames"],
)
def test_fit_equals_the_stacked_fit_bitwise(rng, lengths, silent):
    # 9 chunks cross the fit's block of 8; mixed lengths split the blocks;
    # silent chunks put every std at the floor; 5 frames, the fewest deltas
    # take, repeat the edge frames of the outer context blocks more often
    # than the frames they follow
    chunks = [(rng.uniform(-0.5, 0.5, n) * (0.1 + i)).astype(np.float32) for i, n in enumerate(lengths)]
    chunks[-1][: len(chunks[-1]) // 2] = 0.0  # silence: log floors and zero deltas
    if silent:
        chunks = [np.zeros(n, dtype=np.float32) for n in lengths]
    std = W.TargetStandardizer()
    std.fit(chunks)
    mean, sd = reference_fit_statistics(chunks, SR)
    for kind in W.REGRESSION_KINDS:
        assert same_bytes(std.mean[kind], mean[kind]), kind
        assert same_bytes(std.std[kind], sd[kind]), kind


def test_fit_memory_does_not_grow_with_the_corpus(rng):
    chunks = [rng.uniform(-0.5, 0.5, 32000).astype(np.float32) for _ in range(8 * W.FIT_BLOCK)]

    def peak_bytes(subset):
        tracemalloc.start()
        try:
            W.TargetStandardizer().fit(subset)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # 64 KiB of slack for the interpreter's own bookkeeping, which moves by
    # about 2 KiB from run to run; one more chunk's features is about 3.5 MB
    assert peak_bytes(chunks) <= peak_bytes(chunks[: W.FIT_BLOCK]) + 64 * 1024


def test_fit_of_no_chunks_is_empty_list():
    with pytest.raises(EmptyList):
        W.TargetStandardizer().fit([])


def test_worker_head_capacity_is_fixed(rng):
    head = W.WorkerHead("h", 256, 273, rng)
    expected = 256 * 256 + 256 + 256 + 273 * 256 + 273
    assert sum(p.data.size for p in head.parameters()) == expected
    out = head.forward(Tensor(rng.standard_normal((5, 256)).astype(np.float32)))
    assert out.data.shape == (5, 273)


def test_regression_worker_loss_zero_when_head_matches(rng):
    samples = [rng.uniform(-0.3, 0.3, 32000).astype(np.float32)]
    std = W.TargetStandardizer()
    std.fit(samples)
    raw = W.regression_targets(samples[0], "mfcc", SR)
    target = std.transform("mfcc", raw, np.empty(raw.shape, np.float32))

    class PerfectHead:  # its hidden layer is the target, its output layer the identity
        w2 = Tensor(np.eye(target.shape[1], dtype=np.float32))
        b2 = Tensor(np.zeros(target.shape[1], dtype=np.float32))

        def hidden(self, flat):
            return Tensor(target.reshape(-1, target.shape[1]).astype(np.float32))

    emb = Tensor(rng.standard_normal((1, 256, 200)).astype(np.float32))
    spec = W.WorkerSpec("mfcc", "regression")
    loss = W.regression_worker_loss(emb, samples, spec, PerfectHead(), std, SR)
    assert loss.item() == 0.0


def test_wave_targets_and_loss_reject_other_sample_rates(rng):
    # at 8 kHz the waveform worker's frames would be 80 samples wide and fail
    # later as a shape error (the spectral kinds fail in their filterbanks)
    samples = rng.uniform(-0.3, 0.3, 16000).astype(np.float32)
    with pytest.raises(SampleRateMismatch, match="got 8000 Hz"):
        W.regression_targets(samples, "wave", 8000)
    emb = Tensor(rng.standard_normal((1, 8, 200)).astype(np.float32))
    head = W.WorkerHead("wave", 8, W.target_dim("wave"), rng)
    spec = W.WorkerSpec("wave", "regression")
    with pytest.raises(SampleRateMismatch, match="got 8000 Hz"):
        W.regression_worker_loss(emb, [samples], spec, head, W.TargetStandardizer(), 8000)


@pytest.mark.parametrize("fewer_frames", [0, 1])
def test_target_batch_equals_stacked_transforms(rng, monkeypatch, fewer_frames):
    # the batch regression_worker_loss standardizes in place equals np.stack
    # of the old transform's outputs, cut to the embedding's frames
    samples = [rng.uniform(-0.3, 0.3, 32000).astype(np.float32) for _ in range(3)]
    std = W.TargetStandardizer()
    std.fit(samples)
    seen = []
    linear_mse = ad.linear_mse

    def recording(h, w, b, pieces):
        pieces = list(pieces)
        target = np.full((h.shape[0], w.shape[0]), np.nan, np.float32)  # a gap stays NaN
        for rows, cols, values in pieces:
            target[rows, cols] = values
        seen.append(target)
        return linear_mse(h, w, b, pieces)

    monkeypatch.setattr(ad, "linear_mse", recording)
    for kind in W.REGRESSION_KINDS:
        raw = [W.regression_targets(c, kind, SR) for c in samples]
        old = np.stack([((r - std.mean[kind]) / std.std[kind]).astype(np.float32) for r in raw])
        assert same_bytes(std.transform(kind, raw[0], np.empty(old[0].shape, np.float32)), old[0]), kind
        frames = old.shape[1] - fewer_frames
        emb = Tensor(rng.standard_normal((3, 8, frames)).astype(np.float32))
        head = W.WorkerHead(kind, 8, W.target_dim(kind), rng)
        spec = W.WorkerSpec(kind, "regression")
        W.regression_worker_loss(emb, samples, spec, head, std, SR)
        assert same_bytes(seen[-1], old[:, :frames].reshape(3 * frames, -1)), kind


def test_regression_worker_frame_grid_mismatch(rng):
    samples = [rng.uniform(-0.3, 0.3, 32000).astype(np.float32)]
    std = W.TargetStandardizer()
    std.fit(samples)
    emb = Tensor(rng.standard_normal((1, 256, 150)).astype(np.float32))  # 50 off
    spec = W.WorkerSpec("mfcc", "regression")
    head = W.WorkerHead("h", 256, 273, rng)
    with pytest.raises(FrameGridMismatch):
        W.regression_worker_loss(emb, samples, spec, head, std, SR)


@pytest.mark.parametrize("kind", W.REGRESSION_KINDS)
def test_regression_worker_chunks_of_unequal_length(rng, kind):
    samples = [rng.uniform(-0.3, 0.3, n).astype(np.float32) for n in (32000, 31840)]
    std = W.TargetStandardizer()
    std.fit(samples)
    emb = Tensor(rng.standard_normal((2, 8, 200)).astype(np.float32))
    head = W.WorkerHead(kind, 8, W.target_dim(kind), rng)
    with pytest.raises(FrameGridMismatch, match="chunk 1 gives 199"):
        W.regression_worker_loss(emb, samples, W.WorkerSpec(kind, "regression"), head, std, SR)



@pytest.mark.parametrize("extra_frame", [0, 1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_worker_losses_equal_the_per_kind_path_bitwise(dtype, extra_frame):
    # WorkerSet.losses scores the ten regression heads from one target pass
    # and one flattened embedding; the per-kind path computed each head's
    # targets and flattened the embedding once per head. Every loss, every
    # parameter gradient and both embeddings' gradients keep their bits.
    rng = np.random.default_rng(5)
    b, c, n = 3, 8, 8000
    clean = [(rng.uniform(-0.5, 0.5, n) * (0.2 + i)).astype(dtype) for i in range(b)]
    clean[1][:2000] = 0.0  # silence: log floors and zero deltas
    std = W.TargetStandardizer()
    std.fit(clean)
    frames = n // 160 + extra_frame  # one frame more is truncated before the flatten
    emb_a, emb_b = (rng.standard_normal((b, c, frames)).astype(dtype) for _ in range(2))
    utts = ["a", "b", "c"]
    lim = W.lim_sample(utts, frames, rng, per_element=3)
    gim = W.gim_sample(utts, [0, 1, 2], [3, 4, 5], rng, per_element=2)

    def step(losses_of):
        workers = W.WorkerSet(c, np.random.default_rng(3))
        for p in workers.parameters():
            p.data = p.data.astype(dtype)
        a = Tensor(emb_a.copy(), requires_grad=True)
        bb = Tensor(emb_b.copy(), requires_grad=True)
        losses = losses_of(workers, a, bb)
        W.total_loss(list(losses.values())).backward()
        return losses, [p.grad for p in workers.parameters()] + [a.grad, bb.grad]

    def per_kind(workers, a, bb):
        out = {spec.name: reference_regression_worker_loss(a, clean, spec.name,
                                                           workers.heads[spec.name], std, SR)
               for spec in workers.roster if spec.kind == "regression"}
        out["lim"] = W.lim_worker_loss(a, lim, workers.heads["lim"])
        out["gim"] = W.gim_worker_loss(a, bb, gim, workers.heads["gim"])
        return out

    got, got_grads = step(lambda workers, a, bb: workers.losses(a, bb, clean, std, lim, gim))
    want, want_grads = step(per_kind)
    assert list(got) == list(want) == [spec.name for spec in W.default_roster()]
    for name in want:
        assert same_bytes(got[name].data, want[name].data), name
    assert len(got_grads) == len(want_grads) == 12 * 5 + 2
    for i, (g, w) in enumerate(zip(got_grads, want_grads)):
        assert same_bytes(g, w), i


# --- contrastive sampling ----------------------------------------------------------


def test_lim_sample_contracts(rng):
    utts = ["a", "a", "b", "c"]
    sample = W.lim_sample(utts, 200, rng)
    assert np.all(sample.anchor_frame != sample.positive_frame)
    for i, neg in enumerate(sample.negative_elem):
        assert utts[neg] != utts[i]


def test_lim_sample_two_utterances_cross(rng):
    utts = ["a", "b"]
    for _ in range(20):
        s = W.lim_sample(utts, 50, rng)
        assert list(s.negative_elem) == [1, 0]


def test_lim_sample_rejects_single_utterance(rng):
    with pytest.raises(SingleUtteranceBatch):
        W.lim_sample(["a", "a", "a"], 100, rng)


def test_lim_anchor_frames_uniform():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(5)
    frames = []
    for _ in range(5000):
        s = W.lim_sample(["a", "b"], 200, rng)
        frames.extend(s.anchor_frame.tolist())
    counts, _ = np.histogram(frames, bins=20, range=(0, 200))
    _, p = scipy_stats.chisquare(counts)
    assert p > 0.01


def test_gim_sample_contracts(rng):
    utts = ["a", "b", "c"]
    sample = W.gim_sample(utts, [10, 20, 30], [10, 99, 30], rng)
    for i, neg in enumerate(sample.negative_elem):
        assert utts[neg] != utts[i]
    assert sample.overlap_fallback == (0, 2)  # equal offsets flagged


def test_gim_mean_matches_naive_summation(rng):
    data = rng.standard_normal((3, 8, 20))
    got = ad.mean(Tensor(data), axis=2).data
    want = np.stack([[sum(data[b, c, t] for t in range(20)) / 20 for c in range(8)] for b in range(3)])
    assert np.max(np.abs(got - want)) < 1e-12


def test_gim_anchor_of_constant_embedding_equals_frames(rng):
    frame = rng.standard_normal((2, 8, 1))
    emb = Tensor(np.repeat(frame, 25, axis=2))
    anchor = ad.mean(emb, axis=2).data
    assert np.allclose(anchor, frame[:, :, 0], atol=1e-12)


# --- info-max loss ----------------------------------------------------------------


def test_infomax_loss_log2_at_zero_logits(rng):
    head = W.WorkerHead("h", 8, 1, rng)
    head.w2.data[:] = 0.0
    head.b2.data[:] = 0.0  # logits forced to 0 on every pair
    x = Tensor(rng.standard_normal((6, 4)).astype(np.float32))
    loss = W.infomax_loss(head, x, x, x)
    assert loss.item() == pytest.approx(np.log(2), rel=1e-6)


def test_infomax_loss_separable_case(rng):
    class SignHead:
        def forward(self, pair):
            anchor, other = pair.data[:, :4], pair.data[:, 4:]
            same = np.sign((anchor * other).sum(axis=1, keepdims=True))
            return Tensor((50.0 * same).astype(np.float32))

    anchor = Tensor(np.ones((5, 4), dtype=np.float32))
    positive = Tensor(np.ones((5, 4), dtype=np.float32))
    negative = Tensor(-np.ones((5, 4), dtype=np.float32))
    loss = W.infomax_loss(SignHead(), anchor, positive, negative)
    assert loss.item() < 1e-9


def test_infomax_loss_matches_direct_bce(rng):
    head = W.WorkerHead("h", 16, 1, rng)
    a = Tensor(rng.standard_normal((7, 8)).astype(np.float32))
    p = Tensor(rng.standard_normal((7, 8)).astype(np.float32))
    n = Tensor(rng.standard_normal((7, 8)).astype(np.float32))
    loss = W.infomax_loss(head, a, p, n)

    with ad.no_grad():
        pos = head.forward(ad.concat([a, p], axis=1)).data.reshape(-1).astype(np.float64)
        neg = head.forward(ad.concat([a, n], axis=1)).data.reshape(-1).astype(np.float64)
    sig = lambda z: 1.0 / (1.0 + np.exp(-z))
    direct = float(
        np.mean(np.concatenate([-np.log(sig(pos)), -np.log(1.0 - sig(neg))]))
    )
    assert loss.item() == pytest.approx(direct, abs=1e-6)


def test_total_loss_contracts(rng):
    one = Tensor(np.asarray(1.0, dtype=np.float32))
    three = Tensor(np.asarray(3.0, dtype=np.float32))
    assert W.total_loss([one, three]).item() == pytest.approx(2.0)
    assert W.total_loss([three]).item() == pytest.approx(3.0)

    losses = [Tensor(np.asarray(v)) for v in rng.uniform(0, 2, 12)]
    want = float(np.mean([t.data for t in losses]))
    assert W.total_loss(losses).item() == pytest.approx(want, abs=1e-12)

    with pytest.raises(EmptyList):
        W.total_loss([])


def test_total_loss_gradient_distributes_equally(rng):
    leaves = [Tensor(np.asarray(v), requires_grad=True) for v in rng.uniform(0, 1, 6)]
    W.total_loss(list(leaves)).backward()
    for leaf in leaves:
        assert leaf.grad == pytest.approx(1.0 / 6.0)


def test_worker_set_parameters_unique(rng):
    ws = W.WorkerSet(256, rng)
    names = [p.name for p in ws.parameters()]
    assert len(names) == len(set(names))
    assert len(ws.heads) == 12
    assert ws.heads["lim"].w1.data.shape == (256, 512)  # pair input
    assert ws.heads["wave"].w2.data.shape == (160, 256)
