import tracemalloc

import numpy as np
import pytest

import pase.autodiff as ad
from pase.autodiff import Tensor
from pase.autodiff import BN_EPS
from pase.encoder import (
    ConvBlock,
    Encoder,
    EncoderConfig,
    QRNNLayer,
    SincLayer,
    SkipAggregate,
    sinc_bandpass_kernels,
)
from pase.errors import ConfigError, ShapeMismatch, TooShort
from pase.optim import Adam

from oracles import gradcheck, sequential_qrnn

SR = 16000


def small_config():
    return EncoderConfig(
        sinc_filters=8,
        sinc_kernel=65,
        block_channels=(8, 16, 16, 16, 16, 16, 16),
        block_kernels=(11, 5, 5, 5, 5, 5, 5),
        block_strides=(10, 2, 2, 2, 2, 1, 1),
        qrnn_hidden=16,
        embedding_dim=16,
    )


def test_config_requires_160_sample_hop():
    cfg = EncoderConfig()
    assert cfg.hop_samples == 160
    bad = EncoderConfig(block_strides=(10, 2, 2, 2, 1, 1, 1))
    with pytest.raises(ConfigError, match="block_strides"):
        bad.validate()


def test_default_meta_strings():
    assert EncoderConfig().to_meta() == {
        "sample_rate": "16000",
        "sinc_filters": "64",
        "sinc_kernel": "251",
        "sinc_stride": "1",
        "block_channels": "64,128,128,256,256,256,256",
        "block_kernels": "21,11,11,11,11,11,11",
        "block_strides": "10,2,2,2,2,1,1",
        "qrnn_hidden": "256",
        "qrnn_kernel": "2",
        "embedding_dim": "256",
        "sinc_min_low_hz": "30.0",
        "sinc_min_band_hz": "50.0",
    }


def test_config_meta_round_trip():
    cfg = small_config()
    back = EncoderConfig.from_meta(cfg.to_meta())
    assert back == cfg


# --- sinc layer --------------------------------------------------------------------


def test_sinc_constraint_enforces_min_bandwidth():
    layer = SincLayer(EncoderConfig(), np.random.default_rng(0), "s")
    layer.p_band.data[:] = 0.0  # collapse every requested band
    f1, f2 = layer.cutoffs()
    assert np.all(f2 - f1 >= 50.0)
    assert np.all(f1 > 0.0)
    assert np.all(f2 < SR / 2)
    kernels = layer.kernels()
    assert np.all(np.any(kernels.data != 0.0, axis=2))  # non-degenerate


def test_sinc_constraint_handles_extreme_parameters():
    layer = SincLayer(EncoderConfig(), np.random.default_rng(0), "s")
    layer.p_low.data[:] = 1e7  # way past Nyquist before the cap
    layer.p_band.data[:] = 1e7
    f1, f2 = layer.cutoffs()
    assert np.all((0 < f1) & (f1 < f2) & (f2 < SR / 2))


def test_sinc_kernel_band_pass_response():
    p_low = Tensor(np.array([1000.0 - 30.0]), requires_grad=True)
    p_band = Tensor(np.array([2000.0 - 1000.0 - 50.0]), requires_grad=True)
    kernels = sinc_bandpass_kernels(p_low, p_band, 251, SR, 30.0, 50.0)
    response = np.abs(np.fft.rfft(kernels.data[0, 0], n=4096))
    freqs = np.fft.rfftfreq(4096, 1.0 / SR)
    at = lambda f: response[np.argmin(np.abs(freqs - f))]
    assert at(1500.0) >= 10.0 * at(4000.0)
    assert at(1500.0) >= 10.0 * at(300.0)


def test_sinc_cutoff_gradients_match_fd(rng):
    p_low = Tensor(rng.uniform(100, 2000, 4), requires_grad=True)
    p_band = Tensor(rng.uniform(100, 1000, 4), requires_grad=True)

    def build():
        k = sinc_bandpass_kernels(p_low, p_band, 65, SR, 30.0, 50.0)
        return ad.mean(ad.mul(k, k))

    err = gradcheck(build, [p_low, p_band], n_coords=4, rng=rng)
    assert err < 1e-3


# --- front end: the sinc filters, then block0's conv ------------------------------


def two_convs(front: SincLayer, x: Tensor) -> Tensor:
    """The front end as it trains: the sinc conv, then block0's conv."""
    h = ad.conv1d(x, front.kernels(), stride=front.cfg.sinc_stride, padding=front.pad)
    return ad.conv1d(h, front.w, front.b, stride=front.conv_stride, padding=front.conv_pad)


def with_eval_state(enc: Encoder, rng) -> Encoder:
    """Random running statistics, gamma, beta, PReLU slopes and conv biases,
    in each array's own dtype, so no fold meets a trivial value."""
    for p in enc.parameters():
        if p.name.endswith(("/b", "/beta")):
            p.data = rng.normal(0.0, 0.1, p.shape).astype(p.data.dtype)
        elif p.name.endswith("/gamma"):
            p.data = rng.uniform(0.5, 1.5, p.shape).astype(p.data.dtype)
        elif p.name.endswith("/alpha"):
            p.data = rng.uniform(0.05, 0.5, p.shape).astype(p.data.dtype)
    for block in enc.blocks:
        block.running_mean[:] = rng.normal(0.0, 0.1, block.running_mean.shape)
        block.running_var[:] = rng.uniform(0.5, 2.0, block.running_var.shape)
    return enc


@pytest.mark.parametrize("config", [EncoderConfig, small_config])
@pytest.mark.parametrize("n", [32000, 8005])
@pytest.mark.parametrize("batch", [1, 2])
def test_frozen_layers_match_the_eval_ops_in_float64(config, n, batch):
    rng = np.random.default_rng(n + batch)
    enc = Encoder(config(), rng)
    for p in enc.parameters():
        p.data = p.data.astype(np.float64)
    with_eval_state(enc, rng)
    x = Tensor(rng.uniform(-0.5, 0.5, (batch, 1, n)))
    with ad.no_grad():
        frozen = enc.forward(x, training=False).data
    unfused = enc.forward(x, training=False)  # grad on: batch norm, PReLU and gates op by op
    assert unfused.requires_grad
    assert frozen.dtype == np.float64
    assert np.max(np.abs(frozen - unfused.data)) < 1e-10


def test_frozen_encode_is_encode_and_the_layer_walk_bit_for_bit():
    # the bits `extract` writes with a frozen encoder are the bits of
    # `Encoder.encode` and of the layers run one by one under no_grad
    rng = np.random.default_rng(11)
    enc = with_eval_state(Encoder(EncoderConfig(), rng), rng)
    chunk = rng.uniform(-0.5, 0.5, 32000).astype(np.float32)
    with ad.no_grad():
        h = enc.sinc.forward(Tensor(chunk[None, None, :]))
        outs = []
        for block in enc.blocks:
            h = block.forward(h, False)
            outs.append(h)
        agg = enc.skip.forward(outs, enc.skip_selects, 200)
        walk = ad.conv1d(enc.qrnn.forward(agg), enc.emb_w, enc.emb_b).data[0].T
    frozen = enc.frozen().encode(chunk)
    assert frozen.dtype == np.float32 and frozen.shape == (200, 256)
    assert frozen.tobytes() == enc.frozen().encode(chunk).tobytes()
    assert frozen.tobytes() == np.ascontiguousarray(walk).tobytes()


def test_encode_reads_updated_weights_and_a_frozen_form_keeps_its_snapshot(rng):
    enc = Encoder(small_config(), rng)
    chunk = rng.uniform(-0.5, 0.5, 8000).astype(np.float32)
    frozen = enc.frozen()
    before = enc.frozen().encode(chunk)
    w = enc.blocks[3].w
    w.grad = np.ones_like(w.data)
    Adam([w]).step(1e-2)  # updates w.data in place
    after = enc.frozen().encode(chunk)
    assert not np.array_equal(after, before)
    assert after.tobytes() == enc.frozen().encode(chunk).tobytes()
    assert frozen.encode(chunk).tobytes() == before.tobytes()


@pytest.mark.parametrize("config", [EncoderConfig, small_config])
@pytest.mark.parametrize("n", [32000, 8000, 8005])
@pytest.mark.parametrize("batch", [1, 2])
def test_folded_front_end_matches_two_convs(config, n, batch):
    rng = np.random.default_rng(n + batch)
    enc = Encoder(config(), rng)
    for p in enc.parameters():
        p.data = p.data.astype(np.float64)
    enc.sinc.b.data = rng.standard_normal(enc.sinc.b.shape)  # a bias the edge frames must carry
    x = Tensor(rng.uniform(-0.5, 0.5, (batch, 1, n)))
    with ad.no_grad():
        want = two_convs(enc.sinc, x).data
        got = enc.sinc.forward(x).data
        folded = enc.forward(x, training=False).data
    assert got.shape == want.shape
    for frame in (0, -1):  # block0's zero padding of the sinc output
        assert np.max(np.abs(got[:, :, frame] - want[:, :, frame])) < 1e-10
    assert np.max(np.abs(got - want)) < 1e-10
    unfolded = enc.forward(x, training=False)  # grad on: the two convs
    assert unfolded.requires_grad
    assert np.max(np.abs(folded - unfolded.data)) < 1e-10


def front_end_grads(front: SincLayer, x: Tensor, g: np.ndarray, run) -> list[np.ndarray]:
    """The output of run(front, x), then the gradients of sum(output * g) at
    p_low, p_band, block0's w and b, and at x when it requires one."""
    leaves = front.parameters() + ([x] if x.requires_grad else [])
    for leaf in leaves:
        leaf.grad = None
    out = run(front, x)
    assert out.requires_grad
    ad.sum_(ad.mul(out, Tensor(g))).backward()
    return [out.data] + [leaf.grad for leaf in leaves]


def test_front_end_with_grad_is_the_two_convs_bit_for_bit(rng, monkeypatch):
    def unpadded_block0():  # sinc stride 1, block0 kernel 1 and so padding 0
        return EncoderConfig(sinc_filters=8, sinc_kernel=65, block_channels=(8,) + (16,) * 6,
                             block_kernels=(1,) + (5,) * 6, qrnn_hidden=16, embedding_dim=16)

    cases = [  # config, dtype, batch, samples, x requires grad, im2col budget
        (EncoderConfig, np.float32, 2, 32000, False, None),  # training: one item per block
        (EncoderConfig, np.float32, 2, 8005, True, None),
        (EncoderConfig, np.float64, 2, 8005, False, None),
        (unpadded_block0, np.float32, 3, 1605, True, None),
        (unpadded_block0, np.float64, 5, 1600, True, 2 * 1600 * 65),  # sinc blocks of 2, 2 and 1
    ]
    for config, dtype, batch, n, x_grad, budget in cases:
        monkeypatch.setattr(ad, "_COL_BUDGET", budget or ad._COL_BUDGET)
        enc = Encoder(config(), rng)
        front = enc.sinc
        for p in front.parameters():
            p.data = p.data.astype(dtype)
        front.b.data = rng.standard_normal(front.b.shape).astype(dtype)
        x = Tensor(rng.uniform(-0.5, 0.5, (batch, 1, n)).astype(dtype), requires_grad=x_grad)
        g = rng.standard_normal(two_convs(front, x).shape).astype(dtype)
        got = front_end_grads(front, x, g, SincLayer.forward)
        want = front_end_grads(front, x, g, two_convs)
        assert len(got) == (6 if x_grad else 5)
        assert got[0].dtype == dtype
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), (config.__name__, dtype, batch, n)


def test_front_end_backward_holds_no_whole_batch_gradient_of_the_sinc_output(rng):
    # at the default config and 2 s chunks the vjp runs one item at a time;
    # the two conv1d vjps it replaces build the (B, 64, T) gradient first.
    # B=8: at B=4 one item's sinc im2col (251 x T) and gradient (64 x T)
    # alone outgrow a (4, 64, T) array
    enc = Encoder(EncoderConfig(), rng)
    front = enc.sinc
    x = Tensor(rng.uniform(-0.5, 0.5, (8, 1, 32000)).astype(np.float32))
    out = front.forward(x)
    whole = 8 * front.cfg.sinc_filters * 32000 * out.dtype.itemsize
    g = rng.standard_normal(out.shape).astype(np.float32)

    def vjp_peak(run):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()

    assert vjp_peak(lambda: out._vjp(g)) < whole
    del out
    sinc_out = ad.conv1d(x, front.kernels(), padding=front.pad)
    block0 = ad.conv1d(sinc_out, front.w, front.b, stride=front.conv_stride, padding=front.conv_pad)
    assert vjp_peak(lambda: sinc_out._vjp(block0._vjp(g)[0])) > whole


def test_parameter_names_and_order_are_the_checkpoint_layout():
    enc = Encoder(EncoderConfig(), np.random.default_rng(0))
    want = ["encoder/sinc/p_low", "encoder/sinc/p_band"]
    for i in range(7):
        want += [f"encoder/block{i}/{n}" for n in ("conv/w", "conv/b", "bn/gamma", "bn/beta", "prelu/alpha")]
    want += [f"encoder/skip/proj{i}/{n}" for i in range(7) for n in ("w", "b")]
    want += [f"encoder/qrnn/{gate}/{n}" for gate in "zfo" for n in ("w", "b")]
    want += ["encoder/emb/w", "encoder/emb/b"]
    assert [p.name for p in enc.parameters()] == want
    assert list(enc.buffers()) == [
        f"encoder/block{i}/bn/{n}" for i in range(7) for n in ("running_mean", "running_var")
    ]
    shapes = {p.name: p.shape for p in enc.parameters()}
    assert shapes["encoder/block0/conv/w"] == (64, 64, 21)
    assert shapes["encoder/block1/conv/w"] == (128, 64, 11)
    # every weight tensor is drawn from the Generator in this order, so the
    # signs of its values are the signs of the draws
    draws = np.random.default_rng(0)
    for p in enc.parameters():
        if p.name.endswith("/w"):
            assert np.array_equal(np.sign(p.data), np.sign(draws.standard_normal(p.shape))), p.name


# --- conv block -------------------------------------------------------------------


def test_conv_block_reduces_to_plain_conv_in_eval(rng):
    block = ConvBlock(3, 4, 5, 2, rng, "b")
    block.alpha.data[:] = 1.0  # PReLU with slope 1 is the identity
    x = Tensor(rng.standard_normal((2, 3, 20)).astype(np.float32))
    got = block.forward(x, training=False)
    plain = ad.conv1d(x, block.w, block.b, stride=2, padding=2)
    bn_scale = 1.0 / np.sqrt(1.0 + BN_EPS)
    assert np.allclose(got.data, plain.data * bn_scale, atol=1e-6)


def test_conv_block_output_length_formula(rng):
    block = ConvBlock(3, 4, 11, 4, rng, "b")
    x = Tensor(rng.standard_normal((1, 3, 103)).astype(np.float32))
    out = block.forward(x, training=False)
    t_out = (103 + 2 * 5 - 11) // 4 + 1
    assert out.data.shape == (1, 4, t_out)


def test_conv_block_normalizes_in_training(rng):
    block = ConvBlock(3, 4, 5, 1, rng, "b")
    block.alpha.data[:] = 1.0  # PReLU with slope 1 is the identity
    x = Tensor(rng.standard_normal((4, 3, 50)).astype(np.float32))
    normed = block.forward(x, training=True)
    means = normed.data.mean(axis=(0, 2))
    assert np.max(np.abs(means)) < 1e-5  # pre-activation is centered


# --- skip aggregation ----------------------------------------------------------------


def test_skip_single_path_identity_projection(rng):
    skip = SkipAggregate((3,), 3, rng, "skip")
    w, b = skip.projections[0]
    w.data = np.eye(3, dtype=np.float32)[:, :, None]
    b.data[:] = 0.0
    x = Tensor(rng.standard_normal((2, 3, 8)).astype(np.float32))
    out = skip.forward([x], [1], 8)
    assert np.allclose(out.data, x.data, atol=1e-7)


def test_skip_zero_projections_leave_last_path(rng):
    skip = SkipAggregate((3, 3), 3, rng, "skip")
    w0, b0 = skip.projections[0]
    w0.data[:] = 0.0
    b0.data[:] = 0.0
    w1, b1 = skip.projections[1]
    w1.data = np.eye(3, dtype=np.float32)[:, :, None]
    b1.data[:] = 0.0
    first = Tensor(rng.standard_normal((1, 3, 12)).astype(np.float32))
    last = Tensor(rng.standard_normal((1, 3, 6)).astype(np.float32))
    out = skip.forward([first, last], [2, 1], 6)
    assert np.allclose(out.data, last.data, atol=1e-7)


def test_skip_gradient_reaches_every_projection(rng):
    skip = SkipAggregate((3, 5), 4, rng, "skip")
    a = Tensor(rng.standard_normal((2, 3, 16)).astype(np.float32))
    b = Tensor(rng.standard_normal((2, 5, 8)).astype(np.float32))
    out = skip.forward([a, b], [2, 1], 8)
    ad.mean(ad.mul(out, out)).backward()
    for w, bias in skip.projections:
        assert w.grad is not None and np.any(w.grad)
        assert bias.grad is not None


def test_skip_path_with_too_few_frames_raises(rng):
    skip = SkipAggregate((3,), 3, rng, "skip")
    x = Tensor(rng.standard_normal((1, 3, 15)).astype(np.float32))
    with pytest.raises(ShapeMismatch):
        skip.forward([x], [4], 5)  # frames 0, 4, 8, 12: one short
    with pytest.raises(ShapeMismatch):
        skip.forward([x], [1], 16)


def test_skip_path_at_final_rate_is_not_copied(rng):
    skip = SkipAggregate((3,), 3, rng, "skip")
    x = Tensor(rng.standard_normal((1, 3, 6)).astype(np.float32), requires_grad=True)
    out = skip.forward([x], [1], 6)
    assert out._parents[0] is x  # the projection reads the path itself


# --- QRNN ------------------------------------------------------------------------


def test_qrnn_forced_forget_gate_limits(rng):
    layer = QRNNLayer(4, 4, 2, rng, "q")
    x = Tensor(rng.standard_normal((2, 4, 10)).astype(np.float32))

    layer.w_f.data[:] = 0.0
    layer.b_f.data[:] = 60.0  # F == 1: cell state frozen at its zero init
    out = layer.forward(x)
    assert np.allclose(out.data, 0.0, atol=1e-12)

    layer.b_f.data[:] = -60.0  # F == 0: memoryless, h = o * z
    out = layer.forward(x)
    z, _, o = layer.gates(x)
    assert np.allclose(out.data, o.data * z.data, atol=1e-7)


def test_qrnn_gate_ranges(rng):
    layer = QRNNLayer(4, 6, 2, rng, "q")
    x = Tensor((rng.standard_normal((2, 4, 30)) * 50).astype(np.float32))
    z, f, o = layer.gates(x)
    assert np.all((z.data > -1.0) & (z.data < 1.0) | (np.abs(z.data) == 1.0))
    assert np.all((f.data >= 0.0) & (f.data <= 1.0))
    assert np.all((o.data >= 0.0) & (o.data <= 1.0))


@pytest.mark.parametrize("seed", range(5))
def test_qrnn_parallel_matches_sequential_reference(seed):
    rng = np.random.default_rng(seed)
    b, c, h, t, k = (
        int(rng.integers(1, 4)),
        int(rng.integers(1, 6)),
        int(rng.integers(1, 8)),
        int(rng.integers(2, 40)),
        int(rng.integers(1, 4)),
    )
    layer = QRNNLayer(c, h, k, rng, "q")
    for p in layer.parameters():
        p.data = rng.standard_normal(p.data.shape)  # float64 weights
    x = Tensor(rng.standard_normal((b, c, t)))
    got = layer.forward(x)
    want = sequential_qrnn(
        x.data,
        layer.w_z.data, layer.b_z.data,
        layer.w_f.data, layer.b_f.data,
        layer.w_o.data, layer.b_o.data,
        k,
    )
    assert np.max(np.abs(got.data - want)) < 1e-10


# --- full encoder ------------------------------------------------------------------


def test_encode_shape_contract():
    enc = Encoder(EncoderConfig(), np.random.default_rng(0))
    chunk = np.random.default_rng(1).uniform(-0.5, 0.5, 32000).astype(np.float32)
    emb = enc.frozen().encode(chunk)
    assert emb.shape == (200, 256)
    half = enc.frozen().encode(chunk[:8000])
    assert half.shape == (50, 256)


def test_encoder_small_shapes_and_determinism(rng):
    enc = Encoder(small_config(), rng)
    chunk = rng.uniform(-0.5, 0.5, 8000).astype(np.float32)
    batch = Tensor(np.stack([chunk, chunk])[:, None, :])
    out = enc.forward(batch, training=False)
    assert out.data.shape == (2, 16, 50)
    assert np.array_equal(out.data[0], out.data[1])  # identical inputs agree
    again = enc.forward(batch, training=False)
    assert np.array_equal(out.data, again.data)


def test_encoder_rejects_sub_hop_input(rng):
    enc = Encoder(small_config(), rng)
    with pytest.raises(TooShort):
        enc.forward(Tensor(np.zeros((1, 1, 100), dtype=np.float32)), training=False)


def test_every_parameter_gets_gradient(rng):
    enc = Encoder(small_config(), rng)
    x = Tensor(rng.uniform(-0.5, 0.5, (2, 1, 4000)).astype(np.float32))
    out = enc.forward(x, training=True)
    loss = ad.sum_(ad.mul(out, Tensor(rng.standard_normal(out.data.shape).astype(np.float32))))
    loss.backward()
    dead = [p.name for p in enc.parameters() if p.grad is None or not np.any(p.grad)]
    assert dead == []
