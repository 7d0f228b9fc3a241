"""conv1d against the im2col reference conv, its batch blocking and dtypes.

`reference_conv1d` (tests/oracles.py) is an im2col conv1d whose GEMMs write
(T', O) and (T', C*K) results and transpose them afterwards. The library's
conv1d writes each GEMM result in the layout its consumer reads but sums
every output element in the same order, so on the encoder's own shapes the
two agree bit for bit.
"""

import numpy as np
import pytest

import pase.autodiff as ad
from pase.autodiff import Tensor
from pase.encoder import QRNN_KERNEL, EncoderConfig
from pase.features import SAMPLE_RATE

from oracles import reference_conv1d


def _encoder_conv_shapes(batch: int, seconds: float = 2.0):
    """(name, x shape, w shape, stride, padding, has bias) for every conv the
    default encoder runs on one training chunk."""
    cfg = EncoderConfig()
    t = int(seconds * SAMPLE_RATE)
    pad = (cfg.sinc_kernel - 1) // 2
    shapes = [("sinc", (batch, 1, t), (cfg.sinc_filters, 1, cfg.sinc_kernel), 1, pad, False)]
    t = t + 2 * pad - cfg.sinc_kernel + 1
    c = cfg.sinc_filters
    for i, (ch, k, s) in enumerate(zip(cfg.block_channels, cfg.block_kernels, cfg.block_strides)):
        pad = (k - 1) // 2
        shapes.append((f"block{i}", (batch, c, t), (ch, c, k), s, pad, True))
        t = (t + 2 * pad - k) // s + 1
        c = ch
    for ch in sorted(set(cfg.block_channels)):
        shapes.append((f"skip{ch}", (batch, ch, t), (cfg.embedding_dim, ch, 1), 1, 0, True))
    shapes.append(("qrnn", (batch, cfg.embedding_dim, t + QRNN_KERNEL - 1),
                   (cfg.qrnn_hidden, cfg.embedding_dim, QRNN_KERNEL), 1, 0, True))
    shapes.append(("emb", (batch, cfg.qrnn_hidden, t), (cfg.embedding_dim, cfg.qrnn_hidden, 1),
                   1, 0, True))
    return shapes


def _conv_and_grads(x, w, b, g, stride, padding):
    """Library conv1d forward and vjp: (out, dx, dw, db)."""
    xt, wt = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    bt = Tensor(b, requires_grad=True) if b is not None else None
    out = ad.conv1d(xt, wt, bt, stride=stride, padding=padding)
    grads = out._vjp(g)
    return (out.data, *grads) if b is not None else (out.data, *grads, None)


def _operands(rng, x_shape, w_shape, has_bias, stride, padding, dtype):
    x = rng.standard_normal(x_shape).astype(dtype)
    w = (rng.standard_normal(w_shape) / np.sqrt(w_shape[1] * w_shape[2])).astype(dtype)
    b = rng.standard_normal(w_shape[0]).astype(dtype) if has_bias else None
    t_out = (x_shape[2] + 2 * padding - w_shape[2]) // stride + 1
    g = rng.standard_normal((x_shape[0], w_shape[0], t_out)).astype(dtype)
    return x, w, b, g


@pytest.mark.parametrize(
    "name,x_shape,w_shape,stride,padding,has_bias",
    _encoder_conv_shapes(batch=2),
    ids=[s[0] for s in _encoder_conv_shapes(batch=2)],
)
def test_conv1d_bitwise_equals_reference_on_encoder_shapes(
    rng, name, x_shape, w_shape, stride, padding, has_bias
):
    x, w, b, g = _operands(rng, x_shape, w_shape, has_bias, stride, padding, np.float32)
    got = _conv_and_grads(x, w, b, g, stride, padding)
    want = reference_conv1d(x, w, b, g, stride=stride, padding=padding)
    for label, a, r in zip(("out", "dx", "dw", "db"), got, want):
        if r is None:
            assert a is None, label
            continue
        assert a.dtype == r.dtype == np.float32, label
        assert np.array_equal(a, r), f"{name} {label}"


@pytest.mark.parametrize(
    "x_shape,w_shape,stride,padding",
    [
        ((2, 3, 40), (4, 3, 3), 5, 1),  # stride > K: some inputs feed no output
        ((3, 4, 17), (5, 4, 1), 2, 0),  # K = 1
        ((2, 3, 9), (4, 3, 9), 1, 0),  # K = T: one output frame
        ((2, 2, 12), (3, 2, 3), 2, 6),  # padding > K: edge frames see only zeros
    ],
    ids=["stride_gt_k", "k1", "k_eq_t", "padding_gt_k"],
)
def test_conv1d_float64_edge_shapes_match_reference(rng, x_shape, w_shape, stride, padding):
    x, w, b, g = _operands(rng, x_shape, w_shape, True, stride, padding, np.float64)
    got = _conv_and_grads(x, w, b, g, stride, padding)
    want = reference_conv1d(x, w, b, g, stride=stride, padding=padding)
    for label, a, r in zip(("out", "dx", "dw", "db"), got, want):
        assert a.shape == r.shape, label
        np.testing.assert_allclose(a, r, rtol=1e-12, atol=1e-12, err_msg=label)


@pytest.mark.parametrize(
    "x_shape,w_shape,stride,padding",
    [
        ((2, 3, 20), (4, 3, 2), 3, 0),  # K < stride: residue 2 gets no tap
        ((3, 4, 17), (5, 4, 1), 2, 0),  # K = 1: one residue gets every tap
        ((2, 3, 24), (4, 3, 5), 3, 2),  # stride 3 does not divide T + 2*padding = 28
        ((2, 3, 24), (4, 3, 4), 2, 0),  # padding 0 with stride 2
    ],
    ids=["k2_stride3", "k1_stride2", "stride_not_dividing", "pad0_stride2"],
)
def test_conv1d_residue_major_dx_bitwise_equals_reference(rng, x_shape, w_shape, stride, padding):
    """dX gathers each tap into a residue-major buffer, then interleaves it:
    every input position still adds its taps in k order, so float32 bits
    equal the reference's strided scatter."""
    x, w, b, g = _operands(rng, x_shape, w_shape, True, stride, padding, np.float32)
    got = _conv_and_grads(x, w, b, g, stride, padding)
    want = reference_conv1d(x, w, b, g, stride=stride, padding=padding)
    for label, a, r in zip(("out", "dx", "dw", "db"), got, want):
        assert a.dtype == r.dtype == np.float32, label
        assert np.array_equal(a, r), label


def test_conv1d_block0_one_item_per_block_bitwise_equals_reference(rng, monkeypatch):
    """Block0 of the default encoder (stride 10, K = 21) on a 2 s chunk with
    every batch item in its own block, as the reference blocks it too."""
    (_, x_shape, w_shape, stride, padding, _), = [
        s for s in _encoder_conv_shapes(batch=2) if s[0] == "block0"]
    assert (stride, w_shape[2]) == (10, 21)
    monkeypatch.setattr(ad, "_COL_BUDGET", 1)
    x, w, b, g = _operands(rng, x_shape, w_shape, True, stride, padding, np.float32)
    got = _conv_and_grads(x, w, b, g, stride, padding)
    want = reference_conv1d(x, w, b, g, stride=stride, padding=padding)
    for label, a, r in zip(("out", "dx", "dw", "db"), got, want):
        assert np.array_equal(a, r), label


# (x shape, w shape, stride, padding): each fits several batch items in one
# im2col block under the default budget
_BLOCKED_SHAPES = [
    ((4, 64, 3200), (128, 64, 11), 2, 5),  # block1 of the default encoder
    ((4, 256, 201), (256, 256, 2), 1, 0),  # QRNN gates
    ((3, 5, 40), (6, 5, 3), 2, 1),
]


@pytest.mark.parametrize("x_shape,w_shape,stride,padding", _BLOCKED_SHAPES)
def test_conv1d_batch_blocks_exact_on_integer_data(
    rng, monkeypatch, x_shape, w_shape, stride, padding
):
    """Small integers make every partial sum exact, so bits cannot depend on
    how the batch is split, and any indexing slip in the block loops shows."""
    B, C, _ = x_shape
    t_out = (x_shape[2] + 2 * padding - w_shape[2]) // stride + 1
    assert ad._COL_BUDGET // (t_out * C * w_shape[2]) >= B  # one block by default
    x = rng.integers(-3, 4, x_shape).astype(np.float32)
    w = rng.integers(-3, 4, w_shape).astype(np.float32)
    b = rng.integers(-3, 4, w_shape[0]).astype(np.float32)
    g = rng.integers(-3, 4, (B, w_shape[0], t_out)).astype(np.float32)

    whole = _conv_and_grads(x, w, b, g, stride, padding)
    monkeypatch.setattr(ad, "_COL_BUDGET", 1)  # every batch item is its own block
    split = _conv_and_grads(x, w, b, g, stride, padding)
    for label, a, r in zip(("out", "dx", "dw", "db"), split, whole):
        assert np.array_equal(a, r), label


@pytest.mark.parametrize("x_shape,w_shape,stride,padding", _BLOCKED_SHAPES)
def test_conv1d_batch_blocks_on_float_data(rng, monkeypatch, x_shape, w_shape, stride, padding):
    """Output, dX and db are per batch item, so their bits cannot depend on
    the split. dW sums over the batch: one GEMM per block, added block by
    block, so a finer split regroups that sum and only rounding may move."""
    x, w, b, g = _operands(rng, x_shape, w_shape, True, stride, padding, np.float32)
    whole = _conv_and_grads(x, w, b, g, stride, padding)
    monkeypatch.setattr(ad, "_COL_BUDGET", 1)  # every batch item is its own block
    split = _conv_and_grads(x, w, b, g, stride, padding)
    for i, label in ((0, "out"), (1, "dx"), (3, "db")):
        assert np.array_equal(split[i], whole[i]), label
    scale = np.abs(whole[2]).max()
    np.testing.assert_allclose(split[2], whole[2], rtol=0, atol=1e-5 * scale)


def test_conv1d_keeps_parameter_dtypes_under_float64_gradient(rng):
    """A float64 upstream gradient (as `ad.mean`'s vjp hands the embedding
    conv today) must not leak into the float32 input and weight gradients."""
    x, w, b, g = _operands(rng, (2, 6, 30), (4, 6, 3), True, 2, 1, np.float32)
    out, dx, dw, _ = _conv_and_grads(x, w, b, g.astype(np.float64), 2, 1)
    assert out.dtype == np.float32
    assert dx.dtype == x.dtype and dw.dtype == w.dtype
    _, dx32, dw32, _ = _conv_and_grads(x, w, b, g, 2, 1)
    np.testing.assert_allclose(dx, dx32, rtol=1e-5, atol=1e-6)
    np.testing.assert_allclose(dw, dw32, rtol=1e-5, atol=1e-6)
