"""What the autodiff tape keeps: ops that rebuild a saved tensor in the vjp
give the gradients a saved copy gives, bit for bit, and `backward()` frees
each node as it walks the graph."""

import weakref

import numpy as np
import pytest

import pase.autodiff as ad
import pase.encoder as encoder_module
from pase.autodiff import Tensor
from pase.encoder import Encoder, EncoderConfig
import pase.workers as W
from pase.workers import WorkerHead

from oracles import (
    reference_batchnorm1d, reference_fo_pool, reference_mse_loss, reference_prelu, same_bytes,
    target_pieces,
)


def backward_with(out: Tensor, g: np.ndarray) -> None:
    """Backpropagate the upstream gradient `g` into `out`: the scalar
    sum(out * g) hands `out` exactly g, as 1 * g."""
    ad.sum_(ad.mul(out, Tensor(g))).backward()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 5, 17), (9, 5)])
def test_prelu_equals_saved_mask_oracle(rng, dtype, shape):
    x = rng.standard_normal(shape).astype(dtype)
    alpha = rng.uniform(0.1, 0.5, shape[1]).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    want_out, want_dx, want_da = reference_prelu(x, alpha, g)

    xt, at = Tensor(x, requires_grad=True), Tensor(alpha, requires_grad=True)
    out = ad.prelu(xt, at)
    assert same_bytes(out.data, want_out)
    backward_with(out, g)
    assert same_bytes(xt.grad, want_dx)
    assert same_bytes(at.grad, want_da)


def special_values(dtype) -> np.ndarray:
    """±0, NaN of both signs and one with a payload, ±inf, ±subnormal and
    two normal numbers."""
    tiny = np.finfo(dtype).smallest_subnormal
    v = np.array([0.0, -0.0, np.nan, np.nan, np.nan, np.inf, -np.inf, tiny, -tiny, 1.5, -2.25],
                 dtype)
    v[3] = np.copysign(v[3], -1.0)
    v.view(f"u{v.itemsize}")[4] |= 1  # a NaN payload the select must keep
    return v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_branch_free_select_equals_np_where(dtype):
    v = special_values(dtype)
    y, a, b = (grid.ravel() for grid in np.meshgrid(v, v, v, indexing="ij"))
    mask = ad._neg_mask(y)
    assert mask.dtype.itemsize == y.dtype.itemsize
    assert same_bytes(ad._where_neg(mask, a.copy(), b), np.where(y < 0, a, b))
    assert same_bytes(ad._where_neg(mask, a.copy()), np.where(y < 0, a, 0.0))


@pytest.mark.parametrize(
    "dtype,alpha_dtype",
    [(np.float32, np.float32), (np.float64, np.float64), (np.float32, np.float64),
     (np.float64, np.float32)],
)
def test_prelu_signed_zeros_equal_saved_mask_oracle(rng, dtype, alpha_dtype):
    # mixed dtypes select in the wider one, with a mask of its width, as np.where promotes
    x = rng.standard_normal((3, 4, 18)).astype(dtype)
    x[:, :, ::3] = 0.0
    x[:, :, 1::6] = -0.0
    g = rng.standard_normal(x.shape).astype(dtype)
    g[:, :, ::2] = -0.0  # meets +0, -0, negative and positive x
    g[:, :, 1::4] = 0.0
    alpha = rng.uniform(0.1, 0.5, 4).astype(alpha_dtype)
    want_out, want_dx, want_da = reference_prelu(x, alpha, g)

    out = ad.prelu(Tensor(x, requires_grad=True), Tensor(alpha, requires_grad=True))
    dx, da = out._vjp(g)  # straight from the op: a leaf's grad would turn -0.0 into +0.0
    assert same_bytes(out.data, want_out)
    assert same_bytes(dx, want_dx)
    assert same_bytes(da, want_da)


def test_vjps_leave_g_and_the_parents_data_alone(rng):
    """Vjps that work in place write only buffers they allocated: never the
    upstream gradient, which may alias another node's buffer, nor a
    parent's data."""
    def t(*shape):
        return Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)

    def slopes(c):
        return Tensor(rng.uniform(0.1, 0.5, c).astype(np.float32), requires_grad=True)

    x, gamma, beta, alpha = t(2, 3, 20), t(3), t(3), slopes(3)
    running = (rng.standard_normal(3).astype(np.float32),
               rng.uniform(0.5, 2.0, 3).astype(np.float32))
    flat, w, b = t(6, 5), t(4, 5), t(4)
    outs = {
        "batchnorm_prelu train": ad.batchnorm_prelu(x, gamma, beta, alpha, *running, True),
        "batchnorm_prelu eval": ad.batchnorm_prelu(x, gamma, beta, alpha, *running, False),
        "prelu": ad.prelu(x, alpha),
        "conv1d": ad.conv1d(x, t(4, 3, 5), t(4), stride=3, padding=2),
        "linear_mse": ad.linear_mse(flat, w, b,
                                    target_pieces(rng.standard_normal((6, 4)).astype(np.float32))),
    }
    for name, out in outs.items():
        g = rng.standard_normal(out.shape).astype(np.float32)
        before = [g.copy()] + [p.data.copy() for p in out._parents]
        out._vjp(g)
        after = [g] + [p.data for p in out._parents]
        assert all(same_bytes(a, b) for a, b in zip(after, before)), name


def batchnorm_case(rng, dtype):
    """Inputs of `batchnorm_prelu` whose batch-norm output is exactly 0,
    both +0.0 and -0.0, at PReLU's `< 0` boundary, in both modes: channels
    0 and 1 hold small integers and their negations, so the batch mean is
    exactly 0, as is the running mean, and the zeros of x carry both signs."""
    x = (rng.standard_normal((4, 6, 23)) * 2.0 + 0.5).astype(dtype)
    x[:, :2] = rng.integers(-2, 3, (4, 2, 23))
    x[:, :2, 12:] = -x[:, :2, 1:12]  # every nonzero value with its negation
    x[:, :2, 0] = 0.0
    gamma = rng.uniform(0.5, 1.5, 6).astype(dtype)
    beta = rng.standard_normal(6).astype(dtype)
    gamma[1] = -gamma[1]
    beta[:2] = (0.0, -0.0)
    alpha = rng.uniform(0.1, 0.5, 6).astype(dtype)
    running_mean = rng.standard_normal(6).astype(dtype)
    running_mean[:2] = 0.0
    running_var = rng.uniform(0.5, 2.0, 6).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)
    g.flat[::5] = -0.0
    return x, gamma, beta, alpha, running_mean, running_var, g


def run_batchnorm_prelu(x, gamma, beta, alpha, running_mean, running_var, training, g,
                        between=None):
    """The library op's output and its vjp of g, (dx, dgamma, dbeta, dalpha),
    taken straight from the op: accumulating into a leaf's zeroed grad would
    turn a -0.0 into +0.0. `between(running_mean, running_var)` runs after
    forward, before the vjp."""
    leaves = [Tensor(v, requires_grad=True) for v in (x, gamma, beta, alpha)]
    out = ad.batchnorm_prelu(*leaves, running_mean, running_var, training)
    if between is not None:
        between(running_mean, running_var)
    return out.data, out._vjp(g)


def reference_pair(x, gamma, beta, alpha, running_mean, running_var, training, g):
    """Batch norm then PReLU, each keeping what its vjp reads: the output
    and (dx, dgamma, dbeta, dalpha). Updates the buffers once."""
    y, *_ = reference_batchnorm1d(x, gamma, beta, running_mean.copy(), running_var.copy(),
                                  training, np.zeros_like(x))
    out, dy, dalpha = reference_prelu(y, alpha, g)
    _, dx, dgamma, dbeta = reference_batchnorm1d(x, gamma, beta, running_mean, running_var,
                                                 training, dy)
    return out, (dx, dgamma, dbeta, dalpha), y


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_equals_saved_xhat_oracle(rng, dtype, training):
    # batchnorm_prelu against the two ops it fused, each saving its input
    x, gamma, beta, alpha, rm, rv, g = batchnorm_case(rng, dtype)
    ref_rm, ref_rv = rm.copy(), rv.copy()
    want_out, want_grads, y = reference_pair(x, gamma, beta, alpha, ref_rm, ref_rv, training, g)
    zeros = y[y == 0]
    assert np.any(np.signbit(zeros)) and not np.all(np.signbit(zeros))

    out, grads = run_batchnorm_prelu(x, gamma, beta, alpha, rm, rv, training, g)
    assert same_bytes(out, want_out)
    for got, want in zip(grads, want_grads):
        assert same_bytes(got, want)
    assert same_bytes(rm, ref_rm) and same_bytes(rv, ref_rv)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_eval_gradient_ignores_later_buffer_changes(rng, dtype):
    # the vjp reads the running mean as it was at forward time, as a saved
    # normalized input did; a caller may update the buffer before backward
    x, gamma, beta, alpha, rm, rv, g = batchnorm_case(rng, dtype)
    _, want = run_batchnorm_prelu(x, gamma, beta, alpha, rm.copy(), rv.copy(), False, g)

    def mutate(running_mean, running_var):
        running_mean += 3.0
        running_var *= 2.0

    _, got = run_batchnorm_prelu(x, gamma, beta, alpha, rm.copy(), rv.copy(), False, g,
                                 between=mutate)
    for a, b in zip(got, want):
        assert same_bytes(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_mse_equals_linear_then_mse(rng, dtype):
    h = rng.standard_normal((12, 7)).astype(dtype)
    w = rng.standard_normal((5, 7)).astype(dtype)
    b = rng.standard_normal(5).astype(dtype)
    target = rng.standard_normal((12, 5)).astype(dtype)
    g = np.asarray(1.0 / 12.0, dtype=dtype)  # the total loss's weight of one worker

    old = [Tensor(v, requires_grad=True) for v in (h, w, b)]
    pred = ad.linear(*old)
    want_out, mse_vjp = reference_mse_loss(pred.data, target)
    backward_with(pred, mse_vjp(g))

    by_columns = [(slice(None), slice(0, 2), target[:, :2]),
                  (slice(None), slice(2, 5), target[:, 2:])]
    for pieces in (target_pieces(target), target_pieces(target, rows=5), by_columns):
        new = [Tensor(v, requires_grad=True) for v in (h, w, b)]
        loss = ad.linear_mse(*new, pieces)
        assert same_bytes(loss.data, want_out)
        backward_with(loss, g)
        for got, want in zip(new, old):
            assert same_bytes(got.grad, want.grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_linear_mse_leaves_the_callers_arrays_unchanged(rng, dtype):
    arrays = [rng.standard_normal(shape).astype(dtype) for shape in ((12, 7), (5, 7), (5,), (12, 5))]
    before = [a.copy() for a in arrays]
    h, w, b, target = arrays
    params = [Tensor(v, requires_grad=True) for v in (h, w, b)]
    loss = ad.linear_mse(*params, target_pieces(target, rows=5))
    loss.backward()
    assert all(same_bytes(a, want) for a, want in zip(arrays, before))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fo_pool_equals_the_per_step_loop(rng, dtype):
    z = np.tanh(rng.standard_normal((3, 5, 17))).astype(dtype)
    f = (1.0 / (1.0 + np.exp(-3.0 * rng.standard_normal((3, 5, 17))))).astype(dtype)
    f[:, 0, ::4] = 1.0  # a gate that keeps c exactly, and one that forgets it
    f[:, 1, ::3] = 0.0
    z[:, 2, ::2] = -0.0  # and +0.0, where 0 - z and -z differ in sign
    z[:, 3, ::2] = 0.0
    g = rng.standard_normal(z.shape).astype(dtype)
    g[:, 4, -5:] = -0.0
    want = reference_fo_pool(z, f, g)

    out = ad.fo_pool(Tensor(z, requires_grad=True), Tensor(f, requires_grad=True))
    got = (out.data,) + out._vjp(g)
    assert all(same_bytes(a, b) for a, b in zip(got, want))


def test_constant_mse_target_is_not_kept_by_the_loss(rng):
    h = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    w, b = Tensor(rng.standard_normal((4, 3))), Tensor(rng.standard_normal(4))
    target = rng.standard_normal((6, 4))
    alive = weakref.ref(target)
    loss = ad.linear_mse(h, w, b, target_pieces(target))
    del target
    assert alive() is None  # freed with the loss node still alive
    assert loss._parents == (h, None, None)
    loss.backward()
    assert h.grad is not None


def tiny_encoder(rng):
    cfg = EncoderConfig(
        sinc_filters=4, sinc_kernel=33, block_channels=(4, 8, 8, 8, 8, 8, 8),
        block_kernels=(11, 5, 5, 5, 5, 5, 5), block_strides=(10, 2, 2, 2, 2, 1, 1),
        qrnn_hidden=8, embedding_dim=8,
    )
    return Encoder(cfg, rng)


def head_on_encoder(rng, monkeypatch):
    """A regression head's loss over a tiny encoder, the head's hidden-layer
    array, and the output node of the forward pass's front end (the sinc
    filters and block0's conv), whose vjp is the last conv vjp backward runs."""
    first_conv = []
    front_end_convs = encoder_module.front_end_convs

    def recording_front_end(*args, **kwargs):
        out = front_end_convs(*args, **kwargs)
        first_conv.append(out)
        return out

    monkeypatch.setattr(encoder_module, "front_end_convs", recording_front_end)
    encoder = tiny_encoder(rng)
    head = WorkerHead("head", 8, 5, rng)
    emb = encoder.forward(Tensor(rng.standard_normal((2, 1, 1600)).astype(np.float32)), True)
    hidden = head.hidden(ad.reshape(ad.transpose(emb, (0, 2, 1)), (-1, 8)))
    loss = ad.linear_mse(hidden, head.w2, head.b2,
                         target_pieces(np.zeros((hidden.shape[0], 5), np.float32)))
    params = encoder.parameters() + head.parameters()
    return loss, params, hidden.data, first_conv[0]


def test_backward_frees_heads_before_the_first_conv_runs(rng, monkeypatch):
    loss, _, head_data, sinc_out = head_on_encoder(rng, monkeypatch)
    head_out = weakref.ref(head_data)
    del head_data
    assert head_out() is not None  # the tape holds it until backward

    seen_at_first_conv = []
    vjp = sinc_out._vjp

    def checking_vjp(g):
        seen_at_first_conv.append(head_out() is None)
        return vjp(g)

    sinc_out._vjp = checking_vjp
    del sinc_out
    loss.backward()
    assert seen_at_first_conv == [True]


def test_every_node_is_a_leaf_after_backward(rng, monkeypatch):
    loss, params, _, _ = head_on_encoder(rng, monkeypatch)
    nodes = ad._topo_order(loss)
    assert sum(not node.is_leaf for node in nodes) > 40
    loss.backward()
    assert all(node.is_leaf and node._parents == () for node in nodes)
    assert all(p.grad is not None and np.any(p.grad) for p in params)


def kept_arrays(root: Tensor) -> list[np.ndarray]:
    """Every ndarray the tape under `root` keeps alive, once each: every
    node's data and whatever its vjp closure holds (nested closures, the
    data of Tensors, and the base of a view included)."""
    found, seen = [], set()

    def visit(obj):
        if obj is None or id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
            visit(obj.base)
        elif isinstance(obj, Tensor):
            visit(obj.data)
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item)
        elif callable(obj):
            for cell in getattr(obj, "__closure__", None) or ():
                try:
                    visit(cell.cell_contents)
                except ValueError:  # a cell whose variable was deleted
                    pass

    for node in ad._topo_order(root):
        visit(node.data)
        visit(node._vjp)
    return found


def test_tape_keeps_no_batchnorm_output_and_no_regression_prediction():
    rng = np.random.default_rng(7)
    sr = 16000
    encoder = tiny_encoder(rng)
    workers = W.WorkerSet(8, rng, sr)
    clean = [rng.uniform(-0.5, 0.5, 3200).astype(np.float32) for _ in range(2)]
    views = (np.stack(clean)[:, None, :], rng.uniform(-0.5, 0.5, (2, 1, 3200)).astype(np.float32))
    std = W.TargetStandardizer(sample_rate=sr)
    std.fit(clean)

    # one step's total loss, built as `train_step` builds it
    emb_a, emb_b = (encoder.forward(Tensor(x), training=True) for x in views)
    utts = ["a", "b"]
    lim = W.lim_sample(utts, emb_a.shape[2], rng, per_element=3)
    gim = W.gim_sample(utts, [0, 1], [2, 3], rng)
    total = W.total_loss(list(workers.losses(emb_a, emb_b, clean, std, lim, gim).values()))

    # the same forward recomputed with the old op pairs: batch norm output
    # and block output of every block, hidden layer and prediction of
    # every regression head
    bn_outputs, block_outputs, hiddens, predictions = [], [], [], []
    for x in views:
        # the front end ends in block0's conv; with grad on it runs as in training
        conv = encoder.sinc.forward(Tensor(x)).data
        with ad.no_grad():
            for block in encoder.blocks:
                if conv is None:
                    conv = ad.conv1d(h, block.w, block.b, block.stride, (block.kernel - 1) // 2).data
                c = conv.shape[1]
                y = reference_batchnorm1d(conv, block.gamma.data, block.beta.data,
                                          np.zeros(c, np.float32), np.ones(c, np.float32),
                                          True, np.zeros_like(conv))[0]
                out = reference_prelu(y, block.alpha.data, np.zeros_like(y))[0]
                bn_outputs.append(y)
                block_outputs.append(out)
                h, conv = Tensor(out), None
    regression = [s for s in workers.roster if s.kind == "regression"]
    with ad.no_grad():
        for spec in regression:
            head = workers.heads[spec.name]
            frames = min(emb_a.shape[2], W.regression_targets(clean[0], spec.name, sr).shape[0])
            flat = W._flatten_frames(Tensor(emb_a.data), frames)
            hidden = ad.prelu(ad.linear(flat, head.w1, head.b1), head.alpha)
            hiddens.append(hidden.data)
            predictions.append(ad.linear(hidden, head.w2, head.b2).data)

    kept = kept_arrays(total)

    def is_kept(arr):
        return any(k.shape == arr.shape and same_bytes(k, arr) for k in kept)

    # the recomputation matches the real forward: what backward reads is there
    assert all(is_kept(a) for a in block_outputs + hiddens)
    assert not [i for i, y in enumerate(bn_outputs) if is_kept(y)]
    assert not [s.name for s, p in zip(regression, predictions) if is_kept(p)]
