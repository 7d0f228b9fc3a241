"""What the autodiff tape keeps: ops that rebuild a saved tensor in the vjp
give the gradients a saved copy gives, bit for bit, and `backward()` frees
each node as it walks the graph."""

import weakref

import numpy as np
import pytest

import pase.autodiff as ad
from pase.autodiff import Tensor
from pase.encoder import Encoder, EncoderConfig
from pase.workers import WorkerHead

from oracles import reference_batchnorm1d, reference_prelu, same_bytes


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


def batchnorm_case(rng, dtype):
    x = (rng.standard_normal((4, 6, 23)) * 2.0 + 0.5).astype(dtype)
    gamma = rng.uniform(0.5, 1.5, 6).astype(dtype)
    beta = rng.standard_normal(6).astype(dtype)
    running_mean = rng.standard_normal(6).astype(dtype)
    running_var = rng.uniform(0.5, 2.0, 6).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)
    return x, gamma, beta, running_mean, running_var, g


def run_batchnorm(x, gamma, beta, running_mean, running_var, training, g, between=None):
    """The library op's output, running buffers and (dx, dgamma, dbeta);
    `between(running_mean, running_var)` runs after forward, before backward."""
    xt = Tensor(x, requires_grad=True)
    gt, bt = Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
    out = ad.batchnorm1d(xt, gt, bt, running_mean, running_var, training)
    if between is not None:
        between(running_mean, running_var)
    backward_with(out, g)
    return out.data, (xt.grad, gt.grad, bt.grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_equals_saved_xhat_oracle(rng, dtype, training):
    x, gamma, beta, rm, rv, g = batchnorm_case(rng, dtype)
    ref_rm, ref_rv = rm.copy(), rv.copy()
    want_out, *want_grads = reference_batchnorm1d(x, gamma, beta, ref_rm, ref_rv, training, g)

    out, grads = run_batchnorm(x, gamma, beta, rm, rv, training, g)
    assert same_bytes(out, want_out)
    for got, want in zip(grads, want_grads):
        assert same_bytes(got, want)
    assert same_bytes(rm, ref_rm) and same_bytes(rv, ref_rv)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batchnorm_eval_gradient_ignores_later_buffer_changes(rng, dtype):
    # the vjp reads the running mean as it was at forward time, as a saved
    # normalized input did; a caller may update the buffer before backward
    x, gamma, beta, rm, rv, g = batchnorm_case(rng, dtype)
    _, want = run_batchnorm(x, gamma, beta, rm.copy(), rv.copy(), False, g)

    def mutate(running_mean, running_var):
        running_mean += 3.0
        running_var *= 2.0

    _, got = run_batchnorm(x, gamma, beta, rm.copy(), rv.copy(), False, g, between=mutate)
    for a, b in zip(got, want):
        assert same_bytes(a, b)


def test_constant_mse_target_is_not_kept_by_the_loss(rng):
    pred = Tensor(rng.standard_normal((6, 4)), requires_grad=True)
    target = rng.standard_normal((6, 4))
    alive = weakref.ref(target)
    loss = ad.mse_loss(pred, Tensor(target))
    del target
    assert alive() is None  # freed with the loss node still alive
    assert loss._parents == (pred, None)
    loss.backward()
    assert pred.grad is not None


def tiny_encoder(rng):
    cfg = EncoderConfig(
        sinc_filters=4, sinc_kernel=33, block_channels=(4, 8, 8, 8, 8, 8, 8),
        block_kernels=(11, 5, 5, 5, 5, 5, 5), block_strides=(10, 2, 2, 2, 2, 1, 1),
        qrnn_hidden=8, embedding_dim=8,
    )
    return Encoder(cfg, rng)


def head_on_encoder(rng, monkeypatch):
    """A regression head's loss over a tiny encoder, the head's output
    array, and the output node of the forward pass's first conv (the sinc
    layer), whose vjp is the last one backward runs."""
    first_conv = []
    conv1d = ad.conv1d

    def recording_conv1d(*args, **kwargs):
        out = conv1d(*args, **kwargs)
        if not first_conv:
            first_conv.append(out)
        return out

    monkeypatch.setattr(ad, "conv1d", recording_conv1d)
    encoder = tiny_encoder(rng)
    head = WorkerHead("head", 8, 5, rng)
    emb = encoder.forward(Tensor(rng.standard_normal((2, 1, 1600)).astype(np.float32)), True)
    pred = head.forward(ad.reshape(ad.transpose(emb, (0, 2, 1)), (-1, 8)))
    loss = ad.mse_loss(pred, Tensor(np.zeros(pred.shape, dtype=np.float32)))
    params = encoder.parameters() + head.parameters()
    return loss, params, pred.data, first_conv[0]


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
    assert sum(not node.is_leaf for node in nodes) > 50
    loss.backward()
    assert all(node.is_leaf and node._parents == () for node in nodes)
    assert all(p.grad is not None and np.any(p.grad) for p in params)
