import inspect

import numpy as np
import pytest

import pase.autodiff as ad
from pase.autodiff import Tensor
from pase.errors import NotScalar, ShapeMismatch

from oracles import (
    gradcheck,
    naive_conv1d,
    reference_gather_frames,
    reference_narrow,
    reference_subsample_time,
    reference_take_rows,
    same_bytes,
    target_pieces,
)

GRAD_TOL = 1e-4  # per-op bound; the acceptance gate is 1e-3


def leaf(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def scalarize(t):
    return ad.mean(ad.mul(t, t))


def test_add_mul_broadcast_grads(rng):
    a = leaf(rng, 3, 4, 5)
    b = leaf(rng, 4, 1)

    for op in (ad.add, ad.mul):
        err = gradcheck(lambda op=op: scalarize(op(a, b)), [a, b], rng=rng)
        assert err < GRAD_TOL


@pytest.mark.parametrize("op", [ad.add, ad.mul])
def test_constant_operand_gets_no_gradient(rng, op):
    # the vjp returns None for a parent that needs no gradient, and the
    # other parent's gradient is the one computed when both need one
    x, c = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    g = rng.standard_normal((3, 4))
    both = op(Tensor(x, requires_grad=True), Tensor(c, requires_grad=True))._vjp(g)
    left = op(Tensor(x, requires_grad=True), Tensor(c))._vjp(g)
    assert left[1] is None and np.array_equal(left[0], both[0])
    both = op(Tensor(c, requires_grad=True), Tensor(x, requires_grad=True))._vjp(g)
    right = op(Tensor(c), Tensor(x, requires_grad=True))._vjp(g)
    assert right[0] is None and np.array_equal(right[1], both[1])


@pytest.mark.parametrize(
    "name,builder",
    [
        ("sigmoid", lambda x: ad.sigmoid(x)),
        ("tanh", lambda x: ad.tanh(x)),
        ("mean_all", lambda x: ad.mean(x)),
        ("mean_axis", lambda x: ad.mean(x, axis=2)),
        ("sum_axis", lambda x: ad.sum_(x, axis=(0, 2))),
        ("reshape", lambda x: ad.reshape(x, (2, 30))),
        ("transpose", lambda x: ad.transpose(x, (2, 0, 1))),
        ("narrow", lambda x: ad.index(x, np.s_[:, :, 1:4])),
        ("subsample", lambda x: ad.index(x, np.s_[:, :, ::2])),
        ("pad1d", lambda x: ad.pad1d(x, 2, 1)),
    ],
)
def test_unary_op_grads(rng, name, builder):
    x = leaf(rng, 2, 3, 10)
    err = gradcheck(lambda: scalarize(builder(x)), [x], rng=rng)
    assert err < GRAD_TOL, name


def test_prelu_grads_and_identity(rng):
    x = leaf(rng, 2, 4, 9)
    alpha = Tensor(rng.uniform(0.1, 0.5, 4), requires_grad=True)
    err = gradcheck(lambda: scalarize(ad.prelu(x, alpha)), [x, alpha], rng=rng)
    assert err < GRAD_TOL

    ones = Tensor(np.ones(4))
    out = ad.prelu(Tensor(x.data), ones)
    assert np.array_equal(out.data, x.data)  # alpha = 1 -> identity

    flat = leaf(rng, 7, 4)
    err = gradcheck(lambda: scalarize(ad.prelu(flat, alpha)), [flat, alpha], rng=rng)
    assert err < GRAD_TOL


def test_concat_gather_take_grads(rng):
    a = leaf(rng, 4, 3)
    b = leaf(rng, 4, 2)
    err = gradcheck(lambda: scalarize(ad.concat([a, b], axis=1)), [a, b], rng=rng)
    assert err < GRAD_TOL

    x = leaf(rng, 3, 4, 6)
    bi = np.array([0, 2, 2, 1])
    ti = np.array([5, 0, 0, 3])  # repeated pick exercises scatter-add
    err = gradcheck(lambda: scalarize(ad.index(x, np.s_[bi, :, ti])), [x], rng=rng)
    assert err < GRAD_TOL

    rows = leaf(rng, 5, 4)
    idx = np.array([4, 0, 0, 2])
    err = gradcheck(lambda: scalarize(ad.index(rows, idx)), [rows], rng=rng)
    assert err < GRAD_TOL


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_index_equals_the_ops_it_replaced(rng, dtype):
    x = rng.standard_normal((3, 4, 10)).astype(dtype)
    rows = rng.standard_normal((5, 4)).astype(dtype)
    bi, ti = np.array([0, 2, 2, 1]), np.array([5, 0, 0, 3])  # a repeated frame
    ri = np.array([4, 0, 0, 2])  # a repeated row
    cases = [
        (x, np.s_[:, :, 1:4], reference_narrow(x, 2, 1, 3)),
        (x, np.s_[:, :, ::3], reference_subsample_time(x, 3)),
        (x, np.s_[bi, :, ti], reference_gather_frames(x, bi, ti)),
        (rows, ri, reference_take_rows(rows, ri)),
    ]
    for data, idx, (want_out, want_vjp) in cases:
        out = ad.index(Tensor(data, requires_grad=True), idx)
        assert same_bytes(out.data, want_out), idx
        g = rng.standard_normal(out.shape).astype(dtype)
        g.flat[::3] = -0.0  # a slice keeps the sign of a zero gradient
        (dx,) = out._vjp(g)
        assert same_bytes(dx, want_vjp(g)), idx


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("t,sel,t_out", [(40, 10, 4), (37, 10, 4), (20, 2, 8), (9, 1, 6)])
def test_strided_index_equals_subsample_then_narrow(rng, dtype, t, sel, t_out):
    # the skip-path selection: one index where there were two ops
    x = rng.standard_normal((2, 3, t)).astype(dtype)
    sub, sub_vjp = reference_subsample_time(x, sel)
    want_out, narrow_vjp = reference_narrow(sub, 2, 0, t_out)
    out = ad.index(Tensor(x, requires_grad=True), np.s_[:, :, : sel * t_out : sel])
    assert same_bytes(out.data, want_out)
    g = rng.standard_normal(out.shape).astype(dtype)
    g.flat[::2] = -0.0
    (dx,) = out._vjp(g)
    assert same_bytes(dx, sub_vjp(narrow_vjp(g)))


def test_every_public_op_is_in_the_acceptance_gradient_suite():
    import test_acceptance

    source = inspect.getsource(test_acceptance._op_cases)
    ops = [
        name
        for name, fn in inspect.getmembers(ad, inspect.isfunction)
        if fn.__module__ == ad.__name__ and not name.startswith("_")
        and name not in ("no_grad", "grad_enabled")
    ]
    assert "index" in ops
    missing = [name for name in ops if f"ad.{name}(" not in source]
    assert not missing, f"ops without an acceptance gradient case: {missing}"


def test_linear_grads(rng):
    x = leaf(rng, 6, 5)
    w = leaf(rng, 3, 5)
    b = leaf(rng, 3)
    err = gradcheck(lambda: scalarize(ad.linear(x, w, b)), [x, w, b], rng=rng)
    assert err < GRAD_TOL
    with pytest.raises(ShapeMismatch):
        ad.linear(x, Tensor(np.zeros((3, 4))))


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (3, 2), (1, 5)])
def test_conv1d_matches_naive_oracle(rng, stride, padding):
    x = rng.standard_normal((2, 3, 17))
    w = rng.standard_normal((4, 3, 5))
    got = ad.conv1d(Tensor(x), Tensor(w), stride=stride, padding=padding)
    want = naive_conv1d(x, w, stride=stride, padding=padding)
    assert got.data.shape == want.shape
    assert np.max(np.abs(got.data - want)) < 1e-10


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (5, 2)])
def test_conv1d_grads(rng, stride, padding):
    x = leaf(rng, 2, 3, 16)
    w = leaf(rng, 4, 3, 5)
    b = leaf(rng, 4)
    err = gradcheck(
        lambda: scalarize(ad.conv1d(x, w, b, stride=stride, padding=padding)),
        [x, w, b],
        rng=rng,
    )
    assert err < GRAD_TOL


def test_conv1d_shape_contracts(rng):
    x = Tensor(rng.standard_normal((1, 2, 9)))
    w_full = Tensor(rng.standard_normal((3, 2, 9)))
    assert ad.conv1d(x, w_full).data.shape == (1, 3, 1)  # K = T -> T' = 1

    ident = np.zeros((2, 2, 1))
    ident[0, 0, 0] = 1.0
    ident[1, 1, 0] = 1.0
    out = ad.conv1d(x, Tensor(ident))
    assert np.allclose(out.data, x.data)

    with pytest.raises(ShapeMismatch):
        ad.conv1d(x, Tensor(rng.standard_normal((3, 2, 20))))
    with pytest.raises(ShapeMismatch):
        ad.conv1d(x, Tensor(rng.standard_normal((3, 5, 3))))


def test_batchnorm_training_statistics(rng):
    x = Tensor(rng.standard_normal((8, 4, 50)))
    gamma = Tensor(np.ones(4), requires_grad=True)
    beta = Tensor(np.zeros(4), requires_grad=True)
    identity = Tensor(np.ones(4))  # PReLU with slope 1
    rm = np.zeros(4)
    rv = np.ones(4)
    out = ad.batchnorm_prelu(x, gamma, beta, identity, rm, rv, training=True)
    mean = out.data.mean(axis=(0, 2))
    var = out.data.var(axis=(0, 2))
    assert np.max(np.abs(mean)) < 1e-6
    assert np.max(np.abs(var - 1.0)) < 1e-4
    assert not np.allclose(rm, 0.0)  # running stats updated in place


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_grads(rng, training):
    x = leaf(rng, 3, 4, 7)
    gamma = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
    beta = Tensor(rng.standard_normal(4), requires_grad=True)
    alpha = Tensor(rng.uniform(0.1, 0.5, 4), requires_grad=True)
    rm = rng.standard_normal(4)
    rv = rng.uniform(0.5, 2.0, 4)

    def build():
        return scalarize(
            ad.batchnorm_prelu(x, gamma, beta, alpha, rm.copy(), rv.copy(), training=training)
        )

    err = gradcheck(build, [x, gamma, beta, alpha], rng=rng)
    assert err < GRAD_TOL


def test_fo_pool_grads(rng):
    z = leaf(rng, 2, 3, 8)
    f_raw = leaf(rng, 2, 3, 8)

    def build():
        return scalarize(ad.fo_pool(ad.tanh(z), ad.sigmoid(f_raw)))

    err = gradcheck(build, [z, f_raw], rng=rng)
    assert err < GRAD_TOL


def test_mse_loss_contracts(rng):
    # linear_mse with an identity layer is the MSE of its input
    eye, zero = Tensor(np.eye(5)), Tensor(np.zeros(5))
    p = Tensor(rng.standard_normal((4, 5)))
    assert ad.linear_mse(p, eye, zero, target_pieces(p.data.copy())).item() == 0.0
    assert ad.linear_mse(p, eye, Tensor(np.ones(5)), target_pieces(p.data)).item() == pytest.approx(1.0)

    a = rng.standard_normal((6, 7))
    w = rng.standard_normal((5, 7))
    b = rng.standard_normal(5)
    t = rng.standard_normal((6, 5))
    direct = float(np.mean((a @ w.T + b - t) ** 2))
    for rows in (None, 4):
        loss = ad.linear_mse(Tensor(a), Tensor(w), Tensor(b), target_pieces(t, rows))
        assert abs(loss.item() - direct) < 1e-12
    with pytest.raises(ShapeMismatch):
        ad.linear_mse(Tensor(a), Tensor(w), Tensor(b), target_pieces(np.zeros((6, 6))))
    with pytest.raises(ShapeMismatch):
        ad.linear_mse(Tensor(a), Tensor(w.T.copy()), Tensor(b), target_pieces(t))


def test_linear_mse_target_pieces_are_slices_that_cover_it_once(rng):
    h, w, b = (Tensor(rng.standard_normal(shape)) for shape in ((6, 7), (5, 7), (5,)))
    t = rng.standard_normal((6, 5))
    for pieces in (
        target_pieces(t)[:0],  # no piece
        target_pieces(t, rows=4)[:1],  # rows 4 and 5 left out
        target_pieces(t, rows=3) + target_pieces(t, rows=3)[:1],  # rows 0-2 twice
        [(np.arange(6), slice(None), t)],  # a copy, not a view, would be written
    ):
        with pytest.raises(ShapeMismatch):
            ad.linear_mse(h, w, b, pieces)


def test_mse_grads(rng):
    h = leaf(rng, 5, 4)
    w = leaf(rng, 3, 4)
    b = leaf(rng, 3)
    t = rng.standard_normal((5, 3))
    err = gradcheck(lambda: ad.linear_mse(h, w, b, target_pieces(t, rows=2)), [h, w, b], rng=rng)
    assert err < GRAD_TOL


def test_bce_logits_contracts(rng):
    zero = Tensor(np.zeros((1, 1)))
    assert ad.bce_logits_loss(zero, np.ones((1, 1))).item() == pytest.approx(np.log(2))

    big = Tensor(np.full((1, 1), 50.0))
    loss = ad.bce_logits_loss(big, np.ones((1, 1))).item()
    assert np.isfinite(loss) and loss < 1e-20

    very_neg = Tensor(np.full((1, 1), -500.0))
    assert np.isfinite(ad.bce_logits_loss(very_neg, np.ones((1, 1))).item())

    z = rng.standard_normal((8, 3))
    y = (rng.random((8, 3)) < 0.5).astype(np.float64)
    naive = float(np.mean(-(y * np.log(1 / (1 + np.exp(-z))) + (1 - y) * np.log(1 - 1 / (1 + np.exp(-z))))))
    assert abs(ad.bce_logits_loss(Tensor(z), y).item() - naive) < 1e-9


def test_bce_and_softmax_grads(rng):
    z = leaf(rng, 6, 2)
    y = (rng.random((6, 2)) < 0.5).astype(np.float64)
    err = gradcheck(lambda: ad.bce_logits_loss(z, y), [z], rng=rng)
    assert err < GRAD_TOL

    logits = leaf(rng, 7, 4)
    labels = rng.integers(0, 4, 7)
    err = gradcheck(lambda: ad.softmax_cross_entropy(logits, labels), [logits], rng=rng)
    assert err < GRAD_TOL


def test_backward_accumulation_exact(rng):
    x = leaf(rng, 5)
    a, b = 3.0, -7.0
    loss = ad.sum_(ad.add(ad.mul(x, Tensor(np.full(5, a))), ad.mul(x, Tensor(np.full(5, b)))))
    loss.backward()
    assert np.array_equal(x.grad, np.full(5, a + b))  # exact, not approximate


def test_sum_grad_is_ones(rng):
    x = leaf(rng, 4, 3)
    ad.sum_(x).backward()
    assert np.array_equal(x.grad, np.ones((4, 3)))


def test_unused_parameter_keeps_zero_grad(rng):
    x = leaf(rng, 3)
    unused = leaf(rng, 3)
    ad.sum_(x).backward()
    assert unused.grad is None or not np.any(unused.grad)


def test_backward_requires_scalar(rng):
    x = leaf(rng, 3)
    with pytest.raises(NotScalar):
        ad.mul(x, x).backward()


def test_no_grad_suppresses_graph(rng):
    x = leaf(rng, 3)
    with ad.no_grad():
        out = ad.mul(x, x)
    assert out._vjp is None and not out.requires_grad


def test_eval_determinism_bitwise(rng):
    x = Tensor(rng.standard_normal((2, 3, 20)).astype(np.float32))
    w = Tensor(rng.standard_normal((4, 3, 5)).astype(np.float32))
    a = ad.conv1d(x, w, stride=2, padding=1)
    b = ad.conv1d(x, w, stride=2, padding=1)
    assert np.array_equal(a.data, b.data)
