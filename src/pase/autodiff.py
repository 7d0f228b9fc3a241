"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps an ndarray; every op built here records its inputs and a
vector-Jacobian closure on the output node. `backward()` on a scalar walks
the recorded graph once in reverse topological order and accumulates
gradients into leaf tensors that asked for them.

What the tape keeps alive, and for how long:
- A node keeps a reference only to the parents that need a gradient; the
  slot of a parent that needs none holds None, so the vjp's outputs still
  line up with the op's inputs.
- A vjp closure keeps what it reads and nothing it can rebuild: a padded
  copy of the input, a normalized input or a sign mask is recomputed from
  the parent's `.data`, which is alive anyway, by the same expression, so
  the gradient is bitwise the one a saved copy gives. A closure that reads
  a buffer its caller may change later (batch norm's running mean) keeps a
  copy taken at forward time.
- Fused ops keep no intermediate that nothing reads. `batchnorm_prelu`
  keeps its input, never the batch-norm output between the two halves: its
  vjp recomputes that output, and the normalized input, from x. `linear_mse`
  keeps the difference between prediction and target, which its vjp reads,
  and never the prediction; it reads its target in pieces, so no whole
  target is built next to the difference and its squares. The encoder's
  front end (`encoder.front_end_convs`) keeps the sinc output that block0's
  dW reads, and its vjp never builds the whole batch's gradient of it.
- A vjp works in place only on buffers it allocated itself, never on g
  (which `_accumulate` may have handed to another node too) or on a
  parent's `.data`. `linear_mse`'s vjp consumes the difference it keeps,
  scaling it in place into the gradient: `backward()` calls each vjp once.
  An in-place step rounds to the dtype of the buffer it writes, which is
  the dtype the out-of-place expression has when g and the forward share
  one dtype, as they do in training and in the gradient checks.
- `backward()` frees the tape node by node: each node drops its vjp and
  its parents as it is visited, so an activation the caller does not hold
  dies when its node is visited, after every vjp that reads it has run.
  After the walk every node is a leaf.
- A leaf's `.grad` lives until its owner releases it: `trainer.train_step`
  releases every parameter's after the optimizer step, so no gradient
  lives through the next step's forward.

Compute defaults to float32; building tensors from float64 arrays keeps
float64, which is what the finite-difference checks rely on.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .errors import NotScalar, ShapeMismatch

# batch norm's running-statistics update rate and variance floor
BN_MOMENTUM = 0.1
BN_EPS = 1e-5

_grad_enabled = True


def _bn_invstd(var: np.ndarray) -> np.ndarray:
    """Batch norm's 1/sqrt(var + eps). Eval-mode folds into a conv compute
    the scale with this expression too, so they round it as the op does."""
    return 1.0 / np.sqrt(var + BN_EPS)


def grad_enabled() -> bool:
    """Whether ops record the graph now (False inside `no_grad`)."""
    return _grad_enabled


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / extraction)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _vjp=None):
        if isinstance(data, np.ndarray):
            self.data = data
        elif isinstance(data, np.generic):
            self.data = np.asarray(data)  # numpy scalar: keep its precision
        else:
            self.data = np.asarray(data, dtype=np.float32)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._vjp = _vjp

    # -- bookkeeping ---------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def is_leaf(self):
        return self._vjp is None

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- backward ----------------------------------------------------------------

    def backward(self):
        """Backpropagate from this scalar through the recorded graph."""
        if self.data.size != 1:
            raise NotScalar(f"backward() needs a scalar, got shape {self.data.shape}")

        order = _topo_order(self)
        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        while order:
            # popped, so the list no longer keeps the node (and its data) alive
            node = order.pop()
            g = grads.pop(id(node), None)
            vjp, parents = node._vjp, node._parents
            # the tape is per-pass: unlink each node as it is visited
            node._vjp, node._parents = None, ()
            if vjp is None:
                if g is not None and node.requires_grad:
                    if node.grad is None:
                        node.grad = np.zeros_like(node.data)
                    node.grad += g.astype(node.data.dtype, copy=False)
                continue
            if g is not None:
                _accumulate(grads, parents, vjp(g))


class Parameter(Tensor):
    """Trainable leaf tensor with a checkpoint name."""

    __slots__ = ("name",)

    def __init__(self, name: str, data):
        super().__init__(np.asarray(data, dtype=np.float32), requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


def _accumulate(grads: dict, parents: tuple, parent_grads: tuple) -> None:
    """Add each parent's vjp output into `grads`, keyed by the parent's id."""
    for parent, pg in zip(parents, parent_grads):
        if pg is None or parent is None:
            continue
        acc = grads.get(id(parent))
        if acc is None:
            grads[id(parent)] = np.asarray(pg)
        else:
            # not in-place: pg may alias another node's grad buffer,
            # and numpy scalars would silently drop the update
            grads[id(parent)] = acc + pg


def _topo_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent is not None and id(parent) not in visited:
                stack.append((parent, False))
    return order


def _from_op(data: np.ndarray, parents: tuple, vjp) -> Tensor:
    if _grad_enabled and any(p.requires_grad for p in parents):
        kept = tuple(p if p.requires_grad else None for p in parents)
        return Tensor(data, requires_grad=True, _parents=kept, _vjp=vjp)
    return Tensor(data)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `g` back down to `shape` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# --- elementwise arithmetic ------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        return (
            _unbroadcast(g, a.data.shape) if need_a else None,
            _unbroadcast(g, b.data.shape) if need_b else None,
        )

    return _from_op(out, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    need_a, need_b = a.requires_grad, b.requires_grad

    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if need_a else None,
            _unbroadcast(g * a.data, b.data.shape) if need_b else None,
        )

    return _from_op(out, (a, b), vjp)


def sigmoid(x: Tensor) -> Tensor:
    with np.errstate(over="ignore"):
        s = 1.0 / (1.0 + np.exp(-x.data))

    def vjp(g):
        return (g * s * (1.0 - s),)

    return _from_op(s, (x,), vjp)


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - t * t),)

    return _from_op(t, (x,), vjp)


def _neg_mask(y: np.ndarray) -> np.ndarray:
    """The select mask of `y < 0`: integers of y's item width, all ones where
    y < 0 and 0 elsewhere (also at -0.0 and NaN)."""
    return np.negative(y < 0, dtype=np.dtype(f"i{y.dtype.itemsize}"))


def _where_neg(mask: np.ndarray, if_neg: np.ndarray, other: np.ndarray | None = None):
    """np.where(y < 0, if_neg, other) for mask = _neg_mask(y), written into
    if_neg, a buffer the caller owns; other=None selects +0.0.

    The select runs on the bit patterns (other ^ ((if_neg ^ other) & mask)),
    with no branch per element, so every value, ±0, NaN and inf included,
    comes out as np.where gives it. Mixed widths select in if_neg's dtype,
    which is the one np.where promotes to here.
    """
    if mask.itemsize != if_neg.itemsize:
        mask = mask.astype(f"i{if_neg.itemsize}")
    bits = if_neg.view(mask.dtype)
    if other is None:
        bits &= mask
    else:
        other = other.astype(if_neg.dtype, copy=False).view(mask.dtype)
        bits ^= other
        bits &= mask
        bits ^= other
    return if_neg


def prelu(x: Tensor, alpha: Tensor) -> Tensor:
    """PReLU with one slope per channel; channels live on axis 1."""
    if x.ndim < 2 or alpha.data.shape != (x.shape[1],):
        raise ShapeMismatch(f"prelu: alpha {alpha.data.shape} vs input {x.shape}")
    a = alpha.data.reshape((1, x.shape[1]) + (1,) * (x.ndim - 2))
    out = _where_neg(_neg_mask(x.data), a * x.data, x.data)

    def vjp(g):
        neg = _neg_mask(x.data)
        dx = _where_neg(neg, a * g, g)
        da_full = _where_neg(neg, g * x.data)
        axes = (0,) + tuple(range(2, x.ndim))
        return dx, da_full.sum(axis=axes)

    return _from_op(out, (x, alpha), vjp)


# --- reductions / shaping ------------------------------------------------------


def mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.data.mean(axis=axis, keepdims=keepdims)
    denom = x.data.size if axis is None else np.prod(
        [x.data.shape[a] for a in (axis if isinstance(axis, tuple) else (axis,))]
    )

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape).astype(x.data.dtype) / denom,)

    return _from_op(out, (x,), vjp)


def sum_(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.data.shape).astype(x.data.dtype).copy(),)

    return _from_op(out, (x,), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    old = x.data.shape
    out = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(old),)

    return _from_op(out, (x,), vjp)


def transpose(x: Tensor, axes) -> Tensor:
    out = np.ascontiguousarray(x.data.transpose(axes))
    inverse = np.argsort(axes)

    def vjp(g):
        return (g.transpose(inverse),)

    return _from_op(out, (x,), vjp)


def concat(tensors: list[Tensor], axis: int) -> Tensor:
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return _from_op(out, tuple(tensors), vjp)


def pad1d(x: Tensor, left: int, right: int) -> Tensor:
    out = np.pad(x.data, ((0, 0), (0, 0), (left, right)))

    def vjp(g):
        return (g[:, :, left : left + x.data.shape[2]],)

    return _from_op(out, (x,), vjp)


def index(x: Tensor, idx) -> Tensor:
    """x[idx] for any numpy index: slices, integers or integer arrays.

    The vjp scatters g into zeros. An index of slices only assigns, which
    keeps a -0.0 of g; any other index adds with np.add.at, so an element
    picked more than once gets the sum of its gradients.
    """
    out = np.ascontiguousarray(x.data[idx])
    parts = idx if isinstance(idx, tuple) else (idx,)
    slices_only = all(isinstance(p, slice) for p in parts)

    def vjp(g):
        dx = np.zeros_like(x.data)
        if slices_only:
            dx[idx] = g
        else:
            np.add.at(dx, idx, g)
        return (dx,)

    return _from_op(out, (x,), vjp)


# --- dense / convolutional layers ------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x: (N, I), w: (O, I), b: (O,) -> (N, O)."""
    if x.data.shape[-1] != w.data.shape[1]:
        raise ShapeMismatch(f"linear: {x.data.shape} @ {w.data.shape}")
    out = x.data @ w.data.T
    if b is not None:
        out += b.data

    def vjp(g):
        dx = g @ w.data if x.requires_grad else None
        dw = g.T @ x.data if w.requires_grad else None
        grads = [dx, dw]
        if b is not None:
            grads.append(g.sum(axis=0))
        return tuple(grads)

    parents = (x, w) if b is None else (x, w, b)
    return _from_op(out, parents, vjp)


# batch block size keeps the im2col buffer around ~32 MB of float32
_COL_BUDGET = 8_000_000


def _col_view(x: np.ndarray, lo: int, hi: int, padding: int, kernel: int, stride: int):
    """Batch items lo..hi of x, zero-padded in time, as (n, C, T_out, K) windows:
    a view of the block's padded copy, which only lives as long as the view."""
    xp = x[lo:hi]
    if padding:
        xp = np.pad(xp, ((0, 0), (0, 0), (padding, padding)))
    win = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=2)
    return win[:, :, ::stride, :]  # (n, C, T_out, K), still a view


def conv1d(
    x: Tensor,
    w: Tensor,
    b: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """1-D cross-correlation. x: (B, C, T), w: (O, C, K) -> (B, O, T').

    im2col over blocks of batch items (`_COL_BUDGET` bounds the buffer):
    col is (n, T', C*K) and wm = w as (O, C*K). Each GEMM writes its result
    in the layout its consumer reads, with no transposed copy:
      forward  wm @ col^T              -> (n, O, T'), straight into `out`
      dW       g as (O, n*T') @ colT^T -> (O, C*K), summed block by block;
                                          colT is (C*K, n*T'), time-contiguous
      dX       wm^T @ g                -> (n, C, K, T'), added tap by tap in
                                          k order into a residue-major block
                                          (n, C, stride, span) whose [r, q]
                                          is input position q*stride + r, so
                                          each tap adds one contiguous run;
                                          one interleaving copy writes dX
    Every output element is summed in the same order as in the transposing
    im2col reference (tests/oracles.py `reference_conv1d`), so results
    equal it bit for bit. The forward keeps its (n, T', C*K) columns: with
    them time-contiguous, training kept its bits but inference's GEMMs
    rounded differently and the extracted embeddings moved. dX and dW keep
    x's and w's dtypes whatever the dtype of g. Padding is applied one batch
    block at a time, in forward and again in the dW loop, so no padded copy
    of the whole input is made or kept on the tape.
    """
    B, C, T = x.data.shape
    O, C2, K = w.data.shape
    if C != C2:
        raise ShapeMismatch(f"conv1d: input C={C} vs weight C={C2}")
    if K > T + 2 * padding:
        raise ShapeMismatch(f"conv1d: kernel {K} longer than padded input {T + 2 * padding}")

    t_out = (T + 2 * padding - K) // stride + 1
    wm = w.data.reshape(O, C * K)

    block = _batch_block(t_out, C, K)
    out = np.empty((B, O, t_out), dtype=np.result_type(x.data, w.data))
    for lo in range(0, B, block):
        hi = min(B, lo + block)
        col = _col_view(x.data, lo, hi, padding, K, stride)[:, :, :t_out]
        # materialize: BLAS on the overlapping-stride view is far slower
        col = np.ascontiguousarray(col.transpose(0, 2, 1, 3)).reshape(hi - lo, t_out, C * K)
        np.matmul(wm, col.transpose(0, 2, 1), out=out[lo:hi])
    if b is not None:
        out += b.data.reshape(1, O, 1)

    need_dx = x.requires_grad
    need_dw = w.requires_grad

    def vjp(g):
        dw = np.zeros_like(wm) if need_dw else None
        dxp = _dx_buffer(x.data, B, stride, padding) if need_dx else None
        for lo in range(0, B, block):
            hi = min(B, lo + block)
            _conv1d_vjp_block(x.data[lo:hi], wm, g[lo:hi], K, stride, padding, dw,
                              dxp[lo:hi] if need_dx else None)
        grads = [_dx_of(dxp, padding, T) if need_dx else None,
                 dw.reshape(O, C, K) if need_dw else None]
        if b is not None:
            grads.append(g.sum(axis=(0, 2)))
        return tuple(grads)

    parents = (x, w) if b is None else (x, w, b)
    return _from_op(out, parents, vjp)


def _batch_block(t_out: int, channels: int, kernel: int) -> int:
    """Batch items per im2col block of a conv, so one block's columns stay
    within `_COL_BUDGET` values. A conv's vjp sums dW block by block, so its
    bits depend on this size."""
    return max(1, _COL_BUDGET // max(1, t_out * channels * kernel))


def _dx_buffer(x: np.ndarray, n: int, stride: int, padding: int) -> np.ndarray:
    """An empty residue-major dX buffer (n, C, span, stride) for n items of x."""
    span = -(-(x.shape[2] + 2 * padding) // stride)
    return np.empty_like(x, shape=(n, x.shape[1], span, stride))


def _dx_of(dxp: np.ndarray, padding: int, t_in: int) -> np.ndarray:
    """The (n, C, t_in) input gradient in a dX buffer, as a view."""
    n, c, span, stride = dxp.shape
    return dxp.reshape(n, c, span * stride)[:, :, padding : padding + t_in]


def _conv1d_vjp_block(x, wm, g, kernel: int, stride: int, padding: int, dw, dxp) -> None:
    """One batch block's share of conv1d's vjp, for its input x (n, C, T),
    the weight as wm (O, C*K) and its output gradient g (n, O, T').

    Adds the block's dW into dw (O, C*K) unless dw is None, and writes the
    block's dX into the residue-major buffer dxp (n, C, span, stride) from
    `_dx_buffer` unless dxp is None; `_dx_of` reads the gradient from it."""
    n, C, _ = x.shape
    t_out = g.shape[2]
    if dw is not None:
        col = _col_view(x, 0, n, padding, kernel, stride)[:, :, :t_out]
        col = np.ascontiguousarray(col.transpose(1, 3, 0, 2)).reshape(C * kernel, -1)
        dw += g.transpose(1, 0, 2).reshape(wm.shape[0], -1) @ col.T
    if dxp is not None:
        span = dxp.shape[2]
        dcol = (wm.T @ g).reshape(n, C, kernel, t_out)
        acc = np.zeros_like(x, shape=(n, C, stride, span))
        for k in range(kernel):
            q, r = divmod(k, stride)
            acc[:, :, r, q : q + t_out] += dcol[:, :, k]
        dxp[...] = acc.transpose(0, 1, 3, 2)


def batchnorm_prelu(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    alpha: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    training: bool,
) -> Tensor:
    """PReLU(batch norm(x)) for (B, C, T) inputs, one slope per channel.

    Batch norm normalizes per channel over (batch, time). Training mode
    uses batch statistics and updates the running buffers in place; eval
    mode uses the buffers and touches nothing. The tape keeps x and not the
    batch-norm output: the vjp recomputes the normalized input and the
    batch-norm output from x, so eval mode keeps a copy of `running_mean`
    as it was at forward time. Each expression runs in place in a buffer
    the op allocated, with its operands in the unfused ops' order, and
    PReLU selects by bit mask, so the bits are those of batch norm then
    PReLU (tests/oracles.py) with no extra temporaries.
    """
    B, C, T = x.data.shape
    if gamma.data.shape != (C,) or beta.data.shape != (C,) or alpha.data.shape != (C,):
        raise ShapeMismatch("batchnorm_prelu: gamma/beta/alpha must be (C,)")
    n = B * T
    if training:
        mu = x.data.mean(axis=(0, 2))
        var = x.data.var(axis=(0, 2))
        # running update uses the unbiased variance, as is conventional
        unbiased = var * n / max(1, n - 1)
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * unbiased
    else:
        mu = running_mean.copy()
        var = running_var

    invstd = _bn_invstd(var).reshape(1, C, 1)
    a = alpha.data.reshape(1, C, 1)

    def normalized():
        xhat = x.data - mu.reshape(1, C, 1)
        xhat *= invstd
        return xhat

    def batchnormed(xhat):
        y = gamma.data.reshape(1, C, 1) * xhat
        y += beta.data.reshape(1, C, 1)
        return y

    y = batchnormed(normalized())
    out = _where_neg(_neg_mask(y), a * y, y)

    def vjp(g):
        xhat = normalized()
        y = batchnormed(xhat)
        neg = _neg_mask(y)
        tmp = np.multiply(g, y, out=y)  # y is not read again: its buffer is reused
        da = _where_neg(neg, tmp).sum(axis=(0, 2))
        gx = _where_neg(neg, a * g, g)  # the gradient at the batch-norm output
        dgamma = np.multiply(gx, xhat, out=tmp).sum(axis=(0, 2))
        dbeta = gx.sum(axis=(0, 2))
        gx *= gamma.data.reshape(1, C, 1)
        if training:
            s1 = gx.sum(axis=(0, 2), keepdims=True)
            s2 = np.multiply(gx, xhat, out=tmp).sum(axis=(0, 2), keepdims=True)
            # dx = (invstd / n) * (n * gx - s1 - xhat * s2)
            np.multiply(n, gx, out=gx)
            gx -= s1
            xhat *= s2
            gx -= xhat
            np.multiply(invstd / n, gx, out=gx)
        else:
            gx *= invstd
        return gx, dgamma, dbeta, da

    return _from_op(out, (x, gamma, beta, alpha), vjp)


def fo_pool(z: Tensor, f: Tensor) -> Tensor:
    """Forget-gated recurrent pooling: c_t = f_t * c_{t-1} + (1 - f_t) * z_t.

    Gates arrive precomputed for every step; only this pooling recurrence is
    sequential. Shapes are (B, H, T), and z, f and g share one dtype.

    Every term that does not depend on the carried state is computed once
    for all steps: (1 - f) * z in the forward, and 1 - f and c_{t-1} - z
    (0 - z at t = 0) in the vjp, whose loop only carries dc and whose dz and
    df are whole-array products after it. Each step then runs two ops, and
    every value is the one the per-step expressions give (tests/oracles.py
    `reference_fo_pool`).
    """
    if z.data.shape != f.data.shape:
        raise ShapeMismatch("fo_pool: z and f must share a shape")
    zd, fd = z.data, f.data
    c = np.multiply(1.0 - fd, zd)  # (1 - f_t) * z_t, overwritten step by step with c_t
    prev = np.zeros(zd.shape[:2], dtype=zd.dtype)
    for t in range(zd.shape[2]):
        step = c[:, :, t]
        step += fd[:, :, t] * prev
        prev = step

    def vjp(g):
        dc = np.empty_like(zd)  # dc_t, the gradient reaching c_t
        carry = np.zeros(zd.shape[:2], dtype=zd.dtype)
        for t in range(zd.shape[2] - 1, -1, -1):
            np.add(carry, g[:, :, t], out=dc[:, :, t])
            np.multiply(dc[:, :, t], fd[:, :, t], out=carry)
        diffs = np.empty_like(zd)  # c_{t-1} - z_t
        np.subtract(c[:, :, :-1], zd[:, :, 1:], out=diffs[:, :, 1:])
        np.subtract(0.0, zd[:, :, 0], out=diffs[:, :, 0])
        dz = np.multiply(dc, 1.0 - fd)
        df = np.multiply(dc, diffs, out=diffs)
        return dz, df

    return _from_op(c, (z, f), vjp)


# --- losses --------------------------------------------------------------------


def linear_mse(h: Tensor, w: Tensor, b: Tensor, target) -> Tensor:
    """mean((h @ w.T + b - target) ** 2) for h: (N, I), w: (O, I), b: (O,)
    and a constant (N, O) target given in pieces: an iterable of
    (rows, cols, values), where rows and cols are slices and values is
    target[rows, cols]. The pieces cover the target once; a whole target T
    is the one piece (slice(None), slice(None), T).

    Each piece is subtracted, as it arrives, in place in the buffer that
    holds h @ w.T + b, so neither the whole target nor the prediction is
    ever built or kept: the forward holds the difference and its squares,
    and the tape keeps the difference, in the prediction's dtype, which is
    what the vjp reads. A piece is only read.
    """
    if h.data.shape[-1] != w.data.shape[1]:
        raise ShapeMismatch(f"linear_mse: {h.data.shape} @ {w.data.shape}")
    diff = h.data @ w.data.T
    diff += b.data
    covered = 0
    for rows, cols, values in target:
        if not (isinstance(rows, slice) and isinstance(cols, slice)):
            raise ShapeMismatch("linear_mse: a target piece's rows and cols must be slices")
        part = diff[rows, cols]
        if values.shape != part.shape:
            raise ShapeMismatch(f"linear_mse: prediction piece {part.shape} vs target piece "
                                f"{values.shape}")
        np.subtract(part, values, out=part)
        covered += part.size
    if covered != diff.size:
        raise ShapeMismatch(f"linear_mse: target pieces cover {covered} of {diff.size} values")
    out = np.asarray((diff * diff).mean(), dtype=diff.dtype)

    def vjp(g):
        scale = 2.0 * g / diff.size
        gp = np.multiply(scale, diff, out=diff)  # consumes diff: the tape calls a vjp once
        dh = gp @ w.data if h.requires_grad else None
        dw = gp.T @ h.data if w.requires_grad else None
        return dh, dw, gp.sum(axis=0)

    return _from_op(out, (h, w, b), vjp)


def bce_logits_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean binary cross-entropy on raw logits, computed in log-sum-exp form."""
    z = logits.data
    y = np.asarray(labels, dtype=z.dtype)
    if y.shape != z.shape:
        raise ShapeMismatch(f"bce_logits_loss: {z.shape} vs {y.shape}")
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out = np.asarray(per.mean(), dtype=z.dtype)
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-z))

    def vjp(g):
        return ((sig - y) * (g / z.size),)

    return _from_op(out, (logits,), vjp)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy for integer class labels; logits (N, K)."""
    z = logits.data
    idx = np.asarray(labels, dtype=np.int64)
    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    probs = ez / ez.sum(axis=1, keepdims=True)
    n = z.shape[0]
    logp = (z - zmax) - np.log(ez.sum(axis=1, keepdims=True))
    out = np.asarray(-logp[np.arange(n), idx].mean(), dtype=z.dtype)

    def vjp(g):
        d = probs.copy()
        d[np.arange(n), idx] -= 1.0
        return (d * (g / n),)

    return _from_op(out, (logits,), vjp)
