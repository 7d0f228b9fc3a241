"""Waveform encoder: learnable sinc band-pass front end, seven conv blocks
with batch norm + PReLU, projected skip connections summed into the output,
and a single causal QRNN layer, producing 256-dim embeddings every 10 ms.
Block0's conv belongs to the front end (`SincLayer`).

The encoder runs on 16 kHz audio only (`features.SAMPLE_RATE`). What no
config varies is a module constant: the sinc conv's stride of 1, its lowest
cutoff and narrowest band, and the QRNN's kernel. A checkpoint's meta still
records each of them, and a checkpoint whose meta differs does not load.

`Encoder.frozen()` builds the inference form once: the front end's two convs
composed into one, batch norm folded into each block and the QRNN gates as
one conv. Under `no_grad` in eval mode every layer's `forward` builds its
part of that form and runs it, so the two agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import accumulate
from operator import mul

import numpy as np

from . import autodiff as ad
from .autodiff import Parameter, Tensor
from .errors import ConfigError, ShapeMismatch, TooShort
from .features import SAMPLE_RATE, hz_to_mel, mel_to_hz

EMBEDDING_DIM = 256
QRNN_KERNEL = 2  # the QRNN gates' causal conv sees frames t-1 and t
SINC_MIN_LOW_HZ = 30.0  # the sinc filters' lowest cutoff
SINC_MIN_BAND_HZ = 50.0  # and narrowest band

# what a checkpoint's meta records beside the config's fields: the sinc conv
# runs at stride 1 on SAMPLE_RATE audio, with the constants above
_FIXED_META = {"sample_rate": SAMPLE_RATE, "sinc_stride": 1, "qrnn_kernel": QRNN_KERNEL,
               "sinc_min_low_hz": SINC_MIN_LOW_HZ, "sinc_min_band_hz": SINC_MIN_BAND_HZ}


@dataclass
class EncoderConfig:
    sinc_filters: int = 64
    sinc_kernel: int = 251
    block_channels: tuple = (64, 128, 128, 256, 256, 256, 256)
    block_kernels: tuple = (21, 11, 11, 11, 11, 11, 11)
    block_strides: tuple = (10, 2, 2, 2, 2, 1, 1)
    qrnn_hidden: int = 256
    embedding_dim: int = EMBEDDING_DIM

    @property
    def sample_rate(self) -> int:
        """The one rate the encoder runs at, `features.SAMPLE_RATE`."""
        return SAMPLE_RATE

    @property
    def hop_samples(self) -> int:
        return math.prod(self.block_strides)

    def validate(self) -> None:
        if not (len(self.block_channels) == len(self.block_kernels) == len(self.block_strides)):
            raise ConfigError("block_channels, block_kernels and block_strides differ in length")
        want = SAMPLE_RATE // 100  # one frame per 10 ms
        if self.hop_samples != want:
            raise ConfigError(
                f"the block_strides' product is {self.hop_samples}, "
                f"not the {want}-sample hop at {SAMPLE_RATE} Hz"
            )

    def to_meta(self) -> dict:
        meta = {name: str(value) for name, value in _FIXED_META.items()}
        for f in fields(self):
            value = getattr(self, f.name)
            meta[f.name] = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        return meta

    @classmethod
    def from_meta(cls, meta: dict) -> "EncoderConfig":
        """The validated config `to_meta` wrote; a missing or unparsable key,
        or a fixed key with a value other than this encoder's, raises
        `ConfigError` naming it."""

        def parse(name: str, default):
            if name not in meta:
                raise ConfigError(f"missing encoder key {name}")
            try:
                if isinstance(default, tuple):
                    return tuple(type(default[0])(v) for v in meta[name].split(","))
                return type(default)(meta[name])
            except ValueError as exc:
                raise ConfigError(f"encoder key {name}: {exc}") from None

        for name, value in _FIXED_META.items():
            if parse(name, value) != value:
                raise ConfigError(f"encoder key {name} is {meta[name]}; the encoder needs {value}")
        cfg = cls(**{f.name: parse(f.name, f.default) for f in fields(cls)})
        cfg.validate()
        return cfg


def _sinc_cutoffs(p_low, p_band):
    """The sinc layer's band edges from its unconstrained parameters.

    f1 = SINC_MIN_LOW_HZ + |p_low| and f2 = f1 + SINC_MIN_BAND_HZ + |p_band|,
    both capped below Nyquist, so 0 < f1 < f2 < fs/2 for any parameter
    values. The map runs in float64 so the minimum bandwidth holds exactly.
    Returns f1, f2 and, for the gradient, whether each raw value was below
    its cap.
    """
    cap_hi = SAMPLE_RATE / 2.0 - 1.0
    cap_lo = cap_hi - SINC_MIN_BAND_HZ
    f1_raw = SINC_MIN_LOW_HZ + np.abs(p_low.astype(np.float64))
    f1 = np.minimum(f1_raw, cap_lo)
    f2_raw = f1 + SINC_MIN_BAND_HZ + np.abs(p_band.astype(np.float64))
    f2 = np.minimum(f2_raw, cap_hi)
    return f1, f2, f1_raw < cap_lo, f2_raw < cap_hi


def sinc_bandpass_kernels(p_low: Tensor, p_band: Tensor, kernel_size: int) -> Tensor:
    """Realize band-pass FIR kernels from unconstrained cutoff parameters.

    The band edges come from `_sinc_cutoffs`, so 0 < f1 < f2 < fs/2 for any
    parameter values. The kernel is the difference of two windowed sinc
    low-passes; the gradient w.r.t. the cutoffs is analytic (d/df of
    f*sinc(2fm/fs) is cos(2*pi*f*m/fs)).
    """
    fs = float(SAMPLE_RATE)
    f1, f2, f1_uncapped, f2_uncapped = _sinc_cutoffs(p_low.data, p_band.data)

    m = (np.arange(kernel_size) - (kernel_size - 1) / 2.0)[None, :]  # (1, K)
    window = np.hamming(kernel_size)[None, :]
    f1c = f1[:, None]
    f2c = f2[:, None]
    kernels = (
        (2.0 * f2c / fs) * np.sinc(2.0 * f2c * m / fs)
        - (2.0 * f1c / fs) * np.sinc(2.0 * f1c * m / fs)
    ) * window
    out = kernels[:, None, :].astype(p_low.data.dtype)  # (O, 1, K)

    def vjp(g):
        gk = g[:, 0, :]
        d_f2 = (gk * (2.0 / fs) * np.cos(2.0 * np.pi * f2c * m / fs) * window).sum(axis=1)
        d_f1 = (gk * -(2.0 / fs) * np.cos(2.0 * np.pi * f1c * m / fs) * window).sum(axis=1)
        f2_free = f2_uncapped.astype(g.dtype)
        f1_free = f1_uncapped.astype(g.dtype)
        d_pband = d_f2 * f2_free * np.sign(p_band.data)
        d_plow = (d_f1 + d_f2 * f2_free) * f1_free * np.sign(p_low.data)
        return d_plow, d_pband

    return ad._from_op(out, (p_low, p_band), vjp)


def front_end_convs(x: Tensor, kernels: Tensor, w: Tensor, b: Tensor, sinc_pad: int,
                    stride: int, pad: int) -> Tensor:
    """Block0's conv (w, b) of the stride-1 sinc conv (kernels) of the
    waveform x, as one op: (B, 1, T) -> (B, O, T').

    The forward runs the two whole-batch convs and keeps the sinc output,
    which block0's dW reads. The vjp walks the batch in each conv's im2col
    blocks (`ad._batch_block`, one item each at the default config and 2 s
    chunks), in item order: block0's dW, then for each block of items
    block0's dX, which is the gradient of those items' sinc output, the sinc
    filters' dW from it and x's dX when x needs one. So no whole-batch
    gradient of the sinc output is built, and every gradient has the bits of
    two `ad.conv1d` calls, whose vjp runs the same blocks.
    """
    with ad.no_grad():
        h = ad.conv1d(x, kernels, padding=sinc_pad).data
        out = ad.conv1d(Tensor(h), w, b, stride=stride, padding=pad).data
    n_items, channels, t_h = h.shape
    k_sinc, k0 = kernels.shape[2], w.shape[2]
    km = kernels.data.reshape(kernels.shape[0], -1)
    wm = w.data.reshape(w.shape[0], -1)
    need_x, need_k, need_w = x.requires_grad, kernels.requires_grad, w.requires_grad

    def blocks(t_out, c, k):
        size = ad._batch_block(t_out, c, k)
        return ((lo, min(n_items, lo + size)) for lo in range(0, n_items, size))

    def vjp(g):
        dw = None
        if need_w:
            dw = np.zeros_like(wm)
            for lo, hi in blocks(g.shape[2], channels, k0):
                ad._conv1d_vjp_block(h[lo:hi], wm, g[lo:hi], k0, stride, pad, dw, None)
        dk = np.zeros_like(km) if need_k else None
        dxp = ad._dx_buffer(x.data, n_items, 1, sinc_pad) if need_x else None
        if need_k or need_x:
            for lo, hi in blocks(t_h, 1, k_sinc):
                dhp = ad._dx_buffer(h, hi - lo, stride, pad)
                ad._conv1d_vjp_block(h[lo:hi], wm, g[lo:hi], k0, stride, pad, None, dhp)
                ad._conv1d_vjp_block(x.data[lo:hi], km, ad._dx_of(dhp, pad, t_h), k_sinc,
                                     1, sinc_pad, dk, dxp[lo:hi] if need_x else None)
        return (
            ad._dx_of(dxp, sinc_pad, x.shape[2]) if need_x else None,
            dk.reshape(kernels.shape) if need_k else None,
            dw.reshape(w.shape) if need_w else None,
            g.sum(axis=(0, 2)),
        )

    return ad._from_op(out, (x, kernels, w, b), vjp)


class SincLayer:
    """The front end: learnable band-pass sinc filters, then block0's conv.

    Nothing nonlinear sits between the two convolutions, so `forward`
    returns block0's pre-norm conv output and `Encoder.blocks[0]` applies
    only batch norm and PReLU. Block0's weights keep their checkpoint names,
    `<prefix>/block0/conv/w` and `/b`. While the graph is recorded the two
    convs are one op, `front_end_convs`, whose backward never holds the
    whole batch's gradient of the sinc output; under `no_grad` they run as
    one conv of the waveform (see `FrozenFrontEnd`).
    """

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator, prefix: str):
        self.cfg = cfg
        n = cfg.sinc_filters
        nyquist = SAMPLE_RATE / 2.0
        # mel-spaced initial cutoffs across the usable band
        hz = mel_to_hz(np.linspace(
            hz_to_mel(SINC_MIN_LOW_HZ), hz_to_mel(nyquist - 200.0), n + 1
        ))
        f1 = hz[:-1]
        band = np.diff(hz)
        self.p_low = Parameter(f"{prefix}/sinc/p_low", f1 - SINC_MIN_LOW_HZ)
        self.p_band = Parameter(
            f"{prefix}/sinc/p_band", np.maximum(band - SINC_MIN_BAND_HZ, 0.0)
        )
        ch, k = cfg.block_channels[0], cfg.block_kernels[0]
        self.w = Parameter(f"{prefix}/block0/conv/w", _he_conv(rng, ch, n, k))
        self.b = Parameter(f"{prefix}/block0/conv/b", np.zeros(ch, dtype=np.float32))
        self.pad = (cfg.sinc_kernel - 1) // 2
        self.conv_stride = cfg.block_strides[0]
        self.conv_pad = (k - 1) // 2

    def cutoffs(self) -> tuple[np.ndarray, np.ndarray]:
        f1, f2, _, _ = _sinc_cutoffs(self.p_low.data, self.p_band.data)
        return f1, f2

    def kernels(self) -> Tensor:
        return sinc_bandpass_kernels(self.p_low, self.p_band, self.cfg.sinc_kernel)

    def forward(self, x: Tensor) -> Tensor:
        """(B, 1, T) waveform -> block0's conv output, before batch norm."""
        if not ad.grad_enabled():
            return self.frozen()(x)
        return front_end_convs(x, self.kernels(), self.w, self.b, self.pad, self.conv_stride,
                               self.conv_pad)

    def frozen(self) -> "FrozenFrontEnd":
        return FrozenFrontEnd(self)

    def parameters(self) -> list[Parameter]:
        return [self.p_low, self.p_band, self.w, self.b]


class FrozenFrontEnd:
    """A snapshot of the front end's weights with both convs composed into
    one: W_eff[o, j + i] = sum_c w[o, c, j] * sinc[c, i], composed in
    float64, run with block0's stride and padding p_sinc + p0.

    Block0 zero-pads the sinc output, while the composed conv sees the sinc
    of the zero-padded waveform there; the frames whose window reaches past
    either end of the sinc output are recomputed with the two convs, over
    only the sinc outputs they read. Training never composes the convs: it
    runs them unfused, as one op (`front_end_convs`).
    """

    def __init__(self, layer: SincLayer):
        self.stride, self.pad, self.conv_pad = layer.conv_stride, layer.pad, layer.conv_pad
        with ad.no_grad():
            self.sinc = layer.kernels()
        self.w, self.b = _snapshot(layer.w), _snapshot(layer.b)
        k_sinc, k0 = self.sinc.shape[2], self.w.shape[2]
        taps = self.sinc.data[:, 0, :].astype(np.float64)
        w = self.w.data.astype(np.float64)
        w_eff = np.zeros((self.w.shape[0], 1, k_sinc + k0 - 1))
        for j in range(k0):
            w_eff[:, 0, j : j + k_sinc] += w[:, :, j] @ taps
        self.w_eff = Tensor(w_eff.astype(np.result_type(self.sinc.data, self.w.data)))

    def __call__(self, x: Tensor) -> Tensor:
        stride = self.stride
        k_sinc, k0 = self.sinc.shape[2], self.w.shape[2]
        out = ad.conv1d(x, self.w_eff, self.b, stride=stride, padding=self.pad + self.conv_pad)
        t_sinc = x.shape[2] + 2 * self.pad - k_sinc + 1
        t_out = out.shape[2]
        # frames [0, first) read the left pad, frames [last, t_out) the right
        first = min(t_out, -(-self.conv_pad // stride))
        last = max(first, -(-(t_sinc - k0 + 1 + self.conv_pad) // stride))
        for lo, hi in ((0, first), (last, t_out)):
            if lo < hi:
                out.data[:, :, lo:hi] = self._two_conv_frames(x, t_sinc, lo, hi)
        return out

    def _two_conv_frames(self, x: Tensor, t_sinc: int, lo: int, hi: int):
        """Block0's output frames lo..hi-1 by the two convs, computing only
        the sinc outputs n0..n1-1 they read (block0's zero padding outside
        0..t_sinc-1)."""
        stride = self.stride
        k_sinc, k0, t_in = self.sinc.shape[2], self.w.shape[2], x.shape[2]
        n0 = stride * lo - self.conv_pad
        n1 = stride * (hi - 1) + k0 - self.conv_pad
        a, b = max(n0, 0), min(n1, t_sinc)
        start = a - self.pad  # the waveform samples sinc outputs a..b-1 read
        stop = b - 1 + k_sinc - self.pad
        seg = np.pad(x.data[:, :, max(start, 0) : min(stop, t_in)],
                     ((0, 0), (0, 0), (max(0, -start), max(0, stop - t_in))))
        h = ad.conv1d(Tensor(seg), self.sinc).data
        h = np.pad(h, ((0, 0), (0, 0), (a - n0, n1 - b)))
        return ad.conv1d(Tensor(h), self.w, self.b, stride=stride).data


def _snapshot(p: Tensor) -> Tensor:
    """A constant copy of p, which later in-place updates of p do not reach."""
    return Tensor(p.data.copy())


def _prelu_(y: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """PReLU in place on (B, C, T) y with a (1, C, 1) slope; returns y.

    max(y, 0) + alpha * min(y, 0) is alpha * y or y exactly (a zero sign
    aside) and has no branch; a masked multiply runs several times slower
    on activations that are about half negative."""
    neg = np.minimum(y, 0)
    np.maximum(y, 0, out=y)
    neg *= alpha
    y += neg
    return y


def _he_conv(rng, out_ch, in_ch, kernel):
    scale = np.sqrt(2.0 / (in_ch * kernel))
    return (rng.standard_normal((out_ch, in_ch, kernel)) * scale).astype(np.float32)


class NormPReLU:
    """batch norm -> PReLU; block0 is one, after the front end's conv.

    Under `no_grad` in eval mode a block runs its `frozen()` form, built for
    the call, so it gives the bits a frozen encoder gives."""

    def __init__(self, channels, prefix):
        self.prefix = prefix
        self.gamma = Parameter(f"{prefix}/bn/gamma", np.ones(channels, dtype=np.float32))
        self.beta = Parameter(f"{prefix}/bn/beta", np.zeros(channels, dtype=np.float32))
        self.running_mean = np.zeros(channels, dtype=np.float32)
        self.running_var = np.ones(channels, dtype=np.float32)
        self.alpha = Parameter(f"{prefix}/prelu/alpha", np.full(channels, 0.25, dtype=np.float32))

    def forward(self, x: Tensor, training: bool) -> Tensor:
        if not training and not ad.grad_enabled():
            return self.frozen()(x)
        return ad.batchnorm_prelu(
            self._conv(x), self.gamma, self.beta, self.alpha,
            self.running_mean, self.running_var, training,
        )

    def _conv(self, x: Tensor) -> Tensor:
        return x

    def _scale(self) -> np.ndarray:
        """Eval-mode batch norm's per-channel scale, gamma / sqrt(var + eps)."""
        return self.gamma.data * ad._bn_invstd(self.running_var)

    def frozen(self) -> "FrozenNorm":
        scale = self._scale()
        return FrozenNorm(scale, self.beta.data - self.running_mean * scale, self.alpha.data)

    def parameters(self):
        return [self.gamma, self.beta, self.alpha]

    def buffers(self):
        return {
            f"{self.prefix}/bn/running_mean": self.running_mean,
            f"{self.prefix}/bn/running_var": self.running_var,
        }


class FrozenNorm:
    """Eval-mode batch norm as one per-channel scale and shift, then PReLU."""

    def __init__(self, scale: np.ndarray, shift: np.ndarray, alpha: np.ndarray):
        self.scale = scale.reshape(1, -1, 1)
        self.shift = shift.reshape(1, -1, 1)
        self.alpha = alpha.reshape(1, -1, 1).copy()

    def __call__(self, h: Tensor) -> Tensor:
        y = h.data * self.scale
        y += self.shift
        return Tensor(_prelu_(y, self.alpha))


class ConvBlock(NormPReLU):
    """conv -> batch norm -> PReLU, the repeated encoder unit."""

    def __init__(self, in_ch, out_ch, kernel, stride, rng, prefix):
        super().__init__(out_ch, prefix)
        self.kernel = kernel
        self.stride = stride
        self.w = Parameter(f"{prefix}/conv/w", _he_conv(rng, out_ch, in_ch, kernel))
        self.b = Parameter(f"{prefix}/conv/b", np.zeros(out_ch, dtype=np.float32))

    def _conv(self, x: Tensor) -> Tensor:
        return ad.conv1d(x, self.w, self.b, stride=self.stride, padding=(self.kernel - 1) // 2)

    def frozen(self) -> "FrozenConvBlock":
        """Batch norm folded into the conv: w' = w * scale and
        b' = (b - running_mean) * scale + beta."""
        scale = self._scale()
        w = self.w.data * scale[:, None, None]
        b = (self.b.data - self.running_mean) * scale + self.beta.data
        return FrozenConvBlock(w, b, self.alpha.data, self.stride, (self.kernel - 1) // 2)

    def parameters(self):
        return [self.w, self.b] + super().parameters()


class FrozenConvBlock:
    """One conv with batch norm folded in, then PReLU in place."""

    def __init__(self, w: np.ndarray, b: np.ndarray, alpha: np.ndarray, stride: int, pad: int):
        self.w, self.b = Tensor(w), Tensor(b)
        self.alpha = alpha.reshape(1, -1, 1).copy()
        self.stride, self.pad = stride, pad

    def __call__(self, x: Tensor) -> Tensor:
        y = ad.conv1d(x, self.w, self.b, stride=self.stride, padding=self.pad)
        _prelu_(y.data, self.alpha)
        return y


class SkipAggregate:
    """Project every block output to the embedding width and sum them.

    Each tapped activation is downsampled to the final frame rate by one
    strided index (every `sel`-th frame, `t_out` of them), passed through a
    learned 1x1 projection, and added together with the (projected) last
    block path.
    """

    def __init__(self, channels: tuple, emb_dim: int, rng, prefix):
        self.projections = []
        # each path is scaled down by the path count so the SUM starts near
        # unit variance; otherwise the QRNN gates saturate at init
        gain = 1.0 / np.sqrt(len(channels))
        for i, ch in enumerate(channels):
            w = Parameter(f"{prefix}/proj{i}/w", gain * _he_conv(rng, emb_dim, ch, 1))
            b = Parameter(f"{prefix}/proj{i}/b", np.zeros(emb_dim, dtype=np.float32))
            self.projections.append((w, b))

    def forward(self, block_outputs: list[Tensor], strides: list[int], t_out: int) -> Tensor:
        return _project_and_sum(self.projections, block_outputs, strides, t_out)

    def parameters(self):
        return [p for pair in self.projections for p in pair]


def _project_and_sum(projections: list, block_outputs: list[Tensor], strides: list[int],
                     t_out: int) -> Tensor:
    total = None
    for (w, b), h, sel in zip(projections, block_outputs, strides):
        frames = -(-h.shape[2] // sel)  # len(range(0, T, sel))
        if frames < t_out:
            raise ShapeMismatch(f"skip path gives {frames} frames, need {t_out}")
        if h.shape[2] != t_out:  # a path already at t_out frames passes through
            h = ad.index(h, np.s_[:, :, : sel * t_out : sel])
        proj = ad.conv1d(h, w, b)
        total = proj if total is None else ad.add(total, proj)
    return total


class QRNNLayer:
    """Convolutional gates over time plus the sequential forget-gate pooling.

    The gates are causal convs of QRNN_KERNEL frames; the causal pad is read
    off the weights' width."""

    def __init__(self, in_ch, hidden, rng, prefix):
        scale = np.sqrt(1.0 / (in_ch * QRNN_KERNEL))

        def w(name):
            return Parameter(
                f"{prefix}/{name}/w",
                (rng.standard_normal((hidden, in_ch, QRNN_KERNEL)) * scale).astype(np.float32),
            )

        self.w_z, self.b_z = w("z"), Parameter(f"{prefix}/z/b", np.zeros(hidden, dtype=np.float32))
        self.w_f, self.b_f = w("f"), Parameter(f"{prefix}/f/b", np.zeros(hidden, dtype=np.float32))
        self.w_o, self.b_o = w("o"), Parameter(f"{prefix}/o/b", np.zeros(hidden, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        if not ad.grad_enabled():
            return self.frozen()(x)
        z, f, o = self.gates(x)
        return ad.mul(o, ad.fo_pool(z, f))

    def frozen(self) -> "FrozenQRNN":
        """The z, f and o gates as one conv with 3 * hidden outputs."""
        return FrozenQRNN(
            np.concatenate([self.w_z.data, self.w_f.data, self.w_o.data]),
            np.concatenate([self.b_z.data, self.b_f.data, self.b_o.data]),
        )

    def gates(self, x: Tensor) -> tuple[Tensor, Tensor, Tensor]:
        xp = ad.pad1d(x, self.w_z.shape[2] - 1, 0)  # causal: gates at t see x_{<=t}
        return (
            ad.tanh(ad.conv1d(xp, self.w_z, self.b_z)),
            ad.sigmoid(ad.conv1d(xp, self.w_f, self.b_f)),
            ad.sigmoid(ad.conv1d(xp, self.w_o, self.b_o)),
        )

    def parameters(self):
        return [self.w_z, self.b_z, self.w_f, self.b_f, self.w_o, self.b_o]


class FrozenQRNN:
    """The QRNN layer with its three gate convs run as one."""

    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w, self.b = Tensor(w), Tensor(b)

    def __call__(self, x: Tensor) -> Tensor:
        xp = ad.pad1d(x, self.w.shape[2] - 1, 0)  # causal: gates at t see x_{<=t}
        gates = ad.conv1d(xp, self.w, self.b).data
        hidden = gates.shape[1] // 3
        z = ad.tanh(Tensor(gates[:, :hidden]))
        fo = ad.sigmoid(Tensor(gates[:, hidden:])).data
        c = ad.fo_pool(z, Tensor(fo[:, :hidden])).data
        return Tensor(fo[:, hidden:] * c)


class Encoder:
    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        cfg.validate()
        self.cfg = cfg
        self.sinc = SincLayer(cfg, rng, "encoder")  # with block0's conv
        self.blocks = [NormPReLU(cfg.block_channels[0], "encoder/block0")]
        for i in range(1, len(cfg.block_channels)):
            self.blocks.append(ConvBlock(
                cfg.block_channels[i - 1], cfg.block_channels[i], cfg.block_kernels[i],
                cfg.block_strides[i], rng, f"encoder/block{i}",
            ))
        self.skip = SkipAggregate(cfg.block_channels, cfg.embedding_dim, rng, "encoder/skip")
        self.qrnn = QRNNLayer(cfg.embedding_dim, cfg.qrnn_hidden, rng, "encoder/qrnn")
        self.emb_w = Parameter(
            "encoder/emb/w", _he_conv(rng, cfg.embedding_dim, cfg.qrnn_hidden, 1)
        )
        self.emb_b = Parameter("encoder/emb/b", np.zeros(cfg.embedding_dim, dtype=np.float32))

        # cumulative stride after each block, for skip-path downsampling
        self.skip_selects = [cfg.hop_samples // s
                             for s in accumulate(cfg.block_strides, mul)]

    def forward(self, x: Tensor, training: bool) -> Tensor:
        """(B, 1, T) waveform batch -> (B, emb_dim, T // hop) embeddings.

        Under `no_grad` in eval mode each layer runs its `frozen()` form,
        built for the call; with grad on every layer runs its training ops."""
        t_out = _frame_count(self.cfg, x)
        h = self.sinc.forward(x)
        outs = []
        for block in self.blocks:
            h = block.forward(h, training)
            outs.append(h)
        agg = self.skip.forward(outs, self.skip_selects, t_out)
        q = self.qrnn.forward(agg)
        return ad.conv1d(q, self.emb_w, self.emb_b)

    def frozen(self) -> "FrozenEncoder":
        """The inference form of the current weights (see `FrozenEncoder`)."""
        return FrozenEncoder(self)

    def parameters(self) -> list[Parameter]:
        params = list(self.sinc.parameters())
        for block in self.blocks:
            params.extend(block.parameters())
        params.extend(self.skip.parameters())
        params.extend(self.qrnn.parameters())
        params.extend([self.emb_w, self.emb_b])
        return params

    def buffers(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for block in self.blocks:
            out.update(block.buffers())
        return out


def _frame_count(cfg: EncoderConfig, x: Tensor) -> int:
    """Embedding frames of a (B, 1, T) input: T // hop, at least one."""
    hop, t_in = cfg.hop_samples, x.shape[2]
    if t_in < hop:
        raise TooShort(f"input of {t_in} samples is under one hop ({hop})")
    return t_in // hop


class FrozenEncoder:
    """The encoder for inference, with every array that depends only on the
    weights built once: the sinc taps and the composed front-end kernel,
    block0's batch-norm scale and shift, blocks 1-6 with batch norm folded
    into their convs, the QRNN gates as one conv, and copies of the skip
    projections and the embedding conv.

    It is a snapshot: an update of the encoder's weights after
    `Encoder.frozen()` does not reach it. Its output has the bits of the
    encoder's layers run one by one under `no_grad` in eval mode, which
    build the same forms per call.
    """

    def __init__(self, encoder: Encoder):
        self.cfg = encoder.cfg
        self.front = encoder.sinc.frozen()
        self.blocks = [block.frozen() for block in encoder.blocks]
        self.skip = [(_snapshot(w), _snapshot(b)) for w, b in encoder.skip.projections]
        self.skip_selects = encoder.skip_selects
        self.qrnn = encoder.qrnn.frozen()
        self.emb_w, self.emb_b = _snapshot(encoder.emb_w), _snapshot(encoder.emb_b)

    def encode(self, samples: np.ndarray) -> np.ndarray:
        """Eval-mode embedding of one waveform: (T,) -> (T // hop, emb_dim)."""
        x = Tensor(np.asarray(samples, dtype=np.float32)[None, None, :])
        t_out = _frame_count(self.cfg, x)
        h = self.front(x)
        outs = []
        for block in self.blocks:
            h = block(h)
            outs.append(h)
        q = self.qrnn(_project_and_sum(self.skip, outs, self.skip_selects, t_out))
        return ad.conv1d(q, self.emb_w, self.emb_b).data[0].T.copy()
