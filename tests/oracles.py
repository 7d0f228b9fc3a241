"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (loops, direct definitions) and stays
independent of the library code paths it checks.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from pase import autodiff as ad
from pase import distortion as D
from pase import features as F
from pase import rir
from pase.audio_io import Waveform
from pase.errors import FrameGridMismatch, TooShort, UnphysicalT60


def naive_conv1d(x: np.ndarray, w: np.ndarray, stride: int = 1, padding: int = 0) -> np.ndarray:
    """Triple-loop cross-correlation; x (B, C, T), w (O, C, K)."""
    b, c, t = x.shape
    o, _, k = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    t_out = (xp.shape[2] - k) // stride + 1
    out = np.zeros((b, o, t_out), dtype=np.float64)
    for bi in range(b):
        for oi in range(o):
            for ti in range(t_out):
                acc = 0.0
                for ci in range(c):
                    for ki in range(k):
                        acc += xp[bi, ci, ti * stride + ki] * w[oi, ci, ki]
                out[bi, oi, ti] = acc
    return out


def naive_full_convolution(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """O(N*K) linear convolution."""
    n, k = len(x), len(h)
    out = np.zeros(n + k - 1, dtype=np.float64)
    for i in range(n):
        out[i : i + k] += x[i] * h
    return out


def naive_dft_power(frame: np.ndarray, nfft: int) -> np.ndarray:
    """|DFT|^2 on the positive bins, direct O(N^2) summation."""
    x = np.zeros(nfft, dtype=np.float64)
    x[: min(len(frame), nfft)] = frame[:nfft]
    bins = nfft // 2 + 1
    out = np.zeros(bins)
    for k in range(bins):
        re = 0.0
        im = 0.0
        for n in range(nfft):
            angle = -2.0 * np.pi * k * n / nfft
            re += x[n] * np.cos(angle)
            im += x[n] * np.sin(angle)
        out[k] = re * re + im * im
    return out


def naive_dct2_orthonormal(values: np.ndarray) -> np.ndarray:
    """Definition-level orthonormal DCT-II of one vector."""
    n = len(values)
    out = np.zeros(n)
    for k in range(n):
        acc = 0.0
        for m in range(n):
            acc += values[m] * np.cos(np.pi * (2 * m + 1) * k / (2 * n))
        scale = np.sqrt(1.0 / n) if k == 0 else np.sqrt(2.0 / n)
        out[k] = scale * acc
    return out


def naive_deltas(values: np.ndarray) -> np.ndarray:
    """Regression delta with +/-2 reach and edge replication."""
    n, d = values.shape
    out = np.zeros_like(values)
    for t in range(n):
        num = np.zeros(d)
        for k in (1, 2):
            hi = values[min(t + k, n - 1)]
            lo = values[max(t - k, 0)]
            num += k * (hi - lo)
        out[t] = num / 10.0
    return out


def schroeder_t60(taps: np.ndarray, sample_rate: int, lo_db=-5.0, hi_db=-25.0) -> float:
    """Backward-integrated energy decay, line fit between lo_db and hi_db."""
    energy = np.asarray(taps, dtype=np.float64) ** 2
    edc = np.cumsum(energy[::-1])[::-1]
    db = 10.0 * np.log10(np.maximum(edc / edc[0], 1e-30))
    idx = np.where((db <= lo_db) & (db >= hi_db))[0]
    if len(idx) < 8:
        raise ValueError("decay range too short for a fit")
    slope = np.polyfit(idx / sample_rate, db[idx], 1)[0]
    return -60.0 / slope


def measured_snr_db(mix: np.ndarray, clean: np.ndarray) -> float:
    """SNR of (clean, mix - clean) by direct power summation."""
    noise = mix.astype(np.float64) - clean.astype(np.float64)
    return 10.0 * np.log10(np.sum(clean.astype(np.float64) ** 2) / np.sum(noise**2))


def sequential_qrnn(x, w_z, b_z, w_f, b_f, w_o, b_o, kernel):
    """Step-by-step QRNN reference: per-step gate dot products + recurrence."""

    def sigmoid(v):
        return 1.0 / (1.0 + np.exp(-v))

    b, c, t = x.shape
    h_dim = w_z.shape[0]
    xp = np.concatenate([np.zeros((b, c, kernel - 1), dtype=x.dtype), x], axis=2)
    out = np.zeros((b, h_dim, t), dtype=x.dtype)
    for bi in range(b):
        c_state = np.zeros(h_dim, dtype=x.dtype)
        for ti in range(t):
            window = xp[bi, :, ti : ti + kernel]  # (C, K)
            z = np.tanh(np.tensordot(w_z, window, axes=([1, 2], [0, 1])) + b_z)
            f = sigmoid(np.tensordot(w_f, window, axes=([1, 2], [0, 1])) + b_f)
            o = sigmoid(np.tensordot(w_o, window, axes=([1, 2], [0, 1])) + b_o)
            c_state = f * c_state + (1.0 - f) * z
            out[bi, :, ti] = o * c_state
    return out


def gradcheck(build_loss, params, n_coords=12, h=1e-5, rng=None):
    """Max relative error between autodiff grads and central differences.

    `build_loss()` must rebuild the graph from `params` (list of Tensors with
    float64 data) and return the scalar loss tensor. Checks `n_coords`
    sampled coordinates per parameter.
    """
    rng = rng or np.random.default_rng(0)
    loss = build_loss()
    for p in params:
        p.grad = None
    loss.backward()
    grads = [p.grad.copy() for p in params]

    worst = 0.0
    for p, g in zip(params, grads):
        flat = p.data.reshape(-1)
        count = min(n_coords, flat.size)
        coords = rng.choice(flat.size, size=count, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            up = float(build_loss().data)
            flat[i] = orig - h
            down = float(build_loss().data)
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            ad_g = g.reshape(-1)[i]
            denom = max(abs(fd), abs(ad_g), 1e-6)
            worst = max(worst, abs(fd - ad_g) / denom)
    return worst


# batch block size of the reference conv; kept apart from the library's
_REFERENCE_COL_BUDGET = 8_000_000


def _reference_col_view(xp: np.ndarray, kernel: int, stride: int):
    win = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=2)
    return win[:, :, ::stride, :]  # (B, C, T_out, K), still a view


def reference_conv1d(x, w, b, g, stride=1, padding=0):
    """im2col conv1d forward and vjp whose GEMMs write (T', O) and
    (T', C*K) results and transpose them afterwards: the bitwise oracle for
    the library's conv1d, which sums every element in the same order.

    x: (B, C, T), w: (O, C, K), b: (O,) or None, g: upstream gradient
    (B, O, T'). Returns (out, dx, dw, db); db is None when b is None.
    """
    B, C, T = x.shape
    O, _, K = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding))) if padding else x
    t_out = (xp.shape[2] - K) // stride + 1
    wm = w.reshape(O, C * K)

    block = max(1, _REFERENCE_COL_BUDGET // max(1, t_out * C * K))
    out = np.empty((B, O, t_out), dtype=np.result_type(x, w))
    for lo in range(0, B, block):
        hi = min(B, lo + block)
        col = _reference_col_view(xp[lo:hi], K, stride)[:, :, :t_out]
        col = np.ascontiguousarray(col.transpose(0, 2, 1, 3)).reshape(hi - lo, t_out, C * K)
        out[lo:hi] = (col @ wm.T).transpose(0, 2, 1)
    if b is not None:
        out += b.reshape(1, O, 1)

    dw = np.zeros_like(wm)
    dxp = np.zeros_like(xp)
    for lo in range(0, B, block):
        hi = min(B, lo + block)
        gt = np.ascontiguousarray(g[lo:hi].transpose(0, 2, 1)).reshape(-1, O)
        col = _reference_col_view(xp[lo:hi], K, stride)[:, :, :t_out]
        col = np.ascontiguousarray(col.transpose(0, 2, 1, 3)).reshape(-1, C * K)
        dw += gt.T @ col
        dcol = (gt @ wm).reshape(hi - lo, t_out, C, K).transpose(0, 2, 1, 3)
        sl = dxp[lo:hi]
        for k in range(K):
            sl[:, :, k : k + stride * t_out : stride] += dcol[:, :, :, k]
    dx = dxp[:, :, padding : padding + T] if padding else dxp
    db = g.sum(axis=(0, 2)) if b is not None else None
    return out, dx, dw.reshape(O, C, K), db


def reference_prelu(x, alpha, g):
    """PReLU that keeps its sign mask for the vjp: the bitwise oracle for
    `autodiff.prelu`, which recomputes the mask, and for the PReLU half of
    `autodiff.batchnorm_prelu`. x has channels on axis 1, g is the upstream
    gradient. Returns (out, dx, dalpha)."""
    a = alpha.reshape((1, x.shape[1]) + (1,) * (x.ndim - 2))
    neg = x < 0
    out = np.where(neg, a * x, x)
    dx = np.where(neg, a * g, g)
    da_full = np.where(neg, g * x, 0.0)
    axes = (0,) + tuple(range(2, x.ndim))
    return out, dx, da_full.sum(axis=axes)


def reference_batchnorm1d(x, gamma, beta, running_mean, running_var, training, g,
                          momentum=0.1, eps=1e-5):
    """Batch norm that keeps the normalized input for the vjp: the deleted
    `autodiff.batchnorm1d` with its input saved, and with `reference_prelu`
    the bitwise oracle for `autodiff.batchnorm_prelu`. Updates the running
    buffers in training mode as the library does. x is (B, C, T), g the
    upstream gradient. Returns (out, dx, dgamma, dbeta)."""
    B, C, T = x.shape
    n = B * T
    if training:
        mu = x.mean(axis=(0, 2))
        var = x.var(axis=(0, 2))
        unbiased = var * n / max(1, n - 1)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mu
        running_var *= 1.0 - momentum
        running_var += momentum * unbiased
    else:
        mu = running_mean
        var = running_var
    invstd = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu.reshape(1, C, 1)) * invstd.reshape(1, C, 1)
    out = gamma.reshape(1, C, 1) * xhat + beta.reshape(1, C, 1)

    dgamma = (g * xhat).sum(axis=(0, 2))
    dbeta = g.sum(axis=(0, 2))
    gx = g * gamma.reshape(1, C, 1)
    if training:
        s1 = gx.sum(axis=(0, 2), keepdims=True)
        s2 = (gx * xhat).sum(axis=(0, 2), keepdims=True)
        dx = (invstd.reshape(1, C, 1) / n) * (n * gx - s1 - xhat * s2)
    else:
        dx = gx * invstd.reshape(1, C, 1)
    return out, dx, dgamma, dbeta


def reference_mse_loss(pred, target):
    """mean((pred - target) ** 2), the deleted `autodiff.mse_loss`; after
    `autodiff.linear` it is the bitwise oracle for `autodiff.linear_mse`.
    Returns (out, vjp), where vjp(g) is the gradient at pred."""
    diff = pred - target
    out = np.asarray((diff * diff).mean(), dtype=pred.dtype)

    def vjp(g):
        scale = 2.0 * g / diff.size
        return scale * diff

    return out, vjp


def target_pieces(target, rows=None):
    """`target` in the piece form `autodiff.linear_mse` reads: one piece, or
    blocks of `rows` rows."""
    n = target.shape[0]
    step = n if rows is None else rows
    return [(slice(lo, lo + step), slice(None), target[lo : lo + step]) for lo in range(0, n, step)]


def reference_fo_pool(z, f, g):
    """The per-step forget-gate pooling loop `autodiff.fo_pool` replaced, kept
    as its bitwise oracle: c_t = f_t * c_{t-1} + (1 - f_t) * z_t, with every
    term computed inside the step. Returns (c, dz, df) for output gradient g."""
    c = np.empty_like(z)
    prev = np.zeros(z.shape[:2], dtype=z.dtype)
    for t in range(z.shape[2]):
        prev = f[:, :, t] * prev + (1.0 - f[:, :, t]) * z[:, :, t]
        c[:, :, t] = prev
    dz = np.empty_like(z)
    df = np.empty_like(f)
    dc = np.zeros(z.shape[:2], dtype=z.dtype)
    for t in range(z.shape[2] - 1, -1, -1):
        dc = dc + g[:, :, t]
        c_prev = c[:, :, t - 1] if t > 0 else 0.0
        df[:, :, t] = dc * (c_prev - z[:, :, t])
        dz[:, :, t] = dc * (1.0 - f[:, :, t])
        dc = dc * f[:, :, t]
    return c, dz, df


def reference_adam_step(p, m, v, g, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam update of the arrays p, m and v in place, written as the
    expression `optim.Adam.step` replaced, kept as its bitwise oracle."""
    c1 = 1.0 - b1**step
    c2 = 1.0 - b2**step
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: a -0.0 differs from a +0.0."""
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


# The four picking ops that `autodiff.index` replaced, kept as its bitwise
# oracles. Each returns (out, vjp), where vjp(g) is the input gradient.


def reference_narrow(x, axis, start, length):
    """x[start : start + length] along `axis`; the vjp assigns into zeros."""
    idx = [slice(None)] * x.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def vjp(g):
        dx = np.zeros_like(x)
        dx[idx] = g
        return dx

    return np.ascontiguousarray(x[idx]), vjp


def reference_subsample_time(x, step):
    """x[:, :, ::step]; the vjp assigns into zeros."""
    def vjp(g):
        dx = np.zeros_like(x)
        dx[:, :, ::step] = g
        return dx

    return np.ascontiguousarray(x[:, :, ::step]), vjp


def reference_gather_frames(x, batch_idx, time_idx):
    """Frames of a (B, C, T) array -> (N, C), through a (B, T, C) view; the
    vjp scatter-adds, so a frame picked twice gets both gradients."""
    xt = x.transpose(0, 2, 1)

    def vjp(g):
        dxt = np.zeros_like(xt)
        np.add.at(dxt, (batch_idx, time_idx), g)
        return dxt.transpose(0, 2, 1)

    return np.ascontiguousarray(xt[batch_idx, time_idx]), vjp


def reference_take_rows(x, idx):
    """Rows x[idx] of an (N, C) array; the vjp scatter-adds."""
    def vjp(g):
        dx = np.zeros_like(x)
        np.add.at(dx, idx, g)
        return dx

    return np.ascontiguousarray(x[idx]), vjp


def _reference_windowed_sinc(offsets: np.ndarray) -> np.ndarray:
    w = np.where(
        np.abs(offsets) <= rir.FRAC_DELAY_HALF,
        0.54 + 0.46 * np.cos(np.pi * offsets / rir.FRAC_DELAY_HALF),
        0.0,
    )
    return np.sinc(offsets) * w


def reference_rir_image_method(
    room_dims,
    source_pos,
    mic_pos,
    t60: float,
    max_order: int = 20,
    sample_rate: int = 16000,
    highpass: bool = True,
) -> rir.ImpulseResponse:
    """Image-method RIR with one windowed-sinc pass and one bincount per
    kernel tap: the bitwise oracle for `rir.generate_rir_image_method`.
    `sabine_absorption` is looked up on `pase.rir` at call time, so a test
    that patches it there patches the oracle too."""
    room = np.asarray(room_dims, dtype=np.float64)
    src = np.asarray(source_pos, dtype=np.float64)
    mic = np.asarray(mic_pos, dtype=np.float64)
    half = rir.FRAC_DELAY_HALF
    c = rir.SPEED_OF_SOUND

    beta = np.sqrt(1.0 - rir.sabine_absorption(room, t60))
    n_taps = int(np.ceil(rir.IR_LENGTH_FACTOR * t60 * sample_rate)) + 2 * half + 1
    max_dist = (n_taps / sample_rate) * c

    order_bound = (max_order + 1) // 2 + 1
    spans = []
    for axis in range(3):
        reach = int(np.ceil(max_dist / (2.0 * room[axis]))) + 1
        n_lim = min(reach, order_bound)
        spans.append(np.arange(-n_lim, n_lim + 1))
    nx, ny, nz = np.meshgrid(*spans, indexing="ij")
    lattice = np.stack([nx.ravel(), ny.ravel(), nz.ravel()], axis=1)

    taps = np.zeros(n_taps)
    min_dist = c / sample_rate
    for p in product((0, 1), repeat=3):
        p_arr = np.asarray(p)
        order = (np.abs(lattice - p_arr) + np.abs(lattice)).sum(axis=1)
        keep = order <= max_order
        if not keep.any():
            continue
        pos = (1.0 - 2.0 * p_arr) * src + 2.0 * lattice[keep] * room
        dist = np.linalg.norm(pos - mic, axis=1)
        delay = dist * (sample_rate / c)
        inside = delay < n_taps - 1
        if not inside.any():
            continue
        delay = delay[inside]
        amp = beta ** order[keep][inside] / (4.0 * np.pi * np.maximum(dist[inside], min_dist))
        base = np.ceil(delay - half).astype(np.int64)
        for j in range(2 * half + 1):
            n = base + j
            valid = (n >= 0) & (n < n_taps)
            if not valid.any():
                continue
            contrib = amp[valid] * _reference_windowed_sinc(n[valid] - delay[valid])
            taps += np.bincount(n[valid], weights=contrib, minlength=n_taps)

    if highpass:
        taps = rir._dc_block(taps, sample_rate)
    return rir.ImpulseResponse(taps=taps, sample_rate=sample_rate, target_t60=t60)


def reference_rir_pool(rng, count=50, max_order=20, sample_rate=16000):
    """One room at a time, each built before the next is drawn, retrying a
    room whose T60 is unphysical: the oracle for `rir.default_rir_pool`."""
    t60s = (0.3, 0.45, 0.6, 0.75, 0.9)
    pool = []
    i = 0
    while len(pool) < count:
        room = np.array(
            [rng.uniform(3.0, 8.0), rng.uniform(3.0, 6.0), rng.uniform(2.5, 4.0)]
        )
        t60 = t60s[i % len(t60s)]
        i += 1
        src = rng.uniform(0.5, room - 0.5)
        mic = rng.uniform(0.5, room - 0.5)
        try:
            pool.append(
                reference_rir_image_method(room, src, mic, t60, max_order, sample_rate)
            )
        except UnphysicalT60:
            continue
    return pool


# --- feature targets: the per-kind paths that `features.batch_features` and
# `features.SPECTRAL_MAPS` replaced, kept as the bitwise oracle for
# `features.batch_features` and `features.extract_feature` ---------------------------


def _reference_log_power_spectrum(frames):
    return np.log(np.maximum(F.power_spectrum(frames), F.LOG_FLOOR))


def _reference_mel_fbank(frames):
    weights, _ = F.mel_filterbank()
    energies = F.power_spectrum(frames) @ weights.T
    return np.log(np.maximum(energies, F.LOG_FLOOR))


def _reference_mfcc(frames, n_coeffs=F.N_MFCC):
    logmel = _reference_mel_fbank(frames)
    return logmel @ F.dct_matrix()[:n_coeffs].T


def _reference_gammatone(frames):
    weights, _, _ = F.gammatone_filterbank()
    energies = F.power_spectrum(frames) @ weights.T
    return np.log(np.maximum(energies, F.LOG_FLOOR))


_REFERENCE_LONG_SEGMENTS = int((F.LONG_WINDOW_SECONDS - F.SHORT_WINDOW_SECONDS) / F.HOP_SECONDS) + 1


def _reference_long_power(wave):
    """200 ms power spectral estimate per 10 ms frame (averaged periodograms)."""
    sr = wave.sample_rate
    win = int(round(F.SHORT_WINDOW_SECONDS * sr))
    hop = int(round(F.HOP_SECONDS * sr))
    if len(wave) < win:
        raise TooShort("long-window features need at least one short window")
    n = len(wave) // hop
    frames = F._frame_raw(
        F.pre_emphasize(wave.samples), win, hop, n_frames=n + _REFERENCE_LONG_SEGMENTS - 1
    )
    frames *= np.hamming(win)
    p = F.power_spectrum(frames)
    csum = np.cumsum(p, axis=0)
    csum = np.concatenate([np.zeros((1, p.shape[1])), csum], axis=0)
    return (csum[_REFERENCE_LONG_SEGMENTS:] - csum[:-_REFERENCE_LONG_SEGMENTS])[:n] / _REFERENCE_LONG_SEGMENTS


def _reference_long_window_features(wave, kind):
    base = kind[:-5] if kind.endswith("_long") else kind
    if base not in F.SHORT_KINDS:
        raise ValueError(f"no long-window variant for kind {kind!r}")
    p = _reference_long_power(wave)
    if base == "lps":
        vals = np.log(np.maximum(p, F.LOG_FLOOR))
    elif base == "fbank":
        weights, _ = F.mel_filterbank()
        vals = np.log(np.maximum(p @ weights.T, F.LOG_FLOOR))
    elif base == "mfcc":
        weights, _ = F.mel_filterbank()
        logmel = np.log(np.maximum(p @ weights.T, F.LOG_FLOOR))
        vals = logmel @ F.dct_matrix()[:F.N_MFCC].T
    else:  # gammatone
        weights, _, _ = F.gammatone_filterbank()
        vals = np.log(np.maximum(p @ weights.T, F.LOG_FLOOR))
    return vals


def reference_extract_feature(wave, kind):
    """One framing and one FFT pass per kind, with the four spectral maps
    written out separately for the short and the long windows."""
    if kind in F.LONG_KINDS:
        return _reference_long_window_features(wave, kind)
    if kind == "prosody":
        return F.prosody(wave)
    if kind not in F.SHORT_KINDS:
        raise ValueError(f"unknown feature kind {kind!r}")
    win = int(round(F.SHORT_WINDOW_SECONDS * wave.sample_rate))
    hop = int(round(F.HOP_SECONDS * wave.sample_rate))
    if len(wave) < win:
        raise TooShort(f"signal of {len(wave)} samples shorter than window {win}")
    frames = F._frame_raw(F.pre_emphasize(wave.samples), win, hop) * np.hamming(win)
    if kind == "lps":
        return _reference_log_power_spectrum(frames)
    if kind == "fbank":
        return _reference_mel_fbank(frames)
    if kind == "mfcc":
        return _reference_mfcc(frames)
    return _reference_gammatone(frames)


def reference_fit_statistics(chunks, sample_rate=16000):
    """The target statistics as `TargetStandardizer.fit` first computed them:
    per kind and chunk, the whole stacked (frames, 7 * 3 * dims) target, its
    column sums and sums of squares added chunk by chunk. Returns (mean, std),
    dicts of float32 arrays keyed by worker target kind."""
    hop = int(round(F.HOP_SECONDS * sample_rate))
    half = F.CONTEXT_FRAMES // 2
    mean, std = {}, {}
    for kind in ("wave",) + F.FEATURE_KINDS:
        count, acc, acc2 = 0, None, None
        for samples in chunks:
            if kind == "wave":
                n = len(samples) // hop
                t = np.asarray(samples[: n * hop], dtype=np.float64).reshape(n, hop)
            else:
                wave = Waveform(np.asarray(samples, dtype=np.float32), sample_rate)
                values = F.add_deltas(reference_extract_feature(wave, kind))
                n = values.shape[0]
                t = np.concatenate(
                    [values[np.clip(np.arange(n) + off, 0, n - 1)] for off in range(-half, half + 1)],
                    axis=1,
                )
            if acc is None:
                acc, acc2 = t.sum(axis=0), (t * t).sum(axis=0)
            else:
                acc += t.sum(axis=0)
                acc2 += (t * t).sum(axis=0)
            count += t.shape[0]
        m = acc / count
        var = np.maximum(acc2 / count - m * m, 0.0)
        mean[kind] = m.astype(np.float32)
        std[kind] = np.maximum(np.sqrt(var), 1e-3).astype(np.float32)  # the std floor
    return mean, std


# --- regression worker losses: the per-kind path that `workers.regression_losses`
# replaced, kept as its bitwise oracle ---------------------------------------------


def reference_unstacked_target(samples, kind, sample_rate=16000):
    """One chunk's worker target before context stacking, framed and FFT'd
    for this kind alone: the raw samples under each frame for the waveform
    worker, features + deltas for every other one."""
    if kind == "wave":
        hop = int(round(F.HOP_SECONDS * sample_rate))
        n = len(samples) // hop
        return np.asarray(samples[: n * hop], dtype=np.float64).reshape(n, hop)
    wave = Waveform(np.asarray(samples, dtype=np.float32), sample_rate)
    return F.add_deltas(F.extract_feature(wave, kind))


def reference_regression_worker_loss(emb, clean_batch, kind, head, standardizer,
                                     sample_rate=16000):
    """One regression worker's loss with its own targets and its own
    flattened embedding, chunk by chunk: each chunk's target computed for
    this kind alone, the embedding truncated, transposed and reshaped for
    this head alone."""
    t_emb = emb.shape[2]
    first = reference_unstacked_target(clean_batch[0], kind, sample_rate)
    t_tgt = first.shape[0]
    if abs(t_emb - t_tgt) > 1:
        raise FrameGridMismatch(f"embedding {t_emb} frames vs target {t_tgt}")
    t_common = min(t_emb, t_tgt)
    rows = [np.arange(t_tgt)] if kind == "wave" else F.context_rows(t_tgt)

    def pieces():
        for i, samples in enumerate(clean_batch):
            values = first if i == 0 else reference_unstacked_target(samples, kind, sample_rate)
            if values.shape[0] != t_tgt:
                raise FrameGridMismatch(
                    f"chunk {i} gives {values.shape[0]} target frames, chunk 0 {t_tgt}")
            w = values.shape[1]
            piece = np.empty((t_common, w * len(rows)), dtype=np.float32)
            for j, r in enumerate(rows):
                cols = slice(j * w, (j + 1) * w)
                standardizer.transform(kind, values[r[:t_common]], out=piece[:, cols], cols=cols)
            yield slice(i * t_common, (i + 1) * t_common), slice(None), piece

    b, c, t = emb.shape
    if t > t_common:
        emb = ad.index(emb, np.s_[:, :, :t_common])
    flat = ad.reshape(ad.transpose(emb, (0, 2, 1)), (b * t_common, c))
    return ad.linear_mse(head.hidden(flat), head.w2, head.b2, pieces())


def reference_contaminate(chunk, cfg, rng, speaker_id=None):
    """Draw and apply each distortion in turn, the Generator interleaved
    with the signal work: the oracle for `distortion.contaminate`."""
    cfg.validate()
    D._check_pools(cfg, speaker_id)
    x = Waveform(np.array(chunk.samples, dtype=np.float32), chunk.sample_rate)
    applied: list[dict] = []

    if cfg.reverb.enabled and rng.random() < cfg.reverb.p:
        idx = int(rng.integers(len(cfg.reverb.rir_pool)))
        x = D.apply_reverb(x, cfg.reverb.rir_pool[idx])
        applied.append({"kind": "reverb", "rir_index": idx})

    if cfg.noise.enabled and rng.random() < cfg.noise.p:
        idx = int(rng.integers(len(cfg.noise.noise_pool)))
        noise = cfg.noise.noise_pool[idx]
        offset = int(rng.integers(len(noise.samples)))
        snr_db = float(rng.uniform(*cfg.noise.snr_range_db))
        fitted = Waveform(
            D._fit_length(noise.samples, len(x.samples), offset), x.sample_rate
        )
        x = D.mix_noise(x, fitted, snr_db)
        applied.append(
            {"kind": "noise", "noise_index": idx, "offset": offset, "snr_db": snr_db}
        )

    if cfg.freq_mask.enabled and rng.random() < cfg.freq_mask.p:
        idx = int(rng.integers(len(cfg.freq_mask.band_pool)))
        f_lo, f_hi = cfg.freq_mask.band_pool[idx]
        x = D.apply_freq_mask(x, (f_lo, f_hi))
        applied.append({"kind": "freq_mask", "f_lo": float(f_lo), "f_hi": float(f_hi)})

    if cfg.temporal_mask.enabled and rng.random() < cfg.temporal_mask.p:
        n = len(x.samples)
        max_len = max(1, int(cfg.temporal_mask.max_fraction * n))
        length = int(rng.integers(1, max_len + 1))
        start = int(rng.integers(0, n - length + 1))
        x = D.apply_temporal_mask(x, start, length)
        applied.append({"kind": "temporal_mask", "start": start, "length": length})

    if cfg.clip.enabled and rng.random() < cfg.clip.p:
        saturation = float(rng.uniform(*cfg.clip.saturation_range))
        x = D.apply_clip(x, saturation)
        applied.append({"kind": "clip", "saturation": saturation})

    if cfg.overlap.enabled and rng.random() < cfg.overlap.p:
        pool = cfg.overlap.speech_pool
        if speaker_id is None:
            candidates = list(range(len(pool)))
        else:
            candidates = [i for i, (_, spk) in enumerate(pool) if spk != speaker_id]
        idx = candidates[int(rng.integers(len(candidates)))]
        other = pool[idx][0]
        offset = int(rng.integers(len(other.samples)))
        gain_db = float(rng.uniform(*cfg.overlap.gain_range_db))
        fitted = Waveform(
            D._fit_length(other.samples, len(x.samples), offset), x.sample_rate
        )
        x = D.apply_overlap(x, fitted, gain_db)
        applied.append(
            {"kind": "overlap", "speech_index": idx, "offset": offset, "gain_db": gain_db}
        )

    return D._final_clamp(x), applied
