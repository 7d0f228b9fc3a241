"""Clean-signal feature extraction on a fixed 10 ms frame grid.

Every extractor lands on the same grid: floor(samples / hop) frames, frame t
starting at t*hop, tail zero-padded. That keeps worker targets frame-aligned
with the encoder output regardless of window length. All math runs in
float64; callers cast to float32 at the training boundary.

All spectral kinds share one framing and one FFT, in `batch_features`: 25 ms
Hamming frames of the pre-emphasised signal on the 10 ms grid, one
periodogram each. A long kind's frame t is the mean of the 18 periodograms of
frames t .. t+17 (a 200 ms span). One map per base kind, `SPECTRAL_MAPS`,
serves both window lengths. Every feature of one signal is a plain
(frames, dims) float64 array.
"""

from __future__ import annotations

import json
import os
import struct
from functools import lru_cache

import numpy as np

from .audio_io import Waveform
from .errors import (
    IncompatibleVersion,
    MalformedContainer,
    SampleRateMismatch,
    TooFewFrames,
    TooShort,
)
from .files import read_file, write_file

SAMPLE_RATE = 16000  # the rate the filterbanks and the FFT size are built for
HOP_SECONDS = 0.010
SHORT_WINDOW_SECONDS = 0.025
LONG_WINDOW_SECONDS = 0.200
FFT_SIZE = 512
LOG_FLOOR = 1e-10
PREEMPHASIS = 0.97
N_FILTERS = 40
N_MFCC = 13
GAMMATONE_FMIN = 100.0

SHORT_KINDS = ("lps", "mfcc", "fbank", "gammatone")
LONG_KINDS = tuple(kind + "_long" for kind in SHORT_KINDS)
FEATURE_KINDS = SHORT_KINDS + ("prosody",) + LONG_KINDS
_BASE_DIMS = {
    "lps": FFT_SIZE // 2 + 1,
    "mfcc": N_MFCC,
    "fbank": N_FILTERS,
    "gammatone": N_FILTERS,
    "prosody": 4,
}
FEATURE_DIMS = {kind: _BASE_DIMS[kind.removesuffix("_long")] for kind in FEATURE_KINDS}


def pre_emphasize(samples: np.ndarray) -> np.ndarray:
    """First-order pre-emphasis along the last axis."""
    x = np.asarray(samples, dtype=np.float64)
    out = np.empty_like(x)
    out[..., 0] = x[..., 0]
    out[..., 1:] = x[..., 1:] - PREEMPHASIS * x[..., :-1]
    return out


def _frame_raw(samples: np.ndarray, win: int, hop: int, n_frames: int | None = None) -> np.ndarray:
    """Frames of the last axis without a taper; frame t covers
    [t*hop, t*hop + win), tail padded. (..., N) -> (..., n_frames, win)."""
    x = np.asarray(samples, dtype=np.float64)
    n = x.shape[-1]
    if n_frames is None:
        n_frames = n // hop
    need = (n_frames - 1) * hop + win
    if need > n:
        x = np.concatenate([x, np.zeros(x.shape[:-1] + (need - n,))], axis=-1)
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    return x[..., idx]


def power_spectrum(frames: np.ndarray) -> np.ndarray:
    """|FFT|^2 over the positive bins, one row per frame (the last axis)."""
    spec = np.fft.rfft(frames, n=FFT_SIZE, axis=-1)
    return (spec.real**2 + spec.imag**2).astype(np.float64)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=1)
def mel_filterbank():
    """Triangular mel filters from 0 Hz to Nyquist on the rfft bin grid.

    Returns (weights, centers_hz); weights is (N_FILTERS, FFT_SIZE // 2 + 1)
    with unit peak per triangle.
    """
    pts = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(SAMPLE_RATE / 2), N_FILTERS + 2))
    freqs = np.arange(FFT_SIZE // 2 + 1) * SAMPLE_RATE / FFT_SIZE
    weights = np.zeros((N_FILTERS, len(freqs)))
    for j in range(N_FILTERS):
        lo, center, hi = pts[j], pts[j + 1], pts[j + 2]
        up = (freqs - lo) / (center - lo)
        down = (hi - freqs) / (hi - center)
        weights[j] = np.clip(np.minimum(up, down), 0.0, None)
    return weights, pts[1:-1].copy()


@lru_cache(maxsize=1)
def dct_matrix() -> np.ndarray:
    """Orthonormal DCT-II basis over the N_FILTERS mel bands, rows are coefficients."""
    n = N_FILTERS
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    d = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * m + 1) * k / (2 * n))
    d[0] *= np.sqrt(0.5)
    return d


def erb_rate(f):
    return 21.4 * np.log10(1.0 + 0.00437 * np.asarray(f, dtype=np.float64))


def erb_rate_to_hz(r):
    return (10.0 ** (np.asarray(r, dtype=np.float64) / 21.4) - 1.0) / 0.00437


@lru_cache(maxsize=1)
def gammatone_filterbank():
    """4th-order gammatone magnitude responses from GAMMATONE_FMIN to
    Nyquist, sampled on the rfft grid.

    Filters are realized as FIR taps (impulse response truncated at FFT_SIZE
    samples), then peak-normalized in the frequency domain. Returns
    (weights, centers_hz, taps) so tests can probe the realized responses.
    """
    centers = erb_rate_to_hz(
        np.linspace(erb_rate(GAMMATONE_FMIN), erb_rate(SAMPLE_RATE / 2), N_FILTERS)
    )
    t = np.arange(FFT_SIZE) / SAMPLE_RATE
    taps = np.zeros((N_FILTERS, FFT_SIZE))
    for j, fc in enumerate(centers):
        bw = 1.019 * 24.7 * (0.00437 * fc + 1.0)
        taps[j] = t**3 * np.exp(-2.0 * np.pi * bw * t) * np.cos(2.0 * np.pi * fc * t)
    spec = np.abs(np.fft.rfft(taps, n=FFT_SIZE, axis=1)) ** 2
    spec /= spec.max(axis=1, keepdims=True)
    return spec, centers, taps


def _log(x: np.ndarray) -> np.ndarray:
    return np.log(np.maximum(x, LOG_FLOOR))


# power matrix (frames, FFT_SIZE // 2 + 1) -> feature matrix, per base kind
SPECTRAL_MAPS = {
    "lps": _log,
    "mfcc": lambda p: _log(p @ mel_filterbank()[0].T) @ dct_matrix()[:N_MFCC].T,
    "fbank": lambda p: _log(p @ mel_filterbank()[0].T),
    "gammatone": lambda p: _log(p @ gammatone_filterbank()[0].T),
}


# --- prosody -----------------------------------------------------------------

F0_MIN = 50.0
F0_MAX = 400.0
VOICING_THRESHOLD = 0.5
SILENCE_POWER = 1e-8


def prosody(wave: Waveform) -> np.ndarray:
    """4 dims per frame: interpolated log-F0, voicing, log-energy, ZCR."""
    sr = wave.sample_rate
    win = int(round(SHORT_WINDOW_SECONDS * sr))
    hop = int(round(HOP_SECONDS * sr))
    if len(wave) < win:
        raise TooShort("prosody needs at least one analysis window")
    frames = _frame_raw(wave.samples, win, hop)
    n = frames.shape[0]

    power = (frames**2).sum(axis=1)
    log_energy = _log(power)
    signs = frames >= 0.0
    zcr = (signs[:, 1:] != signs[:, :-1]).mean(axis=1)

    lag_lo = int(np.floor(sr / F0_MAX))
    lag_hi = int(np.ceil(sr / F0_MIN))
    lag_hi = min(lag_hi, win - 1)
    nfft = 1
    while nfft < 2 * win:
        nfft *= 2
    spec = np.fft.rfft(frames, n=nfft, axis=1)
    autoc = np.fft.irfft(spec.real**2 + spec.imag**2, n=nfft, axis=1)[:, : lag_hi + 1]
    # normalized autocorrelation: r(tau) / sqrt(E[0:N-tau] * E[tau:N])
    csq = np.concatenate([np.zeros((n, 1)), np.cumsum(frames**2, axis=1)], axis=1)
    taus = np.arange(lag_hi + 1)
    e_head = csq[:, win - taus] - csq[:, 0:1]
    e_tail = csq[:, win : win + 1] - csq[:, taus]
    denom = np.sqrt(np.maximum(e_head * e_tail, 1e-30))
    rho = autoc / denom

    band = rho[:, lag_lo : lag_hi + 1]
    peak = band.max(axis=1)
    # earliest local maximum within tolerance of the global peak, else the
    # octave below the true pitch wins the argmax by float jitter (classic
    # pitch halving on strongly periodic signals)
    inner = band[:, 1:-1]
    is_local_peak = (inner >= band[:, :-2]) & (inner >= band[:, 2:])
    candidate = is_local_peak & (inner >= (peak - 0.02)[:, None])
    has_candidate = candidate.any(axis=1)
    first_local = np.argmax(candidate, axis=1) + 1
    fallback = np.argmax(band, axis=1)
    best = np.where(has_candidate, first_local, fallback) + lag_lo
    voicing = np.clip(rho[np.arange(n), best], 0.0, 1.0)
    voicing = np.where(power > SILENCE_POWER, voicing, 0.0)

    # parabolic lag refinement around the autocorrelation peak
    lag = best.astype(np.float64)
    interior = (best > lag_lo) & (best < lag_hi)
    if interior.any():
        i = np.where(interior)[0]
        y0 = rho[i, best[i] - 1]
        y1 = rho[i, best[i]]
        y2 = rho[i, best[i] + 1]
        denom2 = y0 - 2.0 * y1 + y2
        shift = np.zeros_like(denom2)
        np.divide(0.5 * (y0 - y2), denom2, out=shift, where=np.abs(denom2) > 1e-12)
        lag[i] = best[i] + np.clip(shift, -0.5, 0.5)

    f0 = sr / lag
    voiced = voicing >= VOICING_THRESHOLD
    if voiced.any():
        idx = np.arange(n, dtype=np.float64)
        log_f0 = np.interp(idx, idx[voiced], np.log(f0[voiced]))
    else:
        log_f0 = np.full(n, np.log(100.0))

    return np.stack([log_f0, voicing, log_energy, zcr], axis=1)


# --- derivatives / context ---------------------------------------------------

DELTA_REACH = 2
CONTEXT_FRAMES = 7
_DELTA_DENOM = 2.0 * sum(k * k for k in range(1, DELTA_REACH + 1))


def _delta(values: np.ndarray) -> np.ndarray:
    n = values.shape[0]
    pad = np.concatenate(
        [values[:1].repeat(DELTA_REACH, axis=0), values, values[-1:].repeat(DELTA_REACH, axis=0)]
    )
    out = np.zeros_like(values)
    for k in range(1, DELTA_REACH + 1):
        out += k * (pad[DELTA_REACH + k : DELTA_REACH + k + n] - pad[DELTA_REACH - k : DELTA_REACH - k + n])
    return out / _DELTA_DENOM


def add_deltas(values: np.ndarray) -> np.ndarray:
    """Append first and second regression deltas along the dim axis."""
    if values.shape[0] < 2 * DELTA_REACH + 1:
        raise TooFewFrames(f"deltas need >= {2 * DELTA_REACH + 1} frames, got {values.shape[0]}")
    d1 = _delta(values)
    return np.concatenate([values, d1, _delta(d1)], axis=1)


def context_rows(n: int) -> list[np.ndarray]:
    """Row indices of each of the CONTEXT_FRAMES context blocks, in stacking
    order: block j holds frame t + j - CONTEXT_FRAMES // 2 at position t,
    edges replicated."""
    half = CONTEXT_FRAMES // 2
    return [np.clip(np.arange(n) + off, 0, n - 1) for off in range(-half, half + 1)]


def stack_context(values: np.ndarray) -> np.ndarray:
    """Concatenate the CONTEXT_FRAMES frames centred on each position, edges replicated."""
    return np.concatenate([values[rows] for rows in context_rows(values.shape[0])], axis=1)


# --- every kind of a batch from one spectral pass ------------------------------------

# number of 25 ms sub-windows on the 10 ms grid covered by one 200 ms window
_LONG_SEGMENTS = int((LONG_WINDOW_SECONDS - SHORT_WINDOW_SECONDS) / HOP_SECONDS) + 1


def batch_features(batch: np.ndarray, kinds, sample_rate: int = SAMPLE_RATE) -> dict[str, np.ndarray]:
    """The requested kinds of each row of a (B, N) batch, as {kind: (B, frames, dims)}.

    The spectral kinds are framed and FFT'd once for the whole batch. A short
    kind maps the first `frames` periodograms; a long kind maps their running
    mean over _LONG_SEGMENTS frames, which reads the _LONG_SEGMENTS - 1
    frames after the last. The short periodograms are mapped as computed:
    the running mean goes through a cumulative sum, which would round them
    differently.
    """
    unknown = [kind for kind in kinds if kind not in FEATURE_KINDS]
    if unknown:
        raise ValueError(f"unknown feature kind {unknown[0]!r}")
    spectral = [kind for kind in kinds if kind != "prosody"]
    win = int(round(SHORT_WINDOW_SECONDS * sample_rate))
    hop = int(round(HOP_SECONDS * sample_rate))
    if spectral and sample_rate != SAMPLE_RATE:
        raise SampleRateMismatch(
            f"spectral features need {SAMPLE_RATE} Hz input, got {sample_rate} Hz"
        )
    if spectral and batch.shape[1] < win:
        raise TooShort(f"signal of {batch.shape[1]} samples shorter than window {win}")
    out = {}
    if "prosody" in kinds:
        out["prosody"] = np.stack([prosody(Waveform(row, sample_rate)) for row in batch])
    if not spectral:
        return out
    n = batch.shape[1] // hop
    extra = _LONG_SEGMENTS - 1 if any(kind in LONG_KINDS for kind in spectral) else 0
    frames = _frame_raw(pre_emphasize(batch), win, hop, n_frames=n + extra)
    frames *= np.hamming(win)
    periodograms = power_spectrum(frames)
    short = periodograms[:, :n]
    if extra:
        csum = np.cumsum(periodograms, axis=1)
        csum = np.concatenate([np.zeros((len(batch), 1, csum.shape[2])), csum], axis=1)
        long = (csum[:, _LONG_SEGMENTS:] - csum[:, :-_LONG_SEGMENTS]) / _LONG_SEGMENTS
    for kind in spectral:
        power = long if kind in LONG_KINDS else short
        out[kind] = SPECTRAL_MAPS[kind.removesuffix("_long")](power)
    return out


def extract_feature(wave: Waveform, kind: str) -> np.ndarray:
    """Uniform entry point over every feature kind on the canonical grid."""
    return batch_features(wave.samples[None], (kind,), wave.sample_rate)[kind][0]


# --- PFEA binary tensor files ---------------------------------------------------

PFEA_MAGIC = b"PFEA"
PFEA_VERSION = 1


def write_pfea(path: str, values: np.ndarray, meta: dict) -> None:
    """Write a (frames, dims) float32 matrix plus a JSON sidecar."""
    if values.ndim != 2:
        raise ValueError("PFEA stores rank-2 matrices")
    arr = np.ascontiguousarray(values, dtype="<f4")
    write_file(path, (PFEA_MAGIC, struct.pack("<III", PFEA_VERSION, *arr.shape), arr))
    write_file(path + ".json", (json.dumps(meta, indent=2, sort_keys=True).encode("utf-8"),))


def read_pfea(path: str) -> tuple[np.ndarray, dict]:
    """The matrix and JSON sidecar of a PFEA file; a missing sidecar reads as
    `{}`. The matrix is a view of the one buffer the file was read into, which
    holds only 16 header bytes besides it, so it is returned without a copy."""
    raw = read_file(path)
    if len(raw) < 16 or raw[:4] != PFEA_MAGIC:
        raise MalformedContainer(f"{path}: not a PFEA file")
    version, frames, dims = struct.unpack_from("<III", raw, 4)
    if version != PFEA_VERSION:
        raise IncompatibleVersion(f"{path}: PFEA version {version}")
    if len(raw) != 16 + 4 * frames * dims:
        raise MalformedContainer(
            f"{path}: {len(raw) - 16} payload bytes for a {frames}x{dims} float32 matrix"
        )
    values = np.frombuffer(raw, "<f4", frames * dims, 16).reshape(frames, dims)
    if not os.path.exists(path + ".json"):
        return values, {}
    try:
        return values, json.loads(read_file(path + ".json").decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise MalformedContainer(f"{path}.json: {exc}") from None
