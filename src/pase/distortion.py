"""Online speech contamination: six distortions, each an independent coin flip.

`contaminate` applies reverb, additive noise, frequency masking, temporal
masking, clipping and overlapped speech in that fixed order. Every random
decision comes from the caller's Generator and lands in a log with enough
detail (pool indices, offsets, drawn parameters) that `replay_log`
reproduces the output exactly; `contaminate` itself draws the whole log
first and then applies it through `replay_log`.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .audio_io import Chunk, Waveform
from .errors import (
    ConfigError,
    EmptyPool,
    InvalidBand,
    OutOfRange,
    SampleRateMismatch,
    SilentNoise,
    SilentOverlap,
)
from .rir import ImpulseResponse, _fft_convolve

log = logging.getLogger(__name__)

BAND_STOP_TAPS = 255

# octave-wide band-stop pool inside [100, 7000] Hz; the lowest edge is kept
# high enough that a 255-tap filter still reaches 20 dB at the notch center
DEFAULT_BAND_POOL = ((250.0, 500.0), (500.0, 1000.0), (1000.0, 2000.0),
                     (2000.0, 4000.0), (3500.0, 7000.0))

DISTORTION_ORDER = ("reverb", "noise", "freq_mask", "temporal_mask", "clip", "overlap")


@dataclass
class ReverbSpec:
    enabled: bool = True
    p: float = 0.5
    rir_pool: list[ImpulseResponse] = field(default_factory=list)


@dataclass
class NoiseSpec:
    enabled: bool = True
    p: float = 0.4
    snr_range_db: tuple[float, float] = (0.0, 10.0)
    noise_pool: list[Waveform] = field(default_factory=list)


@dataclass
class FreqMaskSpec:
    enabled: bool = True
    p: float = 0.4
    band_pool: tuple = DEFAULT_BAND_POOL


@dataclass
class TemporalMaskSpec:
    enabled: bool = True
    p: float = 0.2
    max_fraction: float = 0.25


@dataclass
class ClipSpec:
    enabled: bool = True
    p: float = 0.2
    saturation_range: tuple[float, float] = (0.3, 0.9)


@dataclass
class OverlapSpec:
    enabled: bool = True
    p: float = 0.1
    gain_range_db: tuple[float, float] = (3.0, 15.0)
    # entries are (waveform, speaker_id) so same-speaker overlap can be excluded
    speech_pool: list[tuple[Waveform, str]] = field(default_factory=list)


@dataclass
class DistortionConfig:
    reverb: ReverbSpec = field(default_factory=ReverbSpec)
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    freq_mask: FreqMaskSpec = field(default_factory=FreqMaskSpec)
    temporal_mask: TemporalMaskSpec = field(default_factory=TemporalMaskSpec)
    clip: ClipSpec = field(default_factory=ClipSpec)
    overlap: OverlapSpec = field(default_factory=OverlapSpec)

    def validate(self) -> None:
        for name in DISTORTION_ORDER:
            spec = getattr(self, name)
            if not 0.0 <= spec.p <= 1.0:
                raise ConfigError(f"{name}: probability {spec.p} outside [0, 1]")
        if self.noise.snr_range_db[0] > self.noise.snr_range_db[1]:
            raise ConfigError("noise: snr range inverted")
        if self.overlap.gain_range_db[0] > self.overlap.gain_range_db[1]:
            raise ConfigError("overlap: gain range inverted")
        if not 0.0 < self.temporal_mask.max_fraction <= 1.0:
            raise ConfigError("temporal_mask: max_fraction outside (0, 1]")
        lo, hi = self.clip.saturation_range
        if not (0.0 < lo <= hi <= 1.0):
            raise ConfigError("clip: saturation range outside (0, 1]")


def apply_reverb(wave: Waveform, rir: ImpulseResponse) -> Waveform:
    """Convolve with the impulse response, truncate, renormalize to input peak."""
    if wave.sample_rate != rir.sample_rate:
        raise SampleRateMismatch(
            f"wave at {wave.sample_rate} Hz, rir at {rir.sample_rate} Hz"
        )
    x = np.asarray(wave.samples, dtype=np.float64)
    y = _fft_convolve(x, np.asarray(rir.taps, dtype=np.float64))[: len(x)]
    in_peak = np.max(np.abs(x))
    out_peak = np.max(np.abs(y))
    if in_peak > 0.0 and out_peak > 0.0:
        y *= in_peak / out_peak
    return Waveform(y.astype(np.float32), wave.sample_rate)


def _fit_length(samples: np.ndarray, n: int, offset: int = 0) -> np.ndarray:
    """Loop/crop `samples` to exactly n values starting at `offset` (circular)."""
    idx = (offset + np.arange(n)) % len(samples)
    return samples[idx]


def _mix_below(wave: Waveform, other: Waveform, ratio_db: float, what: str) -> Waveform | None:
    """`wave` plus `other`, looped or cropped to its length and scaled to sit
    ratio_db below it in power; the sum is peak-clamped to [-1, 1]. None when
    `other` has zero power over that length."""
    if wave.sample_rate != other.sample_rate:
        raise SampleRateMismatch(f"wave and {what} sample rates differ")
    x = np.asarray(wave.samples, dtype=np.float64)
    o = _fit_length(np.asarray(other.samples, dtype=np.float64), len(x))
    p_o = float(np.mean(o**2))
    if p_o == 0.0:
        return None
    p_x = float(np.mean(x**2))
    gain = np.sqrt(p_x / (p_o * 10.0 ** (ratio_db / 10.0))) if p_x > 0.0 else 0.0
    mixed = x + gain * o
    if np.max(np.abs(mixed)) > 1.0:
        np.clip(mixed, -1.0, 1.0, out=mixed)
        log.info("mixing %s: sum exceeded full scale, clamped", what)
    return Waveform(mixed.astype(np.float32), wave.sample_rate)


def mix_noise(wave: Waveform, noise: Waveform, snr_db: float) -> Waveform:
    """Add noise at the requested SNR; the sum is peak-clamped to [-1, 1]."""
    mixed = _mix_below(wave, noise, snr_db, "noise")
    if mixed is None:
        raise SilentNoise("noise has zero power")
    return mixed


@lru_cache(maxsize=64)
def _band_stop_kernel(f_lo: float, f_hi: float, sample_rate: int) -> np.ndarray:
    """Linear-phase band-stop FIR: delta minus a windowed-sinc band-pass."""
    m = np.arange(BAND_STOP_TAPS) - (BAND_STOP_TAPS - 1) / 2.0
    window = np.hamming(BAND_STOP_TAPS)

    def lowpass(fc):
        return 2.0 * fc / sample_rate * np.sinc(2.0 * fc * m / sample_rate)

    kernel = -(lowpass(f_hi) - lowpass(f_lo)) * window
    kernel[(BAND_STOP_TAPS - 1) // 2] += 1.0
    return kernel


def apply_freq_mask(wave: Waveform, band: tuple[float, float]) -> Waveform:
    """Drop one frequency band with a 255-tap linear-phase band-stop filter."""
    f_lo, f_hi = float(band[0]), float(band[1])
    nyquist = wave.sample_rate / 2.0
    if not (0.0 < f_lo < f_hi < nyquist):
        raise InvalidBand(f"band [{f_lo}, {f_hi}] outside (0, {nyquist})")
    kernel = _band_stop_kernel(f_lo, f_hi, wave.sample_rate)
    delay = (BAND_STOP_TAPS - 1) // 2
    y = _fft_convolve(np.asarray(wave.samples, dtype=np.float64), kernel)
    y = y[delay : delay + len(wave.samples)]  # group-delay compensation
    return Waveform(y.astype(np.float32), wave.sample_rate)


def apply_temporal_mask(wave: Waveform, start: int, length: int) -> Waveform:
    if start < 0 or length < 0 or start + length > len(wave.samples):
        raise OutOfRange(
            f"mask [{start}, {start + length}) outside signal of {len(wave.samples)}"
        )
    out = np.array(wave.samples, dtype=np.float32)
    out[start : start + length] = 0.0
    return Waveform(out, wave.sample_rate)


def apply_clip(wave: Waveform, saturation: float) -> Waveform:
    """Hard-clip at saturation * peak, then rescale back to the original peak."""
    if not 0.0 < saturation <= 1.0:
        raise ValueError(f"saturation {saturation} outside (0, 1]")
    x = np.asarray(wave.samples, dtype=np.float64)
    peak = np.max(np.abs(x))
    if peak == 0.0:
        return Waveform(x.astype(np.float32), wave.sample_rate)
    threshold = saturation * peak
    y = np.clip(x, -threshold, threshold) / saturation
    return Waveform(y.astype(np.float32), wave.sample_rate)


def apply_overlap(wave: Waveform, other: Waveform, gain_db: float) -> Waveform:
    """Add background speech gain_db below the main speaker, peak-clamped."""
    mixed = _mix_below(wave, other, gain_db, "overlap speech")
    if mixed is None:
        raise SilentOverlap("overlap speech has zero power")
    return mixed


def _check_pools(cfg: DistortionConfig, speaker_id: str | None) -> None:
    if cfg.reverb.enabled and cfg.reverb.p > 0 and not cfg.reverb.rir_pool:
        raise EmptyPool("reverb enabled with empty rir pool")
    if cfg.noise.enabled and cfg.noise.p > 0 and not cfg.noise.noise_pool:
        raise EmptyPool("noise enabled with empty noise pool")
    if cfg.freq_mask.enabled and cfg.freq_mask.p > 0 and not cfg.freq_mask.band_pool:
        raise EmptyPool("freq_mask enabled with empty band pool")
    if cfg.overlap.enabled and cfg.overlap.p > 0:
        pool = cfg.overlap.speech_pool
        if not pool:
            raise EmptyPool("overlap enabled with empty speech pool")
        if speaker_id is not None and all(spk == speaker_id for _, spk in pool):
            raise EmptyPool(f"overlap pool has no speaker other than {speaker_id!r}")


def contaminate(
    chunk: Chunk,
    cfg: DistortionConfig,
    rng: np.random.Generator,
    speaker_id: str | None = None,
) -> tuple[Waveform, list[dict]]:
    """Distort one chunk; returns the result and a replayable log.

    Each distortion fires on an independent Bernoulli(p) draw, parameters come
    uniformly from the configured ranges, and the overlap draw excludes
    `speaker_id` when given. The caller keeps the clean chunk for targets.
    """
    cfg.validate()
    _check_pools(cfg, speaker_id)
    n = len(chunk.samples)  # no distortion changes the length
    applied: list[dict] = []

    if cfg.reverb.enabled and rng.random() < cfg.reverb.p:
        idx = int(rng.integers(len(cfg.reverb.rir_pool)))
        applied.append({"kind": "reverb", "rir_index": idx})

    if cfg.noise.enabled and rng.random() < cfg.noise.p:
        idx = int(rng.integers(len(cfg.noise.noise_pool)))
        offset = int(rng.integers(len(cfg.noise.noise_pool[idx].samples)))
        snr_db = float(rng.uniform(*cfg.noise.snr_range_db))
        applied.append(
            {"kind": "noise", "noise_index": idx, "offset": offset, "snr_db": snr_db}
        )

    if cfg.freq_mask.enabled and rng.random() < cfg.freq_mask.p:
        idx = int(rng.integers(len(cfg.freq_mask.band_pool)))
        f_lo, f_hi = cfg.freq_mask.band_pool[idx]
        applied.append({"kind": "freq_mask", "f_lo": float(f_lo), "f_hi": float(f_hi)})

    if cfg.temporal_mask.enabled and rng.random() < cfg.temporal_mask.p:
        max_len = max(1, int(cfg.temporal_mask.max_fraction * n))
        length = int(rng.integers(1, max_len + 1))
        start = int(rng.integers(0, n - length + 1))
        applied.append({"kind": "temporal_mask", "start": start, "length": length})

    if cfg.clip.enabled and rng.random() < cfg.clip.p:
        saturation = float(rng.uniform(*cfg.clip.saturation_range))
        applied.append({"kind": "clip", "saturation": saturation})

    if cfg.overlap.enabled and rng.random() < cfg.overlap.p:
        pool = cfg.overlap.speech_pool
        if speaker_id is None:
            candidates = list(range(len(pool)))
        else:
            candidates = [i for i, (_, spk) in enumerate(pool) if spk != speaker_id]
        idx = candidates[int(rng.integers(len(candidates)))]
        offset = int(rng.integers(len(pool[idx][0].samples)))
        gain_db = float(rng.uniform(*cfg.overlap.gain_range_db))
        applied.append(
            {"kind": "overlap", "speech_index": idx, "offset": offset, "gain_db": gain_db}
        )

    return replay_log(chunk, cfg, applied), applied


def _final_clamp(wave: Waveform) -> Waveform:
    """Keep the contamination output inside [-1, 1]; filter ringing can
    overshoot even when every component respects its own peak contract."""
    if np.any(np.abs(wave.samples) > 1.0):
        return Waveform(np.clip(wave.samples, -1.0, 1.0), wave.sample_rate)
    return wave


def replay_log(chunk: Chunk, cfg: DistortionConfig, applied: list[dict]) -> Waveform:
    """Re-run a contamination log; output is bit-identical to the original."""
    x = Waveform(np.array(chunk.samples, dtype=np.float32), chunk.sample_rate)
    for entry in applied:
        kind = entry["kind"]
        if kind == "reverb":
            x = apply_reverb(x, cfg.reverb.rir_pool[entry["rir_index"]])
        elif kind == "noise":
            noise = cfg.noise.noise_pool[entry["noise_index"]]
            fitted = Waveform(
                _fit_length(noise.samples, len(x.samples), entry["offset"]),
                x.sample_rate,
            )
            x = mix_noise(x, fitted, entry["snr_db"])
        elif kind == "freq_mask":
            x = apply_freq_mask(x, (entry["f_lo"], entry["f_hi"]))
        elif kind == "temporal_mask":
            x = apply_temporal_mask(x, entry["start"], entry["length"])
        elif kind == "clip":
            x = apply_clip(x, entry["saturation"])
        elif kind == "overlap":
            other = cfg.overlap.speech_pool[entry["speech_index"]][0]
            fitted = Waveform(
                _fit_length(other.samples, len(x.samples), entry["offset"]),
                x.sample_rate,
            )
            x = apply_overlap(x, fitted, entry["gain_db"])
        else:
            raise ValueError(f"unknown log entry kind {kind!r}")
    return _final_clamp(x)
