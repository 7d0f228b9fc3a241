"""Synthetic desk-scale corpus: harmonic pseudo-speech from a few artificial
speakers plus a small pool of synthetic noises.

Speakers differ in base pitch and formant envelope; utterances add pitch
jitter, level changes and a noise floor so that speaker identity is
learnable but not trivially encoded in loudness or a single frequency.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .audio_io import Waveform, write_wav
from .features import SAMPLE_RATE
from .files import write_file


@dataclass(frozen=True)
class SpeakerProfile:
    name: str
    f0_hz: float
    formants: tuple  # (center_hz, bandwidth_hz) pairs
    tilt_db_per_oct: float


# speakers are spectrally distinct (pitch register + formant placement) so
# utterance identity is learnable from short frames; probe difficulty comes
# from the additive noise on the probe files, not from speaker confusability
DEFAULT_SPEAKERS = (
    SpeakerProfile("spk0", 105.0, ((600.0, 160.0), (1150.0, 220.0)), -5.0),
    SpeakerProfile("spk1", 135.0, ((450.0, 140.0), (1900.0, 280.0)), -7.0),
    SpeakerProfile("spk2", 175.0, ((800.0, 180.0), (1400.0, 240.0)), -9.0),
    SpeakerProfile("spk3", 225.0, ((350.0, 120.0), (2400.0, 320.0)), -11.0),
)


def _formant_gain(freqs: np.ndarray, profile: SpeakerProfile) -> np.ndarray:
    gain = np.full_like(freqs, 0.05)
    for center, bw in profile.formants:
        gain += np.exp(-0.5 * ((freqs - center) / bw) ** 2)
    octaves = np.log2(np.maximum(freqs, 50.0) / 100.0)
    gain *= 10.0 ** (profile.tilt_db_per_oct * octaves / 20.0)
    return gain


def _voiced_segment(n: int, profile: SpeakerProfile, f0: float, rng) -> np.ndarray:
    t = np.arange(n) / SAMPLE_RATE
    # slight pitch glide per syllable
    glide = f0 * (1.0 + rng.uniform(-0.04, 0.04) * t / max(t[-1], 1e-6))
    phase = 2.0 * np.pi * np.cumsum(glide) / SAMPLE_RATE
    out = np.zeros(n)
    k_max = int(6000.0 / f0)
    amps = _formant_gain(f0 * np.arange(1, k_max + 1), profile)
    for k in range(1, k_max + 1):
        out += amps[k - 1] * np.sin(k * phase + rng.uniform(0, 2 * np.pi))
    envelope = np.minimum(np.arange(n) / (0.02 * SAMPLE_RATE), 1.0)
    envelope *= np.minimum((n - np.arange(n)) / (0.03 * SAMPLE_RATE), 1.0)
    return out * envelope


def synth_utterance(
    profile: SpeakerProfile, seconds: float, rng: np.random.Generator
) -> np.ndarray:
    n_total = int(seconds * SAMPLE_RATE)
    out = np.zeros(n_total)
    pos = 0
    f0_utt = profile.f0_hz * rng.uniform(0.91, 1.09)  # per-utterance jitter
    # per-utterance channel variation: tilt and noise floor move recording
    # to recording, so loudness statistics alone cannot identify the speaker
    profile = replace(profile, tilt_db_per_oct=profile.tilt_db_per_oct + rng.uniform(-2.0, 2.0))
    floor = rng.uniform(0.002, 0.008)
    while pos < n_total:
        kind = rng.random()
        if kind < 0.70:  # voiced syllable
            length = int(rng.uniform(0.08, 0.30) * SAMPLE_RATE)
            length = min(length, n_total - pos)
            if length > 400:
                f0 = f0_utt * rng.uniform(0.94, 1.06)
                out[pos : pos + length] = _voiced_segment(length, profile, f0, rng)
            pos += length
        elif kind < 0.85:  # unvoiced burst shaped by the same formants
            length = int(rng.uniform(0.04, 0.12) * SAMPLE_RATE)
            length = min(length, n_total - pos)
            if length > 64:
                noise = rng.standard_normal(length)
                spec = np.fft.rfft(noise)
                freqs = np.fft.rfftfreq(length, 1.0 / SAMPLE_RATE)
                spec *= _formant_gain(freqs, profile)
                out[pos : pos + length] = np.fft.irfft(spec, length) * 0.5
            pos += length
        else:  # pause
            pos += int(rng.uniform(0.03, 0.12) * SAMPLE_RATE)
    out += rng.standard_normal(n_total) * floor
    peak = np.max(np.abs(out))
    if peak > 0:
        out *= rng.uniform(0.4, 0.85) / peak
    return out.astype(np.float32)


def synth_noise(kind: str, seconds: float, rng: np.random.Generator) -> np.ndarray:
    n = int(seconds * SAMPLE_RATE)
    if kind == "white":
        out = rng.standard_normal(n)
    elif kind == "pink":
        spec = np.fft.rfft(rng.standard_normal(n))
        freqs = np.maximum(np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE), 1.0)
        out = np.fft.irfft(spec / np.sqrt(freqs), n)
    elif kind == "hum":
        t = np.arange(n) / SAMPLE_RATE
        out = sum(
            a * np.sin(2 * np.pi * f * t + rng.uniform(0, 2 * np.pi))
            for f, a in ((50.0, 1.0), (100.0, 0.5), (150.0, 0.3))
        )
        out *= 1.0 + 0.3 * np.sin(2 * np.pi * 0.7 * t)
        out += rng.standard_normal(n) * 0.05
    elif kind == "clicks":
        out = rng.standard_normal(n) * 0.02
        for _ in range(int(seconds * 3)):
            at = int(rng.integers(0, n - 200))
            out[at : at + 200] += np.hanning(200) * rng.uniform(0.5, 1.0)
    else:
        raise ValueError(f"unknown noise kind {kind!r}")
    peak = np.max(np.abs(out))
    return (0.7 * out / peak).astype(np.float32)


def make_toy_corpus(
    out_dir: str,
    seed: int = 0,
    n_speakers: int = 4,
    train_per_speaker: int = 5,
    probe_per_speaker: int = 12,
    train_seconds: float = 15.0,
    probe_seconds: float = 8.0,
    probe_snr_db: tuple = (0.0, 5.0),
    probe_reverb: bool = True,
) -> dict[str, str]:
    """Write WAVs + manifests; returns paths of the three manifests.

    The training manifest has n_speakers * train_per_speaker clean
    utterances. The probe manifest holds fresh utterances per speaker that
    are reverberated and mixed with synthetic noise at a random SNR, so the
    probe measures whether speaker identity survives degradation (labels
    are speaker ids).
    """
    from .distortion import apply_reverb, mix_noise  # avoids a cycle at import time
    from .rir import generate_rir_image_method

    rng = np.random.default_rng(seed)
    wav_dir = os.path.join(out_dir, "wav")
    os.makedirs(wav_dir, exist_ok=True)
    speakers = DEFAULT_SPEAKERS[:n_speakers]

    noise_rows = []
    noise_waves = []
    for kind in ("white", "pink", "hum", "clicks"):
        path = os.path.join(wav_dir, f"noise_{kind}.wav")
        wave = Waveform(synth_noise(kind, 6.0, rng), SAMPLE_RATE)
        write_wav(wave, path)
        noise_rows.append((f"noise_{kind}", "noise", path))
        noise_waves.append(wave)

    probe_rirs = []
    if probe_reverb:
        for t60 in (0.45, 0.6, 0.75):
            room = np.array([rng.uniform(4.5, 7.0), rng.uniform(3.5, 5.5), rng.uniform(2.6, 3.4)])
            src = rng.uniform(0.6, room - 0.6)
            mic = rng.uniform(0.6, room - 0.6)
            probe_rirs.append(
                generate_rir_image_method(room, src, mic, t60, max_order=12)
            )

    train_rows = []
    probe_rows = []
    for spk in speakers:
        for i in range(train_per_speaker):
            utt = f"{spk.name}_train{i}"
            path = os.path.join(wav_dir, utt + ".wav")
            write_wav(
                Waveform(synth_utterance(spk, train_seconds, rng), SAMPLE_RATE), path
            )
            train_rows.append((utt, spk.name, path))
        for i in range(probe_per_speaker):
            utt = f"{spk.name}_probe{i}"
            path = os.path.join(wav_dir, utt + ".wav")
            degraded = Waveform(synth_utterance(spk, probe_seconds, rng), SAMPLE_RATE)
            if probe_rirs:
                degraded = apply_reverb(degraded, probe_rirs[int(rng.integers(len(probe_rirs)))])
            noise = noise_waves[int(rng.integers(len(noise_waves)))]
            snr = float(rng.uniform(*probe_snr_db))
            write_wav(mix_noise(degraded, noise, snr), path)
            probe_rows.append((utt, spk.name, path))

    paths = {}
    for name, rows in (("train", train_rows), ("probe", probe_rows), ("noise", noise_rows)):
        manifest = os.path.join(out_dir, f"{name}.tsv")
        lines = [f"# synthetic toy corpus ({name})"] + ["\t".join(row) for row in rows]
        write_file(manifest, (f"{line}\n".encode("utf-8") for line in lines))
        paths[name] = manifest
    return paths
