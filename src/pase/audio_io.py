"""WAV ingestion/emission, corpus manifests, and 2-second chunk drawing.

The on-disk WAV contract is deliberately narrow: RIFF little-endian with
`fmt ` + `data` chunks, PCM-16 or IEEE float-32 payload. Everything else is
rejected instead of silently transcoded.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicateId,
    MalformedContainer,
    MissingField,
    UnsupportedEncoding,
)
from .files import read_file, write_file

log = logging.getLogger(__name__)

CHUNK_SECONDS = 2.0

PCM16 = "pcm16"
F32 = "f32"


@dataclass(frozen=True)
class Waveform:
    """Mono signal with amplitudes in [-1, 1]."""

    samples: np.ndarray
    sample_rate: int
    encoding: str = F32  # encoding of the source file, kept for round trips

    def __len__(self) -> int:
        return len(self.samples)


@dataclass(frozen=True)
class ManifestEntry:
    utterance_id: str
    speaker_id: str
    path: str


@dataclass(frozen=True)
class Chunk:
    """Fixed-length training window cut from one utterance."""

    utterance_id: str
    offset_samples: int
    samples: np.ndarray
    sample_rate: int
    padded: bool = False


def _parse_fmt(body: bytes):
    if len(body) < 16:
        raise MalformedContainer("fmt chunk shorter than 16 bytes")
    audio_format, channels, rate, _, _, bits = struct.unpack("<HHIIHH", body[:16])
    return audio_format, channels, rate, bits


def read_wav(path: str) -> Waveform:
    """Read a PCM-16 or float-32 WAV file, first channel only, scaled to [-1, 1]."""
    raw = read_file(path)
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedContainer(f"{path}: not a RIFF/WAVE container")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        cid = bytes(raw[pos : pos + 4])
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body = memoryview(raw)[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise MalformedContainer(f"{path}: truncated {cid!r} chunk")
        if cid == b"fmt ":
            fmt = _parse_fmt(body)
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise MalformedContainer(f"{path}: missing fmt or data chunk")

    audio_format, channels, rate, bits = fmt
    if channels < 1 or rate <= 0:
        raise MalformedContainer(f"{path}: nonsensical fmt fields")

    if audio_format == 1 and bits == 16:
        frames = len(data) // (2 * channels)
        ints = np.frombuffer(data[: frames * 2 * channels], dtype="<i2")
        ints = ints.reshape(frames, channels)
        samples = ints[:, 0].astype(np.float32) / 32768.0
        encoding = PCM16
    elif audio_format == 3 and bits == 32:
        frames = len(data) // (4 * channels)
        floats = np.frombuffer(data[: frames * 4 * channels], dtype="<f4")
        floats = floats.reshape(frames, channels)
        samples = floats[:, 0].copy()
        encoding = F32
    else:
        raise UnsupportedEncoding(
            f"{path}: format tag {audio_format} / {bits} bit not supported"
        )

    if channels > 1:
        log.warning("%s: %d channels, keeping channel 0", path, channels)
    if samples.size == 0:
        raise MalformedContainer(f"{path}: empty data chunk")
    if not np.all(np.isfinite(samples)):
        raise MalformedContainer(f"{path}: non-finite samples")
    np.clip(samples, -1.0, 1.0, out=samples)
    return Waveform(samples=samples, sample_rate=int(rate), encoding=encoding)


def write_wav(wave: Waveform, path: str, encoding: str = F32) -> None:
    """Write `wave` as RIFF/WAVE. pcm16 rounds to nearest with clamping."""
    x = np.asarray(wave.samples, dtype=np.float32)
    if encoding == PCM16:
        payload, tag = np.clip(np.rint(x * 32768.0), -32768, 32767).astype("<i2"), 1
    elif encoding == F32:
        payload, tag = np.ascontiguousarray(x, dtype="<f4"), 3
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    rate, width, n = wave.sample_rate, payload.itemsize, payload.nbytes
    # n is even (2- or 4-byte samples), so the data chunk needs no pad byte
    head = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + n, b"WAVE", b"fmt ", 16,
                       tag, 1, rate, rate * width, width, 8 * width, b"data", n)
    write_file(path, (head, payload))


def load_manifest(path: str) -> list[ManifestEntry]:
    """Parse a tab-separated manifest: `utterance_id<TAB>speaker_id<TAB>path`."""
    lines = read_file(path).decode("utf-8").splitlines()
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3 or any(not f for f in fields):
            raise MissingField(f"{path}:{lineno}: expected 3 tab-separated fields")
        utt, spk, wav_path = fields
        if utt in seen:
            raise DuplicateId(f"{path}:{lineno}: duplicate utterance id {utt!r}")
        seen.add(utt)
        entries.append(ManifestEntry(utt, spk, wav_path))
    return entries


def chunk_samples(sample_rate: int) -> int:
    return int(round(CHUNK_SECONDS * sample_rate))


def draw_chunk(wave: Waveform, rng: np.random.Generator, utterance_id: str = "") -> Chunk:
    """Cut a uniformly random 2 s window; shorter utterances are tail-padded."""
    n = len(wave)
    if n == 0:
        raise ValueError("empty waveform")
    want = chunk_samples(wave.sample_rate)
    if n >= want:
        offset = int(rng.integers(0, n - want + 1))
        samples = np.array(wave.samples[offset : offset + want], dtype=np.float32)
        return Chunk(utterance_id, offset, samples, wave.sample_rate, padded=False)
    samples = np.zeros(want, dtype=np.float32)
    samples[:n] = wave.samples
    return Chunk(utterance_id, 0, samples, wave.sample_rate, padded=True)
