import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pase.audio_io import (
    Waveform,
    chunk_samples,
    draw_chunk,
    load_manifest,
    read_wav,
    write_wav,
)
from pase.errors import (
    DuplicateId,
    MalformedContainer,
    MissingField,
    UnsupportedEncoding,
)


def wav_blob(fmt_tag, channels, rate, bits, payload):
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, rate,
                      rate * channels * bits // 8, channels * bits // 8, bits)
    body = b"WAVE"
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def test_pcm16_full_scale_normalization(tmp_path):
    payload = np.array([32767, 0, -32768], dtype="<i2").tobytes()
    path = tmp_path / "full.wav"
    path.write_bytes(wav_blob(1, 1, 16000, 16, payload))
    wave = read_wav(str(path))
    assert wave.samples[0] == pytest.approx(32767 / 32768)
    assert wave.samples[1] == 0.0
    assert wave.samples[2] == -1.0
    assert wave.sample_rate == 16000


def test_pcm16_write_clamps_overrange(tmp_path):
    path = tmp_path / "clip.wav"
    write_wav(Waveform(np.array([1.5, -1.5], dtype=np.float32), 16000), str(path), "pcm16")
    raw = path.read_bytes()
    ints = np.frombuffer(raw[-4:], dtype="<i2")
    assert ints[0] == 32767
    assert ints[1] == -32768


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=4000), st.integers(min_value=0, max_value=2**31 - 1))
def test_f32_round_trip_bitwise(tmp_path_factory, n, seed):
    samples = np.random.default_rng(seed).uniform(-1, 1, n).astype(np.float32)
    path = tmp_path_factory.mktemp("rt") / "x.wav"
    write_wav(Waveform(samples, 16000), str(path), "f32")
    back = read_wav(str(path))
    assert back.samples.dtype == np.float32
    assert np.array_equal(back.samples, samples)
    assert back.encoding == "f32"


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=4000), st.integers(min_value=0, max_value=2**31 - 1))
def test_pcm16_round_trip_quantization_bound(tmp_path_factory, n, seed):
    samples = np.random.default_rng(seed).uniform(-1, 1, n).astype(np.float32)
    path = tmp_path_factory.mktemp("rt16") / "x.wav"
    write_wav(Waveform(samples, 16000), str(path), "pcm16")
    back = read_wav(str(path))
    assert np.max(np.abs(back.samples - samples)) <= 1.0 / 32768


def test_multichannel_takes_first_channel(tmp_path):
    interleaved = np.array([100, -7, 200, -7, 300, -7], dtype="<i2").tobytes()
    path = tmp_path / "stereo.wav"
    path.write_bytes(wav_blob(1, 2, 16000, 16, interleaved))
    wave = read_wav(str(path))
    assert np.allclose(wave.samples * 32768, [100, 200, 300])


def test_malformed_containers(tmp_path):
    bad = tmp_path / "bad.wav"
    bad.write_bytes(b"OGGS" + b"\x00" * 64)
    with pytest.raises(MalformedContainer):
        read_wav(str(bad))

    truncated = tmp_path / "trunc.wav"
    blob = wav_blob(1, 1, 16000, 16, b"\x00\x00" * 10)
    truncated.write_bytes(blob[:-6])
    with pytest.raises(MalformedContainer):
        read_wav(str(truncated))

    nodata = tmp_path / "nodata.wav"
    fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
    nodata.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(MalformedContainer):
        read_wav(str(nodata))


def test_unsupported_encodings(tmp_path):
    alaw = tmp_path / "alaw.wav"
    alaw.write_bytes(wav_blob(6, 1, 8000, 8, b"\x00" * 16))
    with pytest.raises(UnsupportedEncoding):
        read_wav(str(alaw))

    pcm24 = tmp_path / "pcm24.wav"
    pcm24.write_bytes(wav_blob(1, 1, 16000, 24, b"\x00" * 12))
    with pytest.raises(UnsupportedEncoding):
        read_wav(str(pcm24))


def test_manifest_well_formed(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text(
        "# comment line\n"
        "utt0\tspkA\t/data/a.wav\n"
        "utt1\tspkB\t/data/b.wav\n"
        "\n"
        "utt2\tspkA\t/data/c.wav\n",
        encoding="utf-8",
    )
    manifest = load_manifest(str(path))
    assert [e.utterance_id for e in manifest] == ["utt0", "utt1", "utt2"]
    assert manifest[1].speaker_id == "spkB"
    assert manifest[2].path == "/data/c.wav"


def test_manifest_duplicate_id(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("u\ta\tx.wav\nu\tb\ty.wav\n", encoding="utf-8")
    with pytest.raises(DuplicateId):
        load_manifest(str(path))


def test_manifest_missing_field(tmp_path):
    path = tmp_path / "short.tsv"
    path.write_text("u\ta\n", encoding="utf-8")
    with pytest.raises(MissingField):
        load_manifest(str(path))


def test_manifest_empty_is_valid(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    assert len(load_manifest(str(path))) == 0


def test_manifest_parse_is_deterministic(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("b\ts\tb.wav\na\ts\ta.wav\n", encoding="utf-8")
    first = load_manifest(str(path))
    second = load_manifest(str(path))
    assert [e.utterance_id for e in first] == ["b", "a"]
    assert first == second


def test_draw_chunk_exact_two_seconds(rng):
    wave = Waveform(np.ones(32000, dtype=np.float32) * 0.5, 16000)
    chunk = draw_chunk(wave, rng, "u")
    assert chunk.offset_samples == 0
    assert not chunk.padded
    assert len(chunk.samples) == 32000


def test_draw_chunk_pads_short_utterance(rng):
    wave = Waveform(np.ones(16000, dtype=np.float32) * 0.25, 16000)
    chunk = draw_chunk(wave, rng, "u")
    assert chunk.padded
    assert chunk.offset_samples == 0
    assert len(chunk.samples) == 32000
    assert np.all(chunk.samples[16000:] == 0.0)
    assert np.all(chunk.samples[:16000] == 0.25)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=100, max_value=90000), st.integers(min_value=0, max_value=1000))
def test_draw_chunk_length_invariant(n, seed):
    wave = Waveform(np.zeros(n, dtype=np.float32), 16000)
    chunk = draw_chunk(wave, np.random.default_rng(seed), "u")
    assert len(chunk.samples) == 2 * 16000
    assert chunk_samples(16000) == 32000


def test_draw_chunk_offsets_uniform():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(123)
    wave = Waveform(np.zeros(160000, dtype=np.float32), 16000)  # 10 s
    n_offsets = 160000 - 32000 + 1
    draws = np.array([draw_chunk(wave, rng, "u").offset_samples for _ in range(10_000)])
    assert draws.min() >= 0 and draws.max() < n_offsets
    counts, _ = np.histogram(draws, bins=16, range=(0, n_offsets))
    _, p_value = scipy_stats.chisquare(counts)
    assert p_value > 0.01
