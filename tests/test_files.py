"""Whole-file reads and writes: the bytes every writer puts on disk, typed
errors at the file boundary, and line endings of the text readers."""

import hashlib

import numpy as np
import pytest

from pase.audio_io import F32, PCM16, Waveform, load_manifest, read_wav, write_wav
from pase.checkpoint import load_checkpoint, save_checkpoint
from pase.config import default_config_text, load_train_config
from pase.errors import IoFailure
from pase.features import read_pfea, write_pfea


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_arrays() -> dict:
    ramp = np.arange(60, dtype=np.float64).reshape(3, 4, 5) / 7.0 - 4.0
    return {
        "encoder/block0/conv/w": ramp,
        "encoder/block0/conv/w.T": ramp.T,  # not contiguous
        "encoder/sinc/p_low": np.linspace(-1.0, 1.0, 5, dtype=np.float32),
        "scalar": np.float32(3.5),
        "__adam__/step": np.asarray([7.0], dtype=np.float32),
        "__adam__/m/encoder/sinc/p_low": np.full(5, 1e-3, dtype=np.float32),
        "__stats__/mfcc/mean": np.arange(13, dtype=np.float32) * 0.25,
        "__stats__/mfcc/std": np.ones(13, dtype=np.float32),
    }


# sha256 of each file as the writers produced it before they shared one
# write path; the on-disk formats must not move by a byte
def test_save_checkpoint_golden_bytes(tmp_path):
    path = tmp_path / "g.pckp"
    save_checkpoint(str(path), golden_arrays(), {"zeta": "x y", "hop_seconds": "0.01", "a": "1"})
    assert sha256(path) == "17af273f805f88da66f22cfad6b35f2828b3f04477c1296c168c672a669c4eea"


def test_write_pfea_golden_bytes(tmp_path):
    path = tmp_path / "g.pfea"
    values = (np.arange(7 * 11, dtype=np.float64).reshape(7, 11) % 13) / 3.0 - 2.0
    write_pfea(str(path), values, {"kind": "embedding", "hop": 0.01, "window": 2.0, "dims": 11})
    assert sha256(path) == "8ea6cfda90152f6b60385bd0f9dd74caca5fc3345204b9151c400f73a1536336"
    sidecar = tmp_path / "g.pfea.json"
    assert sha256(sidecar) == "fb0e9178ccadc237a66280d86d53f4a9f9ac2f2a91d1970a789e5f91b444eb29"


@pytest.mark.parametrize("encoding, digest", [
    (PCM16, "c0a7d0356341a395a9a964327cc99f4827e82cb1c911030263de4cf4185082d1"),
    (F32, "a3f86c910411d254fd50c0e6fc1c42fc9129b7c0e8e22441e765f47018f32418"),
])
def test_write_wav_golden_bytes(tmp_path, encoding, digest):
    # an odd sample count, and a 1.2 amplitude that pcm16 clamps
    samples = (np.sin(np.arange(1001) * 0.37) * 1.2).astype(np.float32)
    path = tmp_path / "g.wav"
    write_wav(Waveform(samples, 16000), str(path), encoding=encoding)
    assert sha256(path) == digest


@pytest.mark.parametrize("call", [
    lambda d: read_wav(str(d / "none.wav")),
    lambda d: load_manifest(str(d / "none.tsv")),
    lambda d: load_checkpoint(str(d / "none.pckp")),
    lambda d: read_pfea(str(d / "none.pfea")),
    lambda d: load_train_config(str(d / "none.conf")),
    lambda d: write_wav(Waveform(np.zeros(4, np.float32), 16000), str(d / "no" / "x.wav")),
    lambda d: save_checkpoint(str(d / "no" / "x.pckp"), golden_arrays(), {}),
    lambda d: write_pfea(str(d / "no" / "x.pfea"), np.zeros((2, 3)), {}),
], ids=["read_wav", "load_manifest", "load_checkpoint", "read_pfea", "load_train_config",
        "write_wav", "save_checkpoint", "write_pfea"])
def test_missing_file_or_directory_raises_io_failure(tmp_path, call):
    with pytest.raises(IoFailure):
        call(tmp_path)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_manifest_line_breaks_load_as_lf(tmp_path, newline):
    text = "# comment\nutt0\tspkA\t/data/a.wav\n\nutt1\tspkB\t/data/b.wav\n"
    lf, other = tmp_path / "lf.tsv", tmp_path / "other.tsv"
    lf.write_bytes(text.encode("utf-8"))
    other.write_bytes(text.replace("\n", newline).encode("utf-8"))
    assert load_manifest(str(other)) == load_manifest(str(lf))


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_config_line_breaks_load_as_lf(tmp_path, newline):
    text = default_config_text().replace("batch_size = 32", "batch_size = 8")
    text = text.replace("bands = 250:500 500:1000 1000:2000 2000:4000 3500:7000",
                        "bands = 100:200\n  300:400")  # a continuation line
    lf, other = tmp_path / "lf.conf", tmp_path / "other.conf"
    lf.write_bytes(text.encode("utf-8"))
    other.write_bytes(text.replace("\n", newline).encode("utf-8"))
    cfg = load_train_config(str(lf))
    assert cfg.batch_size == 8
    assert cfg.distortion.freq_mask.band_pool == ((100.0, 200.0), (300.0, 400.0))
    assert load_train_config(str(other)) == cfg
