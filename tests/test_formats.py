import configparser
import re
import struct
import zlib
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import pase.trainer as T
from pase.checkpoint import (
    STATS_PREFIX,
    decode_meta,
    encode_meta,
    load_checkpoint,
    save_checkpoint,
)
from pase.config import TrainConfig, default_config_text, load_train_config
from pase.encoder import EncoderConfig
from pase.errors import ChecksumMismatch, ConfigError, IncompatibleVersion, MalformedContainer
from pase.features import read_pfea, write_pfea


def test_pfea_round_trip(tmp_path, rng):
    values = rng.standard_normal((37, 12)).astype(np.float32)
    path = str(tmp_path / "x.pfea")
    write_pfea(path, values, {"kind": "embedding", "hop": 0.01, "window": 2.0})
    back, meta = read_pfea(path)
    assert np.array_equal(back, values)
    assert meta["kind"] == "embedding"
    assert meta["hop"] == 0.01


def test_pfea_header_layout(tmp_path):
    path = str(tmp_path / "x.pfea")
    write_pfea(path, np.zeros((2, 3), dtype=np.float32), {})
    raw = open(path, "rb").read()
    assert raw[:4] == b"PFEA"
    assert np.frombuffer(raw[4:16], dtype="<u4").tolist() == [1, 2, 3]
    assert len(raw) == 16 + 4 * 6


def test_pfea_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.pfea"
    bad.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(MalformedContainer):
        read_pfea(str(bad))

    versioned = tmp_path / "v9.pfea"
    versioned.write_bytes(b"PFEA" + np.array([9, 1, 1], dtype="<u4").tobytes() + b"\x00" * 4)
    with pytest.raises(IncompatibleVersion):
        read_pfea(str(versioned))

    truncated = tmp_path / "t.pfea"
    truncated.write_bytes(b"PFEA" + np.array([1, 10, 10], dtype="<u4").tobytes() + b"\x00" * 8)
    with pytest.raises(MalformedContainer):
        read_pfea(str(truncated))

    trailing = tmp_path / "trailing.pfea"
    trailing.write_bytes(b"PFEA" + np.array([1, 1, 2], dtype="<u4").tobytes() + b"\x00" * 12)
    with pytest.raises(MalformedContainer):
        read_pfea(str(trailing))


def test_pfea_sidecar_missing_or_broken(tmp_path):
    path = tmp_path / "x.pfea"
    write_pfea(str(path), np.zeros((2, 3), dtype=np.float32), {"kind": "embedding"})
    sidecar = tmp_path / "x.pfea.json"
    sidecar.write_text('{"kind": "emb', encoding="utf-8")
    with pytest.raises(MalformedContainer):
        read_pfea(str(path))
    sidecar.unlink()
    values, meta = read_pfea(str(path))
    assert values.shape == (2, 3) and meta == {}


def test_checkpoint_round_trip(tmp_path, rng):
    arrays = {
        "encoder/sinc/p_low": rng.standard_normal(64).astype(np.float32),
        "workers/mfcc/fc1/w": rng.standard_normal((256, 256)).astype(np.float32),
        "__adam__/step": np.asarray([42.0], dtype=np.float32),
        "__stats__/mfcc/mean": rng.standard_normal(273).astype(np.float32),
    }
    meta = {"sample_rate": "16000", "workers": "mfcc,lim"}
    path = str(tmp_path / "m.pckp")
    save_checkpoint(path, arrays, meta)
    back, meta_back = load_checkpoint(path)
    assert meta_back == meta
    assert set(back) == set(arrays)
    for name in arrays:
        assert np.array_equal(back[name], arrays[name]), name


def test_checkpoint_crc_detects_corruption(tmp_path, rng):
    path = str(tmp_path / "m.pckp")
    save_checkpoint(path, {"w": rng.standard_normal(8).astype(np.float32)}, {})
    blob = bytearray(open(path, "rb").read())
    blob[30] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(ChecksumMismatch):
        load_checkpoint(path)


def test_checkpoint_version_check(tmp_path):
    path = str(tmp_path / "m.pckp")
    save_checkpoint(path, {}, {})
    blob = bytearray(open(path, "rb").read())
    blob[4] = 9  # bump the version field
    body = bytes(blob[:-4])
    open(path, "wb").write(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))
    with pytest.raises(IncompatibleVersion):
        load_checkpoint(path)


def test_checkpoint_rejects_non_pckp(tmp_path):
    path = tmp_path / "x.pckp"
    path.write_bytes(b"JUNKJUNKJUNKJUNKJUNK")
    with pytest.raises(MalformedContainer):
        load_checkpoint(str(path))


@pytest.mark.parametrize("record", [
    struct.pack("<H", 1) + b"w" + struct.pack("<BI", 1, 1000) + b"\x00" * 8,
    struct.pack("<H", 1) + b"w" + struct.pack("<B", 200) + b"\x00" * 8,
    struct.pack("<H", 60000) + b"w" * 8,
], ids=["payload", "dims", "name"])
def test_checkpoint_record_past_the_end_is_malformed(tmp_path, record):
    # a well-formed header and a valid CRC, but the one record runs past the
    # CRC trailer: 1000 floats over 8 bytes, 200 dims, a 60000-byte name
    body = b"PCKP" + struct.pack("<III", 1, 0, 1) + record
    path = tmp_path / "short.pckp"
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(MalformedContainer, match="short.pckp"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("name, value, key", [
    ("sinc_kernel", None, "sinc_kernel"),
    ("sinc_kernel", "wide", "sinc_kernel"),
    ("block_strides", "10,2,2,2,1,1,1", "block_strides"),
    (f"{STATS_PREFIX}lps/mean", np.zeros(3, np.float32), f"{STATS_PREFIX}wave/mean"),
], ids=["missing-key", "unparsable-value", "stride-product", "partial-stats"])
def test_load_model_bad_meta_or_stats_is_malformed(tmp_path, name, value, key):
    # None deletes a meta key and a string replaces its value; an array is
    # the one statistics record of a file that should hold all of them
    tiny = EncoderConfig(
        sinc_filters=4, sinc_kernel=33, block_channels=(4, 8, 8, 8, 8, 8, 8),
        block_kernels=(11, 5, 5, 5, 5, 5, 5), qrnn_hidden=8, embedding_dim=8,
    )
    model = T.build_model(tiny, np.random.default_rng(0))
    arrays, meta = model.arrays(), T.model_meta(model)
    if value is None:
        del meta[name]
    elif isinstance(value, str):
        meta[name] = value
    else:
        arrays[name] = value
    path = str(tmp_path / "bad.pckp")
    save_checkpoint(path, arrays, meta)
    with pytest.raises(MalformedContainer, match=f"bad.pckp: .*{re.escape(key)}"):
        T.load_model(path)


def test_meta_codec_round_trip():
    meta = {"a": "1", "block_channels": "64,128", "empty": ""}
    assert decode_meta(encode_meta(meta)) == meta
    assert decode_meta(b"") == {}


def test_default_config_matches_standard_probabilities(tmp_path):
    path = tmp_path / "default.conf"
    path.write_text(default_config_text(), encoding="utf-8")
    cfg = load_train_config(str(path))
    assert cfg.distortion.reverb.p == 0.5
    assert cfg.distortion.noise.p == 0.4
    assert cfg.distortion.freq_mask.p == 0.4
    assert cfg.distortion.temporal_mask.p == 0.2
    assert cfg.distortion.clip.p == 0.2
    assert cfg.distortion.overlap.p == 0.1
    assert cfg.distortion.noise.snr_range_db == (0.0, 10.0)
    assert cfg.batch_size == 32
    assert cfg.lr0 == pytest.approx(1e-3)
    assert cfg.epochs == 30


def test_default_config_text_loads_to_the_defaults(tmp_path):
    path = tmp_path / "default.conf"
    path.write_text(default_config_text(), encoding="utf-8")
    cfg = load_train_config(str(path))
    # the two manifests show example values; every other key its default
    assert cfg == TrainConfig(clean_manifest="train.tsv", noise_manifest="noise.tsv")


def _config_leaves(cfg: TrainConfig) -> dict:
    """Every settable value: the scalar fields of the config and of each
    distortion spec, with each end of a (low, high) range on its own."""
    owners = {"": cfg, **{f.name + ".": getattr(cfg.distortion, f.name)
                          for f in fields(cfg.distortion)}}
    leaves = {}
    for prefix, owner in owners.items():
        for f in fields(owner):
            value = getattr(owner, f.name)
            if f.name in ("distortion", "encoder") or isinstance(value, list):
                continue
            if isinstance(value, tuple) and len(value) == 2 and isinstance(value[0], float):
                leaves[prefix + f.name + "[0]"], leaves[prefix + f.name + "[1]"] = value
            else:
                leaves[prefix + f.name] = value
    return leaves


def _other_value(text: str) -> str:
    if text in ("true", "false"):
        return "false" if text == "true" else "true"
    if ":" in text:
        return "100:200"
    try:
        return str(float(text) + 1.0) if "." in text else str(int(text) + 1)
    except ValueError:
        return text + "-other"


def test_each_config_key_sets_exactly_one_field(tmp_path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    parser.read_string(default_config_text())
    defaults = _config_leaves(TrainConfig())
    reached = []
    for section in parser.sections():
        for key, text in parser[section].items():
            path = tmp_path / f"{section}.{key}.conf"
            path.write_text(f"[{section}]\n{key} = {_other_value(text)}\n", encoding="utf-8")
            leaves = _config_leaves(load_train_config(str(path)))
            changed = [name for name in defaults if leaves[name] != defaults[name]]
            assert len(changed) == 1, (section, key, changed)
            reached += changed
    assert sorted(reached) == sorted(defaults)


@pytest.mark.parametrize("text, where", [
    ("[train]\nbatch_sise = 8\n", "[train] batch_sise"),
    ("[noise]\nsnr_low = 5\n", "[noise] snr_low"),
    ("[train]\nbatch_size = eight\n", "[train] batch_size"),
    ("[clip]\nenabled = maybe\n", "[clip] enabled"),
    ("[freq_mask]\nbands = 100-200\n", "[freq_mask] bands"),
    ("batch_size = 8\n", "no section headers"),
    ("[train]\nepochs = 2\nepochs = 3\n", "'epochs' in section 'train' already exists"),
    ("[corpus]\nclean_manifest = /data/100%/train.tsv\n", "[corpus] clean_manifest"),
], ids=["misspelt-key", "misspelt-range-key", "bad-int", "bad-bool", "bad-bands",
        "no-section-header", "duplicate-key", "lone-percent"])
def test_config_typo_raises_config_error(tmp_path, text, where):
    path = tmp_path / "typo.conf"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError) as info:
        load_train_config(str(path))
    assert str(path) in str(info.value) and where in str(info.value)


def test_config_double_percent_is_a_percent(tmp_path):
    path = tmp_path / "percent.conf"
    path.write_text("[corpus]\nclean_manifest = /data/100%%/train.tsv\n", encoding="utf-8")
    assert load_train_config(str(path)).clean_manifest == "/data/100%/train.tsv"


def test_shipped_default_config_is_generated():
    # byte for byte, line endings included; regenerate with `pase init-config`
    shipped = Path(__file__).parent.parent / "configs" / "default.conf"
    assert shipped.read_bytes() == default_config_text().encode("utf-8")


def test_config_overrides_parse(tmp_path):
    text = """
[corpus]
clean_manifest = c.tsv
noise_manifest = n.tsv
overlap_manifest = o.tsv

[train]
batch_size = 8
epochs = 3
seed = 99
lr0 = 0.01

[noise]
p = 0.9
snr_low_db = -5
snr_high_db = 5

[freq_mask]
enabled = false
bands = 100:200 300:600
"""
    path = tmp_path / "c.conf"
    path.write_text(text, encoding="utf-8")
    cfg = load_train_config(str(path))
    assert cfg.clean_manifest == "c.tsv"
    assert cfg.overlap_manifest == "o.tsv"
    assert cfg.batch_size == 8
    assert cfg.seed == 99
    assert cfg.lr0 == pytest.approx(0.01)
    assert cfg.distortion.noise.p == 0.9
    assert cfg.distortion.noise.snr_range_db == (-5.0, 5.0)
    assert cfg.distortion.freq_mask.enabled is False
    assert cfg.distortion.freq_mask.band_pool == ((100.0, 200.0), (300.0, 600.0))


def test_desk_config_is_the_desk_recipe():
    """configs/desk.conf holds exactly the recipe the demo and the acceptance
    run used to spell out in code; only manifests and checkpoint_dir vary."""
    desk = Path(__file__).parent.parent / "configs" / "desk.conf"
    cfg = load_train_config(str(desk))
    cfg.clean_manifest, cfg.noise_manifest, cfg.checkpoint_dir = "c.tsv", "n.tsv", "ckpt"
    want = TrainConfig(
        clean_manifest="c.tsv",
        noise_manifest="n.tsv",
        checkpoint_dir="ckpt",
        batch_size=2,
        lim_triples_per_chunk=64,
        gim_negatives_per_chunk=16,
        lr0=2e-3,
        schedule_power=0.7,
        rir_max_order=12,
        seed=20260808,
    )
    dist = want.distortion
    dist.reverb.p = 0.25
    dist.noise.p = 0.3
    dist.noise.snr_range_db = (5.0, 10.0)
    dist.freq_mask.p = 0.2
    dist.temporal_mask.p = 0.1
    dist.temporal_mask.max_fraction = 0.1
    dist.clip.p = 0.1
    dist.overlap.p = 0.05
    assert cfg == want


def test_config_with_stale_probe_section_loads(tmp_path):
    path = tmp_path / "old.conf"
    path.write_text("[train]\nepochs = 2\n\n[probe]\nepochs = 100\nlr = 0.01\n", encoding="utf-8")
    cfg = load_train_config(str(path))
    assert cfg.epochs == 2


def test_config_sample_rate_other_than_16k_is_config_error():
    enc = EncoderConfig(sample_rate=8000, block_strides=(5, 2, 2, 2, 2, 1, 1))
    enc.validate()  # a consistent encoder on its own
    with pytest.raises(ConfigError, match="sample_rate is 8000"):
        TrainConfig(encoder=enc).validate()


def test_config_batch_size_one_is_single_utterance_error(tmp_path):
    from pase.errors import SingleUtteranceBatch

    cfg = TrainConfig(batch_size=1)
    with pytest.raises(SingleUtteranceBatch):
        cfg.validate()


@pytest.mark.parametrize(
    "name,value",
    [
        ("log_interval", 0),  # ZeroDivisionError at step 2
        ("stats_chunks_per_utterance", 0),  # no chunk to fit the statistics on
        ("lim_triples_per_chunk", 0),  # NonFiniteLoss at step 1
        ("gim_negatives_per_chunk", 0),  # NonFiniteLoss at step 1
        ("rir_max_order", -1),  # every RIR all zeros, every reverberated chunk silence
        ("lr0", 0.0),  # trains for every step and changes no parameter
        ("lr0", -1e-3),  # gradient ascent, and nothing raises
        ("lr0", float("nan")),  # NonFiniteLoss at step 2
        ("schedule_power", -1.0),  # the rate rises to lr0 * total_steps at the last step
        ("schedule_power", float("nan")),  # NonFiniteLoss at step 3
    ],
)
def test_config_value_that_fails_late_is_config_error_at_startup(tmp_path, name, value):
    cfg = TrainConfig(checkpoint_dir=str(tmp_path / "ckpt"), **{name: value})
    with pytest.raises(ConfigError, match=name):
        T.pretrain(cfg)
    assert not (tmp_path / "ckpt").exists()
