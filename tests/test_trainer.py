import hashlib
import json
import os

import numpy as np
import pytest

import pase.trainer as T
import pase.workers as W
from pase.audio_io import Waveform, read_wav, write_wav
from pase.autodiff import Tensor
from pase.config import TrainConfig
from pase.encoder import Encoder
from pase.checkpoint import load_checkpoint, save_checkpoint
from pase.errors import (
    ConfigError,
    EmptyCorpus,
    EmptyPool,
    MalformedContainer,
    NonFiniteGradient,
    NonFiniteLoss,
    SampleRateMismatch,
)
from pase.features import read_pfea


def micro_train_config(paths, out_dir, **overrides) -> TrainConfig:
    cfg = TrainConfig(
        clean_manifest=paths["train"],
        noise_manifest=paths["noise"],
        checkpoint_dir=str(out_dir),
        batch_size=4,
        epochs=2,
        seed=5,
        rir_count=3,
        rir_max_order=6,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


@pytest.fixture(scope="module")
def trained(micro_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    cfg = micro_train_config(micro_corpus, out)
    final = T.pretrain(cfg)
    return {"cfg": cfg, "final": final, "dir": out, "paths": micro_corpus}


def test_pretrain_writes_expected_artifacts(trained):
    out = trained["dir"]
    assert os.path.exists(trained["final"])
    assert os.path.exists(out / "init.pckp")
    assert os.path.exists(out / "epoch_001.pckp")
    assert os.path.exists(out / "epoch_002.pckp")
    assert os.path.exists(out / "losses.csv")


def test_pools_stay_out_of_the_callers_config(trained, micro_corpus, tmp_path):
    # pretrain and contaminate_corpus build their pools on a copy
    contaminated = micro_train_config(micro_corpus, tmp_path)
    T.contaminate_corpus(contaminated, micro_corpus["train"], str(tmp_path / "out"), seed=1)
    for cfg in (trained["cfg"], contaminated):
        dist = cfg.distortion
        assert dist.reverb.rir_pool == []
        assert dist.noise.noise_pool == []
        assert dist.overlap.speech_pool == []


def test_loss_csv_complete_and_monotone(trained):
    rows = open(trained["dir"] / "losses.csv").read().strip().splitlines()
    assert rows[0] == "step,worker,loss"
    workers_per_step = {}
    steps_in_order = []
    for row in rows[1:]:
        step, worker, loss = row.split(",")
        float(loss)
        workers_per_step.setdefault(int(step), []).append(worker)
        if not steps_in_order or steps_in_order[-1] != int(step):
            steps_in_order.append(int(step))
    assert steps_in_order == sorted(steps_in_order)
    want = {s.name for s in W.default_roster()} | {"total"}
    for step, names in workers_per_step.items():
        assert set(names) == want, f"step {step} missing workers"
        assert len(names) == 13


def test_pretrain_bitwise_reproducible(micro_corpus, tmp_path):
    cfg_a = micro_train_config(micro_corpus, tmp_path / "a", epochs=1)
    cfg_b = micro_train_config(micro_corpus, tmp_path / "b", epochs=1)
    final_a = T.pretrain(cfg_a)
    final_b = T.pretrain(cfg_b)
    assert open(final_a, "rb").read() == open(final_b, "rb").read()
    assert (
        open(tmp_path / "a" / "losses.csv").read()
        == open(tmp_path / "b" / "losses.csv").read()
    )


def test_checkpoint_round_trip_embeddings(trained, tmp_path, rng):
    model, _ = T.load_model(trained["final"])
    chunk = rng.uniform(-0.5, 0.5, 32000).astype(np.float32)
    emb_first = model.encoder.frozen().encode(chunk)

    again = str(tmp_path / "resaved.pckp")
    T.save_model(again, model)
    model2, _ = T.load_model(again)
    emb_second = model2.encoder.frozen().encode(chunk)
    assert np.array_equal(emb_first, emb_second)


def test_encode_utterance_freezes_an_encoder_once(trained, rng, monkeypatch):
    model, _ = T.load_model(trained["final"])
    samples = rng.uniform(-0.5, 0.5, 5 * 16000).astype(np.float32)  # three 2 s windows
    frozen = model.encoder.frozen()
    builds = []
    build = Encoder.frozen
    monkeypatch.setattr(Encoder, "frozen", lambda self: builds.append(self) or build(self))
    via_encoder = T.encode_utterance(model.encoder, samples, 16000)
    assert len(builds) == 1
    via_frozen = T.encode_utterance(frozen, samples, 16000)
    hop = model.encoder_cfg.hop_samples
    assert via_encoder.shape == (len(samples) // hop, model.encoder_cfg.embedding_dim)
    assert via_encoder.tobytes() == via_frozen.tobytes()


def test_loaded_model_owns_aligned_arrays(trained):
    model, _ = T.load_model(trained["final"])
    stats = list(model.standardizer.mean.values()) + list(model.standardizer.std.values())
    assert stats
    for array in [p.data for p in model.parameters()] + stats:
        assert array.flags.owndata and array.flags.aligned


PARAM, BUFFER = "encoder/block3/conv/w", "encoder/block3/bn/running_var"


# a (1,) buffer used to be spread over every channel, and a (3,) one to raise a bare ValueError
@pytest.mark.parametrize("name, damage", [
    (PARAM, "drop"), (PARAM, "reshape"), (BUFFER, "drop"), (BUFFER, (1,)), (BUFFER, (3,)),
], ids=["drop", "reshape", "buffer-drop", "buffer-broadcast", "buffer-short"])
def test_load_model_names_a_missing_or_misshapen_parameter(trained, tmp_path, name, damage):
    arrays, meta = load_checkpoint(trained["final"])
    if damage == "drop":
        del arrays[name]
    elif damage == "reshape":
        arrays[name] = arrays[name].reshape(-1)
    else:
        arrays[name] = np.full(damage, 7.0, dtype=np.float32)
    path = str(tmp_path / "damaged.pckp")
    save_checkpoint(path, arrays, meta)
    with pytest.raises(MalformedContainer, match=name):
        T.load_model(path)


def test_extract_shapes_and_determinism(trained, tmp_path):
    manifest = tmp_path / "one.tsv"
    wav_path = tmp_path / "four_half.wav"
    rng = np.random.default_rng(3)
    write_wav(Waveform(rng.uniform(-0.5, 0.5, 72000).astype(np.float32), 16000), str(wav_path))
    manifest.write_text(f"u45\tspk\t{wav_path}\n", encoding="utf-8")

    out_a = tmp_path / "feat_a"
    out_b = tmp_path / "feat_b"
    files_a = T.extract(trained["final"], str(manifest), str(out_a))
    files_b = T.extract(trained["final"], str(manifest), str(out_b))
    values, meta = read_pfea(files_a[0])
    # 4.5 s: padded to three 2 s windows, only the 450 real frames kept
    assert values.shape == (450, 256)
    assert meta["kind"] == "embedding"
    assert open(files_a[0], "rb").read() == open(files_b[0], "rb").read()


def test_extract_four_seconds_gives_400_frames(trained, tmp_path):
    manifest = tmp_path / "four.tsv"
    wav_path = tmp_path / "four.wav"
    rng = np.random.default_rng(4)
    write_wav(Waveform(rng.uniform(-0.5, 0.5, 64000).astype(np.float32), 16000), str(wav_path))
    manifest.write_text(f"u4\tspk\t{wav_path}\n", encoding="utf-8")
    files = T.extract(trained["final"], str(manifest), str(tmp_path / "feat"))
    values, _ = read_pfea(files[0])
    assert values.shape == (400, 256)


def test_probe_reports_and_leaves_checkpoint_frozen(trained, tmp_path):
    ckpt_hash_before = hashlib.sha256(open(trained["final"], "rb").read()).hexdigest()
    report = T.probe(
        trained["final"], trained["paths"]["probe"], out_json=str(tmp_path / "report.json")
    )
    assert set(report) >= {
        "classes", "train_accuracy", "test_accuracy", "confusion_matrix", "n_train", "n_test",
    }
    saved = json.load(open(tmp_path / "report.json"))
    assert saved["classes"] == report["classes"]
    conf = np.asarray(report["confusion_matrix"])
    assert conf.sum() == report["n_test"]
    ckpt_hash_after = hashlib.sha256(open(trained["final"], "rb").read()).hexdigest()
    assert ckpt_hash_before == ckpt_hash_after  # frozen weights stay frozen


def test_probe_shuffled_labels_near_chance(trained, tmp_path):
    entries = open(trained["paths"]["probe"], encoding="utf-8").read().strip().splitlines()
    entries = [e for e in entries if not e.startswith("#")]
    rows = [e.split("\t") for e in entries]
    speakers = [r[1] for r in rows]
    shuffled = np.random.default_rng(0).permutation(speakers)
    manifest = tmp_path / "shuffled.tsv"
    manifest.write_text(
        "\n".join(f"{r[0]}\t{s}\t{r[2]}" for r, s in zip(rows, shuffled)) + "\n",
        encoding="utf-8",
    )
    report = T.probe(trained["final"], str(manifest), seed=1)
    n = report["n_test"]
    chance = 1.0 / len(report["classes"])
    sigma = np.sqrt(chance * (1 - chance) / n)
    assert report["test_accuracy"] <= chance + 3 * sigma


def test_pretrain_rejects_tiny_corpus(tmp_path, micro_corpus):
    lines = [
        l for l in open(micro_corpus["train"], encoding="utf-8").read().splitlines()
        if l and not l.startswith("#")
    ]
    manifest = tmp_path / "one.tsv"
    manifest.write_text(lines[0] + "\n", encoding="utf-8")
    cfg = micro_train_config(micro_corpus, tmp_path / "out")
    cfg.clean_manifest = str(manifest)
    with pytest.raises(EmptyCorpus):
        T.pretrain(cfg)


def test_pretrain_rejects_8khz_wav_before_any_output(micro_corpus, tmp_path):
    lines = [
        l for l in open(micro_corpus["train"], encoding="utf-8").read().splitlines()
        if l and not l.startswith("#")
    ]
    wav_path = tmp_path / "narrowband.wav"
    write_wav(Waveform(np.full(24000, 0.1, dtype=np.float32), 8000), str(wav_path))
    manifest = tmp_path / "mixed.tsv"
    manifest.write_text("\n".join(lines + [f"nb0\tspk0\t{wav_path}"]) + "\n", encoding="utf-8")
    cfg = micro_train_config(micro_corpus, tmp_path / "out")
    cfg.clean_manifest = str(manifest)
    with pytest.raises(SampleRateMismatch, match=r"narrowband\.wav: 8000 Hz"):
        T.pretrain(cfg)
    assert not (tmp_path / "out").exists()


def test_empty_noise_pool_fails_before_any_output(micro_corpus, tmp_path):
    cfg = micro_train_config(micro_corpus, tmp_path / "out", noise_manifest="")
    cfg.distortion.noise.p = 1.0
    with pytest.raises(EmptyPool):
        T.pretrain(cfg)
    assert not (tmp_path / "out" / "init.pckp").exists()
    assert not (tmp_path / "out" / "losses.csv").exists()
    with pytest.raises(EmptyPool):
        T.contaminate_corpus(cfg, micro_corpus["train"], str(tmp_path / "dirty"), seed=0)
    assert not (tmp_path / "dirty").exists()


def test_pretrain_aborts_on_nonfinite_loss(micro_corpus, tmp_path, monkeypatch):
    def poisoned(emb, clean, specs, heads, standardizer, sample_rate=16000):
        return {spec.name: Tensor(np.asarray(np.nan, dtype=np.float32)) for spec in specs}

    monkeypatch.setattr(T.W, "regression_losses", poisoned)
    cfg = micro_train_config(micro_corpus, tmp_path / "out", epochs=1)
    with pytest.raises(NonFiniteLoss):
        T.pretrain(cfg)
    dumps = [f for f in os.listdir(tmp_path / "out") if f.startswith("nonfinite")]
    assert len(dumps) == 1
    dump = json.load(open(tmp_path / "out" / dumps[0]))
    assert "losses" in dump and "utterances" in dump


def test_pretrain_aborts_on_nonfinite_gradient_before_the_update(micro_corpus, tmp_path,
                                                                  monkeypatch):
    # the loss stays finite; only the gradient into the gim head is poisoned
    gim_worker_loss = T.W.gim_worker_loss

    def poisoned(*args):
        loss = gim_worker_loss(*args)
        vjp = loss._vjp
        loss._vjp = lambda g: tuple(None if d is None else np.full_like(d, np.inf)
                                    for d in vjp(g))
        return loss

    monkeypatch.setattr(T.W, "gim_worker_loss", poisoned)
    updated = []
    monkeypatch.setattr(T.Adam, "step", lambda self, lr: updated.append(lr))
    cfg = micro_train_config(micro_corpus, tmp_path / "out", epochs=1)
    with pytest.raises(NonFiniteGradient, match="step 1"), np.errstate(invalid="ignore"):
        T.pretrain(cfg)
    assert updated == []
    dump = json.load(open(tmp_path / "out" / "nonfinite_step1.json"))
    assert all(np.isfinite(v) for v in dump["losses"].values())
    assert "workers/gim/fc2/w" in dump["parameters"]
    assert "encoder/block0/conv/w" in dump["parameters"]
    assert not [p for p in dump["parameters"] if p.startswith("workers/lps/")]
    assert not (tmp_path / "out" / "epoch_001.pckp").exists()


def test_train_step_releases_every_gradient_after_the_update(micro_corpus, tmp_path, monkeypatch):
    train_step = T.train_step
    released = []

    def checking(model, entries, dist, rng, adam, lr, cfg, step):
        losses = train_step(model, entries, dist, rng, adam, lr, cfg, step)
        released.append(adam.step_count == step
                        and all(p.grad is None for p in model.parameters()))
        return losses

    monkeypatch.setattr(T, "train_step", checking)
    T.pretrain(micro_train_config(micro_corpus, tmp_path / "out", epochs=2))
    assert released == [True, True]


def test_contaminate_corpus_validates_before_any_output(micro_corpus, tmp_path):
    cfg = micro_train_config(micro_corpus, tmp_path / "ck")
    cfg.distortion.clip.p = 1.5
    with pytest.raises(ConfigError):
        T.contaminate_corpus(cfg, micro_corpus["train"], str(tmp_path / "dirty"), seed=0)
    assert not (tmp_path / "dirty").exists()


def test_contaminate_corpus_all_off_is_bitwise_identity(micro_corpus, tmp_path):
    cfg = micro_train_config(micro_corpus, tmp_path / "ck")
    for name in ("reverb", "noise", "freq_mask", "temporal_mask", "clip", "overlap"):
        getattr(cfg.distortion, name).p = 0.0
    out_dir = tmp_path / "dirty"
    log_path = T.contaminate_corpus(cfg, micro_corpus["train"], str(out_dir), seed=0)
    for line in open(log_path, encoding="utf-8"):
        entry = json.loads(line)
        assert entry["applied"] == []
    for row in open(micro_corpus["train"], encoding="utf-8").read().splitlines():
        if not row or row.startswith("#"):
            continue
        utt, _, path = row.split("\t")
        original = read_wav(path)
        distorted = read_wav(str(out_dir / f"{utt}.wav"))
        assert np.array_equal(original.samples, distorted.samples)


def test_contaminate_corpus_seeded_runs_identical(micro_corpus, tmp_path):
    cfg = micro_train_config(micro_corpus, tmp_path / "ck")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    log_a = T.contaminate_corpus(cfg, micro_corpus["train"], str(out_a), seed=7)
    log_b = T.contaminate_corpus(cfg, micro_corpus["train"], str(out_b), seed=7)
    assert open(log_a).read() == open(log_b).read()
    names = [f for f in os.listdir(out_a) if f.endswith(".wav")]
    for name in names:
        assert open(out_a / name, "rb").read() == open(out_b / name, "rb").read()
