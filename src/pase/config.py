"""Key=value configuration files (INI sections) for training and the CLI.

The config file is the single source of hyperparameters; command-line flags
only pick files and seeds. Distortion sections default to the standard
activation probabilities: reverb 0.5, noise 0.4, freq mask 0.4, temporal
mask 0.2, clip 0.2, overlap 0.1.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .distortion import DEFAULT_BAND_POOL, DistortionConfig
from .encoder import EncoderConfig
from .errors import SingleUtteranceBatch


@dataclass
class TrainConfig:
    clean_manifest: str = ""
    noise_manifest: str = ""
    overlap_manifest: str = ""  # defaults to the clean manifest when empty
    checkpoint_dir: str = "checkpoints"
    batch_size: int = 32
    epochs: int = 30
    lr0: float = 1e-3
    schedule_power: float = 1.0
    seed: int = 0
    log_interval: int = 1
    rir_count: int = 50
    rir_max_order: int = 20
    stats_chunks_per_utterance: int = 1
    # contrastive samples per chunk per step; heads are tiny, so dense
    # sampling is nearly free and greatly speeds up the binary workers
    lim_triples_per_chunk: int = 24
    gim_negatives_per_chunk: int = 8
    distortion: DistortionConfig = field(default_factory=DistortionConfig)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)

    def validate(self) -> None:
        if self.batch_size < 2:
            # surfaced with the sampling error type: one-chunk batches can
            # never satisfy the contrastive workers
            raise SingleUtteranceBatch("batch_size must be >= 2 (contrastive workers)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        self.distortion.validate()
        self.encoder.validate()


_DISTORTION_SECTIONS = ("reverb", "noise", "freq_mask", "temporal_mask", "clip", "overlap")


def default_config_text() -> str:
    """A fully commented config with every default spelled out."""
    bands = " ".join(f"{lo:g}:{hi:g}" for lo, hi in DEFAULT_BAND_POOL)
    return f"""\
# pase training configuration (UTF-8, ini-style key=value sections)

[corpus]
# tab-separated manifests: utterance_id <TAB> speaker_id <TAB> wav_path
clean_manifest = train.tsv
noise_manifest = noise.tsv
# empty -> overlap speech is drawn from the clean corpus itself
overlap_manifest =

[train]
checkpoint_dir = checkpoints
batch_size = 32
epochs = 30
lr0 = 0.001
schedule_power = 1.0
seed = 0
log_interval = 1
# impulse-response pool generated at startup
rir_count = 50
rir_max_order = 20
stats_chunks_per_utterance = 1
# contrastive samples drawn per chunk at every step
lim_triples_per_chunk = 24
gim_negatives_per_chunk = 8

# --- distortions: each fires independently with probability p ---

[reverb]
enabled = true
p = 0.5

[noise]
enabled = true
p = 0.4
snr_low_db = 0
snr_high_db = 10

[freq_mask]
enabled = true
p = 0.4
# octave-wide band-stop pool, hz pairs lo:hi
bands = {bands}

[temporal_mask]
enabled = true
p = 0.2
max_fraction = 0.25

[clip]
enabled = true
p = 0.2
saturation_low = 0.3
saturation_high = 0.9

[overlap]
enabled = true
p = 0.1
gain_low_db = 3
gain_high_db = 15
"""


def _read_distortion(parser: configparser.ConfigParser) -> DistortionConfig:
    cfg = DistortionConfig()
    for name in _DISTORTION_SECTIONS:
        if not parser.has_section(name):
            continue
        section = parser[name]
        spec = getattr(cfg, name)
        spec.enabled = section.getboolean("enabled", spec.enabled)
        spec.p = section.getfloat("p", spec.p)
    if parser.has_section("noise"):
        s = parser["noise"]
        cfg.noise.snr_range_db = (
            s.getfloat("snr_low_db", cfg.noise.snr_range_db[0]),
            s.getfloat("snr_high_db", cfg.noise.snr_range_db[1]),
        )
    if parser.has_section("freq_mask") and parser["freq_mask"].get("bands"):
        bands = []
        for token in parser["freq_mask"]["bands"].split():
            lo, _, hi = token.partition(":")
            bands.append((float(lo), float(hi)))
        cfg.freq_mask.band_pool = tuple(bands)
    if parser.has_section("temporal_mask"):
        cfg.temporal_mask.max_fraction = parser["temporal_mask"].getfloat(
            "max_fraction", cfg.temporal_mask.max_fraction
        )
    if parser.has_section("clip"):
        s = parser["clip"]
        cfg.clip.saturation_range = (
            s.getfloat("saturation_low", cfg.clip.saturation_range[0]),
            s.getfloat("saturation_high", cfg.clip.saturation_range[1]),
        )
    if parser.has_section("overlap"):
        s = parser["overlap"]
        cfg.overlap.gain_range_db = (
            s.getfloat("gain_low_db", cfg.overlap.gain_range_db[0]),
            s.getfloat("gain_high_db", cfg.overlap.gain_range_db[1]),
        )
    return cfg


def load_train_config(path: str) -> TrainConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    with open(path, "r", encoding="utf-8") as fh:
        parser.read_file(fh)

    cfg = TrainConfig()
    if parser.has_section("corpus"):
        s = parser["corpus"]
        cfg.clean_manifest = s.get("clean_manifest", cfg.clean_manifest)
        cfg.noise_manifest = s.get("noise_manifest", cfg.noise_manifest)
        cfg.overlap_manifest = s.get("overlap_manifest", cfg.overlap_manifest) or ""
    if parser.has_section("train"):
        s = parser["train"]
        cfg.checkpoint_dir = s.get("checkpoint_dir", cfg.checkpoint_dir)
        cfg.batch_size = s.getint("batch_size", cfg.batch_size)
        cfg.epochs = s.getint("epochs", cfg.epochs)
        cfg.lr0 = s.getfloat("lr0", cfg.lr0)
        cfg.schedule_power = s.getfloat("schedule_power", cfg.schedule_power)
        cfg.seed = s.getint("seed", cfg.seed)
        cfg.log_interval = s.getint("log_interval", cfg.log_interval)
        cfg.rir_count = s.getint("rir_count", cfg.rir_count)
        cfg.rir_max_order = s.getint("rir_max_order", cfg.rir_max_order)
        cfg.stats_chunks_per_utterance = s.getint(
            "stats_chunks_per_utterance", cfg.stats_chunks_per_utterance
        )
        cfg.lim_triples_per_chunk = s.getint(
            "lim_triples_per_chunk", cfg.lim_triples_per_chunk
        )
        cfg.gim_negatives_per_chunk = s.getint(
            "gim_negatives_per_chunk", cfg.gim_negatives_per_chunk
        )
    cfg.distortion = _read_distortion(parser)
    return cfg
