"""Key=value configuration files (INI sections) for training and the CLI.

The config file is the single source of hyperparameters; command-line flags
only pick files and seeds. The file layout is derived from the dataclasses,
so each key and its default are declared once, as a field: `[corpus]` holds
the manifests, `[train]` every other scalar `TrainConfig` field, and one
section per distortion holds that spec's fields. A `(low, high)` field
`x_range[_unit]` is the two keys `x_low[_unit]` and `x_high[_unit]`.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, field, fields, is_dataclass

from .distortion import DISTORTION_ORDER, DistortionConfig
from .encoder import EncoderConfig
from .errors import ConfigError, SingleUtteranceBatch
from .files import read_file


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
            raise ConfigError("epochs must be >= 1")
        for name in ("log_interval", "stats_chunks_per_utterance",
                     "lim_triples_per_chunk", "gim_negatives_per_chunk"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        # a rate <= 0 trains by gradient ascent or not at all, and raises nothing;
        # NaN raises only after an update has spoiled every parameter
        if not (self.lr0 > 0 and math.isfinite(self.lr0)):
            raise ConfigError(f"lr0 must be finite and > 0, got {self.lr0}")
        if not (self.schedule_power >= 0 and math.isfinite(self.schedule_power)):
            raise ConfigError(f"schedule_power must be finite and >= 0, got {self.schedule_power}")
        if self.rir_max_order < 0:
            # no image source would be kept: every RIR all zeros, every reverb silence
            raise ConfigError(f"rir_max_order must be >= 0, got {self.rir_max_order}")
        self.distortion.validate()
        self.encoder.validate()


# the comment written above a key, or above a section and a blank line
_COMMENTS = {
    "clean_manifest": "tab-separated manifests: utterance_id <TAB> speaker_id <TAB> wav_path",
    "overlap_manifest": "empty -> overlap speech is drawn from the clean corpus itself",
    "rir_count": "impulse-response pool generated at startup",
    "lim_triples_per_chunk": "contrastive samples drawn per chunk at every step",
    DISTORTION_ORDER[0]: "--- distortions: each fires independently with probability p ---",
    "bands": "octave-wide band-stop pool, hz pairs lo:hi",
}
# values the generated file shows in place of an empty default
_EXAMPLES = {"clean_manifest": "train.tsv", "noise_manifest": "noise.tsv"}


def _slots(cfg: TrainConfig):
    """Every key of the file, in file order, as (section, key, owner, field,
    index): the value is `owner.field`, or its element `index` when the
    field is a (low, high) range. The start-up pools are not config."""
    scalars = [f.name for f in fields(cfg) if not is_dataclass(getattr(cfg, f.name))]
    for name in sorted(scalars, key=lambda n: not n.endswith("_manifest")):
        yield "corpus" if name.endswith("_manifest") else "train", name, cfg, name, None
    for section in DISTORTION_ORDER:
        spec = getattr(cfg.distortion, section)
        for f in fields(spec):
            if isinstance(getattr(spec, f.name), list):
                continue
            if "_range" in f.name:
                yield section, f.name.replace("range", "low"), spec, f.name, 0
                yield section, f.name.replace("range", "high"), spec, f.name, 1
            else:  # a pool of (lo, hi) pairs, `x_pool`, is the key `xs`
                yield section, f.name.replace("_pool", "s"), spec, f.name, None


def _get(owner, name: str, index: int | None):
    value = getattr(owner, name)
    return value if index is None else value[index]


def _set(owner, name: str, index: int | None, value) -> None:
    if index is not None:
        pair = list(getattr(owner, name))
        pair[index] = value
        value = tuple(pair)
    setattr(owner, name, value)


def _render(value) -> str:
    if isinstance(value, tuple):
        return " ".join(f"{lo:g}:{hi:g}" for lo, hi in value)
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _parse(section: configparser.SectionProxy, key: str, default):
    """The value of `key` as the type of `default`."""
    text = section[key]
    if isinstance(default, tuple):
        pairs = (token.partition(":") for token in text.split())
        return tuple((float(lo), float(hi)) for lo, _, hi in pairs)
    return type(default)(text)


def default_config_text() -> str:
    """A fully commented config with every default spelled out."""
    lines = ["# pase training configuration (UTF-8, ini-style key=value sections)"]
    current = None
    for section, key, owner, name, index in _slots(TrainConfig()):
        if section != current:
            current = section
            if section in _COMMENTS:
                lines += ["", f"# {_COMMENTS[section]}"]
            lines += ["", f"[{section}]"]
        if key in _COMMENTS:
            lines.append(f"# {_COMMENTS[key]}")
        value = _EXAMPLES.get(key) or _render(_get(owner, name, index))
        lines.append(f"{key} = {value}".rstrip())
    return "\n".join(lines) + "\n"


def load_train_config(path: str) -> TrainConfig:
    """Read a config file over the defaults. An unknown key in a known
    section, or a value that does not parse, raises `ConfigError`; unknown
    sections (such as an older file's `[probe]`) are ignored. A file that
    does not parse as INI, such as one with a key repeated in a section,
    raises `ConfigError` too."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        # universal newlines, as a text-mode open gives: with a lone CR as
        # the line break, read_string would see one line and drop every key
        text = io.StringIO(read_file(path).decode("utf-8"), newline=None)
        parser.read_file(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None

    cfg = TrainConfig()
    slots = {(section, key): slot for section, key, *slot in _slots(cfg)}
    known = {section for section, _ in slots}
    for section in parser.sections():
        if section not in known:
            continue
        for key in parser[section]:
            if (section, key) not in slots:
                raise ConfigError(f"{path}: [{section}] {key}: unknown key")
            owner, name, index = slots[section, key]
            try:
                value = _parse(parser[section], key, _get(owner, name, index))
            except (ValueError, configparser.InterpolationError) as exc:
                # interpolation stays on, so a lone `%` is an error; `%%` is a `%`
                raise ConfigError(f"{path}: [{section}] {key}: {exc}") from None
            _set(owner, name, index, value)
    return cfg
