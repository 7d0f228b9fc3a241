import numpy as np
import pytest

from pase.audio_io import Waveform


@pytest.fixture(scope="session")
def micro_corpus(tmp_path_factory):
    """Tiny corpus for unit-level trainer tests: 4 utterances, 2 speakers."""
    from pase.toygen import make_toy_corpus

    root = tmp_path_factory.mktemp("micro_corpus")
    paths = make_toy_corpus(
        str(root),
        seed=11,
        n_speakers=2,
        train_per_speaker=2,
        probe_per_speaker=4,
        train_seconds=4.0,
        probe_seconds=3.0,
    )
    return paths


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


def sine_wave(freq, seconds=1.0, sr=16000, amp=0.5):
    t = np.arange(int(seconds * sr)) / sr
    return Waveform((amp * np.sin(2 * np.pi * freq * t)).astype(np.float32), sr)


@pytest.fixture()
def make_sine():
    return sine_wave
