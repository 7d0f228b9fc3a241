import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pase.features as F
from pase.audio_io import Waveform
from pase.errors import SampleRateMismatch, TooFewFrames, TooShort

from oracles import (
    naive_dct2_orthonormal,
    naive_deltas,
    naive_dft_power,
    reference_extract_feature,
)

SR = 16000


def wave_of(samples):
    return Waveform(np.asarray(samples, dtype=np.float32), SR)


def hamming_frames(samples):
    """25 ms Hamming frames on the 10 ms grid, without pre-emphasis."""
    return F._frame_raw(samples, 400, 160) * np.hamming(400)


def spectral(kind, frames):
    return F.SPECTRAL_MAPS[kind](F.power_spectrum(frames))


# --- framing -----------------------------------------------------------------


def test_frame_counts_canonical_chunk():
    frames = hamming_frames(np.zeros(32000))
    assert frames.shape == (200, 400)


def test_frame_single_window():
    frames = F._frame_raw(np.random.default_rng(0).uniform(-1, 1, 5000), 5000, 5000)
    assert frames.shape == (1, 5000)


def test_frames_of_constant_signal_identical():
    frames = hamming_frames(np.full(32000, 0.3))
    window = 0.3 * np.hamming(400)
    # every fully covered frame equals the windowed constant; the tail
    # frames that run past the signal are zero-padded and excluded
    for t in range(197):
        assert np.allclose(frames[t], window, atol=1e-7)


def test_frame_too_short_raises():
    with pytest.raises(TooShort):
        F.extract_feature(wave_of(np.zeros(100)), "lps")


# --- log power spectrum ---------------------------------------------------------


def test_lps_zero_frame_hits_floor():
    lps = spectral("lps", np.zeros((3, 400)))
    assert lps.shape == (3, 257)
    assert np.allclose(lps, np.log(F.LOG_FLOOR))


def test_lps_sine_at_bin_center_argmax():
    k = 40  # bin 40 of a 512-point FFT
    n = np.arange(400)
    frame = np.sin(2 * np.pi * k * n / 512)
    lps = spectral("lps", frame[None, :])
    assert int(np.argmax(lps[0])) == k


def test_lps_matches_naive_dft_oracle(rng):
    frame = rng.uniform(-1, 1, 400)
    lps = spectral("lps", frame[None, :])
    want = np.log(np.maximum(naive_dft_power(frame, 512), F.LOG_FLOOR))
    assert np.allclose(lps[0], want, rtol=1e-6, atol=1e-9)


def test_parseval_energy_identity(rng):
    frames = rng.uniform(-1, 1, (5, 400))
    power = np.exp(spectral("lps", frames))
    # reconstruct the full-spectrum sum from the positive bins
    full = power[:, 0] + power[:, -1] + 2.0 * power[:, 1:-1].sum(axis=1)
    time_energy = (frames**2).sum(axis=1)
    assert np.allclose(full / 512.0, time_energy, rtol=1e-6)


# --- mel filterbank / mfcc --------------------------------------------------------


def test_fbank_zero_frame_hits_floor():
    out = spectral("fbank", np.zeros((2, 400)))
    assert out.shape == (2, 40)
    assert np.allclose(out, np.log(F.LOG_FLOOR))


def test_fbank_white_noise_spread_under_20db(rng):
    frames = rng.standard_normal((100, 400))
    means = spectral("fbank", frames).mean(axis=0)
    assert np.all(np.isfinite(means))
    spread_db = 10.0 * (means.max() - means.min()) / np.log(10.0)
    assert spread_db < 20.0


@pytest.mark.parametrize("j", [3, 12, 25, 38])
def test_fbank_sine_at_center_argmax(j):
    _, centers = F.mel_filterbank()
    t = np.arange(SR) / SR
    wave = wave_of(0.5 * np.sin(2 * np.pi * centers[j] * t))
    out = spectral("fbank", hamming_frames(wave.samples))
    hits = np.argmax(out[5:90], axis=1)
    assert np.all(hits == j)


def test_mfcc_of_constant_mel_vector_is_dc_only():
    d = F.dct_matrix()
    coeffs = d @ np.full(40, 2.71)
    assert abs(coeffs[0]) > 0
    assert np.max(np.abs(coeffs[1:])) < 1e-12


def test_mfcc_matches_naive_dct_oracle(rng):
    frames = rng.uniform(-1, 1, (3, 400))
    got = spectral("mfcc", frames)
    logmel = spectral("fbank", frames)
    for t in range(3):
        want = naive_dct2_orthonormal(logmel[t])[:13]
        assert np.allclose(got[t], want, rtol=1e-9, atol=1e-12)


def test_mfcc_is_dct_of_fbank(rng):
    frames = rng.uniform(-1, 1, (4, 400))
    got = spectral("mfcc", frames)
    recomposed = spectral("fbank", frames) @ F.dct_matrix()[:13].T
    assert np.array_equal(got, recomposed)


def test_mfcc_zero_frame():
    out = spectral("mfcc", np.zeros((1, 400)))
    c0_expected = np.sqrt(40.0) * np.log(F.LOG_FLOOR)
    assert out[0, 0] == pytest.approx(c0_expected)
    assert np.max(np.abs(out[0, 1:])) < 1e-9


# --- gammatone ---------------------------------------------------------------------


def test_gammatone_zero_frame_hits_floor():
    out = spectral("gammatone", np.zeros((2, 400)))
    assert out.shape == (2, 40)
    assert np.allclose(out, np.log(F.LOG_FLOOR))


@pytest.mark.parametrize("j", [5, 15, 30])
def test_gammatone_sine_at_center_argmax(j):
    _, centers, _ = F.gammatone_filterbank()
    t = np.arange(SR) / SR
    wave = wave_of(0.5 * np.sin(2 * np.pi * centers[j] * t))
    out = spectral("gammatone", hamming_frames(wave.samples))
    hits = np.argmax(out[5:90], axis=1)
    assert np.all(hits == j)


def test_gammatone_center_response_within_3db_of_peak():
    weights, centers, taps = F.gammatone_filterbank()
    freqs = np.arange(257) * SR / 512
    # oracle: recompute the power response from the taps themselves
    recomputed = np.abs(np.fft.rfft(taps, n=512, axis=1)) ** 2
    recomputed /= recomputed.max(axis=1, keepdims=True)
    assert np.allclose(weights, recomputed)
    for j, fc in enumerate(centers):
        k = int(np.argmin(np.abs(freqs - fc)))
        assert weights[j, k] >= 10 ** (-3 / 10)  # within 3 dB of unit peak


# --- prosody -----------------------------------------------------------------------


def test_prosody_tracks_100hz_sine():
    t = np.arange(2 * SR) / SR
    out = F.prosody(wave_of(0.5 * np.sin(2 * np.pi * 100.0 * t)))
    assert out.shape == (200, 4)
    interior = slice(5, 195)
    f0 = np.exp(out[interior, 0])
    assert np.all(np.abs(f0 - 100.0) <= 2.0)
    assert np.all(out[interior, 1] > 0.9)


def test_prosody_white_noise_mostly_unvoiced(rng):
    out = F.prosody(wave_of(0.3 * rng.standard_normal(2 * SR)))
    voicing = out[:, 1]
    assert (voicing < 0.5).mean() >= 0.8


def test_prosody_dc_signal_zero_zcr():
    out = F.prosody(wave_of(np.full(SR, 0.25)))
    assert np.all(out[:, 3] == 0.0)


# --- deltas / context ------------------------------------------------------------------


def test_deltas_constant_track_is_zero():
    out = F.add_deltas(np.tile([1.5, -2.0], (30, 1)))
    assert out.shape == (30, 6)
    assert np.allclose(out[:, 2:], 0.0)


def test_deltas_linear_ramp_exact():
    a = 0.37
    track = (a * np.arange(40))[:, None]
    out = F.add_deltas(track)
    interior = slice(2, 38)
    assert np.allclose(out[interior, 1], a, atol=1e-12)  # delta == slope
    assert np.allclose(out[4:36, 2], 0.0, atol=1e-12)  # delta-delta == 0


def test_deltas_match_formula_oracle(rng):
    track = rng.standard_normal((25, 6))
    out = F.add_deltas(track)
    d1 = naive_deltas(track)
    d2 = naive_deltas(d1)
    assert np.allclose(out[:, 6:12], d1, atol=1e-12)
    assert np.allclose(out[:, 12:], d2, atol=1e-12)


def test_deltas_need_five_frames():
    with pytest.raises(TooFewFrames):
        F.add_deltas(np.zeros((4, 3)))


def test_stack_context_identity_and_shape(rng):
    track = rng.standard_normal((10, 3))
    stacked = F.stack_context(track)
    assert stacked.shape == (10, 21)
    assert np.array_equal(stacked[:, 9:12], track)  # the centre frame


def test_stack_context_edge_replication(rng):
    track = rng.standard_normal((10, 2))
    out = F.stack_context(track)
    # offsets -3..-1 at frame 0 all replicate frame 0
    assert np.array_equal(out[0, 0:2], track[0])
    assert np.array_equal(out[0, 2:4], track[0])
    assert np.array_equal(out[0, 4:6], track[0])
    assert np.array_equal(out[0, 6:8], track[0])  # the center itself
    assert np.array_equal(out[0, 8:10], track[1])
    # interior frame: plain neighborhood
    assert np.array_equal(out[5], track[2:9].reshape(-1))


# --- long-window variants -----------------------------------------------------------


def test_long_window_same_grid():
    wave = wave_of(np.random.default_rng(3).uniform(-0.5, 0.5, 32000))
    for kind in ("lps_long", "mfcc_long", "fbank_long", "gammatone_long"):
        assert F.extract_feature(wave, kind).shape[0] == 200


def test_long_window_reduces_variance_on_stationary_noise(rng):
    wave = wave_of(0.4 * rng.standard_normal(4 * SR))
    short = F.extract_feature(wave, "fbank")
    long = F.extract_feature(wave, "fbank_long")
    interior = slice(0, 350)  # skip the tail where the long window pads
    assert long[interior].var(axis=0).mean() < short[interior].var(axis=0).mean()


def test_long_window_zero_signal_hits_floor():
    out = F.extract_feature(wave_of(np.zeros(SR)), "lps_long")
    assert np.allclose(out, np.log(F.LOG_FLOOR))


def test_extract_feature_dispatch_and_dims():
    wave = wave_of(np.random.default_rng(5).uniform(-0.5, 0.5, 32000))
    dims = {"lps": 257, "mfcc": 13, "fbank": 40, "gammatone": 40, "prosody": 4,
            "lps_long": 257, "mfcc_long": 13, "fbank_long": 40, "gammatone_long": 40}
    for kind, d in dims.items():
        assert F.extract_feature(wave, kind).shape == (200, d), kind


@pytest.mark.parametrize("silent", [False, True])
@pytest.mark.parametrize("n", [400, 401, 3199, 32000, 40000])
def test_extract_feature_matches_per_kind_reference_bitwise(n, silent):
    """Every kind equals the separate short/long paths it replaced, byte for byte."""
    wave = wave_of(np.zeros(n) if silent else np.random.default_rng(n).uniform(-0.8, 0.8, n))
    for kind in F.FEATURE_KINDS:
        got = F.extract_feature(wave, kind)
        want = reference_extract_feature(wave, kind)
        assert got.dtype == want.dtype == np.float64, kind
        assert got.shape == want.shape, kind
        assert got.tobytes() == want.tobytes(), kind
        assert got.shape[1] == F.FEATURE_DIMS[kind]


@pytest.mark.parametrize("n", [32000, 8005, 400])
@pytest.mark.parametrize("b", [1, 3])
def test_batch_features_match_per_kind_reference_bitwise(b, n):
    """One framing and one FFT for the batch give every row each kind's bytes
    from its own per-kind pass."""
    batch = np.random.default_rng(n + b).uniform(-0.8, 0.8, (b, n)).astype(np.float32)
    batch[-1, : n // 2] = 0.0  # a silent stretch hits the log floor
    got = F.batch_features(batch, F.FEATURE_KINDS, SR)
    short_only = F.batch_features(batch, F.SHORT_KINDS, SR)  # framed without the long tail
    assert sorted(got) == sorted(F.FEATURE_KINDS)
    for kind in F.FEATURE_KINDS:
        assert got[kind].shape == (b, n // 160, F.FEATURE_DIMS[kind]), kind
        for i in range(b):
            want = reference_extract_feature(wave_of(batch[i]), kind)
            assert got[kind][i].tobytes() == want.tobytes(), (kind, i)
            if kind in F.SHORT_KINDS:
                assert short_only[kind][i].tobytes() == want.tobytes(), (kind, i)


def test_batch_features_reject_short_rows_other_rates_and_unknown_kinds():
    with pytest.raises(TooShort):
        F.batch_features(np.zeros((3, 399), np.float32), F.FEATURE_KINDS, SR)
    with pytest.raises(SampleRateMismatch):
        F.batch_features(np.zeros((3, 8000), np.float32), ("prosody", "lps_long"), 8000)
    assert F.batch_features(np.zeros((3, 8000), np.float32), ("prosody",), 8000)["prosody"].shape == (3, 100, 4)
    with pytest.raises(ValueError):
        F.batch_features(np.zeros((3, SR), np.float32), ("lps", "wave"), SR)


def test_extract_feature_rejects_short_input_and_unknown_kinds():
    short = wave_of(np.random.default_rng(1).uniform(-0.5, 0.5, 399))
    for kind in F.FEATURE_KINDS:
        with pytest.raises(TooShort):
            F.extract_feature(short, kind)
    wave = wave_of(np.zeros(SR))
    for kind in ("wave", "prosody_long", "foo"):
        with pytest.raises(ValueError):
            F.extract_feature(wave, kind)


@pytest.mark.parametrize("rate", [8000, 22050])
def test_spectral_kinds_reject_other_sample_rates(rng, rate):
    # the filterbanks and the 512-point FFT are built for 16 kHz
    wave = Waveform(rng.uniform(-0.5, 0.5, rate).astype(np.float32), rate)
    for kind in F.SHORT_KINDS + F.LONG_KINDS:
        with pytest.raises(SampleRateMismatch, match=f"{rate} Hz"):
            F.extract_feature(wave, kind)
    assert F.extract_feature(wave, "prosody").shape == (len(wave) // round(rate / 100), 4)


def test_translation_consistency_one_hop():
    rng = np.random.default_rng(9)
    samples = rng.uniform(-0.5, 0.5, 32000 + 160).astype(np.float32)
    base = F.extract_feature(wave_of(samples[:32000]), "fbank")
    shifted = F.extract_feature(wave_of(samples[160 : 160 + 32000]), "fbank")
    # shifting the input by one hop shifts interior frames by one index
    assert np.allclose(base[6:180], shifted[5:179], atol=1e-6)


@settings(deadline=None, max_examples=10)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_all_features_finite_on_random_input(seed):
    rng = np.random.default_rng(seed)
    wave = wave_of(rng.uniform(-1, 1, 8000))
    for kind in F.FEATURE_KINDS:
        assert np.all(np.isfinite(F.extract_feature(wave, kind))), kind
