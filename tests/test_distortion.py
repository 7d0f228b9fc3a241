import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pase.audio_io import Chunk, Waveform
from pase.distortion import (
    DISTORTION_ORDER,
    DistortionConfig,
    apply_clip,
    apply_freq_mask,
    apply_overlap,
    apply_reverb,
    apply_temporal_mask,
    contaminate,
    mix_noise,
    replay_log,
)
from pase.errors import (
    EmptyPool,
    InvalidBand,
    OutOfRange,
    SampleRateMismatch,
    SilentNoise,
    SilentOverlap,
)
from pase.rir import ImpulseResponse

from oracles import measured_snr_db, naive_full_convolution, reference_contaminate

SR = 16000


def wave_of(samples):
    return Waveform(np.asarray(samples, dtype=np.float32), SR)


def rir_of(taps):
    return ImpulseResponse(np.asarray(taps, dtype=np.float64), SR, 0.3)


@pytest.fixture()
def speech(rng):
    # moderate level so equal-power mixes stay inside [-1, 1] (no clamping)
    return wave_of(0.3 * np.sin(2 * np.pi * 220 * np.arange(SR) / SR) * (1 + 0.2 * rng.standard_normal(SR)))


# --- reverb ------------------------------------------------------------------


def test_reverb_unit_impulse_is_identity(speech):
    out = apply_reverb(speech, rir_of([1.0]))
    # FFT convolution leaves ~1e-16 roundoff, so equality is numerical
    assert np.allclose(out.samples, speech.samples, atol=1e-7)


def test_reverb_single_delay_shifts(rng):
    x = rng.uniform(-0.5, 0.5, 1000).astype(np.float32)
    x[0] = 0.9  # keep the peak away from the truncated tail
    out = apply_reverb(wave_of(x), rir_of([0.0, 1.0]))
    assert np.allclose(out.samples[1:], x[:-1], atol=1e-6)
    assert abs(out.samples[0]) < 1e-7


def test_reverb_matches_naive_convolution(rng):
    x = rng.uniform(-0.5, 0.5, 700)
    h = rng.uniform(-0.3, 0.3, 90)
    out = apply_reverb(wave_of(x), rir_of(h))
    want = naive_full_convolution(x.astype(np.float64), h)[:700]
    want *= np.max(np.abs(x)) / np.max(np.abs(want))
    assert np.max(np.abs(out.samples - want)) < 1e-6


def test_reverb_sample_rate_mismatch(speech):
    with pytest.raises(SampleRateMismatch):
        apply_reverb(speech, ImpulseResponse(np.ones(3), 8000, 0.3))


# --- additive noise ---------------------------------------------------------------


def test_mix_noise_zero_db_equal_power(rng):
    # quiet operands: the sum must stay inside [-1, 1] or the clamp would
    # disturb the power measurement this contract is about
    quiet = wave_of(0.1 * np.sin(2 * np.pi * 220 * np.arange(SR) / SR))
    noise = wave_of(rng.standard_normal(SR) * 0.05)
    out = mix_noise(quiet, noise, 0.0)
    assert np.abs(out.samples).max() < 1.0
    added = out.samples.astype(np.float64) - quiet.samples
    p_speech = np.mean(quiet.samples.astype(np.float64) ** 2)
    p_added = np.mean(added**2)
    assert abs(p_added - p_speech) / p_speech < 1e-9


def test_mix_noise_silent_noise_rejected(speech):
    with pytest.raises(SilentNoise):
        mix_noise(speech, wave_of(np.zeros(1000)), 5.0)


def test_mix_noise_ten_db_measured(speech, rng):
    noise = wave_of(rng.standard_normal(2 * SR) * 0.2)
    out = mix_noise(speech, noise, 10.0)
    snr = measured_snr_db(out.samples, speech.samples)
    assert abs(snr - 10.0) <= 0.01


def test_mix_noise_loops_short_noise(speech):
    noise = wave_of(np.sin(2 * np.pi * 1000 * np.arange(500) / SR) * 0.3)
    out = mix_noise(speech, noise, 6.0)
    assert len(out.samples) == len(speech.samples)
    assert np.all(np.abs(out.samples) <= 1.0)


# --- frequency mask ---------------------------------------------------------------


def test_freq_mask_invalid_bands(speech):
    with pytest.raises(InvalidBand):
        apply_freq_mask(speech, (9000.0, 10000.0))  # above Nyquist
    with pytest.raises(InvalidBand):
        apply_freq_mask(speech, (2000.0, 1000.0))
    with pytest.raises(InvalidBand):
        apply_freq_mask(speech, (0.0, 1000.0))


def test_freq_mask_stopband_and_passband():
    t = np.arange(SR) / SR
    band = (1000.0, 2000.0)
    inside = wave_of(0.5 * np.sin(2 * np.pi * 1500.0 * t))
    out = apply_freq_mask(inside, band)
    rms_in = np.sqrt(np.mean(inside.samples[2000:-2000] ** 2))
    rms_out = np.sqrt(np.mean(out.samples[2000:-2000] ** 2))
    assert 20 * np.log10(rms_out / rms_in) <= -20.0

    below = wave_of(0.5 * np.sin(2 * np.pi * 500.0 * t))  # one octave below f_lo
    out2 = apply_freq_mask(below, band)
    rms_b_in = np.sqrt(np.mean(below.samples[2000:-2000] ** 2))
    rms_b_out = np.sqrt(np.mean(out2.samples[2000:-2000] ** 2))
    assert abs(20 * np.log10(rms_b_out / rms_b_in)) <= 1.0


def test_freq_mask_group_delay_compensated():
    rng = np.random.default_rng(1)
    x = rng.uniform(-0.5, 0.5, 4000).astype(np.float32)
    out = apply_freq_mask(wave_of(x), (6000.0, 7500.0))
    assert len(out.samples) == 4000
    # a high band-stop leaves the low-frequency bulk aligned with the input
    corr_zero = np.corrcoef(out.samples[500:3500], x[500:3500])[0, 1]
    corr_lag = np.corrcoef(out.samples[500 + 127 : 3500 + 127], x[500:3500])[0, 1]
    assert corr_zero > 0.9 and corr_zero > corr_lag


# --- temporal mask ---------------------------------------------------------------


def test_temporal_mask_contracts(speech):
    n = len(speech.samples)
    full = apply_temporal_mask(speech, 0, n)
    assert np.all(full.samples == 0.0)

    none = apply_temporal_mask(speech, 100, 0)
    assert np.array_equal(none.samples, speech.samples)

    with pytest.raises(OutOfRange):
        apply_temporal_mask(speech, n - 10, 20)


@settings(deadline=None, max_examples=20)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_temporal_mask_preserves_outside(seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, 3000).astype(np.float32)
    start = int(rng.integers(0, 2000))
    length = int(rng.integers(0, 3000 - start))
    out = apply_temporal_mask(wave_of(x), start, length)
    assert np.all(out.samples[start : start + length] == 0.0)
    assert np.array_equal(out.samples[:start], x[:start])
    assert np.array_equal(out.samples[start + length :], x[start + length :])


# --- clipping ----------------------------------------------------------------------


def test_clip_identity_at_full_saturation(speech):
    out = apply_clip(speech, 1.0)
    assert np.array_equal(out.samples, speech.samples)


def test_clip_constant_signal_unchanged():
    const = wave_of(np.full(1000, 0.4))
    out = apply_clip(const, 0.5)
    assert np.allclose(out.samples, const.samples, atol=1e-7)


def test_clip_generates_odd_harmonics():
    t = np.arange(SR) / SR
    sine = wave_of(0.8 * np.sin(2 * np.pi * 500.0 * t))
    out = apply_clip(sine, 0.5)
    spec = np.abs(np.fft.rfft(out.samples.astype(np.float64))) ** 2
    fundamental = spec[500]  # 1 Hz per bin on a 1 s signal
    third = spec[1500]
    assert 10 * np.log10(third / fundamental) > -30.0


def test_clip_rejects_bad_saturation(speech):
    with pytest.raises(ValueError):
        apply_clip(speech, 0.0)
    with pytest.raises(ValueError):
        apply_clip(speech, 1.2)


# --- overlap -----------------------------------------------------------------------


def test_overlap_negligible_at_60db(speech, rng):
    other = wave_of(rng.uniform(-0.5, 0.5, SR))
    out = apply_overlap(speech, other, 60.0)
    rms = np.sqrt(np.mean((out.samples - speech.samples) ** 2))
    assert rms < 1e-3


def test_overlap_self_sum_at_zero_db():
    x = wave_of(np.full(1000, 0.2))
    out = apply_overlap(x, x, 0.0)
    assert np.allclose(out.samples, 0.4, atol=1e-7)  # 2x wave, no clamp needed


def test_overlap_power_ratio_measured(speech, rng):
    other = wave_of(rng.standard_normal(SR) * 0.2)
    out = apply_overlap(speech, other, 6.0)
    ratio = measured_snr_db(out.samples, speech.samples)
    assert abs(ratio - 6.0) <= 0.01


def test_overlap_silent_rejected(speech):
    with pytest.raises(SilentOverlap):
        apply_overlap(speech, wave_of(np.zeros(400)), 6.0)


# --- contaminate ------------------------------------------------------------------


def small_pools_config(rng):
    cfg = DistortionConfig()
    cfg.reverb.rir_pool = [rir_of([1.0, 0.4, 0.2]), rir_of([0.8, 0.0, 0.3, 0.1])]
    cfg.noise.noise_pool = [
        wave_of(rng.standard_normal(5000) * 0.3),
        wave_of(np.sin(2 * np.pi * 300 * np.arange(4000) / SR) * 0.4),
    ]
    cfg.overlap.speech_pool = [
        (wave_of(rng.standard_normal(6000) * 0.2), "spkA"),
        (wave_of(rng.standard_normal(6000) * 0.2), "spkB"),
    ]
    return cfg


def chunk_of(samples):
    return Chunk("utt0", 0, np.asarray(samples, dtype=np.float32), SR)


def test_contaminate_all_off_is_identity(rng):
    cfg = small_pools_config(rng)
    for name in DISTORTION_ORDER:
        getattr(cfg, name).p = 0.0
        assert not getattr(cfg, name).enabled
    chunk = chunk_of(rng.uniform(-0.8, 0.8, 32000))
    gen = np.random.default_rng(0)
    state = gen.bit_generator.state
    out, applied = contaminate(chunk, cfg, gen)
    assert applied == []
    assert np.array_equal(out.samples, chunk.samples)
    assert gen.bit_generator.state == state  # a distortion at p = 0 draws nothing


def test_contaminate_deterministic(rng):
    cfg = small_pools_config(rng)
    chunk = chunk_of(rng.uniform(-0.8, 0.8, 32000))
    out1, log1 = contaminate(chunk, cfg, np.random.default_rng(42), speaker_id="spkA")
    out2, log2 = contaminate(chunk, cfg, np.random.default_rng(42), speaker_id="spkA")
    assert log1 == log2
    assert np.array_equal(out1.samples, out2.samples)


def test_contaminate_replay_reproduces_exactly(rng):
    cfg = small_pools_config(rng)
    for seed in range(12):
        chunk = chunk_of(rng.uniform(-0.9, 0.9, 8000))
        out, applied = contaminate(chunk, cfg, np.random.default_rng(seed), speaker_id="spkA")
        replayed = replay_log(chunk, cfg, applied)
        assert np.array_equal(out.samples, replayed.samples), f"seed {seed}"


def test_contaminate_output_bounded_and_finite(rng):
    cfg = small_pools_config(rng)
    for seed in range(8):
        chunk = chunk_of(rng.uniform(-1.0, 1.0, 8000))
        out, _ = contaminate(chunk, cfg, np.random.default_rng(seed))
        assert np.all(np.isfinite(out.samples))
        assert np.all(np.abs(out.samples) <= 1.0)


def test_contaminate_empty_pool_rejected(rng):
    cfg = small_pools_config(rng)
    cfg.reverb.rir_pool = []
    with pytest.raises(EmptyPool):
        contaminate(chunk_of(np.zeros(4000)), cfg, np.random.default_rng(0))


def test_contaminate_overlap_excludes_same_speaker(rng):
    cfg = small_pools_config(rng)
    cfg.overlap.p = 1.0
    for name in ("reverb", "noise", "freq_mask", "temporal_mask", "clip"):
        getattr(cfg, name).p = 0.0
    chunk = chunk_of(rng.uniform(-0.5, 0.5, 8000))
    for seed in range(6):
        _, applied = contaminate(chunk, cfg, np.random.default_rng(seed), speaker_id="spkA")
        assert applied[0]["kind"] == "overlap"
        assert applied[0]["speech_index"] == 1  # spkB is the only candidate

    cfg.overlap.speech_pool = [cfg.overlap.speech_pool[0]]  # only spkA left
    with pytest.raises(EmptyPool):
        contaminate(chunk, cfg, np.random.default_rng(0), speaker_id="spkA")


def test_contaminate_activation_rates_binomial(rng):
    cfg = small_pools_config(rng)
    p_true = {"reverb": 0.5, "noise": 0.4, "freq_mask": 0.4,
              "temporal_mask": 0.2, "clip": 0.2, "overlap": 0.1}
    n = 1500
    counts = dict.fromkeys(p_true, 0)
    gen = np.random.default_rng(777)
    chunk = chunk_of(rng.uniform(-0.6, 0.6, 4000))  # short chunk keeps this fast
    for _ in range(n):
        _, applied = contaminate(chunk, cfg, gen)
        for entry in applied:
            counts[entry["kind"]] += 1
    for kind, p in p_true.items():
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(counts[kind] / n - p) <= 3 * sigma, kind


@pytest.mark.parametrize("p", [1.0, 0.6, None, pytest.param((0.0, 1.0), id="odd-off"),
                               pytest.param((1.0, 0.0), id="even-off")])
@pytest.mark.parametrize("speaker_id", [None, "spkA"])
def test_contaminate_matches_interleaved_reference(rng, p, speaker_id):
    """Drawing the whole log before applying it gives the audio, the log and
    the Generator state of drawing and applying each distortion in turn;
    p=None keeps the default per-distortion probabilities, and a pair
    alternates its two values over the six distortions, so three are off."""
    cfg = small_pools_config(rng)
    if p is not None:
        pair = p if isinstance(p, tuple) else (p, p)
        for i, name in enumerate(DISTORTION_ORDER):
            getattr(cfg, name).p = pair[i % 2]
    gen, ref_gen = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(25):
        chunk = chunk_of(rng.uniform(-0.9, 0.9, int(rng.integers(400, 9000))))
        out, applied = contaminate(chunk, cfg, gen, speaker_id=speaker_id)
        want, want_applied = reference_contaminate(chunk, cfg, ref_gen, speaker_id=speaker_id)
        assert applied == want_applied
        assert out.samples.dtype == want.samples.dtype
        assert out.samples.tobytes() == want.samples.tobytes()
        assert gen.bit_generator.state == ref_gen.bit_generator.state


def test_enabled_is_read_only(rng):
    cfg = small_pools_config(rng)
    with pytest.raises(AttributeError):
        cfg.clip.enabled = False
