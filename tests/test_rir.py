import numpy as np
import pytest

from pase import rir
from pase.errors import GeometryError, UnphysicalT60
from pase.rir import default_rir_pool, generate_rir_image_method, sabine_absorption

from oracles import reference_rir_image_method, reference_rir_pool, schroeder_t60

ROOM = (6.0, 5.0, 3.0)
SRC = (1.0, 1.0, 1.5)


def test_direct_path_only_single_tap_at_zero():
    # mic on top of the source, no images: one tap at delay 0
    ir = generate_rir_image_method(ROOM, SRC, SRC, t60=0.6, max_order=0, highpass=False)
    nonzero = np.nonzero(np.abs(ir.taps) > 1e-12)[0]
    assert list(nonzero) == [0]


def test_first_arrival_at_distance_over_c():
    # 3.43 m at 16 kHz is exactly 160 samples of delay
    mic = (4.43, 1.0, 1.5)
    ir = generate_rir_image_method(ROOM, SRC, mic, t60=0.6, max_order=0)
    nonzero = np.nonzero(np.abs(ir.taps) > 1e-12)[0]
    assert nonzero[0] == 160


def test_ir_length_covers_t60():
    ir = generate_rir_image_method(ROOM, SRC, (4.0, 3.0, 1.2), t60=0.5, max_order=6)
    assert len(ir.taps) >= int(0.5 * ir.sample_rate)
    assert ir.target_t60 == 0.5
    assert np.all(np.isfinite(ir.taps))


def test_schroeder_t60_within_25_percent():
    room = (5.0, 4.0, 3.0)
    ir = generate_rir_image_method(
        room, (1.5, 1.6, 1.5), (3.5, 2.4, 1.35), t60=0.6, max_order=45
    )
    estimate = schroeder_t60(ir.taps, ir.sample_rate)
    assert abs(estimate - 0.6) / 0.6 < 0.25


def test_geometry_errors():
    with pytest.raises(GeometryError):
        generate_rir_image_method(ROOM, (7.0, 1.0, 1.0), (1.0, 1.0, 1.0), 0.5)
    with pytest.raises(GeometryError):
        generate_rir_image_method(ROOM, (1.0, 1.0, 1.0), (1.0, 5.0, 1.0), 0.5)
    with pytest.raises(GeometryError):
        generate_rir_image_method(ROOM, (1.0, 0.0, 1.0), (1.0, 1.0, 1.0), 0.5)


def test_unphysical_t60():
    # a 12 m concrete cube cannot decay in 0.3 s: Sabine absorption > 1
    big = (12.0, 12.0, 12.0)
    with pytest.raises(UnphysicalT60):
        sabine_absorption(big, 0.3)
    with pytest.raises(UnphysicalT60):
        generate_rir_image_method(big, (3.0, 3.0, 3.0), (6.0, 6.0, 6.0), 0.3)


def test_t60_outside_supported_range():
    with pytest.raises(ValueError):
        generate_rir_image_method(ROOM, SRC, (2.0, 2.0, 1.0), 0.1)
    with pytest.raises(ValueError):
        generate_rir_image_method(ROOM, SRC, (2.0, 2.0, 1.0), 1.5)


def test_default_pool_deterministic():
    a = default_rir_pool(np.random.default_rng(7), count=6, max_order=8)
    b = default_rir_pool(np.random.default_rng(7), count=6, max_order=8)
    assert len(a) == 6
    for ir_a, ir_b in zip(a, b):
        assert np.array_equal(ir_a.taps, ir_b.taps)
        assert ir_a.target_t60 == ir_b.target_t60
    t60s = {ir.target_t60 for ir in a}
    assert len(t60s) >= 3  # grid covers several reverberation times


def assert_same_pool(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.taps.dtype == b.taps.dtype
        assert a.taps.tobytes() == b.taps.tobytes()
        assert a.target_t60 == b.target_t60
        assert a.sample_rate == b.sample_rate


@pytest.mark.parametrize("max_order", [0, 1, 8, 12, 20])
@pytest.mark.parametrize("sample_rate", [8000, 16000, 22050])
@pytest.mark.parametrize("highpass", [True, False])
def test_taps_match_reference_bitwise(max_order, sample_rate, highpass):
    # a mic next to the source puts kernel taps before tap 0; in the large
    # room at a short t60, order-20 images put kernel taps past the last one
    cases = ((ROOM, (1.2, 1.1, 1.5), 0.3), ((9.0, 8.0, 6.0), (8.9, 7.9, 0.1), 0.3))
    for room, mic, t60 in cases:
        args = (room, SRC, mic, t60, max_order, sample_rate, highpass)
        got = generate_rir_image_method(*args)
        assert_same_pool([got], [reference_rir_image_method(*args)])


@pytest.mark.parametrize("max_order", [6, 20])
def test_reflection_orders_match_reference_in_three_rooms(max_order):
    # reflection counts come from per-axis tables; the reference sums them
    # over the whole image lattice for every parity
    rooms = (
        ((3.2, 4.1, 2.6), (0.7, 3.3, 1.9), (2.5, 0.6, 0.8), 0.3),
        ((7.9, 5.5, 3.9), (4.0, 2.0, 1.0), (1.1, 4.9, 3.1), 0.6),
        ((5.0, 3.0, 2.5), (2.5, 1.5, 1.25), (2.6, 1.4, 1.2), 0.9),
    )
    for room, src, mic, t60 in rooms:
        args = (room, src, mic, t60, max_order)
        assert_same_pool(
            [generate_rir_image_method(*args)], [reference_rir_image_method(*args)]
        )


@pytest.mark.parametrize(
    "seed,max_order,sample_rate,count",
    [
        (1, 0, 16000, 5),
        (7, 1, 8000, 5),
        (1, 8, 22050, 4),
        (7, 12, 16000, 4),
        (7, 20, 8000, 3),
        (1, 20, 16000, 50),
    ],
)
def test_pool_matches_reference_bitwise(seed, max_order, sample_rate, count):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = default_rir_pool(rng, count, max_order, sample_rate)
    assert_same_pool(got, reference_rir_pool(ref_rng, count, max_order, sample_rate))
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_pool_on_one_worker_is_identical(monkeypatch):
    many = default_rir_pool(np.random.default_rng(3), count=5, max_order=8)
    monkeypatch.setattr(rir, "_usable_cpus", lambda: 1)
    assert_same_pool(default_rir_pool(np.random.default_rng(3), count=5, max_order=8), many)


def rejecting_every_other_room():
    """sabine_absorption that rejects the 2nd, 4th, ... distinct room it
    sees, however often it is asked about each one."""
    seen = {}

    def check(room_dims, t60):
        verdict = seen.setdefault(tuple(np.asarray(room_dims).tolist()), len(seen) % 2)
        if verdict:
            raise UnphysicalT60("rejected by the test")
        return sabine_absorption(room_dims, t60)

    return check, seen


def test_pool_retries_rejected_rooms_like_reference(monkeypatch):
    check, seen = rejecting_every_other_room()
    monkeypatch.setattr(rir, "sabine_absorption", check)
    rng = np.random.default_rng(1)
    got = default_rir_pool(rng, count=4, max_order=8)
    assert len(seen) == 7

    check, ref_seen = rejecting_every_other_room()
    monkeypatch.setattr(rir, "sabine_absorption", check)
    ref_rng = np.random.default_rng(1)
    assert_same_pool(got, reference_rir_pool(ref_rng, count=4, max_order=8))
    assert list(seen) == list(ref_seen)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
