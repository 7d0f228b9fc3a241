"""Room impulse responses via the rectangular-room image method.

Images are mirrored copies of the source on the lattice
(1 - 2p) * src + 2 n L per axis, p in {0,1}, n integer. Each image carries
amplitude beta^order / (4 pi d) with order the total reflection count, and is
placed at delay d / c through an 81-tap windowed-sinc fractional-delay
kernel, so integer delays collapse to single taps. Wall reflectivity comes
from the requested T60 through Sabine's relation with uniform absorption.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import GeometryError, UnphysicalT60

SPEED_OF_SOUND = 343.0
FRAC_DELAY_HALF = 40  # windowed-sinc support is +/- 40 samples
KERNEL_TAPS = 2 * FRAC_DELAY_HALF + 1
# kernel taps per vectorized (taps, images) block: building a 50-RIR pool
# on 2 threads peaked 4 MB above the one-tap-at-a-time loop with 9-tap
# blocks and 21 MB above it with blocks of all 81 taps
TAP_BLOCK_ROWS = 9
T60_RANGE = (0.3, 0.9)
IR_LENGTH_FACTOR = 1.25  # taps beyond t60*fs help the decay estimate
DC_BLOCK_HZ = 50.0


@dataclass(frozen=True)
class ImpulseResponse:
    taps: np.ndarray
    sample_rate: int
    target_t60: float


def sabine_absorption(room_dims, t60: float) -> float:
    lx, ly, lz = (float(v) for v in room_dims)
    volume = lx * ly * lz
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    alpha = 0.161 * volume / (surface * t60)
    if alpha > 1.0:
        raise UnphysicalT60(
            f"t60={t60}s in a {lx}x{ly}x{lz} room needs absorption {alpha:.2f} > 1"
        )
    return alpha


def _windowed_sinc(offsets: np.ndarray) -> np.ndarray:
    """sinc interpolation kernel under a raised-cosine taper of half-width 40."""
    w = np.where(
        np.abs(offsets) <= FRAC_DELAY_HALF,
        0.54 + 0.46 * np.cos(np.pi * offsets / FRAC_DELAY_HALF),
        0.0,
    )
    return np.sinc(offsets) * w


def _fft_convolve(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Full linear convolution of x and h, by FFT at the next power of two."""
    n = len(x) + len(h) - 1
    nfft = 1 << int(np.ceil(np.log2(max(n, 2))))
    y = np.fft.irfft(np.fft.rfft(x, nfft) * np.fft.rfft(h, nfft), nfft)
    return y[:n]


def _dc_block(x: np.ndarray, sample_rate: int, fc: float = DC_BLOCK_HZ) -> np.ndarray:
    """Causal one-pole DC blocker, y[n] = x[n] - x[n-1] + r y[n-1].

    Every image has positive amplitude, so the dense late tail piles up a DC
    pedestal that inflates the measured decay; removing it is part of the
    classic formulation. Implemented as FFT convolution with the truncated
    exponential kernel, which keeps the op vectorized and exact to ~1e-12.
    """
    r = 1.0 - 2.0 * np.pi * fc / sample_rate
    z = np.empty_like(x)
    z[0] = x[0]
    z[1:] = x[1:] - x[:-1]
    k_len = min(len(x), int(np.ceil(np.log(1e-12) / np.log(r))) + 1)
    return _fft_convolve(z, r ** np.arange(k_len))[: len(x)]


def generate_rir_image_method(
    room_dims,
    source_pos,
    mic_pos,
    t60: float,
    max_order: int = 20,
    sample_rate: int = 16000,
    highpass: bool = True,
) -> ImpulseResponse:
    """Simulate one impulse response for a rectangular room.

    `source_pos` and `mic_pos` must be strictly inside `room_dims` (meters);
    `t60` is the target reverberation time in [0.3, 0.9] s. `highpass=False`
    skips the DC blocker and returns the raw image-source superposition.
    """
    room = np.asarray(room_dims, dtype=np.float64)
    src = np.asarray(source_pos, dtype=np.float64)
    mic = np.asarray(mic_pos, dtype=np.float64)
    if room.shape != (3,) or src.shape != (3,) or mic.shape != (3,):
        raise ValueError("room, source and mic must be 3-vectors")
    if np.any(src <= 0.0) or np.any(src >= room):
        raise GeometryError(f"source {src.tolist()} outside room {room.tolist()}")
    if np.any(mic <= 0.0) or np.any(mic >= room):
        raise GeometryError(f"mic {mic.tolist()} outside room {room.tolist()}")
    if not (T60_RANGE[0] <= t60 <= T60_RANGE[1]):
        raise ValueError(f"t60 {t60} outside supported range {T60_RANGE}")

    beta = np.sqrt(1.0 - sabine_absorption(room, t60))
    n_taps = int(np.ceil(IR_LENGTH_FACTOR * t60 * sample_rate)) + KERNEL_TAPS
    max_dist = (n_taps / sample_rate) * SPEED_OF_SOUND

    # lattice bounds: reachable distance and the reflection-order cap
    order_bound = (max_order + 1) // 2 + 1
    spans = []
    for axis in range(3):
        reach = int(np.ceil(max_dist / (2.0 * room[axis]))) + 1
        n_lim = min(reach, order_bound)
        spans.append(np.arange(-n_lim, n_lim + 1))
    nx, ny, nz = np.meshgrid(*spans, indexing="ij")
    lattice = np.stack([nx.ravel(), ny.ravel(), nz.ravel()], axis=1)
    # wall reflections along one axis of image n with parity p: |n - p| + |n|,
    # i.e. 2|n| for p = 0 and |n - 1| + |n| for p = 1
    bounces = [(2 * np.abs(n), np.abs(n - 1) + np.abs(n)) for n in spans]

    taps = np.zeros(n_taps)
    min_dist = SPEED_OF_SOUND / sample_rate  # clamp the 1/d singularity
    for p in product((0, 1), repeat=3):
        p_arr = np.asarray(p)
        bx, by, bz = (b[parity] for b, parity in zip(bounces, p))
        # total reflection order, in the lattice's (ij-raveled) image order
        order = (bx[:, None, None] + by[None, :, None] + bz[None, None, :]).ravel()
        keep = order <= max_order
        if not keep.any():
            continue
        pos = (1.0 - 2.0 * p_arr) * src + 2.0 * lattice[keep] * room
        dist = np.linalg.norm(pos - mic, axis=1)
        delay = dist * (sample_rate / SPEED_OF_SOUND)
        inside = delay < n_taps - 1
        if not inside.any():
            continue
        delay = delay[inside]
        amp = beta ** order[keep][inside] / (4.0 * np.pi * np.maximum(dist[inside], min_dist))
        base = np.ceil(delay - FRAC_DELAY_HALF).astype(np.int64)
        # images with equal base delays share a tap bin at every kernel tap j
        ubase, group = np.unique(base, return_inverse=True)
        for j0 in range(0, KERNEL_TAPS, TAP_BLOCK_ROWS):
            j = np.arange(j0, min(j0 + TAP_BLOCK_ROWS, KERNEL_TAPS))[:, None]
            contrib = amp * _windowed_sinc((base + j) - delay)  # (rows, images)
            # row-major, so each (j, bin) sum adds its images in image order,
            # as one bincount per tap j would
            bins = (group + (j - j0) * len(ubase)).ravel()
            sums = np.bincount(bins, weights=contrib.ravel(), minlength=len(j) * len(ubase))
            n = ubase + j
            valid = (n >= 0) & (n < n_taps)
            # unbuffered and row-major: every tap takes its sums in j order
            np.add.at(taps, n[valid], sums.reshape(n.shape)[valid])

    if highpass:
        taps = _dc_block(taps, sample_rate)
    return ImpulseResponse(taps=taps, sample_rate=sample_rate, target_t60=t60)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def default_rir_pool(
    rng: np.random.Generator,
    count: int = 50,
    max_order: int = 20,
    sample_rate: int = 16000,
) -> list[ImpulseResponse]:
    """Deterministic pool over a grid of rooms and reverberation times.

    Rooms span [3..8] x [3..6] x [2.5..4] m with T60 in {0.3, 0.45, 0.6,
    0.75, 0.9} s; source and mic are placed uniformly inside with a 0.5 m
    wall margin; a room whose T60 needs absorption above 1 is redrawn.

    Every room is drawn from `rng` first, then the responses are built on
    a thread per usable CPU (numpy's trig loops release the GIL) and
    returned in draw order. The pool and the Generator's final state are
    byte-identical to a one-thread build.
    """
    t60s = (0.3, 0.45, 0.6, 0.75, 0.9)
    rooms = []
    i = 0
    while len(rooms) < count:
        room = np.array(
            [
                rng.uniform(3.0, 8.0),
                rng.uniform(3.0, 6.0),
                rng.uniform(2.5, 4.0),
            ]
        )
        t60 = t60s[i % len(t60s)]
        i += 1
        margin = 0.5
        src = rng.uniform(margin, room - margin)
        mic = rng.uniform(margin, room - margin)
        try:
            sabine_absorption(room, t60)
        except UnphysicalT60:
            continue
        rooms.append((room, src, mic, t60))

    def build(args) -> ImpulseResponse:
        return generate_rir_image_method(*args, max_order, sample_rate)

    # imported on first use: at module level it changed the heap layout of
    # processes that never build a pool, and moved extract's peak RSS by 33 MB
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max(1, min(len(rooms), _usable_cpus()))) as pool:
        return list(pool.map(build, rooms))
