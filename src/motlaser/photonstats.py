"""Photon-counting layer: intensity traces, click streams, g2 correlation.

Chaotic light is modelled as the squared modulus of a complex
Ornstein-Uhlenbeck field (the minimal model with exact Siegert behavior,
g2(tau) = 1 + exp(-2 tau / tau_c)); laser light as a constant rate with a
small optional ripple; a Poisson control as a constant rate.

All randomness flows through numpy's counter-based Philox generator keyed
on an explicit seed, so every product is reproducible bit for bit.

The correlator histograms the delays between two detectors' clicks after
quantizing each timestamp to a bin index.  Quantizing before differencing
makes the zero-lag bin average the correlation function with a triangular
kernel, which is exactly what :func:`binning_washout` predicts for chaotic
light.  The histogram h[k] counts the pairs whose bin indices differ by k,
|k| <= kmax, and has two exact algorithms:

- dense: the cross-correlation h[k] = sum_t c_a[t] c_b[t + k] of per-bin
  count vectors (the time-tag correlator of Wahl et al., Opt. Express 11,
  3583 (2003) and Laurence et al., Opt. Lett. 31, 829 (2006)).  Per block
  of bins and tile of lags it is one matrix product of a's counts, laid
  out as rows, with b's counts in overlapping rows, and h is the sum of
  the product's diagonals (see :func:`_pair_hist_dense`).  Every product
  and partial sum is a non-negative integer.  Within a block it is at most
  the block's a-clicks times b's largest bin count, and the block runs in
  float32 when that bound is below 2**24; the diagonals are summed in
  float64, where every sum is at most Na * Nb.  So the result is exact in
  any summation order while Na * Nb < 2**53.  Cost O(bins x lags).
- sweep: a search of each a-click's lag window in the sorted b-stream,
  cost O(Na + Nb + pairs in the window).

A cost estimate picks between them (see :func:`_use_dense`); both give
the same integer counts.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
# numpy loads its random module on first use; import it here so that the
# cost falls on start-up, not on the first command that synthesizes clicks
from numpy.random import Generator, Philox

from .errors import ConfigError, PhysicsError

# numba is not used; perfbench/worker.py still reports this flag.
_HAVE_NUMBA = False

REGIMES = ("thermal", "laser", "poisson")

_CLICKS_MAGIC = b"CLKS"
_CLICKS_VERSION = 1
_HEADER = struct.Struct("<4sIIQQ")


def _rng(seed):
    return Generator(Philox(key=np.uint64(seed)))


@dataclass(frozen=True)
class IntensityTrace:
    """Sampled photon rate, counts/s, on a regular grid."""

    sample_period: float
    samples: np.ndarray
    regime: str

    def __post_init__(self):
        if self.sample_period <= 0:
            raise ValueError("sample_period must be positive")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        # skips NaN as np.any(samples < 0) does, without building a mask
        # of the trace's length
        if np.fmin.reduce(self.samples, initial=0.0) < 0:
            raise ValueError("intensity samples must be >= 0")

    @property
    def duration(self) -> float:
        return self.sample_period * self.samples.size


@dataclass(frozen=True)
class ClickStream:
    """Detector timestamps in seconds, strictly increasing, in [0, duration]."""

    detector_id: int
    timestamps: np.ndarray
    duration: float

    def __post_init__(self):
        t = self.timestamps
        if t.size:
            if np.any(t[1:] <= t[:-1]):
                raise ValueError("timestamps must be strictly increasing")
            if t[0] < 0 or t[-1] > self.duration:
                raise ValueError("timestamps must lie within [0, duration]")
        if self.duration <= 0:
            raise ValueError("duration must be positive")

    @property
    def mean_rate(self) -> float:
        return self.timestamps.size / self.duration


@dataclass(frozen=True)
class CorrelationResult:
    """Binned g2 estimate, symmetric about zero lag."""

    lags: np.ndarray             # bin centers, s
    g2: np.ndarray
    sigma: np.ndarray            # sqrt(counts)-based absolute uncertainty
    counts: np.ndarray           # raw pair counts per bin
    bin_width: float
    total_pairs: int


# Thermal synthesis holds the real noise, which the intensity overwrites
# (8 bytes per sample), and one chunk buffer of the imaginary noise
# (8.4 MB, see _thermal_power); ru_maxrss grew by 8.0 bytes per sample
# from 1e7 to 2e7 samples, to 207 MB, which extrapolates to about 447 MB
# at this cap, 37 MB of it the interpreter and imports.  The largest trace of
# the benchmark workloads and the tests is 6.7e6 samples (g2 at 2 s with
# tau_c = 3 us).  A longer one is refused before anything is allocated.
MAX_SAMPLES = 50_000_000


# The thermal synthesis draws and filters the imaginary noise about this
# many samples at a time, in whole AR(1) blocks, and at least this many
# blocks (see _thermal_chunk)
_THERMAL_CHUNK = 1 << 20
_THERMAL_MIN_BLOCKS = 16

# poissonize draws the counts of this many samples at a time through one
# rate buffer (512 KiB, within the second-level cache)
_POISSON_CHUNK = 1 << 16


def trace_samples(duration: float, sample_period: float) -> int:
    """Samples of the trace :func:`simulate_intensity` synthesizes: the
    whole number of periods nearest to ``duration``, so the trace lasts
    ``sample_period`` times that.  Raises :class:`PhysicsError`, before
    anything is allocated, if it is not positive or above
    :data:`MAX_SAMPLES`."""
    if not (sample_period > 0 and duration > 0):
        raise PhysicsError("sample_period and duration must be positive")
    count = duration / sample_period
    if count > MAX_SAMPLES:
        raise PhysicsError(
            f"{count:.3g} samples of {sample_period:g} s exceed the cap of "
            f"{MAX_SAMPLES:g} samples per trace")
    n = int(round(count))
    if n < 1:
        raise PhysicsError("duration shorter than one sample period")
    return n


def simulate_intensity(regime: str, mean_rate: float, coherence_time: float,
                       duration: float, sample_period: float, seed: int,
                       laser_ripple: float = 1e-2) -> IntensityTrace:
    """Synthesize an intensity trace for one statistical regime.

    thermal: |alpha|^2 of a complex Ornstein-Uhlenbeck field with
    correlation time ``coherence_time``, stationary mean ``mean_rate``
    (ideal g2(0) = 2).  laser: constant rate with a relative rms ripple.
    poisson: constant rate.  The thermal regime insists on
    sample_period <= coherence_time / 10 and duration >= 100 * coherence
    times so the process is neither undersampled nor unconverged.  A
    rate that is not positive and finite, a negative ripple and a trace of
    more than :data:`MAX_SAMPLES` samples raise :class:`PhysicsError`.

    The thermal field is filtered in chunks, its intensity written over
    its real noise; its start, drawn last, is fixed by one walk, and at
    most one rerun follows (see :func:`_thermal_power`).  Every sample
    equals one run of the whole recursion bit for bit.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if not 0 < mean_rate < math.inf:
        raise PhysicsError(f"mean_rate must be positive and finite, got "
                           f"{mean_rate!r}")
    if not laser_ripple >= 0:
        raise PhysicsError(f"laser_ripple must be >= 0, got {laser_ripple!r}")
    n = trace_samples(duration, sample_period)

    if regime == "poisson":
        samples = np.full(n, mean_rate)
    elif regime == "laser":
        rng = _rng(seed)
        ripple = laser_ripple * rng.standard_normal(n)
        # a rate that overflows is infinite, which the clicks cap refuses
        with np.errstate(over="ignore"):
            samples = np.clip(mean_rate * (1.0 + ripple), 0.0, None)
    else:
        if coherence_time <= 0:
            raise PhysicsError("thermal regime needs a positive coherence time")
        if sample_period > coherence_time / 10.0:
            raise PhysicsError(
                f"sample_period {sample_period:g} undersamples coherence "
                f"time {coherence_time:g} (need <= tau_c/10)")
        if duration < 100.0 * coherence_time:
            raise PhysicsError(
                f"duration {duration:g} too short for coherence time "
                f"{coherence_time:g} (need >= 100 tau_c)")
        samples = _thermal_power(
            n, np.exp(-sample_period / coherence_time), np.sqrt(mean_rate),
            seed)
    return IntensityTrace(sample_period, samples, regime)


def _thermal_power(n: int, a: float, sigma_field: float, seed: int,
                   start=None) -> np.ndarray:
    """The thermal branch's n intensity samples: |y|^2 of the exact AR(1)
    update y[k] = x[k] + a * y[k - 1] of the complex field, from the
    stationary start y[-1] drawn after the noise x.

    The noise (g_re + 1j g_im) * scale is held as its real and imaginary
    parts, each scaled in place with the same bits.  The real part is
    drawn whole; the imaginary part is drawn, and the recursion run by
    :func:`_ar1_power`, one chunk of :func:`_thermal_chunk` samples at a
    time, each chunk from the exact state leaving the one before, and the
    chunk's |y|^2 is written over its real noise as it is drained.  So the
    synthesis holds the real noise and one chunk buffer, about 8 bytes per
    sample (16 for a trace of one chunk or less).  This and
    :func:`poissonize`, which holds about as much above the trace, are the
    peak of a ``g2`` or ``clicks`` run; the CLI releases the trace before
    the click files and the correlator.

    The first pass runs from y[-1] = 0 and keeps a copy of chunk 0's first
    block, which :func:`_ar1_walk` then walks from the drawn start until
    that chain meets the one from 0: they differ by a**k * start after k
    steps, and a block spans four warm-ups of 2**-64 each (see
    :func:`_ar1_layout`).  If they do not meet in the block and the trace
    is longer, or if a block redo outran the noise it keeps (the pass then
    only draws the rest of the noise, so that the start comes from the
    same place in the stream), the synthesis runs once more with the start
    known.  That pass writes |y|^2 to a chunk buffer of its own, so no redo
    can fail, in chunks of half as many blocks, so that its two buffers
    hold no more than the first pass's one.
    """
    rng = _rng(seed)
    scale = sigma_field * np.sqrt((1.0 - a * a) / 2.0)
    re = rng.standard_normal(n)
    re *= scale
    chunk = _thermal_chunk(a, 1 if start is None else 2)
    im = np.empty(min(n, chunk))
    state, p = (0j, None) if start is None else (start, np.empty_like(im))
    for i0 in range(0, n, chunk):
        x = re[i0:i0 + chunk]
        y = im[:x.size]
        rng.standard_normal(out=y)
        if state is None:
            continue
        y *= scale
        if i0 == 0 and start is None:
            # before the drain overwrites the real noise
            block = slice(_ar1_layout(x.size, a)[1])
            head = x[block].copy(), y[block].copy()
        state = _ar1_power(x, y, a, state, None if p is None else p[:x.size])
        if p is not None:
            x[:] = p[:x.size]
    if start is not None:
        return re
    start = (rng.standard_normal() + 1j * rng.standard_normal()) \
        * (sigma_field / np.sqrt(2.0))
    if state is not None and (_ar1_walk(*head, re[block], a, start, 0j)
                              is None or block.stop >= n):
        return re
    # the views too, so that the rerun finds nothing of this pass held
    del x, y, im, re, head
    return _thermal_power(n, a, sigma_field, seed, start)


def _thermal_chunk(a: float, buffers: int = 1) -> int:
    """Samples per chunk of :func:`_thermal_power` for pole ``a``: a whole
    number of the blocks :func:`_ar1_power` splits such a chunk into, about
    :data:`_THERMAL_CHUNK` samples but at least :data:`_THERMAL_MIN_BLOCKS`
    blocks over ``buffers`` chunk buffers.  So no chunk but the last runs a
    serial tail, and a pole near one, whose blocks are long, still runs
    many blocks side by side."""
    block = _ar1_layout(_THERMAL_CHUNK, a)[1]
    return max(_THERMAL_CHUNK // block, _THERMAL_MIN_BLOCKS) // buffers * block


# The blocked AR(1) recursion runs about this many blocks side by side.
_AR1_BLOCKS = 4096
# It advances them by slabs of _AR1_TILE_STEPS steps, each filled, and its
# |y|^2 drained, in tiles of this many blocks by this many steps: one tile's
# source rows stay within TLB reach, and a slab of all the blocks (2 MB
# complex at 4096) within the second-level cache.  Tiles of 96 to 256
# blocks by 24 to 64 steps ran alike; tiles of all 4096 blocks ran about
# twice as long.
_AR1_TILE_BLOCKS = 256
_AR1_TILE_STEPS = 32


def _ar1_layout(n: int, a: float) -> tuple:
    """(warm, block length) of :func:`_ar1_power` for ``n`` samples and
    pole ``a``.

    A warm-up of ``warm`` steps shrinks the state it starts from by
    a**warm <= 2**-64, far below the rounding of the state it converges to.
    """
    warm = math.ceil(64.0 * math.log(2.0) / -math.log(a))
    return warm, max(4 * warm, -(-n // _AR1_BLOCKS))


def _power(y, out) -> None:
    # |y|^2 as np.abs(y) ** 2 rounds it; np.abs gives the same bits for
    # any memory layout, np.hypot(re, im) does not
    np.abs(y, out=out)
    np.multiply(out, out, out=out)


def _same(u: float, v: float) -> bool:
    # equal bit patterns, for the finite values the recursion produces
    return u == v and math.copysign(1.0, u) == math.copysign(1.0, v)


def _ar1_walk(re, im, p, a, state, guess=None):
    """Walk y[k] = x[k] + a * y[k - 1], x = re + 1j im, one step at a time
    from the complex ``state`` = y[-1], writing |y|^2 to ``p``; return the
    state leaving the last sample.  Given the ``guess`` of y[-1] that
    ``p`` was filled from, stop where the two chains meet, as they are
    identical from there on, and return None."""
    a = float(a)
    yr, yi = state.real, state.imag
    # a NaN chain meets no other
    gr, gi = (math.nan,) * 2 if guess is None else (guess.real, guess.imag)
    res = []
    for xr, xi in zip(re.tolist(), im.tolist()):
        yr = xr + a * yr
        yi = xi + a * yi
        gr = xr + a * gr
        gi = xi + a * gi
        if _same(yr, gr) and _same(yi, gi):
            break
        res.append(complex(yr, yi))
    _power(np.array(res, complex), p[:len(res)])
    return complex(yr, yi) if len(res) == re.size else None


def _ar1_advance(re2, im2, a, state, power=None):
    """The state after the steps of the (blocks, steps) arrays ``re2`` and
    ``im2``, the real and imaginary parts of x, from ``state``, the float64
    view of one complex state per block (not written to); |y|^2 after each
    step goes to ``power`` if given.  ``power`` may be ``re2`` itself: a
    slab's noise is read before its |y|^2 is written, and no later slab
    reads it.

    Each slab of steps is gathered, tile by tile, into one complex buffer,
    reused for every slab, in which one step of every block is one
    contiguous row; the recursion then runs in place over its float64
    view, and the slab's |y|^2, taken while it is in cache, is written back
    through the same tiles.
    """
    blocks, steps = re2.shape
    tiles = [slice(b, b + _AR1_TILE_BLOCKS)
             for b in range(0, blocks, _AR1_TILE_BLOCKS)]
    buffer = np.empty((_AR1_TILE_STEPS, blocks), complex)
    mag = None if power is None else np.empty(buffer.shape)
    tmp = np.empty_like(state)
    for k0 in range(0, steps, _AR1_TILE_STEPS):
        k = slice(k0, k0 + _AR1_TILE_STEPS)
        slab = buffer[:min(_AR1_TILE_STEPS, steps - k0)]
        for b in tiles:
            slab.real[:, b] = re2[b, k].T
            slab.imag[:, b] = im2[b, k].T
        for row in slab.view(np.float64):
            np.multiply(state, a, out=tmp)
            np.add(row, tmp, out=row)
            state = row
        # the next slab overwrites the buffer
        state = state.copy()
        if power is not None:
            m = mag[:len(slab)]
            _power(slab, m)
            for b in tiles:
                power[b, k] = m[:, b].T
    return state


def _ar1_power(re: np.ndarray, im: np.ndarray, a: float, start: complex,
               out=None) -> complex | None:
    """|y|^2 for y[k] = x[k] + a * y[k - 1] with y[-1] = ``start``, per
    real component, for x = re + 1j im held as two float64 arrays, written
    to ``out``, or over ``re`` if ``out`` is None; returns the state y[-1]
    leaving the last sample.  Neither x nor y is ever stored as a complex
    array of their length, and ``im`` is only read, as is ``re`` when
    ``out`` is given.

    y is the recursion scipy.signal.lfilter([1], [1, -a], x,
    zi=[a * start]) computes, with the same roundings, so the result equals
    np.abs(lfilter(...)) ** 2 bit for bit, and a trace run in pieces, each
    from the state leaving the one before, equals one run of the whole.
    The samples are split into blocks run side by side as one vector,
    advanced by slabs of steps that are filled from ``re`` and ``im`` in
    tiles (see :func:`_ar1_advance`).  Each block after the first starts
    from a warm-up run from zero over the previous block's last ``warm``
    samples (see :func:`_ar1_layout`).  Then, in order, a block whose
    warm-up state differs in any bit from the true state leaving the
    previous block is walked again from that true state by
    :func:`_ar1_walk` until the chains meet, so by induction every sample
    is exact.  Inputs shorter than two blocks, and the samples after the
    last whole block, are walked serially.

    Written over ``re``, each block's first two slabs of steps keep their
    noise: their |y|^2 is held in a buffer of two slabs per block and
    copied into ``re`` once every redo is done.  A redo whose chains still
    differ after those steps returns None, with ``re`` holding neither the
    noise nor |y|^2; with an ``out``, no redo can fail.  The 32 redos of
    g2-sparse's thermal trace at seeds 1-20 met within 27 steps.
    """
    n = re.size
    warm, length = _ar1_layout(n, a)
    blocks = n // length
    if out is None:
        out = re
    if blocks < 2:
        return _ar1_walk(re, im, out, a, complex(start))
    end = blocks * length
    re2, im2, p2 = (v[:end].reshape(blocks, length) for v in (re, im, out))
    # the steps of each block a redo can read, and where their |y|^2 goes
    if out is re:
        kept = min(length, 2 * _AR1_TILE_STEPS)
        held = np.empty((blocks, kept))
    else:
        kept, held = length, p2
    starts = np.empty(blocks, complex)
    starts[0] = start
    tail = slice(length - warm, None)
    starts.view(np.float64)[2:] = _ar1_advance(
        re2[:-1, tail], im2[:-1, tail], a, np.zeros(2 * (blocks - 1)))
    ends = _ar1_advance(re2[:, :kept], im2[:, :kept], a,
                        starts.view(np.float64), power=held)
    ends = _ar1_advance(re2[:, kept:], im2[:, kept:], a, ends,
                        power=p2[:, kept:])
    bad = (starts[1:].view(np.uint64) != ends[:-2].view(np.uint64)) \
        .reshape(-1, 2).any(axis=1).tolist()
    ends = ends.view(complex).tolist()
    starts = starts.tolist()
    state, changed = ends[0], False
    for j in range(1, blocks):
        if changed or bad[j - 1]:
            block = slice(j * length, j * length + kept)
            true_end = _ar1_walk(re[block], im[block], held[j], a,
                                 state, starts[j])
            changed = true_end is not None
            if changed and kept < length:
                return None
        state = true_end if changed else ends[j]
    if held is not p2:
        p2[:, :kept] = held
    return _ar1_walk(re[end:], im[end:], out[end:], a, state)


# Above its trace, poissonize peaks at about 21 bytes per click (the
# times, the routing mask, the two streams and np.compress's index of one):
# ru_maxrss grew by 20.0 bytes per click from 4e6 to 8e6 clicks over 2^20
# samples, so this many clicks need about 1.1 GB.  Criterion 7 draws 1.1e7.  A trace that
# expects more is refused before any draw.
MAX_CLICKS = 50_000_000


def poissonize(trace: IntensityTrace, seed: int) -> tuple:
    """Sample the trace as an inhomogeneous Poisson process, split 50/50.

    Photons are drawn per sample slot and placed uniformly inside it, then
    each click is routed independently to detector A or B (the two-counter
    beam-splitter arrangement).  Exact duplicate timestamps (possible at
    float resolution) are dropped to keep streams strictly increasing.
    A trace whose expected click count exceeds :data:`MAX_CLICKS` raises
    :class:`PhysicsError`; the check draws nothing.

    The counts are drawn through one rate buffer of :data:`_POISSON_CHUNK`
    samples, and each chunk's slot starts, repeated by their counts, are
    written into one times array sized from the expected count (see
    :func:`_slot_clicks`); the uniform offsets are added to it
    :data:`_POISSON_CHUNK` at a time.  So above the trace this holds about
    1 MB and the bytes per click given at :data:`MAX_CLICKS`, about what a
    thermal synthesis of the trace held above it (see
    :func:`_thermal_power`): 9.0 against 9.2 MB for the 6.7e6 samples and
    4.0e5 clicks of a 2 s ``g2`` at tau_c = 3 us.
    """
    p = trace.sample_period
    expected = trace.samples.sum() * p
    if not expected <= MAX_CLICKS:
        raise PhysicsError(
            f"{expected:.3g} expected clicks exceed the cap of "
            f"{MAX_CLICKS:g} clicks per trace")
    rng = _rng(seed)
    # the generator draws in sequence, so chunked calls give the streams of
    # one call.  Each time is its slot's start plus uniform * p; the sum
    # commutes, so the offsets are added to the repeated starts
    times = _slot_clicks(trace.samples, p, rng, expected)
    offset = np.empty(min(times.size, _POISSON_CHUNK))
    for i0 in range(0, times.size, _POISSON_CHUNK):
        u = offset[:times.size - i0]
        rng.random(out=u)
        u *= p
        times[i0:i0 + _POISSON_CHUNK] += u
    times.sort()
    later = times[1:] > times[:-1]
    if not later.all():
        times = times[np.concatenate(([True], later))]
    del later
    # random() is (raw >> 11) * 2**-53, so this is random() < 0.5 drawn
    # from the same words, without the conversion to float
    to_b = rng.bit_generator.random_raw(times.size) < 2**63
    dur = trace.duration
    return (ClickStream(0, np.compress(~to_b, times), dur),
            ClickStream(1, np.compress(to_b, times), dur))


def _click_capacity(expected: float) -> int:
    """Clicks the times array of :func:`poissonize` is first allocated for:
    ``expected`` and ten of its Poisson standard deviations, and 1024."""
    return int(expected + 10.0 * math.sqrt(expected) + 1024)


def _slot_clicks(samples: np.ndarray, p: float, rng,
                 expected: float) -> np.ndarray:
    """The start time of each sample slot, repeated by its Poisson count,
    in one array first allocated for :func:`_click_capacity` clicks and
    grown if they are more.  The means samples * p are formed in one rate
    buffer of :data:`_POISSON_CHUNK` samples, with the rounding of
    ``samples * p``, and each chunk's repeated starts are written into the
    array."""
    rate = np.empty(min(samples.size, _POISSON_CHUNK))
    times = np.empty(_click_capacity(expected))
    end = 0
    for i0 in range(0, samples.size, _POISSON_CHUNK):
        r = rate[:samples.size - i0]
        np.multiply(samples[i0:i0 + _POISSON_CHUNK], p, out=r)
        c = rng.poisson(r)
        nz = np.flatnonzero(c != 0)
        slots = np.repeat((nz + i0) * p, c[nz])
        if end + slots.size > times.size:
            grown = np.empty(max(2 * times.size, end + slots.size))
            grown[:end] = times[:end]
            times = grown
        times[end:end + slots.size] = slots
        end += slots.size
    return times[:end]


# ---------------------------------------------------------------------------
# Correlator
# ---------------------------------------------------------------------------

# Unit costs of the two kernels, fitted on laser-light streams at 100 and
# 500 kHz with 2.6 us bins over 3-4001 lags (2-vCPU x86-64 VM, one BLAS
# thread, numpy 2.4 with OpenBLAS 0.3): the sweep spends 124 ns per
# a-click (the window searches) and 9.8 ns per pair; the dense path
# 11.6 ns per bin (counting and copies) and 0.056 ns per bin x lag (the
# matrix products).  The dense costs were fitted on float64 blocks; the
# float32 blocks that most streams now take cost less, so they are upper
# bounds, and the path choice is left as it was.
_SWEEP_NS_PER_CLICK = 120.0
_SWEEP_NS_PER_PAIR = 12.0
_DENSE_NS_PER_BIN = 12.0
_DENSE_NS_PER_BIN_LAG = 0.056
# Dense blocks of 65536 bins as rows of at most 128 bins, and tiles of at
# most 1024 lags: the overlapping b rows and the product of one tile stay
# below 6 MB however wide the lag window.
_DENSE_BLOCK = 65_536
_DENSE_WIDTH = 128
_DENSE_LAG_TILE = 1024


def _use_dense(na: int, nb: int, nbins: int, lags: int) -> bool:
    """Whether the dense path is exact and expected to beat the sweep.

    The sweep searches Na windows and finds about Na * Nb * lags / nbins
    pairs; the dense path counts nbins bins and fills nbins * lags cells.
    With the unit costs above the dense path wins up to nbins of about
    10 (3 lags) to 14 (771 lags) times sqrt(Na * Nb) for streams of equal
    size.  Exactness needs every float64 partial sum, at most Na * Nb,
    below 2**53.
    """
    if na * nb >= 2**53:
        return False
    pairs = na * nb * lags / nbins
    dense = nbins * (_DENSE_NS_PER_BIN + _DENSE_NS_PER_BIN_LAG * lags)
    return dense < na * _SWEEP_NS_PER_CLICK + pairs * _SWEEP_NS_PER_PAIR


def _block_dtype(na: int, cb_max: int):
    """float32 if every partial sum of one dense block's product, at most
    ``na`` a-clicks times b's largest bin count ``cb_max``, is below 2**24
    and so exact in float32; float64 otherwise."""
    return np.float32 if na * cb_max < 2**24 else np.float64


def _pair_hist_dense(fa, fb, kmax, hist, block=_DENSE_BLOCK,
                     lag_tile=_DENSE_LAG_TILE):
    """Add the delay histogram of ``fa`` against ``fb`` into ``hist`` from
    per-bin counts, as one matrix product per block and lag tile.

    a's bin range is walked in blocks of ``block`` bins.  Per block, a's
    counts c_a and b's counts c_b over the block widened by +-kmax give
    h[j] = sum_t c_a[t] c_b[t + j] for lag index j = k + kmax.  With the
    block's bins t = s W + r laid out as an (S, W) array A (zero-padded
    to whole rows), and for the lags j0 <= j < j0 + T of one tile the
    overlapping rows B[s] = c_b[s W + j0 : s W + j0 + W + T - 1] as a
    contiguous (S, W + T - 1) array, the product M = A^T B holds
    M[r, r + d] = sum_s c_a[s W + r] c_b[s W + r + j0 + d], so h[j0 + d]
    is the sum of M's d-th diagonal.  A tile computes W - 1 columns beyond
    its lags, so W = min(128, lags); tiling the lags by ``lag_tile``
    keeps B and M at a few MB whatever the window.  Every product and
    partial sum of M is an integer no larger than the block's a-clicks
    times max(c_b), so M is exact in float32 when that bound is below
    2**24 (see :func:`_block_dtype`) and in float64 otherwise, in any
    summation order the BLAS takes.  The diagonals are summed in float64,
    where every sum is at most Na * Nb; the caller guarantees
    Na * Nb < 2**53.
    """
    lags = hist.size
    width = min(_DENSE_WIDTH, lags)
    first, stop = int(fa[0]), int(fa[-1]) + 1
    edges = np.append(np.arange(first, stop, block), stop)
    ia = np.searchsorted(fa, edges)
    ib_lo = np.searchsorted(fb, edges[:-1] - kmax)
    ib_hi = np.searchsorted(fb, edges[1:] + kmax)
    acc = np.zeros(lags)
    for s in range(edges.size - 1):
        if ia[s] == ia[s + 1]:
            continue
        t0 = edges[s]
        rows = -(-int(edges[s + 1] - t0) // width)
        ca = np.bincount(fa[ia[s]:ia[s + 1]] - t0, minlength=rows * width)
        cb = np.bincount(fb[ib_lo[s]:ib_hi[s]] - (t0 - kmax),
                         minlength=rows * width + lags - 1)
        dtype = _block_dtype(int(ia[s + 1] - ia[s]), int(cb.max()))
        ca = ca.astype(dtype).reshape(rows, width)
        cb = cb.astype(dtype)
        for j0 in range(0, lags, lag_tile):
            tile = min(lag_tile, lags - j0)
            cols = width + tile - 1
            rows_b = sliding_window_view(cb[j0:], cols)[::width][:rows]
            m = (ca.T @ rows_b.copy()).ravel()
            # diag[r, d] = M[r, r + d]: rows of the flat M, cols + 1 apart
            diag = sliding_window_view(m, tile)[::cols + 1]
            acc[j0:j0 + tile] += diag.sum(axis=0, dtype=np.float64)
    hist += acc.astype(np.int64)


def _pair_hist_numpy(fa, fb, kmax, hist, chunk=500_000):
    """Add the delay histogram into ``hist`` by sweeping each a-click's lag
    window in ``fb``, chunked so the materialized pair index never exceeds
    ~chunk entries."""
    lo = np.searchsorted(fb, fa - kmax, side="left")
    hi = np.searchsorted(fb, fa + kmax, side="right")
    counts = hi - lo
    # cum[i] = pairs of the first i a-clicks; a chunk is the longest run
    # of a-clicks whose pairs fit in ``chunk``, and at least one click
    cum = np.concatenate(([0], np.cumsum(counts)))
    i0 = 0
    while i0 < fa.size:
        i1 = max(i0 + 1, int(np.searchsorted(cum, cum[i0] + chunk,
                                             side="right")) - 1)
        block = int(cum[i1] - cum[i0])
        if block:
            # concatenated aranges [lo_i, hi_i) for the chunk
            c = counts[i0:i1]
            starts = np.repeat(cum[i0:i1] - cum[i0], c)
            idx = np.repeat(lo[i0:i1], c) + np.arange(block) - starts
            delta = fb[idx] - np.repeat(fa[i0:i1], c) + kmax
            hist += np.bincount(delta, minlength=hist.size).astype(np.int64)
        i0 = i1


def _pair_histogram(fa, fb, kmax, shards=1):
    """Histogram of quantized delays fb - fa within +-kmax bins.

    The dense path or the sweep is chosen once, by :func:`_use_dense`.
    Sharding splits the a-stream into contiguous chunks whose integer
    histograms are summed, so sharded and serial runs agree exactly.  There
    are at most as many shards as a-clicks.
    """
    lags = 2 * kmax + 1
    nbins = int(max(fa[-1], fb[-1]) - min(fa[0], fb[0])) + 1
    kernel = _pair_hist_dense if _use_dense(fa.size, fb.size, nbins, lags) \
        else _pair_hist_numpy
    shards = min(max(1, int(shards)), fa.size)
    bounds = np.linspace(0, fa.size, shards + 1).astype(np.int64)
    out = np.zeros(lags, np.int64)
    for s in range(shards):
        a = fa[bounds[s]:bounds[s + 1]]
        if a.size:
            kernel(a, fb, kmax, out)
    return out


# Bin indices are int64: a stream may span fewer than 2^63 bins.
MAX_BIN_INDEX = 2.0 ** 63


def lag_window(duration: float, bin_width: float, max_lag: float) -> int:
    """kmax = round(max_lag / bin_width) of :func:`g2_cross` for a stream
    of ``duration`` seconds; raises ValueError if the window cannot be
    correlated.

    The bin must be positive and at most ``max_lag``, the stream must span
    fewer than 2^63 bins, and the lag window, rounded to whole bins, must
    be shorter than the stream.
    """
    if not bin_width > 0:
        raise ValueError("bin_width must be positive")
    if not max_lag >= bin_width:
        raise ValueError("max_lag must be at least one bin")
    if not duration / bin_width < MAX_BIN_INDEX:
        raise ValueError(f"duration / bin_width = {duration / bin_width:.3g}"
                         f" overflows the int64 bin index (2^63)")
    kmax = np.round(max_lag / bin_width)
    if not duration - kmax * bin_width > 0:
        raise ValueError(f"max_lag, rounded to {kmax:g} bins, exceeds the "
                         f"stream duration {duration:g} s")
    return int(kmax)


def g2_cross(a: ClickStream, b: ClickStream, bin_width: float,
             max_lag: float, shards: int = 1) -> CorrelationResult:
    """Cross-correlation g2(tau) between two click streams.

    Delays t_b - t_a are histogrammed over bins centered at k*bin_width,
    |k| <= round(max_lag/bin_width), and normalized per bin by
    r_a * r_b * bin_width * T_k with T_k the lag-dependent overlap time
    (edge correction).  Inputs must be sorted; they are never sorted
    silently.

    The pair counts are exact integers.  They come from the dense
    per-bin-count correlator where clicks are dense and the pair sweep
    where they are sparse (see the module docstring); both give the same
    counts.  ``shards`` splits stream a into that many contiguous chunks,
    correlated one after another; the counts do not depend on it.
    """
    if a.timestamps.size == 0 or b.timestamps.size == 0:
        raise ValueError("empty click stream")
    for s in (a, b):
        t = s.timestamps
        if np.any(t[1:] <= t[:-1]):
            raise ValueError("unsorted click stream (refusing to sort silently)")
    # each stream's own span must fit the window: the shorter one bounds
    # the lags, the longer one the bin index
    for s in (a, b):
        kmax = lag_window(s.duration, bin_width, max_lag)
    duration = min(a.duration, b.duration)

    # timestamps are >= 0, so truncation is the floor
    fa = (a.timestamps / bin_width).astype(np.int64)
    fb = (b.timestamps / bin_width).astype(np.int64)
    hist = _pair_histogram(fa, fb, kmax, shards=shards)

    k = np.arange(-kmax, kmax + 1)
    t_eff = duration - np.abs(k) * bin_width
    rate_a = a.timestamps.size / duration
    rate_b = b.timestamps.size / duration
    norm = rate_a * rate_b * bin_width * t_eff
    g2 = hist / norm
    sigma = np.sqrt(np.maximum(hist, 1)) / norm
    return CorrelationResult(k * bin_width, g2, sigma, hist.copy(),
                             bin_width, int(hist.sum()))


# 1/k! for k = 16, ..., 2: the Horner coefficients of binning_washout's
# series, whose terms past k = 16 are below 1e-27 for x < 0.1
_WASHOUT_SERIES = tuple(1.0 / math.factorial(k) for k in range(16, 1, -1))


def binning_washout(coherence_time: float, bin_width: float) -> float:
    """Predicted zero-lag g2 of chaotic light after finite binning.

    Both photons of a pair are quantized to bins independently, so the
    ideal g2(tau) = 1 + exp(-2|tau|/tau_c) is averaged with a triangular
    kernel of full width 2*bin_width:

        g2_bin(0) = 1 + (2/x^2) (x - 1 + e^-x),   x = 2*bin_width/tau_c.

    Tends to 2 for vanishing bins and to 1 when the bin dwarfs the
    coherence time.  Below x = 0.1 it sums the series
    1 + 2 sum_{k>=2} (-x)^(k-2) / k!, whose terms do not cancel: there
    x - 1 + e^-x loses up to log10(1/x) digits, even through expm1, and the
    closed form is no longer smooth on the scale of a float.
    """
    if coherence_time <= 0 or bin_width <= 0:
        raise ValueError("coherence_time and bin_width must be positive")
    x = 2.0 * bin_width / coherence_time
    if x < 0.1:
        total = 0.0
        for c in _WASHOUT_SERIES:
            total = c - x * total
        return 1.0 + 2.0 * total
    return 1.0 + 2.0 * (np.expm1(-x) + x) / (x * x)


def invert_washout(target_g2: float, bin_width: float) -> float:
    """Coherence time at which binning washes the thermal peak to target.

    The root is searched between 1e-6 and 1e6 bin widths; a target that
    this range cannot reach raises :class:`ConfigError`, and so does a
    bin width that is not positive.  :func:`binning_washout` rises
    monotonically in tau_c, so the bracket is bisected in log tau_c until
    its geometric midpoint no longer lies strictly inside it: the two ends
    are then adjacent floats.
    """
    if not 1.0 < target_g2 < 2.0:
        raise ValueError("target g2(0) must be strictly between 1 and 2")
    if not bin_width > 0:
        raise ConfigError(f"bin width {bin_width!r} s must be positive")
    lo, hi = bin_width * 1e-6, bin_width * 1e6
    g_lo, g_hi = binning_washout(lo, bin_width), binning_washout(hi, bin_width)
    if not g_lo <= target_g2 <= g_hi:
        raise ConfigError(
            f"target g2(0) = {target_g2!r} is out of reach at bin width "
            f"{bin_width:g} s: coherence times from {lo:g} to {hi:g} s give "
            f"g2(0) from {float(g_lo)!r} to {float(g_hi)!r}")
    while True:
        # lo * sqrt(hi / lo), not sqrt(lo * hi): the product may underflow
        mid = lo * math.sqrt(hi / lo)
        if not lo < mid < hi:
            return hi
        if binning_washout(mid, bin_width) < target_g2:
            lo = mid
        else:
            hi = mid


# ---------------------------------------------------------------------------
# Click stream files
# ---------------------------------------------------------------------------

def write_clickstream(stream: ClickStream, path) -> int:
    """Write the binary format; returns the number of stored clicks.

    Little-endian header (magic "CLKS", version u32, detector u32,
    count u64, duration u64 in ns) followed by count u64 nanosecond
    timestamps, strictly increasing.  Sub-nanosecond collisions created by
    quantization are dropped (at most one click per nanosecond).
    """
    ns = np.round(stream.timestamps * 1e9).astype(np.uint64)
    if ns.size:
        keep = np.empty(ns.size, bool)
        keep[0] = True
        keep[1:] = ns[1:] > ns[:-1]
        ns = ns[keep]
    duration_ns = int(round(stream.duration * 1e9))
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_CLICKS_MAGIC, _CLICKS_VERSION,
                              stream.detector_id, ns.size, duration_ns))
        fh.write(ns.astype("<u8").tobytes())
    return int(ns.size)


def read_clickstream(path) -> ClickStream:
    """Read the binary format back into a ClickStream."""
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, det, count, duration_ns = _HEADER.unpack(header)
        if magic != _CLICKS_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        if version != _CLICKS_VERSION:
            raise ValueError(f"{path}: unsupported version {version}")
        data = np.frombuffer(fh.read(8 * count), dtype="<u8")
        if data.size != count:
            raise ValueError(f"{path}: truncated timestamp block")
    return ClickStream(det, data.astype(np.float64) * 1e-9, duration_ns * 1e-9)


def write_clickstream_text(stream: ClickStream, path) -> None:
    """Plain-text format: one timestamp in seconds per line, as repr."""
    with open(path, "w") as fh:
        fh.write("".join(map("{!r}\n".format, stream.timestamps.tolist())))


def read_clickstream_text(path, detector_id: int = 0, *,
                          duration: float) -> ClickStream:
    """Read the plain-text format.  The file holds no duration, and the g2
    normalization depends on it, so the caller supplies it."""
    times = np.loadtxt(path, ndmin=1, dtype=np.float64)
    return ClickStream(detector_id, times, duration)
