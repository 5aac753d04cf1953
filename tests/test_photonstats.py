import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.signal import lfilter

from motlaser import photonstats as ps
from motlaser.errors import ConfigError, PhysicsError
from motlaser.photonstats import (ClickStream, IntensityTrace,
                                  binning_washout, g2_cross,
                                  invert_washout, poissonize,
                                  read_clickstream, read_clickstream_text,
                                  simulate_intensity, write_clickstream,
                                  write_clickstream_text)


# ---------------------------------------------------------------------------
# Intensity traces
# ---------------------------------------------------------------------------

class TestSimulateIntensity:
    def test_poisson_flat(self):
        tr = simulate_intensity("poisson", 1e5, 0.0, 1.0, 1e-3, seed=0)
        assert np.all(tr.samples == 1e5)

    def test_laser_mean_and_ripple(self):
        tr = simulate_intensity("laser", 1e5, 0.0, 10.0, 1e-4, seed=0,
                                laser_ripple=1e-2)
        assert tr.samples.mean() == pytest.approx(1e5, rel=1e-3)
        assert tr.samples.std() / tr.samples.mean() == \
            pytest.approx(1e-2, rel=0.05)

    def test_thermal_exponential_intensity(self):
        # |complex gaussian|^2 is exponential: variance equals mean squared
        tr = simulate_intensity("thermal", 1e5, 1e-4, 1.0, 1e-5, seed=7)
        ratio = tr.samples.var() / tr.samples.mean() ** 2
        assert ratio == pytest.approx(1.0, abs=0.05)
        assert tr.samples.mean() == pytest.approx(1e5, rel=0.05)

    def test_thermal_correlation_time(self):
        # intensity autocorrelation of chaotic light decays on tau_c/2;
        # interpolate the 1/e crossing and compare to the requested tau_c
        tau_c = 1e-4
        tr = simulate_intensity("thermal", 1e5, tau_c, 2.0, tau_c / 20,
                                seed=12)
        x = tr.samples - tr.samples.mean()
        n = x.size
        f = np.fft.rfft(x, 2 * n)
        ac = np.fft.irfft(f * np.conj(f))[:n]
        ac /= ac[0]
        target = np.exp(-1.0)
        i = int(np.argmax(ac < target))
        frac = (ac[i - 1] - target) / (ac[i - 1] - ac[i])
        measured_tau_c = 2 * (i - 1 + frac) * tr.sample_period
        assert measured_tau_c == pytest.approx(tau_c, rel=0.10)

    def test_undersampling_rejected(self):
        with pytest.raises(PhysicsError):
            simulate_intensity("thermal", 1e5, 1e-5, 1.0, 1e-5, seed=0)

    def test_short_duration_rejected(self):
        with pytest.raises(PhysicsError):
            simulate_intensity("thermal", 1e5, 1e-2, 0.5, 1e-3, seed=0)

    @pytest.mark.parametrize("regime", ["thermal", "laser", "poisson"])
    def test_sample_cap(self, regime, monkeypatch):
        def no_synthesis(*args, **kwargs):
            raise AssertionError("the sample count must be checked first")

        monkeypatch.setattr(ps, "_rng", no_synthesis)
        monkeypatch.setattr(ps.np, "full", no_synthesis)
        period = 1e-9
        with pytest.raises(PhysicsError, match="cap of 5e\\+07"):
            simulate_intensity(regime, 1e5, 1e-8, 1.000001 * ps.MAX_SAMPLES
                               * period, period, seed=0)
        with pytest.raises(PhysicsError, match="cap"):
            simulate_intensity(regime, 1e5, 1e-8, 1.0, 5e-324, seed=0)

    def test_bad_regime_and_rate(self):
        with pytest.raises(ValueError):
            simulate_intensity("chaos", 1e5, 1e-4, 1.0, 1e-5, seed=0)
        with pytest.raises(PhysicsError):
            simulate_intensity("poisson", -1.0, 0.0, 1.0, 1e-3, seed=0)

    @pytest.mark.parametrize("rate", [math.inf, math.nan])
    def test_non_finite_rate_rejected(self, rate):
        for regime in ("thermal", "laser", "poisson"):
            with pytest.raises(PhysicsError, match="positive and finite"):
                simulate_intensity(regime, rate, 1e-4, 1.0, 1e-5, seed=0)

    def test_negative_ripple_rejected(self):
        with pytest.raises(PhysicsError, match="laser_ripple"):
            simulate_intensity("laser", 1e5, 0.0, 1.0, 1e-3, seed=0,
                               laser_ripple=-0.5)

    def test_deterministic_per_seed(self):
        a = simulate_intensity("thermal", 1e5, 1e-4, 1.0, 1e-5, seed=5)
        b = simulate_intensity("thermal", 1e5, 1e-4, 1.0, 1e-5, seed=5)
        c = simulate_intensity("thermal", 1e5, 1e-4, 1.0, 1e-5, seed=6)
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            IntensityTrace(0.0, np.ones(3), "poisson")
        with pytest.raises(ValueError):
            IntensityTrace(1e-3, -np.ones(3), "poisson")


def _lfilter(x, a, start):
    # the oracle: scipy's direct-form filter with the stationary start
    return lfilter([1.0], [1.0, -a], x, zi=np.array([a * start]))[0]


def _lfilter_power(x, a, start):
    return np.abs(_lfilter(x, a, start)) ** 2


def _ar1_power(re, im, a, start):
    # |y|^2 and the state leaving the last sample, written to an out array
    # and, from a copy of re, over the real noise; the two agree bit for bit
    out = np.empty(re.size)
    end = ps._ar1_power(re, im, a, start, out)
    drained = re.copy()
    assert ps._ar1_power(drained, im, a, start) == end
    assert np.array_equal(drained.view(np.uint64), out.view(np.uint64))
    return out, end


def _thermal_oracle(n, a, mean_rate, seed):
    # simulate_intensity's thermal branch, rebuilt on lfilter
    rng = ps._rng(seed)
    noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
        * (np.sqrt(mean_rate) * np.sqrt((1.0 - a * a) / 2.0))
    start = (rng.standard_normal() + 1j * rng.standard_normal()) \
        * (np.sqrt(mean_rate) / np.sqrt(2.0))
    return _lfilter_power(noise, a, start)


def _noise(n, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _short_warm_ups(monkeypatch, warm):
    # warm-ups of ``warm`` steps, blocks of their usual length
    layout = ps._ar1_layout
    monkeypatch.setattr(ps, "_ar1_layout", lambda a: (warm, layout(a)[1]))


def _counted_generators(monkeypatch):
    # the seeds of the generators built from here on
    seeds, real = [], ps._rng

    def counted(seed):
        seeds.append(seed)
        return real(seed)

    monkeypatch.setattr(ps, "_rng", counted)
    return seeds


def _start_walks(monkeypatch, generators, length, meets=True):
    # whether each walk from the drawn start met the chain from 0; with
    # ``meets`` False each is made to report that it did not.  That walk is
    # told apart by its length, one block, in the first pass, whose redos
    # read two slabs; not by its guess, 0j, which a block's warm-up state
    # can equal (see test_redo_path)
    walks, real = [], ps._ar1_walk

    def walk(re, im, p, a, state, guess=None):
        true_end = real(re, im, p, a, state, guess)
        if guess is not None and re.size == length and len(generators) == 1:
            walks.append(true_end is None)
            if not meets:
                return state
        return true_end

    monkeypatch.setattr(ps, "_ar1_walk", walk)
    return walks


class TestAr1:
    """|y|^2 of the blocked recursion against scipy.signal.lfilter, bit
    for bit."""

    @pytest.mark.parametrize("ratio", [0.01, 0.05, 0.1, 0.5])
    def test_equals_lfilter(self, ratio):
        a = np.exp(-ratio)
        _, length = ps._ar1_layout(a)
        # serial (n < 2L), two whole blocks, and a remainder after them
        for n in (1, length + 3, 2 * length - 1, 2 * length,
                  7 * length + 5):
            x = _noise(n, n)
            re, im = x.real.copy(), x.imag.copy()
            got, end = _ar1_power(re, im, a, 0.7 - 1.3j)
            y = _lfilter(x, a, 0.7 - 1.3j)
            want = np.abs(y) ** 2
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(np.array([end]).view(np.uint64),
                                  y[-1:].view(np.uint64))
            assert np.array_equal(re, x.real) and np.array_equal(im, x.imag)

    @pytest.mark.parametrize("tile", [(3, 5), (2, 4), (7, 89)])
    def test_partial_tiles(self, monkeypatch, tile):
        # tiles small enough that the blocks end in a partial tile or a
        # whole one, and the steps of the warm-up (89) and of the main
        # pass (356) in a partial slab or a whole one
        monkeypatch.setattr(ps, "_AR1_TILE_BLOCKS", tile[0])
        monkeypatch.setattr(ps, "_AR1_TILE_STEPS", tile[1])
        a = np.exp(-0.5)
        warm, length = ps._ar1_layout(a)
        assert (warm, length) == (89, 356)
        for n in (6 * length + 3, 7 * length):
            x = _noise(n, n)
            re, im = x.real.copy(), x.imag.copy()
            got, _ = _ar1_power(re, im, a, 0.7 - 1.3j)
            want = _lfilter_power(x, a, 0.7 - 1.3j)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(re, x.real) and np.array_equal(im, x.imag)

    def test_equals_lfilter_over_thousands_of_blocks(self):
        # 4213 blocks of 356 steps, run side by side
        a = np.exp(-0.5)
        n = 1_500_007
        warm, length = ps._ar1_layout(a)
        assert (warm, length) == (89, 356) and n // length == 4213
        # the last tile of blocks and the last slab of steps are partial
        assert 4213 % ps._AR1_TILE_BLOCKS and length % ps._AR1_TILE_STEPS
        x = _noise(n, 11) * 1e3
        got, _ = _ar1_power(x.real.copy(), x.imag.copy(), a, 1.0 + 2.0j)
        want = _lfilter_power(x, a, 1.0 + 2.0j)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_redo_path(self, monkeypatch):
        # a 1e25 spike early in block 4, then zeros up to early in block
        # 7: the warm-up of block 5 sees only zeros and starts it from
        # exactly 0, but the true state leaving block 4 is the spike's
        # tail, ~1e-52 (it never underflows to 0: a > 1/2 keeps the
        # smallest subnormals).  Blocks 5 and 6 are walked again whole;
        # block 7 until the noise resumes and swamps the tail.  Block 5's
        # guess is 0j, as a walk from the drawn start's is.
        a = np.exp(-0.1)
        _, length = ps._ar1_layout(a)
        n = 12 * length + 5
        x = _noise(n, 4)
        x[4 * length:7 * length + 10] = 0.0
        x[4 * length + 5] = 1e25
        redone, guesses = [], []
        real = ps._ar1_walk

        def counted(re, im, p, a, state, guess=None):
            true_end = real(re, im, p, a, state, guess)
            if guess is not None:
                redone.append(true_end is not None)
                guesses.append(guess)
            return true_end

        monkeypatch.setattr(ps, "_ar1_walk", counted)
        out = np.empty(n)
        ps._ar1_power(x.real.copy(), x.imag.copy(), a, 0.5 + 0.5j, out)
        want = _lfilter_power(x, a, 0.5 + 0.5j)
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
        # whole blocks changed, then one met the stored chain part way
        assert redone == [True, True, False]
        assert guesses[0] == 0j
        # written over the real noise, block 5 keeps the noise of only its
        # first two slabs, and its chains are still apart after them
        redone.clear()
        assert ps._ar1_power(x.real.copy(), x.imag, a, 0.5 + 0.5j) is None
        assert redone == [True]

    def test_thermal_trace_unchanged(self):
        want = _thermal_oracle(100_000, np.exp(-1e-5 / 1e-4), 1e5, 8)
        got = simulate_intensity("thermal", 1e5, 1e-4, 1.0, 1e-5,
                                 seed=8).samples
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("extra", [-1, 0, 1, 2 * 8192 + 5])
    @pytest.mark.parametrize("restart_meets", [True, False],
                             ids=["walk", "rerun"])
    def test_thermal_trace_exact_at_chunk_edges(self, monkeypatch, extra,
                                                restart_meets):
        # chunks of the fewest blocks allowed, 4, of 2048 samples at this
        # pole: 8192 samples.  The trace ends one sample short of a chunk
        # (3 blocks and a serial tail), on one, one past it and 5 past the
        # third.  With the walk from the drawn start forced to report that
        # its chains never met, the synthesis runs once more from a fresh
        # generator with the start known, in chunks of 2 blocks.
        chunk, length, period = 8192, 2048, 8.67e-6
        monkeypatch.setattr(ps, "_THERMAL_CHUNK", 1)
        monkeypatch.setattr(ps, "_THERMAL_MIN_BLOCKS", 4)
        n, mean_rate, seed = chunk + extra, 1e5, 9
        a = np.exp(-period / 1e-4)
        assert ps._ar1_layout(a)[1] == length
        assert ps._thermal_chunk(a) == chunk == 2 * ps._thermal_chunk(a, 2)
        want = _thermal_oracle(n, a, mean_rate, seed)

        generators = _counted_generators(monkeypatch)
        walks = _start_walks(monkeypatch, generators, length, restart_meets)
        tails, walk = [], ps._ar1_walk

        def serial(re, im, p, a, state, guess=None):
            if guess is None:
                tails.append(re.size)
            return walk(re, im, p, a, state, guess)

        monkeypatch.setattr(ps, "_ar1_walk", serial)
        got = simulate_intensity("thermal", mean_rate, 1e-4, n * period,
                                 period, seed=seed).samples
        assert got.size == n
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        # the chains from 0 and from the start meet within chunk 0's first
        # block; the rerun knows the start and walks nothing from it
        assert walks == [True]
        assert generators == [seed] * (1 if restart_meets else 2)

        def pass_tails(chunk):
            # every chunk but the last is whole blocks and runs no serial
            # tail
            chunks = -(-n // chunk)
            last = n - (chunks - 1) * chunk
            tail = last if last < 2 * length else last % length
            return [0] * (chunks - 1) + [tail]

        assert tails == pass_tails(chunk) \
            + ([] if restart_meets else pass_tails(chunk // 2))

    @pytest.mark.parametrize("warm, runs", [(370, 1), (300, 2)],
                             ids=["kept", "rerun"])
    def test_thermal_redos_over_the_drained_noise(self, monkeypatch, warm,
                                                  runs):
        # warm-ups of 370 steps instead of 444 leave the chains apart in
        # the last bits, so blocks are redone, each within the two slabs
        # whose noise it keeps; after 300 steps a redo needs more, and the
        # synthesis runs once more with an intensity buffer of its own
        n, period, seed = 60_000, 3e-7, 3
        want = _thermal_oracle(n, np.exp(-period / 3e-6), 2e5, seed)
        _short_warm_ups(monkeypatch, warm)
        generators = _counted_generators(monkeypatch)
        redos = []
        real = ps._ar1_walk

        def counted(re, im, p, a, state, guess=None):
            if guess is not None:
                redos.append(re.size)
            return real(re, im, p, a, state, guess)

        monkeypatch.setattr(ps, "_ar1_walk", counted)
        got = simulate_intensity("thermal", 2e5, 3e-6, n * period, period,
                                 seed=seed).samples
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert generators == [seed] * runs
        # in place, a redo reads the kept slabs; with an intensity buffer,
        # and from the start, a whole block
        assert 2 * ps._AR1_TILE_STEPS in redos
        assert ps._ar1_layout(np.exp(-period / 3e-6))[1] in redos

    @pytest.mark.parametrize("restart_meets", [True, False],
                             ids=["walk", "rerun"])
    def test_thermal_spare_rerun_when_a_redo_outruns_the_kept_noise(
            self, monkeypatch, restart_meets):
        # over three chunks of 16 blocks, the first redo over the drained
        # noise is made to report its chains still apart after the kept
        # slabs.  The pass then only draws the rest of the noise and the
        # start, walks nothing from the start, and the synthesis runs once
        # more with the start known and an intensity buffer of its own.  A
        # walk from the start made to fail as well adds no pass: the worst
        # case takes two.
        monkeypatch.setattr(ps, "_THERMAL_CHUNK", 1 << 14)
        n, period, seed = 60_000, 3e-7, 3
        want = _thermal_oracle(n, np.exp(-period / 3e-6), 2e5, seed)
        _short_warm_ups(monkeypatch, 370)
        drained = simulate_intensity("thermal", 2e5, 3e-6, n * period,
                                     period, seed=seed).samples
        generators = _counted_generators(monkeypatch)
        length = ps._ar1_layout(np.exp(-period / 3e-6))[1]
        walks = _start_walks(monkeypatch, generators, length, restart_meets)
        forced, walk = [], ps._ar1_walk

        def redo(re, im, p, a, state, guess=None):
            true_end = walk(re, im, p, a, state, guess)
            if not forced and re.size == 2 * ps._AR1_TILE_STEPS:
                forced.append(true_end)
                return state
            return true_end

        monkeypatch.setattr(ps, "_ar1_walk", redo)
        got = simulate_intensity("thermal", 2e5, 3e-6, n * period, period,
                                 seed=seed).samples
        assert -(-n // ps._thermal_chunk(np.exp(-period / 3e-6))) == 3
        # the forced redo had in truth met within the kept slabs
        assert forced == [None]
        assert walks == []
        assert generators == [seed] * 2
        for other in (want, drained):
            assert np.array_equal(got.view(np.uint64), other.view(np.uint64))


# sha256 of the samples and of both detectors' timestamps, recorded before
# the thermal synthesis and poissonize were rewritten without full-length
# temporaries.  Both traces are longer than one poissonize chunk, and the
# thermal one than one synthesis chunk, and not a multiple of either.
_PINNED = {
    ("thermal", 2e5, 1e-5, 2.3, 12): (
        "31d6d4995decb9331c587afc163ba4237823a219da140e1314d7e37a29d13971",
        "cf8d580712feb0ba21fe3ce99142183cdf948ee0add15341280b4c06e61ae3ff",
        "c22427fdb3f80015cc53c22c8eb893709f4bc573b03354239144dcfaa1b46c08"),
    ("laser", 1e5, 0.0, 1.3, 14): (
        "41dd4b426885e5f5c33b3ef76d9bc9b32d6b087a216fdc41680dd0cf2b4d1f17",
        "9475bd7882579c6a7e587dfc2d032f350a4a39c231b6736863d7157fe0ab9c32",
        "bbdd45093a9a08b24a3c81e13413d2ee748f0962bd64face25717dd1bafe4609"),
}


@pytest.mark.parametrize("case", list(_PINNED), ids=["thermal", "laser"])
def test_traces_and_clicks_match_pinned_digests(case):
    regime, rate, tau_c, duration, seed = case
    tr = simulate_intensity(regime, rate, tau_c, duration, 1e-6, seed=seed)
    chunks = [ps._POISSON_CHUNK]
    if regime == "thermal":
        chunks.append(ps._thermal_chunk(np.exp(-1e-6 / tau_c)))
    for chunk in chunks:
        assert tr.samples.size > chunk
        assert tr.samples.size % chunk
    a, b = poissonize(tr, seed=seed + 1)
    got = tuple(hashlib.sha256(x.tobytes()).hexdigest()
                for x in (tr.samples, a.timestamps, b.timestamps))
    assert got == _PINNED[case]


def _thermal_peaks(n):
    """tracemalloc's peak in a thermal synthesis of n samples, and its
    peak in poissonize of that trace above what the trace held."""
    tracemalloc.start()
    try:
        tr = simulate_intensity("thermal", 2e5, 3e-6, n * 3e-7, 3e-7, seed=1)
        synthesis = tracemalloc.get_traced_memory()[1]
        drawn = _poissonize_peak(tr)
    finally:
        tracemalloc.stop()
    assert tr.samples.size == n
    return synthesis, drawn


def _poissonize_peak(tr):
    """Clicks poissonize draws from ``tr`` and tracemalloc's peak above
    the memory held when it starts; tracemalloc must be tracing."""
    tracemalloc.reset_peak()
    held = tracemalloc.get_traced_memory()[0]
    a, b = poissonize(tr, seed=2)
    peak = tracemalloc.get_traced_memory()[1] - held
    return a.timestamps.size + b.timestamps.size, peak


def test_thermal_synthesis_peak_memory_per_sample():
    # the real noise, which becomes the intensity (8 B/sample), and one
    # chunk of the imaginary noise, about half the trace here, plus the
    # slab buffers, under 2 MB; three full-length arrays took 24 B/sample,
    # a complex noise array 26.9 and full-length complex temporaries 41.
    # poissonize draws this trace in many chunks and holds about 21 B per
    # click above it, plus its chunk buffers; two arrays of a 2^20-sample
    # chunk took 25 MB.
    n = 2_000_000
    assert ps._POISSON_CHUNK < n < 2 * ps._thermal_chunk(np.exp(-0.1))
    synthesis, (clicks, peak) = _thermal_peaks(n)
    assert synthesis <= 16 * n + 2_000_000
    assert peak <= 2_000_000 + 48 * clicks


def test_thermal_synthesis_peak_memory_at_1e6_samples():
    # one synthesis chunk holds this whole trace: the real noise, which
    # becomes the intensity, and the imaginary noise, 8 B/sample each
    n = 1_000_000
    assert ps._thermal_chunk(np.exp(-0.1)) > n
    synthesis, (clicks, peak) = _thermal_peaks(n)
    assert synthesis <= 16 * n + 2_000_000
    assert peak <= 2_000_000 + 48 * clicks


def test_poissonize_peak_memory_on_a_long_trace_with_few_clicks():
    # 2^22 samples and about 4000 clicks: the rate buffer and the counts of
    # one chunk, 1 MB, not two arrays of a 2^20-sample chunk (16.8 MB)
    tr = IntensityTrace(1e-6, np.full(1 << 22, 1e3), "poisson")
    tracemalloc.start()
    try:
        clicks, peak = _poissonize_peak(tr)
    finally:
        tracemalloc.stop()
    assert 0 < clicks < 5000
    assert peak <= 2_000_000 + 48 * clicks


@pytest.mark.parametrize("rerun", [False, True], ids=["walk", "rerun"])
def test_thermal_synthesis_holds_the_real_noise_and_two_chunks(monkeypatch,
                                                               rerun):
    # over 6 chunks of 18 blocks of 1776 samples (31968 samples, the most
    # whole blocks within 2^15): the real noise, which becomes the
    # intensity (8 B/sample), the imaginary noise's chunk buffer, and one
    # chunk more for the copy of chunk 0's first block, the |y|^2 of each
    # block's first two slabs, the slab buffers and the last chunk's
    # serial tail.  The three full-length arrays took 24 B/sample.  A
    # rerun holds an intensity buffer next to the noise's, each of 9
    # blocks, and no more.
    monkeypatch.setattr(ps, "_THERMAL_CHUNK", 1 << 15)
    chunk = ps._thermal_chunk(np.exp(-0.1))
    length = ps._ar1_layout(np.exp(-0.1))[1]
    assert chunk == 18 * length == 2 * ps._thermal_chunk(np.exp(-0.1), 2)
    generators = _counted_generators(monkeypatch)
    _start_walks(monkeypatch, generators, length, meets=not rerun)
    n = 6 * chunk + 5
    tracemalloc.start()
    try:
        tr = simulate_intensity("thermal", 2e5, 3e-6, n * 3e-7, 3e-7, seed=1)
        synthesis = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tr.samples.size == n
    assert generators == [1] * (2 if rerun else 1)
    assert synthesis <= 8 * n + 2 * 8 * chunk


@pytest.mark.parametrize("seed", [0, 1, 12, 2**40 + 7])
def test_normal_stream_continues_across_calls(seed):
    # the thermal synthesis draws the real noise whole, the imaginary noise
    # a chunk at a time into one buffer, then two scalars for the start;
    # numpy's compatibility policy does not promise that this is one stream
    whole = ps._rng(seed)
    want = np.concatenate([whole.standard_normal(10_007),
                           [whole.standard_normal(), whole.standard_normal()]])
    pieces = ps._rng(seed)
    got = [pieces.standard_normal(3), pieces.standard_normal(1000)]
    buffer = np.empty(4000)
    for size in (4000, 1, 3000, 2003):
        pieces.standard_normal(out=buffer[:size])
        got.append(buffer[:size].copy())
    got.append([pieces.standard_normal(), pieces.standard_normal()])
    got = np.concatenate(got)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# Poissonization
# ---------------------------------------------------------------------------

class TestPoissonize:
    def test_total_counts(self):
        tr = simulate_intensity("poisson", 1e5, 0.0, 5.0, 1e-3, seed=1)
        a, b = poissonize(tr, seed=2)
        total = a.timestamps.size + b.timestamps.size
        expected = 1e5 * 5.0
        assert abs(total - expected) <= 3 * np.sqrt(expected)

    def test_fair_split(self):
        for seed in range(5):
            tr = simulate_intensity("poisson", 2e5, 0.0, 2.0, 1e-3, seed=seed)
            a, b = poissonize(tr, seed=seed + 100)
            na, nb = a.timestamps.size, b.timestamps.size
            assert abs(na - nb) < 5 * np.sqrt(na + nb)

    def test_bunching_survives_splitting(self):
        # Mandel Q of per-window counts: positive for chaotic light,
        # near zero for the Poisson control
        def mandel_q(regime, tau_c):
            tr = simulate_intensity(regime, 1e5, tau_c, 2.0, 1e-4, seed=3)
            a, _ = poissonize(tr, seed=4)
            edges = np.arange(0.0, 2.0 + 1e-3, 1e-3)
            counts = np.histogram(a.timestamps, edges)[0]
            return counts.var() / counts.mean() - 1.0

        assert mandel_q("thermal", 1e-3) > 5.0
        assert abs(mandel_q("poisson", 0.0)) < 0.5

    def test_streams_strictly_increasing(self):
        tr = simulate_intensity("thermal", 5e5, 1e-4, 1.0, 1e-5, seed=9)
        a, b = poissonize(tr, seed=10)
        assert np.all(np.diff(a.timestamps) > 0)
        assert np.all(np.diff(b.timestamps) > 0)

    def test_click_cap(self, monkeypatch):
        # the expected count is checked before the generator is even built
        def no_draws(*args, **kwargs):
            raise AssertionError("the click count must be checked first")

        with monkeypatch.context() as m:
            m.setattr(ps, "_rng", no_draws)
            for rate in (1.000001 * ps.MAX_CLICKS, 1e300, math.inf):
                tr = IntensityTrace(1.0, np.array([rate]), "poisson")
                with pytest.raises(PhysicsError, match="cap of 5e\\+07"):
                    poissonize(tr, seed=0)
        # at the cap it draws; criterion 7's 1.1e7 clicks sit below it
        monkeypatch.setattr(ps, "MAX_CLICKS", 1000)
        a, b = poissonize(IntensityTrace(1e-3, np.full(10, 1e5), "poisson"),
                          seed=0)
        assert 0 < a.timestamps.size + b.timestamps.size
        with pytest.raises(PhysicsError, match="1\\.01e\\+03 expected"):
            poissonize(IntensityTrace(1e-3, np.full(10, 1.01e5), "poisson"),
                       seed=0)

    def test_float_duplicates_dropped_as_pinned(self):
        # 1e6 clicks in the one slot [2^20, 2^20 + 1) s, where doubles are
        # 2^-32 apart: 111 of the drawn timestamps repeat.  The digests
        # were recorded before the kept subset became conditional and the
        # routing moved to raw words.
        samples = np.zeros(2**20 + 1)
        samples[-1] = 1e6
        a, b = poissonize(IntensityTrace(1.0, samples, "poisson"), seed=5)
        rng = ps._rng(5)
        drawn = sum(int(rng.poisson(samples[i:i + ps._POISSON_CHUNK]).sum())
                    for i in range(0, samples.size, ps._POISSON_CHUNK))
        assert drawn - a.timestamps.size - b.timestamps.size == 111
        got = [hashlib.sha256(s.timestamps.tobytes()).hexdigest()
               for s in (a, b)]
        assert got == [
            "d50a6d0c57f610f75a6b1833588ea9d234d6eeb735f9b420a79e085e907ebeda",
            "524019c2fa0835eeef53efb9f7ffa41dc4930e73559993c6d943d5f1fbdd08e6"]

    @given(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3e3)),
                    min_size=1, max_size=300),
           st.one_of(st.sampled_from([1, 7]), st.integers(1, 400)))
    @example([2e3] * 50, 1)
    @example([2e3] * 50, 7)
    @example([2e3] * 50, 51)
    @settings(max_examples=60, deadline=None)
    def test_streams_do_not_depend_on_the_chunk(self, rates, chunk):
        # the counts and the uniform offsets are drawn a chunk at a time;
        # a chunk above the trace's length and its click count is one draw
        # of each
        tr = IntensityTrace(1e-3, np.array(rates), "poisson")
        with mock.patch.object(ps, "_POISSON_CHUNK", 1 << 40):
            want = poissonize(tr, seed=4)
        with mock.patch.object(ps, "_POISSON_CHUNK", chunk):
            got = poissonize(tr, seed=4)
        for g, w in zip(got, want):
            assert g.detector_id == w.detector_id
            assert np.array_equal(g.timestamps.view(np.uint64),
                                  w.timestamps.view(np.uint64))

    @pytest.mark.parametrize("capacity", [0, 1, 1000])
    def test_times_buffer_grows_past_its_capacity(self, monkeypatch,
                                                  capacity):
        # the times array is allocated for the expected count and ten
        # standard deviations more; one allocated for fewer clicks, even
        # none or fewer than one chunk brings, grows and draws the same
        tr = simulate_intensity("thermal", 2e5, 1e-5, 0.7, 1e-6, seed=3)
        want = poissonize(tr, seed=4)
        clicks = sum(s.timestamps.size for s in want)
        assert tr.samples.size > 4 * ps._POISSON_CHUNK
        assert clicks < ps._click_capacity(tr.samples.sum() * 1e-6)
        monkeypatch.setattr(ps, "_click_capacity", lambda expected: capacity)
        got = poissonize(tr, seed=4)
        for g, w in zip(got, want):
            assert g.detector_id == w.detector_id
            assert np.array_equal(g.timestamps.view(np.uint64),
                                  w.timestamps.view(np.uint64))

    def test_routing_words_match_uniform_draws(self):
        # random() < 0.5 is raw < 2^63 on the same words, and both leave
        # the generator in the same state
        raw, uniform = ps._rng(3), ps._rng(3)
        got = raw.bit_generator.random_raw(10_001) < 2**63
        assert np.array_equal(got, uniform.random(10_001) < 0.5)
        assert np.array_equal(raw.random(7), uniform.random(7))

    def test_deterministic(self):
        tr = simulate_intensity("poisson", 1e5, 0.0, 1.0, 1e-3, seed=1)
        a1, b1 = poissonize(tr, seed=5)
        a2, b2 = poissonize(tr, seed=5)
        assert np.array_equal(a1.timestamps, a2.timestamps)
        assert np.array_equal(b1.timestamps, b2.timestamps)


# ---------------------------------------------------------------------------
# Correlator
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def poisson_pair():
    tr = simulate_intensity("poisson", 2e5, 0.0, 10.0, 1e-3, seed=31)
    return poissonize(tr, seed=32)


class TestG2Cross:
    def test_poisson_flat_within_three_sigma(self, poisson_pair):
        a, b = poisson_pair
        r = g2_cross(a, b, 2.6e-6, 40e-6)
        z = np.abs(r.g2 - 1.0) / r.sigma
        assert z.max() < 3.0

    def test_far_lag_normalization(self, poisson_pair):
        a, b = poisson_pair
        r = g2_cross(a, b, 2.6e-6, 1e-3)
        far = np.abs(r.lags) >= 0.8e-3
        mean = r.g2[far].mean()
        se = r.g2[far].std(ddof=1) / np.sqrt(far.sum())
        assert abs(mean - 1.0) <= 3 * se

    def test_siegert_relation(self):
        tau_c = 1e-4
        tr = simulate_intensity("thermal", 1e5, tau_c, 10.0, 2e-6, seed=5)
        a, b = poissonize(tr, seed=6)
        r = g2_cross(a, b, 2e-6, 60e-6)
        mid = r.lags.size // 2
        assert r.g2[mid] == pytest.approx(2.0, abs=0.05)
        prediction = 1.0 + np.exp(-2.0 * np.abs(r.lags) / tau_c)
        assert np.max(np.abs(r.g2 - prediction)) < 0.05

    def test_symmetry_under_stream_swap(self, poisson_pair):
        a, b = poisson_pair
        r_ab = g2_cross(a, b, 2.6e-6, 40e-6)
        r_ba = g2_cross(b, a, 2.6e-6, 40e-6)
        assert np.array_equal(r_ab.counts, r_ba.counts[::-1])
        assert np.array_equal(r_ab.g2, r_ba.g2[::-1])

    def test_sharded_runs_bit_identical(self, poisson_pair):
        a, b = poisson_pair
        serial = g2_cross(a, b, 2.6e-6, 100e-6)
        for shards in (2, 4, 7):
            sharded = g2_cross(a, b, 2.6e-6, 100e-6, shards=shards)
            assert np.array_equal(serial.counts, sharded.counts)
            assert np.array_equal(serial.g2, sharded.g2)
            assert np.array_equal(serial.sigma, sharded.sigma)

    def test_shards_clamped_to_clicks(self, poisson_pair, monkeypatch):
        # more shards than a-clicks would only split off empty chunks: the
        # bounds array stays at one entry per click plus one
        a, b = poisson_pair
        a = ClickStream(0, a.timestamps[:20], a.duration)
        serial = g2_cross(a, b, 2.6e-6, 100e-6)
        linspace, nums = np.linspace, []

        def spy(start, stop, num, *args, **kwargs):
            nums.append(num)
            return linspace(start, stop, num, *args, **kwargs)

        monkeypatch.setattr(ps.np, "linspace", spy)
        sharded = g2_cross(a, b, 2.6e-6, 100e-6, shards=50)
        assert nums == [21]
        assert np.array_equal(serial.counts, sharded.counts)

    def test_dense_and_sweep_agree_exactly(self, poisson_pair):
        # ~2 M clicks at 2.6 us bins: the default path is the dense one,
        # and it must equal the pair sweep count for count
        a, b = poisson_pair
        width, kmax = 2.6e-6, 19
        fa = np.floor(a.timestamps / width).astype(np.int64)
        fb = np.floor(b.timestamps / width).astype(np.int64)
        nbins = int(max(fa[-1], fb[-1]) - min(fa[0], fb[0])) + 1
        assert ps._use_dense(fa.size, fb.size, nbins, 2 * kmax + 1)
        dense = np.zeros(2 * kmax + 1, np.int64)
        sweep = np.zeros(2 * kmax + 1, np.int64)
        ps._pair_hist_dense(fa, fb, kmax, dense)
        ps._pair_hist_numpy(fa, fb, kmax, sweep)
        assert sweep.sum() > 10**6
        assert np.array_equal(dense, sweep)
        assert np.array_equal(g2_cross(a, b, width, kmax * width).counts,
                              sweep)

    @staticmethod
    def per_lag_dot_oracle(fa, fb, kmax):
        """One float64 dot product per lag of the whole streams' per-bin
        counts, exact below 2**53."""
        lo, hi = min(fa[0], fb[0]), max(fa[-1], fb[-1]) + 1
        nbins = int(hi - lo)
        ca = np.bincount(fa - lo, minlength=nbins).astype(np.float64)
        cb = np.zeros(nbins + 2 * kmax)
        cb[kmax:kmax + nbins] = np.bincount(fb - lo, minlength=nbins)
        return np.array([np.dot(ca, cb[j:j + nbins])
                         for j in range(2 * kmax + 1)]).astype(np.int64)

    def test_dense_matches_per_lag_dot_oracle(self):
        # criterion-9 shape (500 kHz laser light, 2.6 us bins, +-1 ms or
        # 771 lags) over 1 s: the matrix-product kernel against the oracle
        tr = simulate_intensity("laser", 5e5, 0.0, 1.0, 1e-3, seed=6)
        a, b = poissonize(tr, seed=7)
        width, kmax = 2.6e-6, 385
        fa = np.floor(a.timestamps / width).astype(np.int64)
        fb = np.floor(b.timestamps / width).astype(np.int64)
        nbins = int(max(fa[-1], fb[-1]) - min(fa[0], fb[0])) + 1
        assert ps._use_dense(fa.size, fb.size, nbins, 2 * kmax + 1)
        oracle = self.per_lag_dot_oracle(fa, fb, kmax)
        hist = np.zeros(2 * kmax + 1, np.int64)
        ps._pair_hist_dense(fa, fb, kmax, hist)
        assert oracle.sum() > 10**8
        assert np.array_equal(hist, oracle)

    def test_block_dtype_boundary(self):
        # float32 holds every integer up to 2**24 exactly
        assert ps._block_dtype(4095, 4097) is np.float32        # 2**24 - 1
        assert ps._block_dtype(1, 2**24 - 1) is np.float32
        assert ps._block_dtype(4096, 4096) is np.float64        # 2**24
        assert ps._block_dtype(2**24, 1) is np.float64

    @pytest.mark.parametrize("a_bins,a_each,b_each,dtype", [
        (241, 17, 4095, np.float32),    # 4097 x 4095 = 2**24 - 1
        (257, 97, 673, np.float64),     # 24929 x 673 = 2**24 + 1
    ], ids=["float32-below-2^24", "float64-above-2^24"])
    def test_dense_exact_at_the_float32_bound(self, a_bins, a_each, b_each,
                                              dtype):
        # one block: a_each a-clicks and b_each b-clicks in each of a_bins
        # bins five apart, so every a-click meets b_each b-clicks at lag 0
        # and one entry of the block's product, and h[0], reach the bound
        # a-clicks x max(c_b) exactly
        kmax = 2
        bins = 5 * np.arange(a_bins, dtype=np.int64)
        fa, fb = np.repeat(bins, a_each), np.repeat(bins, b_each)
        assert ps._block_dtype(fa.size, b_each) is dtype
        hist = np.zeros(2 * kmax + 1, np.int64)
        ps._pair_hist_dense(fa, fb, kmax, hist)
        expected = np.zeros_like(hist)
        expected[kmax] = fa.size * b_each
        assert np.array_equal(hist, expected)
        if dtype is np.float64:
            # float32 would have rounded the lag-0 count
            assert int(np.float32(expected[kmax])) != expected[kmax]
        assert np.array_equal(hist, self.per_lag_dot_oracle(fa, fb, kmax))
        sweep = np.zeros_like(hist)
        ps._pair_hist_numpy(fa, fb, kmax, sweep)
        assert np.array_equal(hist, sweep)

    def test_dense_scratch_memory_is_bounded(self):
        # 52001 lags on 1e4 clicks per detector: an untiled lag axis would
        # hold 512 x 52128 overlapping b rows and a 128 x 52128 product
        # (267 MB); tiles of 1024 lags hold 5.9 MB of them
        rng = np.random.default_rng(3)
        fa, fb = (np.sort(rng.choice(200_000, 10_000, replace=False))
                  for _ in range(2))
        kmax = 26_000
        hist = np.zeros(2 * kmax + 1, np.int64)
        tracemalloc.start()
        try:
            ps._pair_hist_dense(fa, fb, kmax, hist)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block's count vectors, a's and b's, as int64 and as float64,
        # and the float64 histogram accumulator
        counts = 2 * 8 * (2 * ps._DENSE_BLOCK + 2 * kmax) + 8 * hist.size
        assert peak < counts + 8 * 2**20
        sweep = np.zeros_like(hist)
        ps._pair_hist_numpy(fa, fb, kmax, sweep)
        assert np.array_equal(hist, sweep)

    def test_path_choice_from_sizes(self):
        # the rule sees sizes only; nothing here is allocated
        # g2-sparse shape: 2e5 clicks per detector, 1 ns bins over 2 s,
        # 52001 lags: ~1e3 pairs against 1e14 bin x lag cells
        assert not ps._use_dense(200_000, 200_000, 2 * 10**9, 52_001)
        # criterion-9 shape: 5.5e6 clicks per detector, 2.6 us bins over
        # 22 s, 771 lags
        assert ps._use_dense(5_500_000, 5_500_000, 8_461_539, 771)
        # 100 kHz per detector over 2 s at 2.6 us bins: measured 8 ms dense
        # against an 11 ms sweep at 3 lags (39 against 106 ms at 771); at
        # 87 ns bins, 30 times sparser, 0.23 s dense against a 9 ms sweep
        for lags in (3, 771):
            assert ps._use_dense(100_485, 100_485, 769_228, lags)
        assert not ps._use_dense(100_485, 100_485, 30 * 769_228, 3)
        # from Na * Nb = 2**53 on, float64 sums may round: the sweep runs,
        # however dense the clicks
        assert not ps._use_dense(2**27, 2**26, 1_000, 771)
        assert ps._use_dense(2**27, 2**26 - 1, 1_000, 771)

    def test_empty_stream_rejected(self, poisson_pair):
        a, _ = poisson_pair
        empty = ClickStream(1, np.array([]), 1.0)
        with pytest.raises(ValueError, match="empty"):
            g2_cross(a, empty, 1e-6, 1e-5)

    def test_unsorted_rejected(self, poisson_pair):
        a, b = poisson_pair
        broken = ClickStream(1, b.timestamps.copy(), b.duration)
        broken.timestamps[0] = broken.timestamps[5]  # break monotonicity
        with pytest.raises(ValueError, match="unsorted"):
            g2_cross(a, broken, 1e-6, 1e-5)

    def test_bad_windows_rejected(self, poisson_pair):
        a, b = poisson_pair
        with pytest.raises(ValueError):
            g2_cross(a, b, 0.0, 1e-5)
        with pytest.raises(ValueError):
            g2_cross(a, b, 1e-5, 1e-6)
        with pytest.raises(ValueError, match="stream duration"):
            g2_cross(a, b, 1e-9, 1e3)    # 2e12 lags: refused, not allocated
        with pytest.raises(ValueError, match="int64"):
            g2_cross(a, b, a.duration / 2.0**64, 1e-17)

    def test_total_pairs_counted(self, poisson_pair):
        a, b = poisson_pair
        r = g2_cross(a, b, 2.6e-6, 20e-6)
        assert r.total_pairs == int(r.counts.sum())
        assert r.total_pairs > 0

    @given(st.lists(st.floats(1e-3, 0.999), unique=True, min_size=2,
                    max_size=40),
           st.lists(st.floats(1e-3, 0.999), unique=True, min_size=2,
                    max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_symmetry_and_engine_equality_property(self, ta, tb):
        a = ClickStream(0, np.sort(np.array(ta)), 1.0)
        b = ClickStream(1, np.sort(np.array(tb)), 1.0)
        # brute-force oracle: every (a, b) pair whose quantized delay
        # lies within the +-kmax bin window; the default path and both
        # histogram kernels must meet it
        width = 0.01

        def oracle(kmax):
            hist = np.zeros(2 * kmax + 1, np.int64)
            for t_a in ta:
                for t_b in tb:
                    k = math.floor(t_b / width) - math.floor(t_a / width)
                    if abs(k) <= kmax:
                        hist[k + kmax] += 1
            return hist

        kmax = 5
        expected = oracle(kmax)
        r_ab = g2_cross(a, b, width, 0.05)
        r_ba = g2_cross(b, a, width, 0.05)
        assert np.array_equal(r_ab.counts, expected)
        fa = np.floor(a.timestamps / width).astype(np.int64)
        fb = np.floor(b.timestamps / width).astype(np.int64)
        for kernel in (ps._pair_hist_dense, ps._pair_hist_numpy):
            hist = np.zeros(2 * kmax + 1, np.int64)
            kernel(fa, fb, kmax, hist)
            assert np.array_equal(hist, expected), kernel.__name__
        # sweep chunks smaller than one click's pairs, and a few pairs wide
        for chunk in (1, 7):
            hist = np.zeros(2 * kmax + 1, np.int64)
            ps._pair_hist_numpy(fa, fb, kmax, hist, chunk=chunk)
            assert np.array_equal(hist, expected), chunk
        assert np.array_equal(r_ab.counts, r_ba.counts[::-1])
        # invariance under bin-preserving sharding
        r_sh = g2_cross(a, b, width, 0.05, shards=3)
        assert np.array_equal(r_ab.counts, r_sh.counts)
        # dense tilings: a block narrower than the lag window and than the
        # stream (3 bins); lag tiles narrower than the window, of one lag
        # and of lag counts that do not divide it (4 of 11, 64 of 141);
        # and at kmax = 70 rows of 128 bins, longer than the whole 100-bin
        # stream, with more lags than bins in a row
        block, tile = ps._DENSE_BLOCK, ps._DENSE_LAG_TILE
        for kmax, layouts in ((5, ((3, tile), (block, 1), (block, 4),
                                   (3, 4))),
                              (70, ((block, tile), (3, tile), (block, 64),
                                    (3, 64)))):
            expected = oracle(kmax)
            for blk, lag_tile in layouts:
                hist = np.zeros(2 * kmax + 1, np.int64)
                ps._pair_hist_dense(fa, fb, kmax, hist, block=blk,
                                    lag_tile=lag_tile)
                assert np.array_equal(hist, expected), (kmax, blk, lag_tile)


# ---------------------------------------------------------------------------
# Washout
# ---------------------------------------------------------------------------

class TestBinningWashout:
    def test_no_washout_limit(self):
        assert binning_washout(1.0, 1e-9) == pytest.approx(2.0, abs=1e-6)

    def test_full_washout_limit(self):
        assert binning_washout(1e-9, 1.0) == pytest.approx(1.0, abs=1e-6)

    @given(st.floats(-3, 3))
    @settings(max_examples=40)
    def test_monotone_decreasing_in_bin_width(self, log_ratio):
        tau_c = 1e-4
        width = tau_c * 10.0 ** log_ratio
        a = binning_washout(tau_c, width)
        b = binning_washout(tau_c, width * 1.5)
        assert 1.0 <= b <= a <= 2.0

    def test_small_bins_match_series(self):
        # g2_bin(0) = 1 + 2 sum_{k>=2} (-x)^(k-2) / k!; terms past k = 12
        # are below 1e-25 for x <= 1e-2
        for x in np.geomspace(2e-6, 1e-2, 41):
            series = 1.0 + 2.0 * math.fsum(
                (-x) ** (k - 2) / math.factorial(k) for k in range(2, 13))
            assert binning_washout(2.0 / x, 1.0) == \
                pytest.approx(series, rel=1e-9)

    def test_accurate_to_rounding(self):
        # against the alternating series summed exactly rounded by fsum; the
        # closed form alone loses up to log10(1/x) digits to cancellation
        worst = 0.0
        for x in np.geomspace(1e-12, 2.0, 400):
            x = 2.0 / (2.0 / x)      # the x that binning_washout forms
            series = 1.0 + 2.0 * math.fsum(
                (-x) ** (k - 2) / math.factorial(k) for k in range(2, 40))
            worst = max(worst, abs(binning_washout(2.0 / x, 1.0) - series))
        assert worst <= 2e-15

    def test_inversion_where_the_curve_is_flat(self):
        # near g2 = 2 a rounding error in g2 moves tau_c far: the root of
        # 2 - x/3 + x^2/12 - x^3/60 = 1.9999985 at 1 us bins, x = 2 us / tau_c
        d = 2.0 - 1.9999985
        x = 3.0 * d
        for _ in range(5):
            x = 3.0 * (d + x * x / 12.0 - x ** 3 / 60.0)
        assert invert_washout(1.9999985, 1e-6) == \
            pytest.approx(2e-6 / x, rel=1e-9)

    def test_inversion_round_trip(self):
        for target in (1.2, 1.6, 1.9):
            tau_c = invert_washout(target, 2.6e-6)
            assert binning_washout(tau_c, 2.6e-6) == \
                pytest.approx(target, abs=1e-6)

    @pytest.mark.parametrize("width", [1e-10, 1e-9, 2.6e-6, 1e-3])
    def test_inversion_exact_at_any_bin_width(self, width):
        # the root tolerance scales with the bin, not a fixed 2e-12 s
        for target in (1.2, 1.6, 1.9, 1.9999985):
            tau_c = invert_washout(target, width)
            assert binning_washout(tau_c, width) == \
                pytest.approx(target, abs=1e-12)

    def test_washout_consistency_with_correlator(self):
        # the full chain: invert the washout prediction for a 1.6 peak,
        # synthesize chaotic light at that coherence time, measure
        tau_c = invert_washout(1.6, 2.6e-6)
        assert tau_c == pytest.approx(2.93e-6, rel=1e-2)
        tr = simulate_intensity("thermal", 2e5, tau_c, 2.0, tau_c / 10,
                                seed=9)
        a, b = poissonize(tr, seed=10)
        r = g2_cross(a, b, 2.6e-6, 26e-6)
        assert r.g2[r.lags.size // 2] == pytest.approx(1.6, abs=0.1)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            binning_washout(0.0, 1e-6)
        with pytest.raises(ValueError):
            invert_washout(2.5, 1e-6)
        for width in (0.0, -1e-6):
            with pytest.raises(ConfigError, match="must be positive"):
                invert_washout(1.6, width)


# ---------------------------------------------------------------------------
# Click stream files
# ---------------------------------------------------------------------------

class TestClickFiles:
    def make_stream(self):
        tr = simulate_intensity("poisson", 5e4, 0.0, 1.0, 1e-3, seed=17)
        return poissonize(tr, seed=18)[0]

    def test_binary_round_trip(self, tmp_path):
        stream = self.make_stream()
        path = tmp_path / "det.clks"
        stored = write_clickstream(stream, path)
        back = read_clickstream(path)
        assert back.detector_id == stream.detector_id
        assert back.timestamps.size == stored
        # nanosecond quantization round-trips exactly
        ns = np.round(stream.timestamps * 1e9).astype(np.uint64)
        assert np.array_equal(np.round(back.timestamps * 1e9).astype(np.uint64),
                              ns)
        assert back.duration == pytest.approx(stream.duration, abs=1e-9)

    def test_binary_write_read_write_stable(self, tmp_path):
        stream = self.make_stream()
        p1, p2 = tmp_path / "a.clks", tmp_path / "b.clks"
        write_clickstream(stream, p1)
        write_clickstream(read_clickstream(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_sub_nanosecond_collision_dropped(self, tmp_path):
        stream = ClickStream(0, np.array([1e-9, 1.2e-9, 5e-9]), 1.0)
        path = tmp_path / "collide.clks"
        assert write_clickstream(stream, path) == 2

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.clks"
        path.write_bytes(b"JUNK" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_clickstream(path)

    def test_truncated_rejected(self, tmp_path):
        stream = self.make_stream()
        path = tmp_path / "trunc.clks"
        write_clickstream(stream, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - 16])
        with pytest.raises(ValueError, match="truncated"):
            read_clickstream(path)

    @pytest.mark.parametrize("count", [2**61, 2**64 - 1])
    def test_count_beyond_the_file_rejected(self, tmp_path, count):
        # the count is checked against the file's size before any read, so
        # no block of 8 * count bytes is asked for
        path = tmp_path / "huge.clks"
        write_clickstream(self.make_stream(), path)
        data = bytearray(path.read_bytes())
        data[12:20] = count.to_bytes(8, "little")    # the header's count
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"{path.name}: truncated"):
            read_clickstream(path)

    @pytest.mark.parametrize("tail", [b"\0", bytes(8), b"extra bytes"],
                             ids=["byte", "click", "text"])
    def test_bytes_after_the_timestamps_rejected(self, tmp_path, tail):
        path = tmp_path / "tail.clks"
        write_clickstream(self.make_stream(), path)
        with open(path, "ab") as fh:
            fh.write(tail)
        with pytest.raises(ValueError, match=f"{path.name}: {len(tail)} "
                           "bytes follow the timestamp block"):
            read_clickstream(path)

    def test_text_round_trip(self, tmp_path):
        stream = self.make_stream()
        path = tmp_path / "det.txt"
        write_clickstream_text(stream, path)
        back = read_clickstream_text(path, detector_id=stream.detector_id,
                                     duration=stream.duration)
        assert np.array_equal(back.timestamps, stream.timestamps)

    @pytest.mark.parametrize("clicks", [0, 1, 2500])
    def test_text_bytes_are_per_line_repr(self, tmp_path, clicks):
        stream = ClickStream(0, self.make_stream().timestamps[:clicks], 1.0)
        path = tmp_path / "det.txt"
        assert write_clickstream_text(stream, path) == clicks
        want = "".join(f"{float(t)!r}\n" for t in stream.timestamps)
        assert path.read_bytes() == want.encode()


def test_clickstream_validation():
    with pytest.raises(ValueError):
        ClickStream(0, np.array([0.2, 0.1]), 1.0)
    with pytest.raises(ValueError):
        ClickStream(0, np.array([0.1, 0.1]), 1.0)
    with pytest.raises(ValueError):
        ClickStream(0, np.array([0.5, 1.5]), 1.0)
