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
  3583 (2003) and Laurence et al., Opt. Lett. 31, 829 (2006)), as float64
  dot products over blocks of bins.  Every product and partial sum is an
  integer no larger than Na * Nb, so the result is exact in any summation
  order while Na * Nb < 2**53.  Cost O(bins x lags).
- sweep: a search of each a-click's lag window in the sorted b-stream,
  cost O(Na + Nb + pairs in the window).

A cost estimate picks between them (see :func:`_use_dense`); both give
the same integer counts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq
from scipy.signal import lfilter

from .errors import PhysicsError

# numba is not used; perfbench/worker.py still reports this flag.
_HAVE_NUMBA = False

REGIMES = ("thermal", "laser", "poisson")

_CLICKS_MAGIC = b"CLKS"
_CLICKS_VERSION = 1
_HEADER = struct.Struct("<4sIIQQ")


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


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
        if np.any(self.samples < 0):
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
            if np.any(np.diff(t) <= 0):
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


def simulate_intensity(regime: str, mean_rate: float, coherence_time: float,
                       duration: float, sample_period: float, seed: int,
                       laser_ripple: float = 1e-2) -> IntensityTrace:
    """Synthesize an intensity trace for one statistical regime.

    thermal: |alpha|^2 of a complex Ornstein-Uhlenbeck field with
    correlation time ``coherence_time``, stationary mean ``mean_rate``
    (ideal g2(0) = 2).  laser: constant rate with a relative rms ripple.
    poisson: constant rate.  The thermal regime insists on
    sample_period <= coherence_time / 10 and duration >= 100 * coherence
    times so the process is neither undersampled nor unconverged.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}")
    if mean_rate <= 0:
        raise PhysicsError("mean_rate must be positive")
    if sample_period <= 0 or duration <= 0:
        raise PhysicsError("sample_period and duration must be positive")
    n = int(round(duration / sample_period))
    if n < 1:
        raise PhysicsError("duration shorter than one sample period")

    if regime == "poisson":
        samples = np.full(n, mean_rate)
    elif regime == "laser":
        rng = _rng(seed)
        ripple = laser_ripple * rng.standard_normal(n)
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
        rng = _rng(seed)
        a = np.exp(-sample_period / coherence_time)
        sigma_field = np.sqrt(mean_rate)
        # exact AR(1) update of the complex field, stationary start
        noise = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
            * (sigma_field * np.sqrt((1.0 - a * a) / 2.0))
        start = (rng.standard_normal() + 1j * rng.standard_normal()) \
            * (sigma_field / np.sqrt(2.0))
        alpha = lfilter([1.0], [1.0, -a], noise, zi=np.array([a * start]))[0]
        samples = np.abs(alpha) ** 2
    return IntensityTrace(sample_period, samples, regime)


def poissonize(trace: IntensityTrace, seed: int) -> tuple:
    """Sample the trace as an inhomogeneous Poisson process, split 50/50.

    Photons are drawn per sample slot and placed uniformly inside it, then
    each click is routed independently to detector A or B (the two-counter
    beam-splitter arrangement).  Exact duplicate timestamps (possible at
    float resolution) are dropped to keep streams strictly increasing.
    """
    rng = _rng(seed)
    p = trace.sample_period
    counts = rng.poisson(trace.samples * p)
    total = int(counts.sum())
    starts = np.repeat(np.arange(trace.samples.size, dtype=np.float64) * p,
                       counts)
    times = np.sort(starts + rng.random(total) * p)
    keep = np.empty(times.size, bool)
    if times.size:
        keep[0] = True
        keep[1:] = np.diff(times) > 0.0
    times = times[keep]
    to_b = rng.random(times.size) < 0.5
    dur = trace.duration
    return (ClickStream(0, times[~to_b], dur), ClickStream(1, times[to_b], dur))


# ---------------------------------------------------------------------------
# Correlator
# ---------------------------------------------------------------------------

# Unit costs of the two kernels on laser-light streams at 500 kHz (2-vCPU
# x86-64 VM, one BLAS thread, numpy 2.4 with OpenBLAS 0.3): where pairs
# dominate, the sweep spends 10.8-13.4 ns per pair, the dense path
# 0.29-0.42 ns per bin x lag.  The sweep also pays per click, so the rule
# leans to the sweep near the boundary.
_SWEEP_NS_PER_PAIR = 12.0
_DENSE_NS_PER_BIN_LAG = 0.33
# Bins per dense block: the two count vectors of a block stay in L2.
_DENSE_BLOCK = 32_768


def _use_dense(na: int, nb: int, nbins: int, lags: int) -> bool:
    """Whether the dense path is exact and expected to beat the sweep.

    The sweep finds about Na * Nb * lags / nbins pairs, the dense path
    fills nbins * lags cells; with the unit costs above the dense path
    wins when nbins < sqrt(12 / 0.33 * Na * Nb), about 6.0 sqrt(Na * Nb).
    Exactness needs every float64 partial sum, at most Na * Nb, below
    2**53.
    """
    if na * nb >= 2**53:
        return False
    pairs = na * nb * lags / nbins
    return nbins * lags * _DENSE_NS_PER_BIN_LAG < pairs * _SWEEP_NS_PER_PAIR


def _pair_hist_dense(fa, fb, kmax, hist, block=_DENSE_BLOCK):
    """Add the delay histogram of ``fa`` against ``fb`` into ``hist`` from
    per-bin counts.

    a's bin range is walked in blocks of ``block`` bins.  Per block, a's
    counts c_a and b's counts c_b over the block widened by +-kmax give
    h[j] += c_a . c_b[j:j + m] for lag index j = k + kmax.  The caller
    guarantees Na * Nb < 2**53, which makes the float64 sums exact.
    """
    first, stop = int(fa[0]), int(fa[-1]) + 1
    edges = np.append(np.arange(first, stop, block), stop)
    ia = np.searchsorted(fa, edges)
    ib_lo = np.searchsorted(fb, edges[:-1] - kmax)
    ib_hi = np.searchsorted(fb, edges[1:] + kmax)
    acc = np.zeros(hist.size)
    for s in range(edges.size - 1):
        if ia[s] == ia[s + 1]:
            continue
        t0 = edges[s]
        m = int(edges[s + 1] - t0)
        ca = np.bincount(fa[ia[s]:ia[s + 1]] - t0,
                         minlength=m).astype(np.float64)
        cb = np.bincount(fb[ib_lo[s]:ib_hi[s]] - (t0 - kmax),
                         minlength=m + 2 * kmax).astype(np.float64)
        for j in range(hist.size):
            acc[j] += ca @ cb[j:j + m]
    hist += acc.astype(np.int64)


def _pair_hist_numpy(fa, fb, kmax, hist, chunk=500_000):
    """Add the delay histogram into ``hist`` by sweeping each a-click's lag
    window in ``fb``, chunked so the materialized pair index never exceeds
    ~chunk entries."""
    lo = np.searchsorted(fb, fa - kmax, side="left")
    hi = np.searchsorted(fb, fa + kmax, side="right")
    counts = hi - lo
    i0 = 0
    while i0 < fa.size:
        i1 = i0 + 1
        block = int(counts[i0])
        while i1 < fa.size and block + counts[i1] <= chunk:
            block += int(counts[i1])
            i1 += 1
        if block:
            # concatenated aranges [lo_i, hi_i) for the chunk
            c = counts[i0:i1]
            starts = np.repeat(np.cumsum(c) - c, c)
            idx = np.repeat(lo[i0:i1], c) + np.arange(block) - starts
            delta = fb[idx] - np.repeat(fa[i0:i1], c) + kmax
            hist += np.bincount(delta, minlength=hist.size).astype(np.int64)
        i0 = i1


def _pair_histogram(fa, fb, kmax, shards=1):
    """Histogram of quantized delays fb - fa within +-kmax bins.

    The dense path or the sweep is chosen once, by :func:`_use_dense`.
    Sharding splits the a-stream into contiguous chunks whose integer
    histograms are summed, so sharded and serial runs agree exactly.
    """
    lags = 2 * kmax + 1
    nbins = int(max(fa[-1], fb[-1]) - min(fa[0], fb[0])) + 1
    kernel = _pair_hist_dense if _use_dense(fa.size, fb.size, nbins, lags) \
        else _pair_hist_numpy
    shards = max(1, int(shards))
    bounds = np.linspace(0, fa.size, shards + 1).astype(np.int64)
    out = np.zeros(lags, np.int64)
    for s in range(shards):
        a = fa[bounds[s]:bounds[s + 1]]
        if a.size:
            kernel(a, fb, kmax, out)
    return out


def g2_cross(a: ClickStream, b: ClickStream, bin_width: float,
             max_lag: float, shards: int = 1,
             _exclude_self: bool = False) -> CorrelationResult:
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
        if np.any(np.diff(s.timestamps) <= 0):
            raise ValueError("unsorted click stream (refusing to sort silently)")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if max_lag < bin_width:
        raise ValueError("max_lag must be at least one bin")

    kmax = int(round(max_lag / bin_width))
    fa = np.floor(a.timestamps / bin_width).astype(np.int64)
    fb = np.floor(b.timestamps / bin_width).astype(np.int64)
    hist = _pair_histogram(fa, fb, kmax, shards=shards)
    if _exclude_self:
        hist[kmax] -= a.timestamps.size

    duration = min(a.duration, b.duration)
    k = np.arange(-kmax, kmax + 1)
    t_eff = duration - np.abs(k) * bin_width
    if np.any(t_eff <= 0):
        raise ValueError("max_lag exceeds the stream duration")
    rate_a = a.timestamps.size / duration
    rate_b = b.timestamps.size / duration
    norm = rate_a * rate_b * bin_width * t_eff
    g2 = hist / norm
    sigma = np.sqrt(np.maximum(hist, 1)) / norm
    return CorrelationResult(k * bin_width, g2, sigma, hist.copy(),
                             bin_width, int(hist.sum()))


def g2_auto(a: ClickStream, bin_width: float, max_lag: float,
            shards: int = 1) -> CorrelationResult:
    """Autocorrelation of one stream, zero-lag self-pairs excluded.

    The counts are those of :func:`g2_cross` of the stream with itself,
    less one self-pair per click at zero lag.
    """
    return g2_cross(a, a, bin_width, max_lag, shards=shards,
                    _exclude_self=True)


def binning_washout(coherence_time: float, bin_width: float) -> float:
    """Predicted zero-lag g2 of chaotic light after finite binning.

    Both photons of a pair are quantized to bins independently, so the
    ideal g2(tau) = 1 + exp(-2|tau|/tau_c) is averaged with a triangular
    kernel of full width 2*bin_width:

        g2_bin(0) = 1 + (2/x^2) (x - 1 + e^-x),   x = 2*bin_width/tau_c.

    Tends to 2 for vanishing bins and to 1 when the bin dwarfs the
    coherence time.
    """
    if coherence_time <= 0 or bin_width <= 0:
        raise ValueError("coherence_time and bin_width must be positive")
    x = 2.0 * bin_width / coherence_time
    if x < 1e-6:
        return 2.0 - x / 3.0
    return 1.0 + 2.0 * (x - 1.0 + np.exp(-x)) / (x * x)


def invert_washout(target_g2: float, bin_width: float) -> float:
    """Coherence time at which binning washes the thermal peak to target."""
    if not 1.0 < target_g2 < 2.0:
        raise ValueError("target g2(0) must be strictly between 1 and 2")
    return brentq(lambda tc: binning_washout(tc, bin_width) - target_g2,
                  bin_width * 1e-6, bin_width * 1e6, rtol=1e-13)


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
        keep[1:] = np.diff(ns.astype(np.int64)) > 0
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
    """Plain-text format: one timestamp in seconds per line."""
    with open(path, "w") as fh:
        for t in stream.timestamps:
            fh.write(f"{float(t)!r}\n")


def read_clickstream_text(path, detector_id: int = 0,
                          duration: float | None = None) -> ClickStream:
    times = np.loadtxt(path, ndmin=1, dtype=np.float64)
    if duration is None:
        duration = float(times[-1]) if times.size else 1.0
    return ClickStream(detector_id, times, duration)
