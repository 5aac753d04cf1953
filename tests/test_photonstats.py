import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motlaser import photonstats as ps
from motlaser.errors import PhysicsError
from motlaser.photonstats import (ClickStream, IntensityTrace,
                                  binning_washout, g2_auto, g2_cross,
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

    def test_bad_regime_and_rate(self):
        with pytest.raises(ValueError):
            simulate_intensity("chaos", 1e5, 1e-4, 1.0, 1e-5, seed=0)
        with pytest.raises(PhysicsError):
            simulate_intensity("poisson", -1.0, 0.0, 1.0, 1e-3, seed=0)

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

    def test_auto_matches_cross_within_noise(self):
        tr = simulate_intensity("thermal", 2e5, 1e-4, 4.0, 1e-5, seed=21)
        a, b = poissonize(tr, seed=22)
        merged = ClickStream(0, np.sort(np.concatenate(
            [a.timestamps, b.timestamps])), a.duration)
        r_auto = g2_auto(merged, 1e-5, 30e-5)
        r_cross = g2_cross(a, b, 1e-5, 30e-5)
        z = np.abs(r_auto.g2 - r_cross.g2) \
            / np.sqrt(r_auto.sigma**2 + r_cross.sigma**2)
        assert z.max() < 4.0

    def test_sharded_runs_bit_identical(self, poisson_pair):
        a, b = poisson_pair
        serial = g2_cross(a, b, 2.6e-6, 100e-6)
        for shards in (2, 4, 7):
            sharded = g2_cross(a, b, 2.6e-6, 100e-6, shards=shards)
            assert np.array_equal(serial.counts, sharded.counts)
            assert np.array_equal(serial.g2, sharded.g2)
            assert np.array_equal(serial.sigma, sharded.sigma)

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

    def test_path_choice_from_sizes(self):
        # the rule sees sizes only; nothing here is allocated
        # g2-sparse shape: 2e5 clicks per detector, 1 ns bins over 2 s,
        # 52001 lags: ~1e3 pairs against 1e14 bin x lag cells
        assert not ps._use_dense(200_000, 200_000, 2 * 10**9, 52_001)
        # criterion-9 shape: 5.5e6 clicks per detector, 2.6 us bins over
        # 22 s, 771 lags
        assert ps._use_dense(5_500_000, 5_500_000, 8_461_539, 771)
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
        # lies within the +-5 bin window; the default path and both
        # histogram kernels must meet it
        width, kmax = 0.01, 5
        oracle = np.zeros(2 * kmax + 1, np.int64)
        for t_a in ta:
            for t_b in tb:
                k = math.floor(t_b / width) - math.floor(t_a / width)
                if abs(k) <= kmax:
                    oracle[k + kmax] += 1
        r_ab = g2_cross(a, b, width, 0.05)
        r_ba = g2_cross(b, a, width, 0.05)
        assert np.array_equal(r_ab.counts, oracle)
        fa = np.floor(a.timestamps / width).astype(np.int64)
        fb = np.floor(b.timestamps / width).astype(np.int64)
        for kernel in (ps._pair_hist_dense, ps._pair_hist_numpy):
            hist = np.zeros(2 * kmax + 1, np.int64)
            kernel(fa, fb, kmax, hist)
            assert np.array_equal(hist, oracle), kernel.__name__
        # a dense block narrower than the lag window and than the stream
        hist = np.zeros(2 * kmax + 1, np.int64)
        ps._pair_hist_dense(fa, fb, kmax, hist, block=3)
        assert np.array_equal(hist, oracle)
        assert np.array_equal(r_ab.counts, r_ba.counts[::-1])
        # invariance under bin-preserving sharding
        r_sh = g2_cross(a, b, width, 0.05, shards=3)
        assert np.array_equal(r_ab.counts, r_sh.counts)


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

    def test_inversion_round_trip(self):
        for target in (1.2, 1.6, 1.9):
            tau_c = invert_washout(target, 2.6e-6)
            assert binning_washout(tau_c, 2.6e-6) == \
                pytest.approx(target, abs=1e-6)

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

    def test_text_round_trip(self, tmp_path):
        stream = self.make_stream()
        path = tmp_path / "det.txt"
        write_clickstream_text(stream, path)
        back = read_clickstream_text(path, detector_id=stream.detector_id,
                                     duration=stream.duration)
        assert np.array_equal(back.timestamps, stream.timestamps)


def test_clickstream_validation():
    with pytest.raises(ValueError):
        ClickStream(0, np.array([0.2, 0.1]), 1.0)
    with pytest.raises(ValueError):
        ClickStream(0, np.array([0.1, 0.1]), 1.0)
    with pytest.raises(ValueError):
        ClickStream(0, np.array([0.5, 1.5]), 1.0)
