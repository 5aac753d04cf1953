import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st
from scipy import constants as sc
from scipy.optimize import minimize_scalar

from motlaser import gain, geometry
from motlaser.errors import (CalibrationError, NoThresholdError,
                             QuantizationAxisError, SolverError)
from motlaser.gain import (CalibrationConstants, LaserSystem, OperatingPoint,
                           calibrate, detuning_map, mode_gain, optimum_scan,
                           output_power, steady_state, threshold_solve,
                           two_photon_resonance)


@pytest.fixture(scope="module")
def system():
    return LaserSystem()


@pytest.fixture(scope="module")
def op():
    return OperatingPoint()


@pytest.fixture(scope="module")
def calib(system, op):
    return calibrate(system, op)


KAPPA = LaserSystem().cavity.kappa


# ---------------------------------------------------------------------------
# Two-photon resonance
# ---------------------------------------------------------------------------

class TestTwoPhotonResonance:
    def test_blue_lobe(self):
        assert two_photon_resonance(5e6, -35e6) == pytest.approx(-30e6)

    def test_red_lobe(self):
        assert two_photon_resonance(-5e6, -35e6) == pytest.approx(-40e6)

    @given(st.floats(-50e6, 50e6), st.floats(-50e6, 0.0), st.floats(-5e6, 5e6))
    def test_linear_in_both(self, dp, dmot, shift):
        base = two_photon_resonance(dp, dmot)
        assert two_photon_resonance(dp, dmot + shift) == \
            pytest.approx(base + shift, abs=1e-3)
        assert two_photon_resonance(0.0, dmot) == dmot


# ---------------------------------------------------------------------------
# Gain structure
# ---------------------------------------------------------------------------

class TestModeGain:
    def test_sigma_plus_dominates_at_blue_lobe(self, system, op, calib):
        g = mode_gain(op, 0, system, calib)
        others = max(g.per_channel[-1], g.per_channel[0])
        assert g.per_channel[1] >= 10 * others

    def test_axial_pi_pumping_gives_no_gain(self, system, op, calib):
        dead = replace(op, pump_polarization=geometry.jones_linear(0.0))
        g = mode_gain(dead, 0, system, calib)
        assert g.total == 0.0

    def test_no_trap_light_no_gain(self, system, op, calib):
        g = mode_gain(replace(op, mot_saturation=0.0), 0, system, calib)
        assert g.total == 0.0

    def test_zero_field_rejected(self, system, op, calib):
        with pytest.raises(QuantizationAxisError):
            mode_gain(replace(op, b_offset=(0.0, 0.0, 0.0)), 0, system, calib)

    def test_shift_invariance(self, system, op, calib):
        # shifting pump and cavity detunings together with the Zeeman
        # shifts leaves the gain unchanged (two-photon structure)
        a = 3.7e6
        b_mag = np.linalg.norm(op.b_offset)
        shift_scale = (b_mag + a / gain.atomics.zeeman_shift(
            system.green.lande_g_upper, 1, 1.0)) / b_mag
        moved = replace(op, pump_detuning=op.pump_detuning + a,
                        cavity_detuning=op.cavity_detuning + a,
                        b_offset=tuple(np.asarray(op.b_offset) * shift_scale))
        g0 = mode_gain(op, 0, system, calib)
        g1 = mode_gain(moved, 0, system, calib)
        # the sigma+ channel sees identical detunings in both settings
        assert g1.per_channel[1] == pytest.approx(g0.per_channel[1], rel=1e-12)

    def test_cavity_argmax_on_two_photon_resonance(self, system, op, calib):
        center = two_photon_resonance(op.pump_detuning, op.mot_detuning)

        def neg_gain(dc):
            return -mode_gain(replace(op, cavity_detuning=dc), 0, system,
                              calib).total

        res = minimize_scalar(neg_gain, method="bounded",
                              bounds=(center - 30e6, center + 30e6),
                              options={"xatol": 0.1})
        assert abs(res.x - center) < 1e3

    def test_kernel_at_new_pump_power_bit_for_bit(self, system, op, calib):
        pump = np.linspace(-10e6, 10e6, 21)[:, None]
        cavity = np.linspace(-60e6, 0.0, 31)[None, :]
        base = gain._GainKernel(op, (0, 37), system, calib)
        for power in (0.0, 3e-6, 4e-3, 0.2):
            fresh = gain._GainKernel(replace(op, pump_power=power), (0, 37),
                                     system, calib)
            reused = base.with_pump_power(power)
            assert np.array_equal(reused.gains(pump, cavity),
                                  fresh.gains(pump, cavity))
        with pytest.raises(ValueError):
            base.with_pump_power(-1e-3)

    def test_gain_vanishes_far_from_resonance(self, system, op, calib):
        far = replace(op, cavity_detuning=op.cavity_detuning + 5e9)
        assert mode_gain(far, 0, system, calib).total < \
            1e-4 * mode_gain(op, 0, system, calib).total

    def test_nonnegative_over_random_detunings(self, system, op, calib):
        rng = np.random.default_rng(3)
        for _ in range(25):
            probe = replace(op, pump_detuning=rng.uniform(-30e6, 30e6),
                            cavity_detuning=rng.uniform(-80e6, 20e6))
            assert mode_gain(probe, 0, system, calib).total >= 0.0


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

class TestCalibrate:
    def test_gain_scale_positive(self, calib):
        assert calib.gain_scale > 0.0
        assert calib.n_sat > 0.0

    def test_uncalibrated_gain_order_of_magnitude(self, system, op):
        # sanity bound: before fitting, the reference-point gain should
        # already sit within a factor 10 of the cavity loss
        anchor = replace(gain.reference_operating_point(op, system),
                         total_atoms=5000.0)
        g = mode_gain(anchor, 0, system, CalibrationConstants()).total
        assert KAPPA / 10 <= g <= KAPPA * 10

    def test_threshold_reproduces_anchor(self, system, op, calib):
        anchor = gain.reference_operating_point(op, system)
        th = threshold_solve("atoms", anchor, system, calib)
        assert abs(th - 5000.0) <= 1.0

    def test_bad_reference_rejected(self, system, op):
        with pytest.raises(CalibrationError):
            calibrate(system, op, reference_atoms=-5.0)
        with pytest.raises(CalibrationError):
            # no gain at all without the trap drive
            calibrate(system, replace(op, mot_saturation=0.0))

    def test_anchor_ignores_scan_polarization(self, system, op, calib):
        # calibration describes the apparatus: scan knobs such as the
        # pump polarization must not shift the constants
        rotated = replace(op, pump_polarization=geometry.jones_linear(0.0),
                          pump_power=1e-3)
        again = calibrate(system, rotated)
        assert again.gain_scale == pytest.approx(calib.gain_scale, rel=1e-12)
        assert again.n_sat == pytest.approx(calib.n_sat, rel=1e-12)


# ---------------------------------------------------------------------------
# Thresholds
# ---------------------------------------------------------------------------

class TestThresholds:
    def test_polarization_power_ratios(self, system, op, calib):
        p90 = threshold_solve("pump_power",
                              replace(op, pump_polarization=geometry.jones_linear(90)),
                              system, calib)
        p45 = threshold_solve("pump_power",
                              replace(op, pump_polarization=geometry.jones_linear(45)),
                              system, calib)
        pm45 = threshold_solve("pump_power",
                               replace(op, pump_polarization=geometry.jones_linear(-45)),
                               system, calib)
        pcirc = threshold_solve("pump_power",
                                replace(op, pump_polarization=geometry.jones_circular(1)),
                                system, calib)
        assert p45 / p90 == pytest.approx(2.0, abs=1e-6)
        assert pm45 / p90 == pytest.approx(2.0, abs=1e-6)
        assert pcirc / p90 == pytest.approx(2.0, abs=1e-6)

    def test_axial_pi_pumping_never_lases(self, system, op, calib):
        with pytest.raises(NoThresholdError):
            threshold_solve("pump_power",
                            replace(op, pump_polarization=geometry.jones_linear(0)),
                            system, calib)

    def test_fundamental_before_higher_family(self, system, op, calib):
        p0 = threshold_solve("pump_power", op, system, calib, family=0)
        p37 = threshold_solve("pump_power", op, system, calib, family=37)
        assert p0 < p37

    def test_atom_threshold_closed_form_matches_bisection(self, system, op,
                                                          calib):
        # the bisection the closed form replaced is the reference: bracket
        # expansion by 4x, then halving until hi - lo <= 1e-9 hi
        anchor = gain.reference_operating_point(op, system)

        def excess(x):
            return mode_gain(replace(anchor, total_atoms=x), 0, system,
                             calib).total - KAPPA

        lo, hi = 1.0, max(anchor.total_atoms, 10.0)
        while excess(hi) < 0.0:
            hi *= 4.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if excess(mid) >= 0.0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-9 * hi:
                break
        bisected = 0.5 * (lo + hi)
        got = threshold_solve("atoms", anchor, system, calib)
        assert got == pytest.approx(bisected, rel=1e-9)

    def test_pump_threshold_matches_per_step_kernels(self, system, op,
                                                     calib):
        # the bisection as it ran before the kernel was reused, with a
        # fresh mode_gain on every step, is the reference: same value
        def excess(x):
            return mode_gain(replace(op, pump_power=x), 37, system,
                             calib).total - KAPPA

        lo, hi = 1e-12, op.pump_power
        while excess(hi) < 0.0:
            hi *= 4.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if excess(mid) >= 0.0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-9 * hi:
                break
        got = threshold_solve("pump_power", op, system, calib, family=37)
        assert got == 0.5 * (lo + hi)

    def test_atom_threshold_outside_range(self, system, op, calib):
        anchor = gain.reference_operating_point(op, system)
        with pytest.raises(NoThresholdError, match="already exceeds"):
            threshold_solve("atoms", anchor, system, calib, lo=6000.0)
        # 3e-9 of the trap drive moves the threshold to 5e12 atoms
        weak = replace(anchor, mot_saturation=3e-9)
        with pytest.raises(NoThresholdError, match="up to 1e\\+12"):
            threshold_solve("atoms", weak, system, calib)
        dead = replace(anchor, pump_polarization=geometry.jones_linear(0.0))
        with pytest.raises(NoThresholdError, match="up to 1e\\+12"):
            threshold_solve("atoms", dead, system, calib)

    def test_unknown_vary_rejected(self, system, op, calib):
        with pytest.raises(ValueError):
            threshold_solve("temperature", op, system, calib)


# ---------------------------------------------------------------------------
# Steady state
# ---------------------------------------------------------------------------

def quadratic_oracle(g, kappa, n_sat):
    # independent closed form of (G/(1+n/n_sat) - kappa) n + G = 0
    a = kappa / n_sat
    b = kappa - g - g / n_sat
    c = -g
    return (-b + np.sqrt(b * b - 4 * a * c)) / (2 * a)


class TestSteadyState:
    def test_single_family_against_quadratic_oracle(self, calib):
        for g_over_k in (0.3, 0.9, 1.5, 2.0, 10.0, 500.0):
            sol = gain._steady_state_from_gains({0: g_over_k * KAPPA}, KAPPA,
                                                calib.n_sat)
            oracle = quadratic_oracle(g_over_k * KAPPA, KAPPA, calib.n_sat)
            assert sol.photons[0] == pytest.approx(oracle, rel=1e-9)

    def test_twice_threshold_reaches_saturation_number(self, calib):
        sol = gain._steady_state_from_gains({0: 2 * KAPPA}, KAPPA, calib.n_sat)
        assert sol.photons[0] == pytest.approx(calib.n_sat, rel=1e-3)

    def test_half_threshold_is_one_photon(self, calib):
        sol = gain._steady_state_from_gains({0: KAPPA / 2}, KAPPA, calib.n_sat)
        assert sol.photons[0] == pytest.approx(1.0, abs=1e-4)

    def test_multi_family_fixed_point_residuals(self, calib):
        gains = {0: 4.0 * KAPPA, 37: 3.0 * KAPPA, 74: 1.2 * KAPPA,
                 111: 0.4 * KAPPA}
        sol = gain._steady_state_from_gains(gains, KAPPA, calib.n_sat)
        s = sum(sol.photons.values()) / calib.n_sat
        assert s == pytest.approx(sol.saturation, rel=1e-9)
        for n, g in gains.items():
            n_i = sol.photons[n]
            residual = (g / (1 + s) - KAPPA) * n_i + g
            assert abs(residual) <= 1e-9 * max(KAPPA * n_i, g)

    def test_lasing_set_grows_with_pump(self, system, op, calib):
        families = (0, 37)
        p0 = threshold_solve("pump_power", op, system, calib, family=0)
        p37 = threshold_solve("pump_power", op, system, calib, family=37)
        sets = []
        for power in (0.5 * p0, 0.5 * (p0 + p37), 2.0 * p37):
            sol = steady_state(replace(op, pump_power=power), families,
                               system, calib)
            sets.append(sol.lasing_families)
        assert sets == [(), (0,), (0, 37)]

    def test_pump_power_steady_states_bit_for_bit(self, system, op, calib):
        families = (0, 37, 74)
        powers = np.concatenate([np.linspace(1e-6, 1e-3, 5),
                                 np.geomspace(2e-3, 50e-3, 4)])
        got = gain.pump_power_steady_states(op, powers, families, system,
                                            calib)
        for power, sol in zip(powers, got):
            assert sol == steady_state(replace(op, pump_power=power),
                                       families, system, calib)

    def test_photon_number_monotone_in_atoms(self, system, op, calib):
        totals = []
        for atoms in np.linspace(2e3, 4e4, 8):
            sol = steady_state(replace(op, total_atoms=atoms), (0,), system,
                               calib)
            totals.append(sol.total_photons)
        assert np.all(np.diff(totals) > 0)

    def test_threshold_kink(self, calib):
        def n_of(g_over_k):
            return gain._steady_state_from_gains(
                {0: g_over_k * KAPPA}, KAPPA, calib.n_sat).photons[0]

        below_slope = n_of(0.90) - n_of(0.88)
        above_slope = n_of(1.12) - n_of(1.10)
        assert above_slope / below_slope > 100
        # continuity across the threshold
        assert abs(n_of(1.0001) - n_of(0.9999)) < 0.01 * calib.n_sat

    def test_negative_gain_rejected(self, calib):
        with pytest.raises(ValueError):
            gain._steady_state_from_gains({0: -1.0}, KAPPA, calib.n_sat)

    def test_non_finite_gain_is_solver_error(self, calib):
        for bad in (np.inf, np.nan):
            with pytest.raises(SolverError):
                gain._steady_state_from_gains({0: KAPPA, 37: bad}, KAPPA,
                                              calib.n_sat)


EPS = np.finfo(float).eps


def _fixed_point_slope(g, s, n_sat):
    # f'(S) = 1 + sum_i n_i^2 / ((1 + S)^2 n_sat)
    n = g / (KAPPA - g / (1.0 + s))
    return 1.0 + float(np.sum(n * n)) / ((1.0 + s) ** 2 * n_sat)


@st.composite
def _gain_batches(draw):
    """(gains of shape (families, batch), n_sat): G/kappa in [1e-6, 1e6],
    1-4 families, n_sat in [1, 1e8]."""
    families = draw(st.integers(1, 4))
    batch = draw(st.integers(1, 5))
    exponent = st.floats(-6.0, 6.0, allow_nan=False)
    logs = draw(st.lists(st.lists(exponent, min_size=batch, max_size=batch),
                         min_size=families, max_size=families))
    n_sat = 10.0 ** draw(st.floats(0.0, 8.0))
    return KAPPA * 10.0 ** np.array(logs), n_sat


class TestSaturationSolver:
    """Properties of the elementwise Newton solve over wide ranges."""

    @settings(max_examples=150, deadline=None)
    @given(_gain_batches())
    def test_array_solve_equals_scalar_solves(self, case):
        g, n_sat = case
        batch = gain._saturation(g, KAPPA, n_sat)
        for b in range(g.shape[1]):
            sol = gain._steady_state_from_gains(dict(enumerate(g[:, b])),
                                                KAPPA, n_sat)
            assert batch[b] == sol.saturation
            assert float(gain._saturation(g[:, b], KAPPA, n_sat)) == \
                sol.saturation

    @settings(max_examples=150, deadline=None)
    @given(_gain_batches())
    def test_residual_bounds(self, case):
        g, n_sat = case
        for b in range(g.shape[1]):
            sol = gain._steady_state_from_gains(dict(enumerate(g[:, b])),
                                                KAPPA, n_sat)
            s = sol.saturation
            # each family's rate equation, to two roundings of G
            for k, g_k in enumerate(g[:, b]):
                n_k = sol.photons[k]
                residual = (g_k / (1.0 + s) - KAPPA) * n_k + g_k
                assert abs(residual) <= 2.3e-16 * max(KAPPA * n_k, g_k)
            # S = sum(n)/n_sat: the Newton correction left at S is within
            # 8 roundings of 1 + S
            f = s - sum(sol.photons.values()) / n_sat
            slope = _fixed_point_slope(g[:, b], s, n_sat)
            assert abs(f) / slope <= 8.0 * EPS * (1.0 + s)

    @settings(max_examples=150, deadline=None)
    @given(_gain_batches(), st.integers(0, 3), st.floats(1e-3, 10.0))
    def test_photon_number_monotone_in_each_gain(self, case, which, grow):
        g, n_sat = case
        k = which % g.shape[0]
        base = dict(enumerate(g[:, 0]))
        more = dict(base)
        more[k] = base[k] * (1.0 + grow)
        before = gain._steady_state_from_gains(base, KAPPA, n_sat)
        after = gain._steady_state_from_gains(more, KAPPA, n_sat)
        assert after.photons[k] >= before.photons[k]
        # the total n_sat * S, to the solver's precision
        s0 = before.saturation
        assert after.saturation >= s0 - 16.0 * EPS * (1.0 + s0)


class TestOutputPower:
    cavity = LaserSystem().cavity

    def test_zero(self):
        assert output_power(0.0, self.cavity) == 0.0

    def test_budget_value(self):
        # eta * n * kappa * h c / lambda with the documented numbers
        oracle = 0.05 * 6e5 * KAPPA * sc.h * sc.c / 556e-9
        got = output_power(6e5, self.cavity)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(4.71e-9, rel=1e-2)

    def test_linear(self):
        assert output_power(2e5, self.cavity) == \
            pytest.approx(2 * output_power(1e5, self.cavity), rel=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            output_power(-1.0, self.cavity)


# ---------------------------------------------------------------------------
# Maps and scans
# ---------------------------------------------------------------------------

class TestDetuningMap:
    def test_two_lobes_on_coarse_grid(self, system, op, calib):
        pump = np.arange(-10e6, 10e6 + 1, 1e6)
        cav = np.arange(-60e6, 0.0 + 1, 2e6)
        m = detuning_map(op, system, calib, pump, cav)
        lobes = m.lobes()
        assert len(lobes) == 2
        centers = sorted((p, c) for p, c, _ in lobes)
        assert centers[0][0] == pytest.approx(-5e6, abs=1e6)
        assert centers[0][1] == pytest.approx(-40e6, abs=2e6)
        assert centers[1][0] == pytest.approx(5e6, abs=1e6)
        assert centers[1][1] == pytest.approx(-30e6, abs=2e6)

    def test_axial_pi_pumping_empty_map(self, system, op, calib):
        dead = replace(op, pump_polarization=geometry.jones_linear(0.0))
        pump = np.arange(-8e6, 8e6 + 1, 2e6)
        cav = np.arange(-50e6, -10e6 + 1, 5e6)
        m = detuning_map(dead, system, calib, pump, cav)
        assert not m.lasing_any.any()
        assert m.ok.all()

    def test_solver_failure_marks_cell_missing(self, system, op, calib,
                                               monkeypatch):
        real = gain._saturation
        calls = {"count": 0}

        def flaky(gains, kappa, n_sat):
            calls["count"] += 1
            s_tot = real(gains, kappa, n_sat)
            s_tot[1, 1] = np.nan       # the solve of cell (5, -30) MHz fails
            return s_tot

        monkeypatch.setattr(gain, "_saturation", flaky)
        pump = np.array([4e6, 5e6])
        cav = np.array([-31e6, -30e6])
        m = detuning_map(op, system, calib, pump, cav)
        assert calls["count"] == 1
        assert not m.ok[1, 1] and np.isnan(m.total_power[1, 1])
        assert not m.lasing_any[1, 1]
        for n in (0, 37, 74, 111):
            assert np.isnan(m.family_powers[n][1, 1])
            assert not m.family_lasing[n][1, 1]
        assert m.ok[0, 0] and m.ok[0, 1] and m.ok[1, 0]
        assert np.isfinite(m.total_power[[0, 0, 1], [0, 1, 0]]).all()

    def test_cells_equal_steady_state_bit_for_bit(self, system, op, calib):
        families = (0, 37, 74, 111)
        pump = np.array([-8e6, 4e6, 5e6])
        cav = np.array([-31e6, -30e6, -10e6])
        m = detuning_map(op, system, calib, pump, cav, families)
        assert m.lasing_any.any() and not m.lasing_any.all()
        cavity, wavelength = system.cavity, system.green.wavelength
        for i, dp in enumerate(pump):
            for j, dc in enumerate(cav):
                sol = steady_state(replace(op, pump_detuning=dp,
                                           cavity_detuning=dc),
                                   families, system, calib)
                assert m.ok[i, j]
                assert m.total_power[i, j] == sum(
                    output_power(n, cavity, wavelength)
                    for n in sol.photons.values())
                assert m.lasing_any[i, j] == bool(sol.lasing_families)
                for n in families:
                    assert m.family_powers[n][i, j] == output_power(
                        sol.photons[n], cavity, wavelength)
                    assert m.family_lasing[n][i, j] == sol.lasing[n]


class TestOptimumScan:
    def test_trap_detuning_slope_unity(self, system, op, calib):
        scan = optimum_scan("mot_detuning", np.array([-40e6, -30e6, -20e6]),
                            op, system, calib)
        assert scan.slope == pytest.approx(1.0, abs=1e-3)

    def test_field_slope_follows_lande_factor(self, system, op, calib):
        scan = optimum_scan("b_offset_magnitude", np.array([2.0, 3.0, 4.0]),
                            op, system, calib)
        assert scan.slope == pytest.approx(2.10e6, rel=0.01)

    def test_pump_optimum_independent_of_trap_detuning(self, system, op,
                                                       calib):
        scan = optimum_scan("mot_detuning", np.array([-40e6, -28e6, -20e6]),
                            op, system, calib)
        pumps = np.array([p.pump_opt for p in scan.valid_points])
        fit = np.polyfit(np.array([p.x for p in scan.valid_points]), pumps, 1)
        assert abs(fit[0]) < 1e-3

    def test_dark_points_marked_missing(self, system, op, calib):
        dark = replace(op, total_atoms=10.0)  # far below threshold
        scan = optimum_scan("mot_detuning", np.array([-36e6, -30e6]), dark,
                            system, calib)
        assert all(p.pump_opt is None for p in scan.points)
        assert np.isnan(scan.slope)
